// Fixture-corpus suite for adsec_lint: every shipped rule is proven in
// both directions (the *_bad fixture trips exactly that rule, the *_ok
// fixture stays clean), the suppression machinery is exercised through a
// real file, and the repo tree itself must scan clean — which makes the
// determinism contracts part of tier-1 ctest, not just the CI lint job.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "../telemetry/json_check.hpp"
#include "lint.hpp"

namespace adsec::lint {
namespace {

std::string fixture_path(const std::string& name) {
  return std::string(ADSEC_LINT_FIXTURES) + "/" + name;
}

std::string read_fixture(const std::string& name) {
  std::ifstream in(fixture_path(name), std::ios::binary);
  EXPECT_TRUE(in) << "missing fixture " << name;
  std::ostringstream ss;
  ss << in.rdbuf();
  return std::move(ss).str();
}

// Lint a fixture as if it lived at tests/lint/fixtures/<name> — the same
// repo-relative path the CLI sees when CI points it at a fixture file.
std::vector<Finding> lint_fixture(const std::string& name,
                                  int* suppressed = nullptr) {
  return lint_source("tests/lint/fixtures/" + name, read_fixture(name),
                     suppressed);
}

void expect_only_rule(const std::vector<Finding>& findings, const char* rule,
                      std::size_t count) {
  EXPECT_EQ(findings.size(), count);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, rule) << f.file << ":" << f.line << " " << f.message;
  }
}

struct FixturePair {
  const char* rule;
  const char* bad;
  std::size_t bad_count;
  const char* ok;
};

const FixturePair kPairs[] = {
    {"nondeterminism", "nondeterminism_bad.cpp", 4, "nondeterminism_ok.cpp"},
    {"unordered-container", "unordered_container_bad.cpp", 1,
     "unordered_container_ok.cpp"},
    {"io-hygiene", "io_hygiene_bad.cpp", 4, "io_hygiene_ok.cpp"},
    {"alloc-hygiene", "alloc_hygiene_bad.cpp", 5, "alloc_hygiene_ok.cpp"},
    {"nodiscard-result", "nodiscard_result_bad.hpp", 2,
     "nodiscard_result_ok.hpp"},
    {"orchestrator-atomic-write", "orchestrator_write_bad.cpp", 5,
     "orchestrator_write_ok.cpp"},
    {"span-name", "span_name_bad.cpp", 4, "span_name_ok.cpp"},
    {"include-iostream-in-header", "include_iostream_bad.hpp", 1,
     "include_iostream_ok.hpp"},
    {"intrinsics-isolation", "simd_isolation_bad.cpp", 4,
     "simd_isolation_ok_avx2.cpp"},
    {"unguarded-mutex", "unguarded_mutex_bad.hpp", 2, "unguarded_mutex_ok.hpp"},
    {"lock-order", "lock_order_bad.cpp", 1, "lock_order_ok.cpp"},
    {"lock-held-blocking", "lock_blocking_bad.cpp", 4, "lock_blocking_ok.cpp"},
    {"include-cycle", "include_cycle_bad.hpp", 1, "include_cycle_ok.hpp"},
};

TEST(LintFixtures, EveryRuleHasAPositiveAndNegativeFixture) {
  std::set<std::string> covered;
  for (const FixturePair& p : kPairs) covered.insert(p.rule);
  for (const RuleDesc& r : rule_table()) {
    EXPECT_TRUE(covered.count(r.name)) << "rule without fixtures: " << r.name;
  }
  EXPECT_EQ(covered.size(), rule_table().size());
}

TEST(LintFixtures, PositiveFixturesTripExactlyTheirRule) {
  for (const FixturePair& p : kPairs) {
    SCOPED_TRACE(p.bad);
    expect_only_rule(lint_fixture(p.bad), p.rule, p.bad_count);
  }
}

TEST(LintFixtures, NegativeFixturesAreClean) {
  for (const FixturePair& p : kPairs) {
    SCOPED_TRACE(p.ok);
    EXPECT_TRUE(lint_fixture(p.ok).empty());
  }
}

// The AVX-512 tier's TU is a SIMD TU too; the widened rule still flags the
// same leak everywhere else.
TEST(LintFixtures, IntrinsicsIsolationAdmitsAvx512Tus) {
  EXPECT_TRUE(lint_fixture("simd_isolation_ok_avx512.cpp").empty());
  expect_only_rule(lint_fixture("simd_isolation_bad.cpp"),
                   "intrinsics-isolation", 4);
}

TEST(LintFixtures, SuppressionsSilenceSameLineAndPreviousLineForms) {
  int suppressed = 0;
  const std::vector<Finding> findings =
      lint_fixture("suppressed_ok.cpp", &suppressed);
  EXPECT_TRUE(findings.empty());
  EXPECT_EQ(suppressed, 3);
}

TEST(LintFixtures, SuppressionOfTheWrongRuleDoesNotSilence) {
  const std::string src =
      "int f() {\n"
      "  return new int(1) != nullptr;  // adsec-lint: allow(io-hygiene)\n"
      "}\n";
  const std::vector<Finding> findings = lint_source("src/x.cpp", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "alloc-hygiene");
}

// Path scoping: the same source is clean or flagged purely by where it
// lives, mirroring the allowed-module lists in DESIGN.md.
TEST(LintRules, PathScopingFollowsTheAllowedModuleLists) {
  const std::string clock_src =
      "#include <chrono>\n"
      "auto t() { return std::chrono::steady_clock::now(); }\n";
  EXPECT_FALSE(lint_source("src/sim/world.cpp", clock_src).empty());
  EXPECT_TRUE(lint_source("src/telemetry/clock.cpp", clock_src).empty());
  EXPECT_TRUE(lint_source("src/common/logging.cpp", clock_src).empty());

  const std::string print_src =
      "#include <cstdio>\nvoid p() { printf(\"x\"); }\n";
  EXPECT_FALSE(lint_source("src/rl/sac.cpp", print_src).empty());
  EXPECT_TRUE(lint_source("tools/adsec_cli.cpp", print_src).empty());
  EXPECT_TRUE(lint_source("bench/bench_micro.cpp", print_src).empty());

  // In-place writes are legal elsewhere but flagged inside the
  // orchestrator, whose artifacts must commit via temp-file+rename.
  const std::string write_src =
      "#include <fstream>\nvoid w() { std::ofstream f(\"x\"); }\n";
  EXPECT_TRUE(lint_source("src/core/zoo_probe.cpp", write_src).empty());
  EXPECT_FALSE(lint_source("src/orchestrator/probe.cpp", write_src).empty());
  const std::string fs_src =
      "#include <filesystem>\n"
      "void m() { std::filesystem::rename(\"a\", \"b\"); }\n";
  EXPECT_TRUE(lint_source("src/core/zoo_probe.cpp", fs_src).empty());
  EXPECT_FALSE(lint_source("src/orchestrator/probe.cpp", fs_src).empty());
}

TEST(LintRules, SpanNameRuleExemptsTheTelemetryDefinitionSite) {
  // SpanGuard's own constructor declarations take `const char* name` — a
  // non-literal first token. That shape is only legal where it is defined.
  const std::string src =
      "class SpanGuard {\n"
      " public:\n"
      "  explicit SpanGuard(const char* name);\n"
      "};\n";
  EXPECT_FALSE(lint_source("src/serve/probe.hpp", src).empty());
  EXPECT_TRUE(lint_source("src/telemetry/trace.hpp", src).empty());
}

TEST(LintRules, UnorderedContainerTriggersOnSerializePathNames) {
  const std::string src =
      "#include <unordered_map>\n"
      "int n(const std::unordered_map<int,int>& m) { return (int)m.size(); }\n";
  // Same TU: clean in a compute path, flagged in serialize/checkpoint/table
  // TUs even without a write call in sight.
  EXPECT_TRUE(lint_source("src/nn/matrix.cpp", src).empty());
  EXPECT_FALSE(lint_source("src/common/serialize_util.cpp", src).empty());
  EXPECT_FALSE(lint_source("src/rl/checkpoint_io.cpp", src).empty());
  EXPECT_FALSE(lint_source("src/common/table_fmt.cpp", src).empty());
}

TEST(LintLexer, StringsCommentsAndRawStringsAreInert) {
  const std::string src =
      "const char* a = \"new delete malloc std::cout time( rand(\";\n"
      "// new delete std::random_device\n"
      "/* printf(\"x\") steady_clock */\n"
      "const char* b = R\"(unordered_map std::cerr << std::endl)\";\n"
      "int c = 1'000'000;  // digit separator is not a char literal\n";
  EXPECT_TRUE(lint_source("src/x.cpp", src).empty());
}

TEST(LintLexer, MemberAccessAndQualifiedLookalikesAreInert) {
  const std::string src =
      "double t(const World& w) { return w.time(); }\n"
      "int r(Thing* p) { return p->rand(); }\n"
      "int s() { return mylib::time(7); }\n";
  EXPECT_TRUE(lint_source("src/x.cpp", src).empty());
}

TEST(LintReport, JsonIsValidAndListsFindings) {
  LintResult result;
  result.files_scanned = 2;
  result.suppressed = 1;
  result.findings.push_back(
      Finding{"src/a.cpp", 3, 7, "alloc-hygiene", "naked new with \"quotes\""});
  const std::string json = findings_json(result);
  EXPECT_TRUE(adsec::testjson::valid_json(json)) << json;
  EXPECT_NE(json.find("\"alloc-hygiene\""), std::string::npos);
  EXPECT_NE(json.find("\\\"quotes\\\""), std::string::npos);
  EXPECT_NE(json.find("\"files_scanned\":2"), std::string::npos);
}

TEST(LintReport, JsonReportRoundTripsThroughDisk) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "adsec_lint_report.json")
          .string();
  LintResult result;
  result.files_scanned = 1;
  ASSERT_TRUE(write_findings_json(path, result));
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  EXPECT_TRUE(adsec::testjson::valid_json(ss.str()));
  std::filesystem::remove(path);
}

// Cross-file shapes only lint_sources can see: a two-header include cycle,
// and a lock-order inversion split between a class declaration and its
// out-of-line member definitions.
TEST(LintSemantic, TwoFileIncludeCycleIsOneFinding) {
  const std::vector<SourceUnit> units = {
      {"src/serve/a.hpp", "#pragma once\n#include \"serve/b.hpp\"\n"},
      {"src/serve/b.hpp", "#pragma once\n#include \"serve/a.hpp\"\n"},
  };
  const LintResult result = lint_sources(units);
  expect_only_rule(result.findings, "include-cycle", 1);
}

TEST(LintSemantic, CrossTuLockOrderInversionResolvesThroughMemberOwner) {
  const std::string hpp =
      "#pragma once\n"
      "#include \"common/annotations.hpp\"\n"
      "class Pair {\n"
      " public:\n"
      "  void fwd();\n"
      "  void rev();\n"
      " private:\n"
      "  adsec::Mutex a_mu_;\n"
      "  int a_ ADSEC_GUARDED_BY(a_mu_){0};\n"
      "  adsec::Mutex b_mu_;\n"
      "  int b_ ADSEC_GUARDED_BY(b_mu_){0};\n"
      "};\n";
  const std::string cpp =
      "#include \"serve/pair.hpp\"\n"
      "void Pair::fwd() {\n"
      "  adsec::MutexLock a(a_mu_);\n"
      "  adsec::MutexLock b(b_mu_);\n"
      "  a_ += b_;\n"
      "}\n"
      "void Pair::rev() {\n"
      "  adsec::MutexLock b(b_mu_);\n"
      "  adsec::MutexLock a(a_mu_);\n"
      "  b_ += a_;\n"
      "}\n";
  const std::vector<SourceUnit> units = {
      {"src/serve/pair.hpp", hpp},
      {"src/serve/pair.cpp", cpp},
  };
  const LintResult result = lint_sources(units);
  expect_only_rule(result.findings, "lock-order", 1);
}

// --diff-base semantics: only_files narrows the *report*; the analysis
// still spans every unit, so a cycle closed by an unchanged file is
// attributed to (and reported at) the changed one when that edge is the
// cycle's anchor — and dropped entirely when it is not.
TEST(LintSemantic, OnlyFilesFiltersTheReportNotTheAnalysis) {
  const std::vector<SourceUnit> units = {
      {"src/serve/a.hpp",
       "#pragma once\n#include \"serve/b.hpp\"\nint naked() { return *new "
       "int(1); }\n"},
      {"src/serve/b.hpp", "#pragma once\n#include \"serve/a.hpp\"\n"},
  };
  const LintResult full = lint_sources(units);
  EXPECT_EQ(full.findings.size(), 2u);  // include-cycle + alloc-hygiene

  const LintResult only_a = lint_sources(units, {"src/serve/a.hpp"});
  for (const Finding& f : only_a.findings) {
    EXPECT_EQ(f.file, "src/serve/a.hpp");
  }
  EXPECT_EQ(only_a.findings.size(), 2u);

  // Filtered to b.hpp, the alloc finding in a.hpp disappears; the cycle
  // is still detected (the graph spanned both files) but is reported at
  // its anchor edge, which sorts into a.hpp — so b's report is clean.
  const LintResult only_b = lint_sources(units, {"src/serve/b.hpp"});
  EXPECT_TRUE(only_b.findings.empty());
}

// The contract itself: the tree this test compiled from scans clean. A
// regression anywhere in src/tools/bench/tests fails tier-1 ctest, not
// just the CI lint job.
TEST(LintTree, RepoScansClean) {
  const LintResult result = run_lint(ADSEC_SOURCE_ROOT);
  for (const Finding& f : result.findings) {
    ADD_FAILURE() << f.file << ":" << f.line << ":" << f.col << " [" << f.rule
                  << "] " << f.message;
  }
  EXPECT_GT(result.files_scanned, 150);
}

}  // namespace
}  // namespace adsec::lint
