#include "rules.hpp"

#include <cstddef>

namespace adsec::lint {
namespace {

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string basename_of(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

bool is_header(const std::string& path) { return ends_with(path, ".hpp"); }

// Token helpers -------------------------------------------------------------

bool is_ident(const Token& t, const char* text) {
  return t.kind == TokKind::Identifier && t.text == text;
}

bool is_punct(const Token& t, const char* text) {
  return t.kind == TokKind::Punct && t.text == text;
}

const Token* prev_tok(const std::vector<Token>& toks, std::size_t i) {
  return i > 0 ? &toks[i - 1] : nullptr;
}

const Token* next_tok(const std::vector<Token>& toks, std::size_t i) {
  return i + 1 < toks.size() ? &toks[i + 1] : nullptr;
}

// True when toks[i] is used as a member (obj.name / ptr->name) or under a
// non-std qualifier (mylib::name) — i.e. it is NOT the global/std entity
// the rule is after.
bool member_or_foreign_qualified(const std::vector<Token>& toks,
                                 std::size_t i) {
  const Token* p = prev_tok(toks, i);
  if (p == nullptr) return false;
  if (is_punct(*p, ".") || is_punct(*p, "->")) return true;
  if (is_punct(*p, "::")) {
    const Token* q = i >= 2 ? &toks[i - 2] : nullptr;
    return q == nullptr || !(is_ident(*q, "std") || is_ident(*q, "chrono"));
  }
  return false;
}

bool called(const std::vector<Token>& toks, std::size_t i) {
  const Token* n = next_tok(toks, i);
  return n != nullptr && is_punct(*n, "(");
}

// `double time() const { ... }` *declares* a member named time; the rule is
// after *calls*. A call site's preceding token is punctuation or an
// expression keyword, never a type name.
bool declares_function(const std::vector<Token>& toks, std::size_t i) {
  const Token* p = prev_tok(toks, i);
  if (p == nullptr || p->kind != TokKind::Identifier) return false;
  return p->text != "return" && p->text != "co_return" && p->text != "throw" &&
         p->text != "case" && p->text != "co_yield" && p->text != "co_await";
}

void add(std::vector<Finding>& out, const std::string& path, const Token& t,
         const char* rule, std::string message) {
  out.push_back(Finding{path, t.line, t.col, rule, std::move(message)});
}

// nondeterminism ------------------------------------------------------------
//
// Wall clocks and unseeded entropy may only live in the RNG facade, the
// telemetry clock, and the logger's timestamps. Everything else must draw
// randomness from common/rng.hpp so a (seed) pair replays bit-identically.

bool nondeterminism_exempt(const std::string& path) {
  return path == "src/common/rng.hpp" || starts_with(path, "src/telemetry/") ||
         starts_with(path, "src/common/logging");
}

void rule_nondeterminism(const std::string& path,
                         const std::vector<Token>& toks,
                         std::vector<Finding>& out) {
  if (nondeterminism_exempt(path)) return;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::Identifier) continue;
    if (t.text == "random_device") {
      add(out, path, t, "nondeterminism",
          "std::random_device is unseedable entropy; draw from common/rng.hpp");
    } else if ((t.text == "steady_clock" || t.text == "system_clock" ||
                t.text == "high_resolution_clock") &&
               !member_or_foreign_qualified(toks, i)) {
      add(out, path, t, "nondeterminism",
          "wall-clock time (std::chrono::" + t.text +
              ") varies run to run; only telemetry/logging may timestamp");
    } else if ((t.text == "rand" || t.text == "srand" || t.text == "time" ||
                t.text == "clock") &&
               called(toks, i) && !member_or_foreign_qualified(toks, i) &&
               !declares_function(toks, i)) {
      add(out, path, t, "nondeterminism",
          "C " + t.text + "() is nondeterministic; draw from common/rng.hpp");
    }
  }
}

// unordered-container -------------------------------------------------------
//
// Hash-map iteration order depends on libstdc++ internals and pointer
// values, so any TU that serializes, renders tables, or writes files must
// use the ordered containers (std::map/std::set) to keep byte-identical
// output. Detection of "writes files" is token-based: the TU mentions an
// fstream or C stdio writer.

bool writes_files(const std::vector<Token>& toks) {
  for (const Token& t : toks) {
    if (t.kind != TokKind::Identifier) continue;
    if (t.text == "ofstream" || t.text == "fstream" || t.text == "fopen" ||
        t.text == "fwrite" || t.text == "fprintf") {
      return true;
    }
  }
  return false;
}

void rule_unordered(const std::string& path, const std::vector<Token>& toks,
                    std::vector<Finding>& out) {
  const std::string base = basename_of(path);
  const bool named_output_path = base.find("serialize") != std::string::npos ||
                                 base.find("checkpoint") != std::string::npos ||
                                 base.find("table") != std::string::npos;
  if (!named_output_path && !writes_files(toks)) return;
  for (const Token& t : toks) {
    if (t.kind != TokKind::Identifier) continue;
    if (t.text == "unordered_map" || t.text == "unordered_set" ||
        t.text == "unordered_multimap" || t.text == "unordered_multiset") {
      add(out, path, t, "unordered-container",
          "std::" + t.text +
              " iteration order is unstable; this TU produces output, use the "
              "ordered std::map/std::set");
    }
  }
}

// io-hygiene ----------------------------------------------------------------
//
// All library output funnels through common/logging (leveled, thread-safe,
// single-write lines) or common/table (bench tables). Direct stdio in
// library code bypasses log levels and interleaves under the parallel
// runtime. Tools and benches own their stdout and are exempt.

bool io_exempt(const std::string& path) {
  return starts_with(path, "src/common/logging") ||
         starts_with(path, "src/common/table") || starts_with(path, "tools/") ||
         starts_with(path, "bench/");
}

void rule_io(const std::string& path, const std::vector<Token>& toks,
             std::vector<Finding>& out) {
  if (io_exempt(path)) return;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::Identifier) continue;
    if (member_or_foreign_qualified(toks, i)) continue;
    if (t.text == "cout" || t.text == "cerr" || t.text == "endl") {
      add(out, path, t, "io-hygiene",
          "std::" + t.text + " bypasses common/logging; use log_*()");
    } else if (t.text == "printf" && called(toks, i)) {
      add(out, path, t, "io-hygiene",
          "printf bypasses common/logging; use log_*()");
    }
  }
}

// alloc-hygiene -------------------------------------------------------------
//
// The compute layer is zero-alloc in steady state (PR 4) and everything
// else owns memory through containers, so a naked new/delete or C
// allocator call is either a leak-in-waiting or an unprofiled hot-path
// allocation. Intentional sites (leaked singletons, the counting-allocator
// test shim) carry allow(alloc-hygiene) suppressions.

void rule_alloc(const std::string& path, const std::vector<Token>& toks,
                std::vector<Finding>& out) {
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::Identifier) continue;
    const Token* p = prev_tok(toks, i);
    if (t.text == "new") {
      // `operator new` declares the allocator itself; that is not a use.
      if (p != nullptr && is_ident(*p, "operator")) continue;
      add(out, path, t, "alloc-hygiene",
          "naked new; own memory via containers or unique_ptr");
    } else if (t.text == "delete") {
      // `= delete` deletes a function; `operator delete` declares.
      if (p != nullptr && (is_punct(*p, "=") || is_ident(*p, "operator"))) {
        continue;
      }
      add(out, path, t, "alloc-hygiene",
          "naked delete; own memory via containers or unique_ptr");
    } else if ((t.text == "malloc" || t.text == "calloc" ||
                t.text == "realloc" || t.text == "free" ||
                t.text == "aligned_alloc") &&
               called(toks, i) && !member_or_foreign_qualified(toks, i)) {
      add(out, path, t, "alloc-hygiene",
          t.text + "() bypasses C++ ownership; use containers");
    }
  }
}

// nodiscard-result ----------------------------------------------------------
//
// A function declared to return an Error or *Result type communicates
// failure/diagnostics through that value; discarding it silently is the
// exact bug class the resilience layer exists to prevent. Header
// declarations must carry [[nodiscard]] so the compiler flags call sites.
//
// The check runs only at declaration scope. Brace classification: an
// opening brace is a *code* body (skip its contents) unless it directly
// follows a class/struct/union/enum/namespace head, so locals like
// `TrainResult r(...)` inside inline functions are never flagged.

bool result_type_name(const std::string& name) {
  return name == "Error" || (ends_with(name, "Result") && name != "Result");
}

bool nodiscard_before(const std::vector<Token>& toks, std::size_t type_index);
bool brace_opens_code(const std::vector<Token>& toks, std::size_t i,
                      const std::vector<bool>& code_scope);

void rule_nodiscard(const std::string& path, const std::vector<Token>& toks,
                    std::vector<Finding>& out) {
  if (!is_header(path)) return;
  std::vector<bool> code_scope;  // brace stack: true = function/initializer
  int paren_depth = 0;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::Punct) {
      if (t.text == "(") ++paren_depth;
      else if (t.text == ")" && paren_depth > 0) --paren_depth;
      else if (t.text == "{")
        code_scope.push_back(brace_opens_code(toks, i, code_scope));
      else if (t.text == "}" && !code_scope.empty()) code_scope.pop_back();
      continue;
    }
    if (t.kind != TokKind::Identifier || paren_depth != 0) continue;
    if (!code_scope.empty() && code_scope.back()) continue;  // inside a body
    if (!result_type_name(t.text)) continue;
    const Token* n = next_tok(toks, i);
    const Token* nn = i + 2 < toks.size() ? &toks[i + 2] : nullptr;
    if (n == nullptr || nn == nullptr) continue;
    if (n->kind != TokKind::Identifier || !is_punct(*nn, "(")) continue;
    const Token* p = prev_tok(toks, i);
    // `struct FooResult ...`, `class Error;` are declarations of the type,
    // and `obj.Error(...)`-style member access is not a return type.
    if (p != nullptr && (is_ident(*p, "struct") || is_ident(*p, "class") ||
                         is_ident(*p, "enum") || is_punct(*p, ".") ||
                         is_punct(*p, "->"))) {
      continue;
    }
    if (!nodiscard_before(toks, i)) {
      add(out, path, t, "nodiscard-result",
          n->text + "() returns " + t.text +
              " but is not [[nodiscard]]; a discarded result is a silently "
              "ignored failure");
    }
  }
}

// Scan back from the return type to the previous declaration boundary
// looking for the nodiscard attribute.
bool nodiscard_before(const std::vector<Token>& toks, std::size_t type_index) {
  for (std::size_t j = type_index; j-- > 0;) {
    const Token& t = toks[j];
    if (t.kind == TokKind::Punct &&
        (t.text == ";" || t.text == "{" || t.text == "}")) {
      return false;
    }
    if (t.kind == TokKind::Identifier && t.text == "nodiscard") return true;
  }
  return false;
}

// Classify `{` at toks[i]: does it open executable code (function body,
// braced initializer, lambda) or a declaration scope (class/namespace)?
bool brace_opens_code(const std::vector<Token>& toks, std::size_t i,
                      const std::vector<bool>& code_scope) {
  if (!code_scope.empty() && code_scope.back()) return true;  // nested block
  for (std::size_t j = i; j-- > 0;) {
    const Token& t = toks[j];
    if (t.kind == TokKind::Identifier) {
      if (t.text == "class" || t.text == "struct" || t.text == "union" ||
          t.text == "enum" || t.text == "namespace") {
        return false;
      }
      if (t.text == "try" || t.text == "do" || t.text == "else") return true;
      continue;  // specifier/name/base — keep scanning
    }
    if (t.kind == TokKind::Punct) {
      if (t.text == ")" || t.text == "=" || t.text == "," || t.text == "(" ||
          t.text == "[") {
        return true;  // function head, initializer, or lambda introducer
      }
      if (t.text == ";" || t.text == "{" || t.text == "}") break;
      continue;  // ::, <, >, &, *, : — part of the head, keep scanning
    }
  }
  return true;  // unknown shapes err toward "code": rules stay quiet inside
}

// orchestrator-atomic-write -------------------------------------------------
//
// Orchestrator artifacts (result cells, the manifest) must survive a crash
// at any instruction, so the only sanctioned persistence path in
// src/orchestrator/ is BinaryWriter::save_checked — write to a temp file,
// rename into place, CRC on read. A direct ofstream/stdio write or a
// std::filesystem mutation there is a torn-file bug waiting for the chaos
// sweep to find it. Provably-safe operations (deleting an entry that
// already failed its CRC) carry allow(orchestrator-atomic-write)
// suppressions.

bool orchestrator_scope(const std::string& path) {
  return starts_with(path, "src/orchestrator/") ||
         basename_of(path).find("orchestrator") != std::string::npos;
}

// `std::filesystem::rename` / `fs::remove` — the qualifier right before the
// call names the filesystem library (member_or_foreign_qualified can't see
// this: it treats any non-std qualifier as foreign).
bool filesystem_qualified(const std::vector<Token>& toks, std::size_t i) {
  const Token* p = prev_tok(toks, i);
  if (p == nullptr || !is_punct(*p, "::")) return false;
  const Token* q = i >= 2 ? &toks[i - 2] : nullptr;
  return q != nullptr && (is_ident(*q, "filesystem") || is_ident(*q, "fs"));
}

void rule_orchestrator_atomic_write(const std::string& path,
                                    const std::vector<Token>& toks,
                                    std::vector<Finding>& out) {
  if (!orchestrator_scope(path)) return;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::Identifier) continue;
    if (t.text == "ofstream" || t.text == "fstream") {
      add(out, path, t, "orchestrator-atomic-write",
          "std::" + t.text +
              " writes in place; orchestrator artifacts go through "
              "BinaryWriter::save_checked (temp file + rename + CRC)");
    } else if ((t.text == "fopen" || t.text == "fwrite" ||
                t.text == "fprintf" || t.text == "fputs") &&
               called(toks, i) && !member_or_foreign_qualified(toks, i)) {
      add(out, path, t, "orchestrator-atomic-write",
          t.text +
              "() writes in place; orchestrator artifacts go through "
              "BinaryWriter::save_checked (temp file + rename + CRC)");
    } else if ((t.text == "rename" || t.text == "remove" ||
                t.text == "remove_all" || t.text == "copy_file" ||
                t.text == "resize_file") &&
               called(toks, i) && filesystem_qualified(toks, i)) {
      add(out, path, t, "orchestrator-atomic-write",
          "std::filesystem::" + t.text +
              " mutates the store directly; stage through save_checked, or "
              "suppress a provably-safe op with "
              "allow(orchestrator-atomic-write)");
    }
  }
}

// span-name -----------------------------------------------------------------
//
// Trace span names are the join key across every exported view (Chrome
// trace, per-trace JSONL, the flight recorder ring) and the flight ring
// stores them as raw const char* — so they must be string literals, and
// dashboards/greps rely on one shape: lowercase dotted "subsystem.verb".
// src/telemetry/ is the definition site (SpanGuard's own constructors take
// a `const char* name` parameter) and is exempt.

bool valid_span_name(const std::string& quoted) {
  // Token text retains the quotes; escapes would appear verbatim and fail
  // the character class below, which is what we want.
  if (quoted.size() < 2 || quoted.front() != '"' || quoted.back() != '"') {
    return false;
  }
  const std::string name = quoted.substr(1, quoted.size() - 2);
  int segments = 0;
  std::size_t seg_len = 0;
  for (const char c : name) {
    if (c == '.') {
      if (seg_len == 0) return false;  // empty segment
      ++segments;
      seg_len = 0;
      continue;
    }
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
    if (!ok) return false;
    ++seg_len;
  }
  return segments >= 1 && seg_len > 0;  // >= 2 non-empty dotted segments
}

void rule_span_name(const std::string& path, const std::vector<Token>& toks,
                    std::vector<Finding>& out) {
  if (starts_with(path, "src/telemetry/")) return;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::Identifier) continue;
    if (t.text != "ADSEC_SPAN" && t.text != "SpanGuard") continue;
    // ADSEC_SPAN(  — or —  SpanGuard [var] ( : a construction site. A bare
    // mention (forward declaration, reference type) has no paren and is
    // skipped.
    std::size_t j = i + 1;
    if (t.text == "SpanGuard" && j < toks.size() &&
        toks[j].kind == TokKind::Identifier) {
      ++j;  // named guard variable
    }
    if (j >= toks.size() || !is_punct(toks[j], "(")) continue;
    if (j + 1 >= toks.size()) continue;
    const Token& arg = toks[j + 1];
    if (arg.kind != TokKind::String) {
      add(out, path, t, "span-name",
          "span name must be a string literal (the flight ring stores the "
          "pointer, and exports join on the text)");
      continue;
    }
    if (!valid_span_name(arg.text)) {
      add(out, path, arg, "span-name",
          "span name " + arg.text +
              " must be lowercase dotted, like \"subsystem.verb\"");
    }
  }
}

// include-iostream-in-header ------------------------------------------------
//
// <iostream> in a header injects the static ios initializer into every TU
// and drags ~1k lines of stream machinery into the include graph; headers
// that need to format use <string>/<cstdio> in their .cpp instead.

void rule_include_iostream(const std::string& path,
                           const std::vector<Token>& toks,
                           std::vector<Finding>& out) {
  if (!is_header(path)) return;
  for (const Token& t : toks) {
    if (t.kind == TokKind::PpInclude && t.text == "<iostream>") {
      add(out, path, t, "include-iostream-in-header",
          "<iostream> in a header: include it in the .cpp (or use "
          "common/logging)");
    }
  }
}

// intrinsics-isolation -------------------------------------------------------
//
// x86 intrinsics may only live in the dedicated SIMD translation units
// (basename containing "_avx2" or "_avx512", e.g. nn/matrix_avx2.cpp and
// nn/matrix_avx512.cpp), which are the only TUs compiled with a vector ISA
// (-mavx2 -mfma, -mavx512f -mfma). An <immintrin.h> include or an
// _mm*/__m256/__m512 token anywhere else would either fail to compile on
// the portable build or — worse — silently let the compiler emit vector
// code in a TU that must stay runtime-dispatched (the whole point of the
// kernel table).

bool simd_tu(const std::string& path) {
  const std::string base = basename_of(path);
  return base.find("_avx2") != std::string::npos ||
         base.find("_avx512") != std::string::npos;
}

bool intrinsics_identifier(const std::string& text) {
  return starts_with(text, "_mm") || starts_with(text, "__m128") ||
         starts_with(text, "__m256") || starts_with(text, "__m512");
}

void rule_intrinsics_isolation(const std::string& path,
                               const std::vector<Token>& toks,
                               std::vector<Finding>& out) {
  if (simd_tu(path)) return;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::PpInclude &&
        (t.text == "<immintrin.h>" || t.text == "<x86intrin.h>" ||
         t.text == "<emmintrin.h>" || t.text == "<xmmintrin.h>" ||
         t.text == "<avxintrin.h>" || t.text == "<avx2intrin.h>" ||
         t.text == "<avx512fintrin.h>")) {
      add(out, path, t, "intrinsics-isolation",
          "intrinsics header " + t.text +
              " outside a dedicated *_avx2 / *_avx512 SIMD TU; keep vector "
              "code behind the nn/kernel_table.hpp dispatch");
    } else if (t.kind == TokKind::Identifier && intrinsics_identifier(t.text) &&
               !member_or_foreign_qualified(toks, i)) {
      add(out, path, t, "intrinsics-isolation",
          "intrinsic token " + t.text +
              " outside a dedicated *_avx2 / *_avx512 SIMD TU; keep vector "
              "code behind the nn/kernel_table.hpp dispatch");
    }
  }
}

}  // namespace

const std::vector<RuleDesc>& rule_table() {
  static const std::vector<RuleDesc> kRules = {
      {"nondeterminism",
       "wall clocks / unseeded entropy outside common/rng.hpp, src/telemetry/, "
       "common/logging"},
      {"unordered-container",
       "unordered_{map,set} in serialize/checkpoint/table TUs or any TU that "
       "writes files"},
      {"io-hygiene",
       "printf/std::cout/std::cerr/std::endl outside common/logging, "
       "common/table, tools/, bench/"},
      {"alloc-hygiene", "naked new/delete or C allocator calls anywhere"},
      {"nodiscard-result",
       "header functions returning Error/*Result types must be [[nodiscard]]"},
      {"orchestrator-atomic-write",
       "direct file writes / std::filesystem mutations in src/orchestrator/ "
       "bypassing the checked temp-file+rename path"},
      {"span-name",
       "ADSEC_SPAN/SpanGuard names must be lowercase dotted string literals "
       "(\"subsystem.verb\")"},
      {"include-iostream-in-header", "<iostream> included from a header"},
      {"intrinsics-isolation",
       "<immintrin.h>-family includes or _mm*/__m128/__m256/__m512 tokens "
       "outside a dedicated *_avx2 / *_avx512 SIMD TU"},
      // Cross-file rules implemented by the semantic pass (semantic.cpp);
      // they ride the same fixture/suppression/report machinery.
      {"unguarded-mutex",
       "raw std::mutex in src/ (use adsec::Mutex), or an adsec::Mutex no "
       "ADSEC_GUARDED_BY/ADSEC_REQUIRES contract references"},
      {"lock-order",
       "cycle in the static lock-acquisition graph (lexically nested guard "
       "scopes + ADSEC_REQUIRES entry capabilities): a potential deadlock"},
      {"lock-held-blocking",
       "file I/O, sleeps, pool submits, or a condition-variable wait on a "
       "different mutex while a lock is held"},
      {"include-cycle",
       "cyclic quoted-#include chain among scanned files (one report per "
       "cycle)"},
  };
  return kRules;
}

void check_file(const std::string& path, const LexedFile& lexed,
                std::vector<Finding>& out) {
  const std::vector<Token>& toks = lexed.tokens;
  rule_nondeterminism(path, toks, out);
  rule_unordered(path, toks, out);
  rule_io(path, toks, out);
  rule_alloc(path, toks, out);
  rule_nodiscard(path, toks, out);
  rule_orchestrator_atomic_write(path, toks, out);
  rule_span_name(path, toks, out);
  rule_include_iostream(path, toks, out);
  rule_intrinsics_isolation(path, toks, out);
}

}  // namespace adsec::lint
