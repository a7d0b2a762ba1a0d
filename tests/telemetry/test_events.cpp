#include "telemetry/events.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hpp"
#include "json_check.hpp"

namespace adsec::telemetry {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

class EventsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One file per test: ctest runs the cases as parallel processes.
    path_ = ::testing::TempDir() + "adsec_events_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".jsonl";
    std::remove(path_.c_str());
  }
  void TearDown() override {
    close_event_log();
    std::remove(path_.c_str());
  }
  std::string path_;
};

TEST_F(EventsTest, ClosedSinkDropsEvents) {
  ASSERT_FALSE(event_log_open());
  emit_event("test.events.dropped", {{"x", 1}});
  std::ifstream probe(path_);
  EXPECT_FALSE(probe.good());  // nothing was ever written
}

TEST_F(EventsTest, AllFieldTypesProduceStrictJson) {
  ASSERT_TRUE(open_event_log(path_));
  emit_event("test.events.types",
             {{"f", 1.5},
              {"i", -7},
              {"big", static_cast<long long>(-1) << 40},
              {"u", static_cast<std::uint64_t>(1) << 63},
              {"flag", true},
              {"cstr", "hello"},
              {"str", std::string("world")}});
  close_event_log();

  const std::string content = slurp(path_);
  ASSERT_TRUE(testjson::valid_jsonl(content)) << content;
  const auto lines = lines_of(content);
  ASSERT_EQ(lines.size(), 1u);
  const std::string& l = lines[0];
  EXPECT_NE(l.find("\"kind\":\"test.events.types\""), std::string::npos) << l;
  EXPECT_NE(l.find("\"ts_ns\":"), std::string::npos) << l;
  EXPECT_NE(l.find("\"tid\":"), std::string::npos) << l;
  EXPECT_NE(l.find("\"i\":-7"), std::string::npos) << l;
  EXPECT_NE(l.find("\"u\":9223372036854775808"), std::string::npos) << l;
  EXPECT_NE(l.find("\"flag\":true"), std::string::npos) << l;
  EXPECT_NE(l.find("\"cstr\":\"hello\""), std::string::npos) << l;
}

TEST_F(EventsTest, NonFiniteDoublesBecomeNull) {
  ASSERT_TRUE(open_event_log(path_));
  emit_event("test.events.nonfinite",
             {{"nan", std::nan("")},
              {"inf", std::numeric_limits<double>::infinity()},
              {"ok", 2.0}});
  close_event_log();
  const std::string content = slurp(path_);
  ASSERT_TRUE(testjson::valid_jsonl(content)) << content;
  EXPECT_NE(content.find("\"nan\":null"), std::string::npos) << content;
  EXPECT_NE(content.find("\"inf\":null"), std::string::npos) << content;
  EXPECT_EQ(content.find("nan("), std::string::npos) << content;
}

TEST_F(EventsTest, StringsAreEscaped) {
  ASSERT_TRUE(open_event_log(path_));
  emit_event("test.events.escape",
             {{"quoted", "say \"hi\""},
              {"backslash", "a\\b"},
              {"control", std::string("line1\nline2\ttab")}});
  close_event_log();
  const std::string content = slurp(path_);
  const auto lines = lines_of(content);
  ASSERT_EQ(lines.size(), 1u) << "embedded newline split the record: " << content;
  ASSERT_TRUE(testjson::valid_jsonl(content)) << content;
  EXPECT_NE(content.find("\\\"hi\\\""), std::string::npos);
  EXPECT_NE(content.find("\\\\b"), std::string::npos);
  EXPECT_NE(content.find("\\n"), std::string::npos);
}

TEST_F(EventsTest, ConcurrentEmittersNeverInterleave) {
  ASSERT_TRUE(open_event_log(path_));
  constexpr int kThreads = 8;
  constexpr int kEvents = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kEvents; ++i) {
        emit_event("test.events.concurrent",
                   {{"thread", t}, {"i", i}, {"payload", "xxxxxxxxxxxxxxxx"}});
      }
    });
  }
  for (auto& th : threads) th.join();
  close_event_log();

  const std::string content = slurp(path_);
  const auto lines = lines_of(content);
  EXPECT_EQ(lines.size(), static_cast<std::size_t>(kThreads) * kEvents);
  ASSERT_TRUE(testjson::valid_jsonl(content));
  for (const auto& l : lines) {
    EXPECT_NE(l.find("\"kind\":\"test.events.concurrent\""), std::string::npos) << l;
  }
}

// "[   12.345678] [t03] [warn] <message>" — timestamp, tid, level tag, then
// an intact message; a torn write would break the pattern mid-line.
bool well_formed_log_line(const std::string& l, std::string* message) {
  std::size_t p = 0;
  auto expect = [&](const std::string& lit) {
    if (l.compare(p, lit.size(), lit) != 0) return false;
    p += lit.size();
    return true;
  };
  auto digits = [&] {
    const std::size_t start = p;
    while (p < l.size() && std::isdigit(static_cast<unsigned char>(l[p]))) ++p;
    return p > start;
  };
  if (!expect("[")) return false;
  while (p < l.size() && l[p] == ' ') ++p;  // %12.6f pads with spaces
  if (!digits() || !expect(".") || !digits()) return false;
  if (!expect("] [t") || !digits() || !expect("] [warn] ")) return false;
  if (message != nullptr) *message = l.substr(p);
  return true;
}

// Satellite: common/logging emits each record with one fwrite, prefixed by
// the shared monotonic timestamp and thread id.
TEST(ParallelLogging, RecordsAreSingleLineWithTimestampAndTid) {
  const LogLevel prev = log_level();
  set_log_level(LogLevel::Warn);
  ::testing::internal::CaptureStderr();
  log_warn("solo %d", 42);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 50; ++i) log_warn("worker message %d", i);
    });
  }
  for (auto& th : threads) th.join();
  const std::string captured = ::testing::internal::GetCapturedStderr();
  set_log_level(prev);

  const auto lines = lines_of(captured);
  ASSERT_EQ(lines.size(), 1u + 4u * 50u);
  for (const auto& l : lines) {
    std::string message;
    ASSERT_TRUE(well_formed_log_line(l, &message)) << l;
    EXPECT_TRUE(message == "solo 42" ||
                message.rfind("worker message ", 0) == 0)
        << message;
  }
}

}  // namespace
}  // namespace adsec::telemetry
