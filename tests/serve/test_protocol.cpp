#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "../telemetry/json_check.hpp"
#include "common/error.hpp"
#include "serve/json.hpp"

namespace adsec::serve {
namespace {

// ---------------------------------------------------------------- JSON DOM

TEST(Json, ParsesScalarsAndContainers) {
  const JsonValue v = JsonValue::parse(
      R"({"s":"hi","n":-2.5e2,"t":true,"f":false,"z":null,"a":[1,2,3],"o":{"k":1}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("s")->as_string(), "hi");
  EXPECT_DOUBLE_EQ(v.find("n")->as_number(), -250.0);
  EXPECT_TRUE(v.find("t")->as_bool());
  EXPECT_FALSE(v.find("f")->as_bool());
  EXPECT_TRUE(v.find("z")->is_null());
  ASSERT_TRUE(v.find("a")->is_array());
  EXPECT_EQ(v.find("a")->items().size(), 3u);
  EXPECT_DOUBLE_EQ(v.find("a")->items()[2].as_number(), 3.0);
  EXPECT_DOUBLE_EQ(v.find("o")->find("k")->as_number(), 1.0);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, PreservesMemberOrder) {
  const JsonValue v = JsonValue::parse(R"({"b":1,"a":2,"c":3})");
  const auto& m = v.members();
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(m[0].first, "b");
  EXPECT_EQ(m[1].first, "a");
  EXPECT_EQ(m[2].first, "c");
}

TEST(Json, DecodesStringEscapes) {
  const JsonValue v =
      JsonValue::parse(R"({"e":"a\"b\\c\/d\n\tAé"})");
  EXPECT_EQ(v.find("e")->as_string(), "a\"b\\c/d\n\tA\xc3\xa9");
}

TEST(Json, RejectsMalformedDocuments) {
  const char* bad[] = {
      "",            "{",        "[1,]",      "{\"a\":}",   "{'a':1}",
      "{\"a\":1,}",  "01",       "1.",        "+1",         "nul",
      "\"unterminated", "{\"a\":1}trailing", "{\"a\":1 \"b\":2}",
  };
  for (const char* doc : bad) {
    EXPECT_THROW((void)JsonValue::parse(doc), Error) << "doc: " << doc;
  }
}

TEST(Json, RejectsDuplicateKeys) {
  try {
    (void)JsonValue::parse(R"({"a":1,"a":2})");
    FAIL() << "duplicate key accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Corrupt);
  }
}

TEST(Json, AccessorsThrowOnKindMismatch) {
  const JsonValue v = JsonValue::parse(R"({"n":1})");
  EXPECT_THROW((void)v.find("n")->as_string(), Error);
  EXPECT_THROW((void)v.find("n")->as_bool(), Error);
  EXPECT_THROW((void)v.find("n")->items(), Error);
  EXPECT_THROW((void)v.as_number(), Error);  // object, not number
}

// ---------------------------------------------------------------- requests

TEST(ParseLine, FullRequestRoundTrips) {
  const ParsedLine p = parse_line(
      R"({"id":"r1","agent":"pnn:0.2","attacker":"camera","budget":0.75,)"
      R"("scenario":"dense","seed":12345,"episodes":4,"with_reference":true})");
  ASSERT_EQ(p.kind, LineKind::Request);
  EXPECT_EQ(p.request.id, "r1");
  EXPECT_EQ(p.request.agent, "pnn:0.2");
  EXPECT_EQ(p.request.attacker, "camera");
  EXPECT_DOUBLE_EQ(p.request.budget, 0.75);
  EXPECT_EQ(p.request.scenario, "dense");
  EXPECT_EQ(p.request.seed, 12345u);
  EXPECT_EQ(p.request.episodes, 4);
  EXPECT_TRUE(p.request.with_reference);
  EXPECT_EQ(request_class(p.request), "pnn:0.2|camera");
}

TEST(ParseLine, DefaultsApplyWhenFieldsOmitted) {
  const ParsedLine p = parse_line(R"({"id":"only-id"})");
  EXPECT_EQ(p.request.agent, "e2e");
  EXPECT_EQ(p.request.attacker, "none");
  EXPECT_DOUBLE_EQ(p.request.budget, 1.0);
  EXPECT_EQ(p.request.scenario, "paper");
  EXPECT_EQ(p.request.seed, 700000u);
  EXPECT_EQ(p.request.episodes, 1);
  EXPECT_FALSE(p.request.with_reference);
}

TEST(ParseLine, ControlLines) {
  EXPECT_EQ(parse_line(R"({"op":"report"})").kind, LineKind::Report);
  EXPECT_EQ(parse_line(R"({"op":"shutdown"})").kind, LineKind::Shutdown);
  // Control lines carry nothing else, and unknown ops are errors.
  EXPECT_THROW((void)parse_line(R"({"op":"report","id":"x"})"), Error);
  EXPECT_THROW((void)parse_line(R"({"op":"reboot"})"), Error);
}

// Every rejected line must throw a structured Error (Config for shape
// violations, Corrupt for malformed JSON) — never crash or mis-parse.
TEST(ParseLine, StrictValidation) {
  struct Case {
    const char* line;
    ErrorCode code;
  };
  const Case cases[] = {
      {"not json at all", ErrorCode::Corrupt},
      {R"([1,2,3])", ErrorCode::Config},                   // not an object
      {R"({"agent":"e2e"})", ErrorCode::Config},           // id missing
      {R"({"id":""})", ErrorCode::Config},                 // id empty
      {R"({"id":"x","bogus":1})", ErrorCode::Config},      // unknown field
      {R"({"id":"x","episodes":0})", ErrorCode::Config},   // below range
      {R"({"id":"x","episodes":2.5})", ErrorCode::Config}, // not an integer
      {R"({"id":"x","budget":-0.5})", ErrorCode::Config},  // negative budget
      {R"({"id":"x","budget":101})", ErrorCode::Config},   // above range
      {R"({"id":"x","seed":-1})", ErrorCode::Config},      // negative seed
      {R"({"id":"x","agent":7})", ErrorCode::Config},      // wrong type
      {R"({"id":"x","with_reference":"yes"})", ErrorCode::Config},
      {R"({"id":7})", ErrorCode::Config},                  // id wrong type
  };
  for (const Case& c : cases) {
    try {
      (void)parse_line(c.line);
      FAIL() << "accepted: " << c.line;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), c.code) << "line: " << c.line;
    }
  }
  // Oversized ids are rejected (they are echoed into every record).
  std::string long_id(300, 'x');
  EXPECT_THROW((void)parse_line("{\"id\":\"" + long_id + "\"}"), Error);
}

// ----------------------------------------------------------------- records

TEST(ResultRecord, DoneRecordIsValidJsonWithMetrics) {
  ResultRecord rec;
  rec.id = "r\"1\\x";  // id with characters that need escaping
  rec.status = "done";
  rec.request_class = "e2e|camera";
  rec.episodes = 3;
  rec.mean_nominal_reward = 251.25;
  rec.mean_adv_reward = -14.5;
  rec.mean_passed_npcs = 4.5;
  rec.mean_attack_effort = 0.25;
  rec.mean_deviation_rmse = 0.125;
  rec.success_rate = 1.0 / 3.0;
  rec.collisions = 2;
  rec.side_collisions = 1;
  rec.queue_ns = 1000;
  rec.run_ns = 2000;

  const std::string line = rec.to_jsonl();
  ASSERT_TRUE(testjson::valid_json(line)) << line;
  const JsonValue v = JsonValue::parse(line);
  EXPECT_EQ(v.find("id")->as_string(), "r\"1\\x");
  EXPECT_EQ(v.find("status")->as_string(), "done");
  EXPECT_EQ(v.find("class")->as_string(), "e2e|camera");
  EXPECT_DOUBLE_EQ(v.find("episodes")->as_number(), 3.0);
  // Shortest-round-trip formatting: numbers survive a parse bit-exactly.
  EXPECT_DOUBLE_EQ(v.find("mean_nominal_reward")->as_number(), 251.25);
  EXPECT_DOUBLE_EQ(v.find("success_rate")->as_number(), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(v.find("queue_ns")->as_number(), 1000.0);
  EXPECT_EQ(v.find("error"), nullptr);  // no error fields on done
}

TEST(ResultRecord, StatusRecordsStayMinimal) {
  ResultRecord rec;
  rec.id = "q1";
  rec.status = "queued";
  rec.request_class = "modular|none";
  const JsonValue v = JsonValue::parse(rec.to_jsonl());
  EXPECT_EQ(v.find("status")->as_string(), "queued");
  EXPECT_EQ(v.find("episodes"), nullptr);  // metrics only on done
  EXPECT_EQ(v.find("queue_ns"), nullptr);  // timing only on done/failed
}

TEST(ResultRecord, FailedRecordCarriesStructuredError) {
  ResultRecord rec;
  rec.id = "f1";
  rec.status = "failed";
  rec.request_class = "e2e|imu";
  rec.error_code = "config";
  rec.error = "unknown agent 'x'";
  rec.queue_ns = 5;
  rec.run_ns = 7;
  const JsonValue v = JsonValue::parse(rec.to_jsonl());
  EXPECT_EQ(v.find("error_code")->as_string(), "config");
  EXPECT_EQ(v.find("error")->as_string(), "unknown agent 'x'");
  EXPECT_DOUBLE_EQ(v.find("run_ns")->as_number(), 7.0);
  EXPECT_EQ(v.find("episodes"), nullptr);
}

TEST(ResultRecord, NonFiniteMetricsSerializeAsNull) {
  ResultRecord rec;
  rec.id = "n1";
  rec.status = "done";
  rec.request_class = "e2e|none";
  rec.mean_nominal_reward = std::numeric_limits<double>::quiet_NaN();
  rec.mean_adv_reward = std::numeric_limits<double>::infinity();
  const std::string line = rec.to_jsonl();
  ASSERT_TRUE(testjson::valid_json(line)) << line;
  const JsonValue v = JsonValue::parse(line);
  EXPECT_TRUE(v.find("mean_nominal_reward")->is_null());
  EXPECT_TRUE(v.find("mean_adv_reward")->is_null());
}

}  // namespace
}  // namespace adsec::serve
