#include "serve/transport.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "../telemetry/json_check.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "serve/json.hpp"
#include "telemetry/metrics.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define ADSEC_TEST_UDS 1
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#else
#define ADSEC_TEST_UDS 0
#endif

namespace adsec::serve {
namespace {

class TransportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/adsec_transport_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    saved_scale_ = runtime_config().train_scale;
    runtime_config().train_scale = 0.0;
    // Report assertions read lifetime counters; zero them so the suite also
    // holds when several tests share one process (outside ctest isolation).
    telemetry::reset_metrics_values();
  }
  void TearDown() override {
    runtime_config().train_scale = saved_scale_;
    std::filesystem::remove_all(dir_);
  }

  ServerOptions options(PolicyZoo& zoo) {
    ServerOptions opts;
    opts.workers = 2;
    opts.queue_depth = 16;
    opts.zoo = &zoo;
    return opts;
  }

  std::string dir_;
  double saved_scale_{1.0};
};

void append(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::app | std::ios::binary);
  out << text;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

std::map<std::string, std::vector<std::string>> statuses_by_id(
    const std::vector<std::string>& lines) {
  std::map<std::string, std::vector<std::string>> out;
  for (const auto& line : lines) {
    const JsonValue v = JsonValue::parse(line);
    if (const JsonValue* id = v.find("id")) {
      out[id->as_string()].push_back(v.find("status")->as_string());
    }
  }
  return out;
}

TEST_F(TransportTest, FileWatchRoundTrip) {
  const std::string req = dir_ + "/req.jsonl";
  const std::string res = dir_ + "/res.jsonl";
  PolicyZoo zoo(dir_ + "/zoo");
  EvalServer server(options(zoo), {});
  FileWatchTransport transport(server, req, res);

  // Polling before the request file exists finds nothing.
  EXPECT_EQ(transport.poll_once(), 0);

  append(req, R"({"id":"t1","agent":"modular","attacker":"none","seed":11})");
  append(req, "\n");
  append(req, R"({"id":"t2","agent":"modular","attacker":"noise","seed":12})");
  append(req, "\n{\"id\":\"t3\",");  // partial line: must be carried, not parsed
  EXPECT_EQ(transport.poll_once(), 2);
  // Completing the partial line makes it a request on the next poll.
  append(req, "\"agent\":\"modular\",\"attacker\":\"oracle\",\"seed\":13}\n");
  EXPECT_EQ(transport.poll_once(), 1);
  // An in-band report request and a malformed line (answered, not dropped).
  append(req, "{\"op\":\"report\"}\n{broken json\n");
  server.drain();  // settle t1..t3 so the report below sees final counts
  EXPECT_EQ(transport.poll_once(), 2);

  // Every line in the result file is valid standalone JSON.
  const auto lines = read_lines(res);
  for (const auto& line : lines) {
    EXPECT_TRUE(testjson::valid_json(line)) << line;
  }

  const auto statuses = statuses_by_id(lines);
  for (const char* id : {"t1", "t2", "t3"}) {
    ASSERT_TRUE(statuses.count(id)) << id;
    const auto& seq = statuses.at(id);
    ASSERT_EQ(seq.size(), 3u) << id;
    EXPECT_EQ(seq[0], "queued");
    EXPECT_EQ(seq[1], "running");
    EXPECT_EQ(seq[2], "done");
  }
  // The malformed line was answered with a structured failure under id "?".
  ASSERT_TRUE(statuses.count("?"));
  EXPECT_EQ(statuses.at("?")[0], "failed");

  // The report line landed with the lifetime counters.
  bool saw_report = false;
  for (const auto& line : lines) {
    const JsonValue v = JsonValue::parse(line);
    const JsonValue* kind = v.find("kind");
    if (kind != nullptr && kind->as_string() == "report") {
      saw_report = true;
      EXPECT_DOUBLE_EQ(v.find("report")->find("completed")->as_number(), 3.0);
      EXPECT_TRUE(v.find("report")->find("classes")->is_array());
    }
  }
  EXPECT_TRUE(saw_report);
  EXPECT_FALSE(transport.shutdown_requested());
}

TEST_F(TransportTest, InBandMetricsOpAnswersWithPrometheusText) {
  const std::string req = dir_ + "/req.jsonl";
  const std::string res = dir_ + "/res.jsonl";
  PolicyZoo zoo(dir_ + "/zoo");
  EvalServer server(options(zoo), {});
  FileWatchTransport transport(server, req, res);

  append(req, R"({"id":"m1","agent":"modular","attacker":"none","seed":41})");
  append(req, "\n");
  EXPECT_EQ(transport.poll_once(), 1);
  server.drain();
  append(req, "{\"op\":\"metrics\"}\n");
  EXPECT_EQ(transport.poll_once(), 1);

  bool saw_metrics = false;
  for (const auto& line : read_lines(res)) {
    const JsonValue v = JsonValue::parse(line);
    const JsonValue* kind = v.find("kind");
    if (kind == nullptr || kind->as_string() != "metrics") continue;
    saw_metrics = true;
    // The payload is the same exposition text a --metrics-socket scrape
    // returns: typed, adsec_-prefixed, with the serve counters populated.
    const std::string text = v.find("text")->as_string();
    EXPECT_NE(text.find("# TYPE "), std::string::npos) << text;
    EXPECT_NE(text.find("adsec_serve_completed 1"), std::string::npos) << text;
  }
  EXPECT_TRUE(saw_metrics);
}

TEST_F(TransportTest, FileWatchShutdownLineStopsTheLoop) {
  const std::string req = dir_ + "/req.jsonl";
  const std::string res = dir_ + "/res.jsonl";
  PolicyZoo zoo(dir_ + "/zoo");
  EvalServer server(options(zoo), {});
  FileWatchTransport transport(server, req, res);

  append(req, R"({"id":"s1","agent":"modular","seed":21})");
  append(req, "\n{\"op\":\"shutdown\"}\n");
  std::atomic<bool> stop{false};
  // run() must exit on the shutdown line without anyone flipping `stop`.
  transport.run(stop, /*poll_interval_ms=*/5);
  EXPECT_TRUE(transport.shutdown_requested());
  server.drain();

  const auto statuses = statuses_by_id(read_lines(res));
  ASSERT_TRUE(statuses.count("s1"));
  EXPECT_EQ(statuses.at("s1").back(), "done");
}

#if ADSEC_TEST_UDS

// Minimal blocking UDS client for the tests.
class UdsClient {
 public:
  explicit UdsClient(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    connected_ =
        fd_ >= 0 &&
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~UdsClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }

  void send_line(const std::string& line) {
    const std::string out = line + "\n";
    std::size_t off = 0;
    while (off < out.size()) {
      const ssize_t n = ::send(fd_, out.data() + off, out.size() - off, 0);
      ASSERT_GT(n, 0);
      off += static_cast<std::size_t>(n);
    }
  }

  // Read complete lines until `count` lines arrived or EOF.
  std::vector<std::string> read_lines(std::size_t count) {
    std::vector<std::string> lines;
    std::string carry;
    char buf[4096];
    while (lines.size() < count) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) break;
      carry.append(buf, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (;;) {
        const std::size_t nl = carry.find('\n', start);
        if (nl == std::string::npos) break;
        lines.push_back(carry.substr(start, nl - start));
        start = nl + 1;
      }
      carry.erase(0, start);
    }
    return lines;
  }

 private:
  int fd_{-1};
  bool connected_{false};
};

TEST_F(TransportTest, UdsRoundTripWithPerConnectionRecords) {
  const std::string sock = dir_ + "/serve.sock";
  PolicyZoo zoo(dir_ + "/zoo");
  EvalServer server(options(zoo), {});
  std::atomic<bool> stop{false};
  UdsTransport transport(server, sock);
  std::thread acceptor([&] { transport.run(stop); });

  {
    UdsClient client(sock);
    ASSERT_TRUE(client.connected());
    client.send_line(R"({"id":"u1","agent":"modular","attacker":"none","seed":31})");
    client.send_line(R"({"id":"u2","agent":"modular","attacker":"full","seed":32})");
    // 3 records per request: queued, running, done.
    const auto lines = client.read_lines(6);
    ASSERT_EQ(lines.size(), 6u);
    const auto statuses = statuses_by_id(lines);
    for (const char* id : {"u1", "u2"}) {
      ASSERT_TRUE(statuses.count(id)) << id;
      const auto& seq = statuses.at(id);
      EXPECT_EQ(seq.front(), "queued");
      EXPECT_EQ(seq.back(), "done");
    }
    // In-band report on the same connection.
    client.send_line(R"({"op":"report"})");
    const auto report_lines = client.read_lines(1);
    ASSERT_EQ(report_lines.size(), 1u);
    const JsonValue v = JsonValue::parse(report_lines[0]);
    EXPECT_EQ(v.find("kind")->as_string(), "report");
    EXPECT_DOUBLE_EQ(v.find("report")->find("completed")->as_number(), 2.0);
  }

  // A second connection sends the shutdown op; the accept loop exits on its
  // own (no stop-flag flip) and the transport reports it.
  {
    UdsClient client(sock);
    ASSERT_TRUE(client.connected());
    client.send_line(R"({"op":"shutdown"})");
  }
  acceptor.join();
  EXPECT_TRUE(transport.shutdown_requested());
  server.drain();
}

TEST_F(TransportTest, UdsBindFailureIsStructuredError) {
  PolicyZoo zoo(dir_ + "/zoo");
  EvalServer server(options(zoo), {});
  // Binding inside a non-existent directory must fail with Error{Io}.
  EXPECT_THROW(UdsTransport(server, dir_ + "/missing-dir/serve.sock"), Error);
}

#endif  // ADSEC_TEST_UDS

}  // namespace
}  // namespace adsec::serve
