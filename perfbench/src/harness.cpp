#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>

#include "common/serialize.hpp"
#include "runtime/thread_pool.hpp"

namespace perfbench {

namespace fs = std::filesystem;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

namespace {

// Shortest decimal that reads back as the same double: every measured
// digit is kept, nothing is invented.
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace

std::string Result::to_json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : sum(v) / static_cast<double>(v.size());
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint32_t file_crc(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SetupError("cannot read " + path);
  const std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                        std::istreambuf_iterator<char>());
  return adsec::crc32(bytes.data(), bytes.size());
}

std::string hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", v);
  return buf;
}

std::uint64_t mix_seed(std::uint64_t seed) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

int worker_count() { return std::min(4, adsec::hardware_jobs()); }

ScratchDir::ScratchDir(const std::string& name)
    : path_(".bench_build/tmp/" + name + "-" + std::to_string(::getpid())) {
  fs::remove_all(path_);
  fs::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  fs::remove_all(path_, ec);
}

std::string ScratchDir::fresh(const std::string& name) const {
  const std::string dir = (fs::path(path_) / name).string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

bool dir_is_empty(const std::string& path) {
  return fs::is_directory(path) && fs::is_empty(path);
}

long count_mismatches(const std::vector<adsec::EpisodeMetrics>& got,
                      const std::vector<adsec::EpisodeMetrics>& want) {
  const std::size_t n = std::min(got.size(), want.size());
  long bad = static_cast<long>(std::max(got.size(), want.size()) - n);
  for (std::size_t i = 0; i < n; ++i) {
    adsec::BinaryWriter a, b;
    adsec::write_episode_metrics(a, got[i]);
    adsec::write_episode_metrics(b, want[i]);
    if (a.bytes() != b.bytes()) ++bad;
  }
  return bad;
}

void parallel_for(int n, int threads, const std::function<void(int)>& fn) {
  std::atomic<int> next{0};
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(threads));
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      try {
        for (int i = next++; i < n; i = next++) fn(i);
      } catch (...) {
        errors[static_cast<std::size_t>(t)] = std::current_exception();
      }
    });
  }
  for (auto& th : pool) th.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

std::vector<double> repeat_for(double seconds, int min_reps,
                               const std::function<double()>& rep) {
  std::vector<double> walls;
  const auto t0 = Clock::now();
  while (static_cast<int>(walls.size()) < min_reps || seconds_since(t0) < seconds) {
    walls.push_back(rep());
  }
  return walls;
}

SetupTimer::SetupTimer(Clock::time_point t_start, std::function<void()> setup)
    : setup_(std::move(setup)) {
  run_batch(t_start);
}

double SetupTimer::finish() {
  run_batch(Clock::now());
  return median(samples_);
}

void SetupTimer::run_batch(Clock::time_point first_start) {
  constexpr int kRuns = 25;
  for (int i = 0; i < kRuns; ++i) {
    const auto t0 = i == 0 ? first_start : Clock::now();
    setup_();
    samples_.push_back(seconds_since(t0));
  }
}

}  // namespace perfbench
