// Shared scaffolding for the pipeline benchmark: command line, result
// record, statistics, scratch directories and the determinism check that
// every workload applies to its episodes.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/metrics.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);

struct Args {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{10.0};
  bool trace{false};
};

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

// What one run reports. `attempted`/`failed` count the workload's
// operations (policies trained, episodes, cells); `correct` is false when
// any output check failed.
struct Result {
  bool correct{true};
  long attempted{0};
  long failed{0};
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  [[nodiscard]] std::string to_json() const;
};

// A set-up error (for example a warm cache inside a timed run): the run
// reports no result and exits non-zero.
struct SetupError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

double sum(const std::vector<double>& v);
double mean(const std::vector<double>& v);  // 0 for an empty sample
double median(std::vector<double> v);
// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);

double peak_rss_mb();

// CRC-32 of a whole file; throws SetupError when it cannot be read.
std::uint32_t file_crc(const std::string& path);
std::string hex32(std::uint32_t v);

// Deterministic 64-bit mix of the workload seed (splitmix64), used to derive
// episode seed bases so neighbouring --seed values share no episodes.
std::uint64_t mix_seed(std::uint64_t seed);

// Pool width of every parallel workload: the host's cores, at most 4.
int worker_count();

// Paths are relative to the checkout root, the working directory.
//
// A fresh, empty directory under .bench_build/tmp, removed (with everything
// in it) on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }
  // A fresh empty subdirectory `name`.
  [[nodiscard]] std::string fresh(const std::string& name) const;

 private:
  std::string path_;
};

bool dir_is_empty(const std::string& path);

// Number of slots where `got` differs from `want` in any field of the
// serialized EpisodeMetrics (bit-for-bit), plus any length difference.
long count_mismatches(const std::vector<adsec::EpisodeMetrics>& got,
                      const std::vector<adsec::EpisodeMetrics>& want);

// Run fn(i) for every i in [0, n) on `threads` threads.
void parallel_for(int n, int threads, const std::function<void(int)>& fn);

// Call `rep` until `seconds` have passed and at least `min_reps` calls were
// made; returns what each call returned (the seconds it timed itself).
std::vector<double> repeat_for(double seconds, int min_reps,
                               const std::function<double()>& rep);

// Set-up time: `setup` runs several times when the process starts (the first
// run timed from `t_start`, the process start) and as often again after the
// timed region, where the process is warm and the figure steadier; the
// median over all runs is reported.
class SetupTimer {
 public:
  SetupTimer(Clock::time_point t_start, std::function<void()> setup);
  // Runs the second batch and returns the median duration in seconds.
  double finish();

 private:
  void run_batch(Clock::time_point first_start);
  std::function<void()> setup_;
  std::vector<double> samples_;
};

}  // namespace perfbench
