// Traced-run instruments. Everything here measures a layer from outside the
// program: timing decorators around the agents and attackers the workload
// factories return, probes that time single layer entry points on worlds
// captured from the workload, and summaries of the spans and counters the
// program already records. Nothing is added to the program itself.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "agents/agent.hpp"
#include "attack/attacker.hpp"
#include "core/experiment.hpp"
#include "harness.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {

// Accumulated wall time and call count of one decorated entry point;
// shared by every per-worker decorator instance.
struct CallClock {
  std::atomic<std::uint64_t> ns{0};
  std::atomic<std::uint64_t> calls{0};

  void add(std::uint64_t dt) {
    ns.fetch_add(dt, std::memory_order_relaxed);
    calls.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] double seconds() const { return static_cast<double>(ns.load()) / 1e9; }
  [[nodiscard]] double mean_us() const {
    const auto n = calls.load();
    return n == 0 ? 0.0 : static_cast<double>(ns.load()) / 1e3 / static_cast<double>(n);
  }
};

// Keeps a bounded sample of the worlds the decorated actors saw, for the
// probes. Every `stride`-th offer is copied until `capacity` are held.
class WorldSampler {
 public:
  WorldSampler(std::size_t capacity, std::uint64_t stride)
      : capacity_(capacity), stride_(stride) {}
  void offer(const adsec::World& world);
  [[nodiscard]] std::vector<adsec::World> worlds() const;

 private:
  std::size_t capacity_;
  std::uint64_t stride_;
  std::atomic<std::uint64_t> offers_{0};
  mutable std::mutex mu_;
  std::vector<adsec::World> worlds_;
};

// Clocks of one actor kind. `decide` is the per-step decision, `reset` the
// episode start, `other` the attacker's thrust and post-step hooks.
struct ActorClocks {
  CallClock decide;
  CallClock reset;
  CallClock other;
  [[nodiscard]] double seconds() const {
    return decide.seconds() + reset.seconds() + other.seconds();
  }
};

std::unique_ptr<adsec::DrivingAgent> timed(std::unique_ptr<adsec::DrivingAgent> inner,
                                           ActorClocks& clocks, WorldSampler* sampler);
std::unique_ptr<adsec::Attacker> timed(std::unique_ptr<adsec::Attacker> inner,
                                       ActorClocks& clocks);

// Factories whose products are wrapped in the decorators above.
adsec::AgentFactory timed(adsec::AgentFactory make, ActorClocks& clocks,
                          WorldSampler* sampler);
adsec::AttackerFactory timed(adsec::AttackerFactory make, ActorClocks& clocks);

// ---- Probes: single layer entry points timed on captured worlds. ----

// Per-call microseconds of StackedCameraObserver::observe_into.
std::vector<double> probe_camera_us(const std::vector<adsec::World>& worlds,
                                    const adsec::CameraConfig& camera, int frame_stack);
// Mean microseconds of GaussianPolicy::mean_action_into on one observation
// row rendered from each captured world.
double probe_policy_forward_us(const adsec::GaussianPolicy& policy,
                               const std::vector<adsec::World>& worlds,
                               const adsec::CameraConfig& camera, int frame_stack);
// Mean nanoseconds of Road::project at the positions of every vehicle in the
// captured worlds.
double probe_road_project_ns(const std::vector<adsec::World>& worlds);
// Per-call microseconds of EpisodeRunner::step with the attacker's own time
// taken out, over `episodes` episodes from `seed_base`.
std::vector<double> probe_runner_step_us(const adsec::AgentFactory& make_agent,
                                         const adsec::AttackerFactory& make_attacker,
                                         const adsec::ExperimentConfig& config,
                                         int episodes, std::uint64_t seed_base);

// ---- Span and counter summaries. ----

struct SpanStats {
  std::vector<double> durations_s;  // one per span
  [[nodiscard]] double total_s() const;
  [[nodiscard]] std::size_t count() const { return durations_s.size(); }
};

// Every buffered span grouped by name.
std::map<std::string, SpanStats> spans_by_name(
    const std::vector<adsec::telemetry::SpanRecord>& spans);

// Counter value by name from a snapshot (0 when absent).
std::uint64_t counter_value(const adsec::telemetry::MetricsSnapshot& snap,
                            const std::string& name);

// Turns span and metric collection on through the program's telemetry
// configuration; the Chrome trace and metrics snapshot are written to
// .bench_build/traces/ when the traced phase ends.
void start_tracing(const std::string& workload);
void stop_tracing();

// Self time per layer over a traced region of `lanes` worker threads for
// `wall_s` seconds, printed as a table.
class LayerTable {
 public:
  LayerTable(std::string workload, double wall_s, int lanes)
      : workload_(std::move(workload)), wall_s_(wall_s), lanes_(lanes) {}

  void add(const std::string& layer, double self_s, std::uint64_t calls);
  [[nodiscard]] double lane_s() const { return wall_s_ * lanes_; }
  [[nodiscard]] double covered_s() const;
  [[nodiscard]] double coverage() const;
  void print(double overhead_share) const;

 private:
  struct Row {
    std::string layer;
    double self_s;
    std::uint64_t calls;
  };
  std::string workload_;
  double wall_s_;
  int lanes_;
  std::vector<Row> rows_;
};

}  // namespace perfbench
