#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "nn/matrix.hpp"
#include "sensors/camera.hpp"

namespace perfbench {

using namespace adsec;

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

// Probes repeat over the captured worlds until they have this many calls,
// so p99 has well over ten samples beyond it.
constexpr std::size_t kProbeCalls = 4000;

// Keeps probe results observable so the timed calls are not optimized out.
volatile double g_sink = 0.0;

class TimedAgent final : public DrivingAgent {
 public:
  TimedAgent(std::unique_ptr<DrivingAgent> inner, ActorClocks& clocks,
             WorldSampler* sampler)
      : inner_(std::move(inner)), clocks_(clocks), sampler_(sampler) {}

  void reset(const World& world) override {
    const std::uint64_t t0 = now_ns();
    inner_->reset(world);
    clocks_.reset.add(now_ns() - t0);
  }
  Action decide(const World& world) override {
    if (sampler_ != nullptr) sampler_->offer(world);
    const std::uint64_t t0 = now_ns();
    const Action a = inner_->decide(world);
    clocks_.decide.add(now_ns() - t0);
    return a;
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<DrivingAgent> inner_;
  ActorClocks& clocks_;
  WorldSampler* sampler_;
};

class TimedAttacker final : public Attacker {
 public:
  TimedAttacker(std::unique_ptr<Attacker> inner, ActorClocks& clocks)
      : inner_(std::move(inner)), clocks_(clocks) {}

  void reset(const World& world) override {
    const std::uint64_t t0 = now_ns();
    inner_->reset(world);
    clocks_.reset.add(now_ns() - t0);
  }
  double decide(const World& world) override {
    const std::uint64_t t0 = now_ns();
    const double delta = inner_->decide(world);
    clocks_.decide.add(now_ns() - t0);
    return delta;
  }
  double decide_thrust(const World& world) override {
    const std::uint64_t t0 = now_ns();
    const double delta = inner_->decide_thrust(world);
    clocks_.other.add(now_ns() - t0);
    return delta;
  }
  void post_step(const World& world) override {
    const std::uint64_t t0 = now_ns();
    inner_->post_step(world);
    clocks_.other.add(now_ns() - t0);
  }
  std::string name() const override { return inner_->name(); }
  double budget() const override { return inner_->budget(); }

 private:
  std::unique_ptr<Attacker> inner_;
  ActorClocks& clocks_;
};

}  // namespace

void WorldSampler::offer(const World& world) {
  const std::uint64_t k = offers_.fetch_add(1, std::memory_order_relaxed);
  if (k % stride_ != 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (worlds_.size() < capacity_) worlds_.push_back(world);
}

std::vector<World> WorldSampler::worlds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return worlds_;
}

std::unique_ptr<DrivingAgent> timed(std::unique_ptr<DrivingAgent> inner,
                                    ActorClocks& clocks, WorldSampler* sampler) {
  return std::make_unique<TimedAgent>(std::move(inner), clocks, sampler);
}

std::unique_ptr<Attacker> timed(std::unique_ptr<Attacker> inner, ActorClocks& clocks) {
  if (!inner) return nullptr;
  return std::make_unique<TimedAttacker>(std::move(inner), clocks);
}

AgentFactory timed(AgentFactory make, ActorClocks& clocks, WorldSampler* sampler) {
  return [make = std::move(make), &clocks, sampler] {
    return timed(make(), clocks, sampler);
  };
}

AttackerFactory timed(AttackerFactory make, ActorClocks& clocks) {
  if (!make) return make;
  return [make = std::move(make), &clocks] { return timed(make(), clocks); };
}

std::vector<double> probe_camera_us(const std::vector<World>& worlds,
                                    const CameraConfig& camera, int frame_stack) {
  std::vector<double> samples;
  if (worlds.empty()) return samples;
  StackedCameraObserver observer(camera, frame_stack);
  observer.reset(worlds.front());
  std::vector<double> row(static_cast<std::size_t>(observer.dim()));
  while (samples.size() < kProbeCalls) {
    for (const World& w : worlds) {
      const std::uint64_t t0 = now_ns();
      observer.observe_into(w, row);
      samples.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
  }
  g_sink = row.front();
  return samples;
}

double probe_policy_forward_us(const GaussianPolicy& policy,
                               const std::vector<World>& worlds,
                               const CameraConfig& camera, int frame_stack) {
  if (worlds.empty()) return 0.0;
  StackedCameraObserver observer(camera, frame_stack);
  observer.reset(worlds.front());
  std::vector<Matrix> rows;
  for (const World& w : worlds) {
    Matrix m;
    row_into(m, observer.observe(w));
    rows.push_back(std::move(m));
  }
  Matrix act;
  std::size_t calls = 0;
  const std::uint64_t t0 = now_ns();
  while (calls < kProbeCalls) {
    for (const Matrix& obs : rows) {
      policy.mean_action_into(obs, act);
      ++calls;
    }
  }
  const double us = static_cast<double>(now_ns() - t0) / 1e3 / static_cast<double>(calls);
  g_sink = act(0, 0);
  return us;
}

double probe_road_project_ns(const std::vector<World>& worlds) {
  std::vector<std::pair<const Road*, Vec2>> points;
  for (const World& w : worlds) {
    points.emplace_back(&w.road(), w.ego().state().position);
    for (const Npc& npc : w.npcs()) {
      points.emplace_back(&w.road(), npc.vehicle().state().position);
    }
  }
  if (points.empty()) return 0.0;
  constexpr std::size_t kCalls = 200000;
  double sum = 0.0;
  std::size_t calls = 0;
  const std::uint64_t t0 = now_ns();
  while (calls < kCalls) {
    for (const auto& [road, p] : points) {
      sum += road->project(p).s;
      ++calls;
    }
  }
  const double ns = static_cast<double>(now_ns() - t0) / static_cast<double>(calls);
  g_sink = sum;
  return ns;
}

std::vector<double> probe_runner_step_us(const AgentFactory& make_agent,
                                         const AttackerFactory& make_attacker,
                                         const ExperimentConfig& config, int episodes,
                                         std::uint64_t seed_base) {
  ActorClocks attack_clocks;
  const std::unique_ptr<DrivingAgent> agent = make_agent();
  const std::unique_ptr<Attacker> attacker =
      make_attacker ? timed(make_attacker(), attack_clocks) : nullptr;
  std::vector<double> samples;
  for (int k = 0; k < episodes; ++k) {
    EpisodeRunner runner(*agent, attacker.get(), config,
                         seed_base + static_cast<std::uint64_t>(k));
    while (runner.running()) {
      const Action a = agent->decide(runner.world());
      const std::uint64_t attack0 = attack_clocks.decide.ns + attack_clocks.other.ns;
      const std::uint64_t t0 = now_ns();
      runner.step(a);
      const std::uint64_t dt = now_ns() - t0;
      const std::uint64_t attack =
          attack_clocks.decide.ns + attack_clocks.other.ns - attack0;
      samples.push_back(static_cast<double>(dt - std::min(dt, attack)) / 1e3);
    }
    (void)runner.finish();
  }
  return samples;
}

double SpanStats::total_s() const { return sum(durations_s); }

std::map<std::string, SpanStats> spans_by_name(
    const std::vector<telemetry::SpanRecord>& spans) {
  std::map<std::string, SpanStats> out;
  for (const auto& s : spans) {
    out[s.name].durations_s.push_back(static_cast<double>(s.end_ns - s.begin_ns) / 1e9);
  }
  return out;
}

std::uint64_t counter_value(const telemetry::MetricsSnapshot& snap,
                            const std::string& name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  return 0;
}

void start_tracing(const std::string& workload) {
  const std::string dir = ".bench_build/traces";
  std::filesystem::create_directories(dir);
  telemetry::clear_trace();
  telemetry::reset_metrics_values();
  telemetry::TelemetryOptions options;
  options.chrome_trace = dir + "/trace_" + workload + ".json";
  options.metrics_out = dir + "/metrics_" + workload + ".json";
  if (!telemetry::configure(options)) throw SetupError("cannot open trace outputs");
}

void stop_tracing() {
  const telemetry::FinalizeResult res = telemetry::finalize();
  if (!res.trace_written || !res.metrics_written) {
    throw SetupError("cannot write trace outputs");
  }
}

void LayerTable::add(const std::string& layer, double self_s, std::uint64_t calls) {
  rows_.push_back({layer, self_s, calls});
}

double LayerTable::covered_s() const {
  double t = 0.0;
  for (const Row& r : rows_) t += r.self_s;
  return t;
}

double LayerTable::coverage() const {
  return lane_s() > 0.0 ? covered_s() / lane_s() : 0.0;
}

void LayerTable::print(double overhead_share) const {
  std::printf("layer self times: %s, traced wall %.3f s x %d lanes = %.3f lane-s\n",
              workload_.c_str(), wall_s_, lanes_, lane_s());
  std::printf("  %-18s %10s %8s %12s\n", "layer", "self_s", "share", "calls");
  for (const Row& r : rows_) {
    std::printf("  %-18s %10.4f %7.1f%% %12llu\n", r.layer.c_str(), r.self_s,
                100.0 * r.self_s / lane_s(), static_cast<unsigned long long>(r.calls));
  }
  const double rest = lane_s() - covered_s();
  std::printf("  %-18s %10.4f %7.1f%%\n", "(not covered)", rest, 100.0 * rest / lane_s());
  std::printf("  coverage %.1f%%, trace overhead %+.1f%% vs untraced\n",
              100.0 * coverage(), 100.0 * overhead_share);
}

}  // namespace perfbench
