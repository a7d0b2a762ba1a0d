// eval_e2e_camera: the Fig. 5(b) sweep. The end-to-end victim faces the
// learned camera attacker at budgets 0, 0.1, ..., 1.2, every episode with
// its reference rollout, through run_batch_parallel. Each attacked step
// renders two camera frames and runs two policy forwards, so the sensors,
// Road::project and the policy forward carry the load; nothing trains.
#include <cstdio>
#include <optional>

#include "agents/e2e_agent.hpp"
#include "core/zoo.hpp"
#include "nn/io.hpp"
#include "runtime/parallel_eval.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace adsec;

namespace {

// Zoo-shaped policies stored with the benchmark (trained by PolicyZoo at
// ADSEC_TRAIN_SCALE=1), pinned by CRC-32 so that a change to rl/ numerics
// cannot change the work this workload does.
struct StoredPolicy {
  const char* path;  // relative to the checkout root
  std::uint32_t crc;
};
constexpr StoredPolicy kStoredVictim{"perfbench/policies/pi_ori.bin", 0x497b1bccu};
constexpr StoredPolicy kStoredAttacker{"perfbench/policies/attacker_cam_e2e.bin",
                                       0x666edcf9u};

GaussianPolicy load_stored(const StoredPolicy& stored) {
  const std::uint32_t crc = file_crc(stored.path);
  if (crc != stored.crc) {
    throw SetupError(std::string(stored.path) + " has CRC " + hex32(crc) +
                     ", expected " + hex32(stored.crc));
  }
  return load_policy_file(stored.path);
}

constexpr int kBudgets = 13;  // epsilon = 0.1 * index
constexpr int kEpisodesPerBudget = 32;
constexpr int kEpisodesPerSweep = kBudgets * kEpisodesPerBudget;

using Sweep = std::vector<std::vector<EpisodeMetrics>>;  // [budget][episode]

// Everything set-up builds. Factories hold references into this object, so
// it stays in place for the whole run.
struct Eval {
  std::optional<PolicyZoo> zoo;  // experiment and camera configuration only
  std::optional<GaussianPolicy> victim;
  std::optional<GaussianPolicy> attacker;
  std::uint64_t seed_base{0};
  AgentFactory make_agent;
  std::vector<AttackerFactory> make_attacker;  // [budget]; empty at 0

  [[nodiscard]] std::uint64_t batch_seed(int budget) const {
    return seed_base + 1000 * static_cast<std::uint64_t>(budget);
  }
};

void set_up(Eval& e, const Args& args, const ScratchDir& scratch) {
  e.victim.emplace(load_stored(kStoredVictim));
  e.attacker.emplace(load_stored(kStoredAttacker));
  e.zoo.emplace(scratch.fresh("zoo"));
  e.seed_base = 1'000'000'000ull + (mix_seed(args.seed) % 1'000'000ull) * 100'000ull;
  const PolicyZoo& zoo = *e.zoo;
  e.make_agent = [&victim = *e.victim, &zoo] {
    return std::make_unique<E2EAgent>(victim, zoo.camera(), zoo.frame_stack());
  };
  e.make_attacker.assign(kBudgets, AttackerFactory{});
  for (int b = 1; b < kBudgets; ++b) {
    e.make_attacker[static_cast<std::size_t>(b)] = [&attacker = *e.attacker, &zoo,
                                                    budget = 0.1 * b] {
      return std::make_unique<LearnedCameraAttacker>(attacker, budget, zoo.camera(),
                                                     zoo.frame_stack());
    };
  }
}

Sweep sweep(const Eval& e, const AgentFactory& make_agent,
            const std::vector<AttackerFactory>& make_attacker) {
  ParallelEvalOptions options;
  options.jobs = worker_count();
  options.with_reference = true;
  Sweep out;
  for (int b = 0; b < kBudgets; ++b) {
    out.push_back(run_batch_parallel(make_agent, make_attacker[static_cast<std::size_t>(b)],
                                     e.zoo->experiment(), kEpisodesPerBudget,
                                     e.batch_seed(b), options));
  }
  return out;
}

// The determinism contract: serial run_batch on the same seeds, one batch
// per thread.
Sweep serial_reference(const Eval& e) {
  Sweep ref(kBudgets);
  parallel_for(kBudgets, worker_count(), [&](int b) {
    const auto agent = e.make_agent();
    const auto& make_attacker = e.make_attacker[static_cast<std::size_t>(b)];
    const auto attacker = make_attacker ? make_attacker() : nullptr;
    ref[static_cast<std::size_t>(b)] =
        run_batch(*agent, attacker.get(), e.zoo->experiment(), kEpisodesPerBudget,
                  e.batch_seed(b), /*with_reference=*/true);
  });
  return ref;
}

}  // namespace

Result run_eval_e2e_camera(const Args& args, Clock::time_point t_start) {
  const ScratchDir scratch("eval_e2e_camera");
  Eval e;
  SetupTimer setup(t_start, [&] { set_up(e, args, scratch); });

  Result result;
  std::vector<Sweep> sweeps;  // every repetition's results, checked at the end
  const auto rep = [&](const AgentFactory& agent,
                       const std::vector<AttackerFactory>& attackers) {
    const auto t0 = Clock::now();
    try {
      sweeps.push_back(sweep(e, agent, attackers));
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "eval_e2e_camera: repetition failed: %s\n", ex.what());
      result.failed += kEpisodesPerSweep;
      sweeps.emplace_back();
    }
    result.attempted += kEpisodesPerSweep;
    return seconds_since(t0);
  };
  const auto plain_rep = [&] { return rep(e.make_agent, e.make_attacker); };

  std::map<std::string, double> layer;
  std::vector<double> walls;
  if (!args.trace) {
    walls = repeat_for(args.seconds, 2, plain_rep);
  } else {
    const std::vector<double> walls_untraced = repeat_for(args.seconds / 2, 1, plain_rep);
    ActorClocks agent_clocks, attack_clocks;
    WorldSampler sampler(256, 37);
    const AgentFactory agent_t = timed(e.make_agent, agent_clocks, &sampler);
    std::vector<AttackerFactory> attackers_t;
    for (const auto& f : e.make_attacker) attackers_t.push_back(timed(f, attack_clocks));

    start_tracing(args.workload);
    walls = repeat_for(args.seconds / 2, 1, [&] { return rep(agent_t, attackers_t); });
    auto spans = spans_by_name(telemetry::collect_spans());
    const telemetry::MetricsSnapshot snap = telemetry::metrics_snapshot();
    stop_tracing();

    const std::vector<World> worlds = sampler.worlds();
    const PolicyZoo& zoo = *e.zoo;
    const std::vector<double> camera_us =
        probe_camera_us(worlds, zoo.camera(), zoo.frame_stack());
    const double camera_mean_us = mean(camera_us);
    const double forward_us =
        probe_policy_forward_us(*e.victim, worlds, zoo.camera(), zoo.frame_stack());
    const std::vector<double> runner_us =
        probe_runner_step_us(e.make_agent, e.make_attacker[10], zoo.experiment(), 12,
                             e.batch_seed(10));

    const double traced_s = sum(walls);
    const double reps = static_cast<double>(walls.size());
    LayerTable table(args.workload, traced_s, worker_count());
    // Each decide renders one frame and runs one forward; each reset renders
    // one frame. The probes' unit costs split the actors' time into layers.
    const auto split = [&](const ActorClocks& c, const char* self_layer) {
      const std::uint64_t renders = c.decide.calls + c.reset.calls;
      const std::uint64_t forwards = c.decide.calls;
      const double sensors = static_cast<double>(renders) * camera_mean_us / 1e6;
      const double nn = static_cast<double>(forwards) * forward_us / 1e6;
      table.add(self_layer, c.seconds() - sensors - nn, c.decide.calls);
      return std::pair{sensors, nn};
    };
    const auto [agent_sensors, agent_nn] = split(agent_clocks, "agents");
    const auto [attack_sensors, attack_nn] = split(attack_clocks, "attack");
    const double sensors_s = agent_sensors + attack_sensors;
    table.add("sensors", sensors_s,
              agent_clocks.decide.calls + agent_clocks.reset.calls +
                  attack_clocks.decide.calls + attack_clocks.reset.calls);
    table.add("nn", agent_nn + attack_nn,
              agent_clocks.decide.calls + attack_clocks.decide.calls);
    const SpanStats& episodes = spans["runtime.episode"];
    const SpanStats& rollouts = spans["experiment.episode"];
    table.add("sim", rollouts.total_s() - agent_clocks.seconds() - attack_clocks.seconds(),
              rollouts.count());
    table.add("runtime", episodes.total_s() - rollouts.total_s(), episodes.count());
    const double idle_s = static_cast<double>(counter_value(snap, "runtime.idle_ns")) / 1e9;
    table.add("runtime.idle", idle_s, 0);
    const double overhead = median(walls) / median(walls_untraced) - 1.0;
    table.print(overhead);

    std::vector<double> episode_ms;
    for (const double d : episodes.durations_s) episode_ms.push_back(d * 1e3);
    layer = {
        {"nn.gemm_calls", static_cast<double>(counter_value(snap, "nn.gemm.calls")) / reps},
        {"nn.gemm_flops", static_cast<double>(counter_value(snap, "nn.gemm.flops")) / reps},
        {"nn.gemv_calls", static_cast<double>(counter_value(snap, "nn.gemv.calls")) / reps},
        {"nn.policy_forward_us", forward_us},
        {"sensors.camera_render_us.p50", quantile(camera_us, 0.5)},
        {"sensors.camera_render_us.p99", quantile(camera_us, 0.99)},
        {"sensors.camera_share", sensors_s / table.lane_s()},
        {"sim.road_project_ns", probe_road_project_ns(worlds)},
        {"sim.runner_step_us.p50", quantile(runner_us, 0.5)},
        {"sim.runner_step_us.p99", quantile(runner_us, 0.99)},
        {"agents.decide_us.e2e", agent_clocks.decide.mean_us()},
        {"attack.decide_us.camera", attack_clocks.decide.mean_us()},
        {"runtime.idle_share", idle_s / table.lane_s()},
        {"runtime.tasks_stolen",
         static_cast<double>(counter_value(snap, "runtime.tasks_stolen")) / reps},
        {"runtime.episode_ms.p50", quantile(episode_ms, 0.5)},
        {"runtime.episode_ms.p99", quantile(episode_ms, 0.99)},
        {"serialize.bytes_written",
         static_cast<double>(counter_value(snap, "serialize.bytes_written")) / reps},
        {"trace.coverage", table.coverage()},
        {"trace.overhead_share", overhead},
    };
  }

  if (!dir_is_empty(e.zoo->dir())) {
    throw SetupError("the evaluation touched the policy zoo at " + e.zoo->dir());
  }
  const Sweep ref = serial_reference(e);
  for (const Sweep& s : sweeps) {
    if (s.empty()) continue;
    for (int b = 0; b < kBudgets; ++b) {
      result.failed += count_mismatches(s[static_cast<std::size_t>(b)],
                                        ref[static_cast<std::size_t>(b)]);
    }
  }
  double steps = 0.0;
  double successes = 0.0;
  for (const auto& batch : ref) {
    for (const EpisodeMetrics& m : batch) {
      steps += m.steps;
      successes += m.side_collision ? 1.0 : 0.0;
    }
  }
  const double success = successes / kEpisodesPerSweep;
  std::printf("eval_e2e_camera: %zu sweeps of %d episodes, attack success %.4f, "
              "%ld mismatches or failures vs serial run_batch\n",
              sweeps.size(), kEpisodesPerSweep, success, result.failed);
  result.correct = result.failed == 0 && success > 0.0;
  if (args.trace) {
    add_per_layer(result, layer);
  } else {
    add_end_to_end(result, setup.finish(), walls, kEpisodesPerSweep, steps, success);
  }
  return result;
}

}  // namespace perfbench
