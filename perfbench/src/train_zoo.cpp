// train_zoo: builds the two policies the camera-attack figures rest on, in
// a fresh zoo directory at a fixed training scale: pi_ori (BC warm start,
// then SAC), then attacker_cam_e2e, through the PolicyZoo accessors. Each
// build is serial and the SAC update bursts (backward passes and Adam) do
// most of the work; the episode executor is idle and the camera is a minor
// share. A round trains one independent build per worker thread at once, so
// the builds' times sample every core of a shared host instead of one. After
// the round each fresh attacker faces its fresh victim at budget 1 on fixed
// held-out seeds: the success rate guards against faster training that stops
// learning. An untimed warm-up round counts the SAC environment steps and
// episodes of one build; divided by each timed build's wall time they give
// the training throughput.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>

#include "agents/e2e_agent.hpp"
#include "common/config.hpp"
#include "core/zoo.hpp"
#include "runtime/parallel_eval.hpp"
#include "telemetry/metrics.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace adsec;

namespace {

// ADSEC_TRAIN_SCALE of every build: at 0.05 the pair trains in a few seconds
// and the attacker still succeeds at budget 1 on nearly every held-out seed.
constexpr double kTrainScale = 0.05;
constexpr int kHeldOutEpisodes = 64;
constexpr std::uint64_t kHeldOutSeedBase = 900000;

// Counters whose per-build deltas the traced run reports.
const char* const kTrainCounters[] = {"trainer.updates", "trainer.env_steps",
                                      "trainer.recoveries", "nn.gemm.calls",
                                      "nn.gemm.flops", "nn.gemv.calls",
                                      "zoo.cache_miss"};

// What the run keeps of one build.
struct Build {
  bool ok{false};
  double victim_s{0.0};    // pi_ori, from an empty zoo
  double attacker_s{0.0};  // attacker_cam_e2e, after pi_ori
  double check_s{0.0};     // the held-out check
  std::uint32_t victim_crc{0};
  std::uint32_t attacker_crc{0};
  std::vector<EpisodeMetrics> held_out;

  [[nodiscard]] double train_s() const { return victim_s + attacker_s; }
};

// One zoo of a round and the policies trained in it.
struct Trained {
  std::unique_ptr<PolicyZoo> zoo;
  std::optional<GaussianPolicy> victim;
  std::optional<GaussianPolicy> attacker;
};

}  // namespace

Result run_train_zoo(const Args& args, Clock::time_point t_start) {
  const ScratchDir scratch("train_zoo");
  const int lanes = worker_count();
  SetupTimer setup(t_start, [&] {
    runtime_config().train_scale = kTrainScale;
    for (int i = 0; i < lanes; ++i) (void)scratch.fresh("zoo-" + std::to_string(i));
  });

  Result result;
  std::vector<Build> builds;
  Trained last;  // the newest finished build, for the final checks and probes
  double round_train_s = 0.0;  // summed wall time of the rounds' training phases

  // Traced rounds only: actor clocks for the held-out checks and counter
  // deltas of the training itself.
  ActorClocks agent_clocks, attack_clocks;
  WorldSampler sampler(256, 7);
  std::map<std::string, double> train_counts;

  const auto round = [&](bool traced) {
    std::vector<Trained> trained(static_cast<std::size_t>(lanes));
    std::vector<Build> fresh(static_cast<std::size_t>(lanes));
    result.attempted += 2L * lanes;
    const telemetry::MetricsSnapshot before =
        traced ? telemetry::metrics_snapshot() : telemetry::MetricsSnapshot{};
    const auto t0 = Clock::now();
    parallel_for(lanes, lanes, [&](int i) {
      Trained& t = trained[static_cast<std::size_t>(i)];
      Build& b = fresh[static_cast<std::size_t>(i)];
      try {
        const std::string dir = scratch.fresh("zoo-" + std::to_string(i));
        const auto t1 = Clock::now();
        t.zoo = std::make_unique<PolicyZoo>(dir);
        t.victim.emplace(t.zoo->driving_policy());
        b.victim_s = seconds_since(t1);
        const auto t2 = Clock::now();
        t.attacker.emplace(t.zoo->camera_attacker_vs_e2e());
        b.attacker_s = seconds_since(t2);
        b.victim_crc = file_crc(dir + "/pi_ori.bin");
        b.attacker_crc = file_crc(dir + "/attacker_cam_e2e.bin");
        b.ok = true;
      } catch (const std::exception& ex) {
        std::fprintf(stderr, "train_zoo: build failed: %s\n", ex.what());
      }
    });
    round_train_s += seconds_since(t0);
    if (traced) {
      const telemetry::MetricsSnapshot after = telemetry::metrics_snapshot();
      for (const char* name : kTrainCounters) {
        train_counts[name] +=
            static_cast<double>(counter_value(after, name) - counter_value(before, name));
      }
    }

    // Held-out checks one build at a time, each on the whole pool.
    for (std::size_t i = 0; i < trained.size(); ++i) {
      Trained& t = trained[i];
      Build& b = fresh[i];
      if (b.ok) {
        try {
          AgentFactory make_agent = [&] {
            return std::make_unique<E2EAgent>(*t.victim, t.zoo->camera(), t.zoo->frame_stack());
          };
          AttackerFactory make_attacker = [&] {
            return std::make_unique<LearnedCameraAttacker>(*t.attacker, 1.0, t.zoo->camera(),
                                                           t.zoo->frame_stack());
          };
          if (traced) {
            make_agent = timed(make_agent, agent_clocks, &sampler);
            make_attacker = timed(make_attacker, attack_clocks);
          }
          ParallelEvalOptions options;
          options.jobs = lanes;
          options.with_reference = true;
          const auto t1 = Clock::now();
          b.held_out = run_batch_parallel(make_agent, make_attacker, t.zoo->experiment(),
                                          kHeldOutEpisodes, kHeldOutSeedBase, options);
          b.check_s = seconds_since(t1);
          last = std::move(t);
        } catch (const std::exception& ex) {
          std::fprintf(stderr, "train_zoo: held-out check failed: %s\n", ex.what());
          b.ok = false;
        }
      }
      if (!b.ok) result.failed += 2;
      builds.push_back(std::move(b));
    }
    return 0.0;  // the builds' own times are in `builds`
  };

  // Per-build training times of builds [from, builds.size()) that finished.
  const auto train_walls = [&](std::size_t from) {
    std::vector<double> walls;
    for (std::size_t i = from; i < builds.size(); ++i) {
      if (builds[i].ok) walls.push_back(builds[i].train_s());
    }
    return walls;
  };
  std::map<std::string, double> layer;
  std::vector<double> walls;
  double sac_steps = 0.0, sac_episodes = 0.0;  // per build
  if (!args.trace) {
    // The warm-up round also makes the two builds at least whose policy
    // bytes must be identical.
    telemetry::set_metrics_enabled(true);
    const telemetry::MetricsSnapshot before = telemetry::metrics_snapshot();
    (void)round(false);
    const telemetry::MetricsSnapshot after = telemetry::metrics_snapshot();
    telemetry::set_metrics_enabled(false);
    const auto per_build = [&](const char* name) {
      return static_cast<double>(counter_value(after, name) - counter_value(before, name)) /
             lanes;
    };
    sac_steps = per_build("trainer.env_steps");
    sac_episodes = per_build("trainer.episodes");
    if (sac_steps <= 0.0 || sac_episodes <= 0.0) {
      throw SetupError("the warm-up round counted no SAC steps or episodes");
    }
    const std::size_t first_timed = builds.size();
    (void)repeat_for(args.seconds, 1, [&] { return round(false); });
    walls = train_walls(first_timed);
  } else {
    (void)repeat_for(args.seconds / 2, 1, [&] { return round(false); });
    const std::vector<double> walls_untraced = train_walls(0);
    const std::size_t first_traced = builds.size();
    round_train_s = 0.0;
    start_tracing(args.workload);
    (void)repeat_for(args.seconds / 2, 1, [&] { return round(true); });
    auto spans = spans_by_name(telemetry::collect_spans());
    const telemetry::MetricsSnapshot snap = telemetry::metrics_snapshot();
    stop_tracing();
    walls = train_walls(first_traced);
    const double n_builds = static_cast<double>(builds.size() - first_traced);
    if (train_counts["zoo.cache_miss"] != 2.0 * n_builds) {
      throw SetupError("a traced build was served from the zoo cache");
    }
    if (last.zoo == nullptr) throw SetupError("no build finished");

    // Lane time of the traced training phases: every lane builds one zoo.
    // round.wait is the lane time outside the builds: mostly a lane whose
    // build finished first waiting for the round's slowest, plus the fresh
    // directory and the CRCs.
    LayerTable table(args.workload, round_train_s, lanes);
    const SpanStats& bursts = spans["trainer.update_burst"];
    const SpanStats& evals = spans["trainer.eval"];
    const SpanStats& trainings = spans["zoo.train"];
    const SpanStats& saves = spans["serialize.save_checked"];
    table.add("rl.update", bursts.total_s(), bursts.count());
    table.add("rl.eval", evals.total_s(), evals.count());
    // zoo.train minus the spanned trainer phases: BC data collection and
    // fitting, SAC's environment steps (camera, world, actor sampling,
    // replay), divergence-guard snapshots and the deployment pick.
    table.add("core", trainings.total_s() - bursts.total_s() - evals.total_s(),
              trainings.count());
    table.add("serialize", saves.total_s(), saves.count());
    table.add("round.wait", table.lane_s() - sum(walls), 0);
    const double overhead = median(walls) / median(walls_untraced) - 1.0;
    table.print(overhead);

    std::vector<double> victim_s, attacker_s;
    double check_s = 0.0;
    for (std::size_t i = first_traced; i < builds.size(); ++i) {
      if (!builds[i].ok) continue;
      victim_s.push_back(builds[i].victim_s);
      attacker_s.push_back(builds[i].attacker_s);
      check_s += builds[i].check_s;
    }
    std::vector<double> burst_ms, episode_ms;
    for (const double d : bursts.durations_s) burst_ms.push_back(d * 1e3);
    for (const double d : spans["runtime.episode"].durations_s) episode_ms.push_back(d * 1e3);
    const double idle_s = static_cast<double>(counter_value(snap, "runtime.idle_ns")) / 1e9;

    const PolicyZoo& zoo = *last.zoo;
    const std::vector<World> worlds = sampler.worlds();
    const std::vector<double> camera_us =
        probe_camera_us(worlds, zoo.camera(), zoo.frame_stack());
    const std::vector<double> runner_us = probe_runner_step_us(
        [&] { return std::make_unique<E2EAgent>(*last.victim, zoo.camera(), zoo.frame_stack()); },
        [&] {
          return std::make_unique<LearnedCameraAttacker>(*last.attacker, 1.0, zoo.camera(),
                                                         zoo.frame_stack());
        },
        zoo.experiment(), 12, kHeldOutSeedBase);
    layer = {
        {"rl.update_burst_ms.p50", quantile(burst_ms, 0.5)},
        {"rl.update_burst_ms.p99", quantile(burst_ms, 0.99)},
        {"rl.update_share", bursts.total_s() / table.lane_s()},
        {"rl.eval_share", evals.total_s() / table.lane_s()},
        {"rl.updates", train_counts["trainer.updates"] / n_builds},
        {"rl.env_steps", train_counts["trainer.env_steps"] / n_builds},
        {"rl.recoveries", train_counts["trainer.recoveries"] / n_builds},
        {"core.train_s.pi_ori", median(victim_s)},
        {"core.train_s.attacker_cam_e2e", median(attacker_s)},
        {"nn.gemm_calls", train_counts["nn.gemm.calls"] / n_builds},
        {"nn.gemm_flops", train_counts["nn.gemm.flops"] / n_builds},
        {"nn.gemv_calls", train_counts["nn.gemv.calls"] / n_builds},
        {"nn.policy_forward_us",
         probe_policy_forward_us(*last.victim, worlds, zoo.camera(), zoo.frame_stack())},
        {"sensors.camera_render_us.p50", quantile(camera_us, 0.5)},
        {"sensors.camera_render_us.p99", quantile(camera_us, 0.99)},
        {"sim.road_project_ns", probe_road_project_ns(worlds)},
        {"sim.runner_step_us.p50", quantile(runner_us, 0.5)},
        {"sim.runner_step_us.p99", quantile(runner_us, 0.99)},
        {"agents.decide_us.e2e", agent_clocks.decide.mean_us()},
        {"attack.decide_us.camera", attack_clocks.decide.mean_us()},
        {"runtime.idle_share", idle_s / (check_s * lanes)},
        {"runtime.tasks_stolen",
         static_cast<double>(counter_value(snap, "runtime.tasks_stolen")) / n_builds},
        {"runtime.episode_ms.p50", quantile(episode_ms, 0.5)},
        {"runtime.episode_ms.p99", quantile(episode_ms, 0.99)},
        {"trace.coverage", table.coverage()},
        {"trace.overhead_share", overhead},
    };
  }

  // Every build must yield the same bytes, and its held-out checks must
  // match serial run_batch on the same seeds.
  const Build* first = nullptr;
  for (const Build& b : builds) {
    if (!b.ok) continue;
    if (first == nullptr) first = &b;
    if (b.victim_crc != first->victim_crc) ++result.failed;
    if (b.attacker_crc != first->attacker_crc) ++result.failed;
  }
  if (first == nullptr || last.zoo == nullptr) throw SetupError("no build finished");
  const PolicyZoo& zoo = *last.zoo;
  E2EAgent serial_agent(*last.victim, zoo.camera(), zoo.frame_stack());
  LearnedCameraAttacker serial_attacker(*last.attacker, 1.0, zoo.camera(), zoo.frame_stack());
  const std::vector<EpisodeMetrics> ref =
      run_batch(serial_agent, &serial_attacker, zoo.experiment(), kHeldOutEpisodes,
                kHeldOutSeedBase, /*with_reference=*/true);
  long mismatches = 0;
  for (const Build& b : builds) {
    if (b.ok) mismatches += count_mismatches(b.held_out, ref);
  }
  const double success = success_rate(ref);
  std::printf("train_zoo: %zu builds in rounds of %d, pi_ori crc %s, attacker_cam_e2e crc %s, "
              "held-out attack success %.4f, %ld held-out mismatches vs serial run_batch\n",
              builds.size(), lanes, hex32(first->victim_crc).c_str(),
              hex32(first->attacker_crc).c_str(), success, mismatches);
  result.correct = result.failed == 0 && mismatches == 0 && success > 0.0;
  if (args.trace) {
    add_per_layer(result, layer);
  } else {
    add_end_to_end(result, setup.finish(), walls, sac_episodes, sac_steps, success);
  }
  return result;
}

}  // namespace perfbench
