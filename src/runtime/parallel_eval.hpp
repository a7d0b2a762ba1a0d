// Deterministic parallel episode scheduler — the one way a batch of
// episodes runs on more than the calling thread.
//
// Episodes of a batch are independent once the agent/attacker are reset —
// run_episode seeds a fresh Rng and World from `seed` and every stateful
// actor re-initializes in reset() — so a batch parallelizes by *episode*
// with no coordination beyond result placement. The determinism contract:
//
//   run_batch_parallel(make_agent, make_attacker, cfg, n, seed_base, ...)
//     == run_batch(agent, attacker, cfg, n, seed_base, ...)
//
// element-wise bit-identical, for ANY jobs count, because episode k always
// uses seed_base + k, writes result slot k, and runs through
// evaluate_episode on a freshly reset per-worker agent/attacker pair built
// by the factories. Work stealing decides only *where* an episode runs,
// never *what* it computes. jobs = 1 is a one-worker pool, not a separate
// code path.
//
// Factories are invoked at most once per pool worker, concurrently; they
// must not mutate shared state (see core/experiment.hpp).
#pragma once

#include "core/experiment.hpp"
#include "runtime/thread_pool.hpp"

namespace adsec {

struct ParallelEvalOptions {
  int jobs = 0;                // <= 0 => hardware_jobs()
  bool with_reference = false; // fill deviation_rmse via a reference rollout

  // Called after each finished episode with (episodes done, total), from
  // worker threads — must be thread-safe (e.g. ProgressMeter::tick).
  std::function<void(int, int)> on_progress;
};

std::vector<EpisodeMetrics> run_batch_parallel(const AgentFactory& make_agent,
                                               const AttackerFactory& make_attacker,
                                               const ExperimentConfig& config,
                                               int episodes, std::uint64_t seed_base,
                                               const ParallelEvalOptions& options);

}  // namespace adsec
