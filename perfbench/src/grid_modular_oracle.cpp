// grid_modular_oracle: an experiment grid through orch::run_grid into a
// fresh ResultStore. Cells are the modular victim x {none, oracle} x budgets
// 0.1..1.2 x {paper, dense}; each cell runs serial run_batch on the pool and
// commits to the store. There is no camera, no policy network and no SAC,
// so the world step, the planner/PID, the orchestrator and the store's
// commits do the work: a change to those layers shows here, a change to the
// sensors, nn or rl predicts no change here.
#include <cmath>
#include <cstdio>
#include <optional>

#include "core/zoo.hpp"
#include "orchestrator/dag.hpp"
#include "serve/spec.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace adsec;

namespace {

constexpr int kEpisodesPerCell = 40;

using CellResults = std::vector<std::vector<EpisodeMetrics>>;  // [cell][episode]

struct Grid {
  std::optional<PolicyZoo> zoo;  // the grid needs no learned policy; stays empty
  orch::GridSpec spec;
  std::vector<orch::Cell> cells;
  std::vector<serve::ResolvedSpec> resolved;  // [cell], for the serial reference
};

void set_up(Grid& g, const Args& args, const ScratchDir& scratch) {
  g.zoo.emplace(scratch.fresh("zoo"));
  g.spec = orch::GridSpec{};
  g.spec.agents = {"modular"};
  g.spec.attackers = {"none", "oracle"};
  g.spec.budgets.clear();
  for (int b = 1; b <= 12; ++b) g.spec.budgets.push_back(0.1 * b);
  g.spec.scenarios = {"paper", "dense"};
  g.spec.episodes = kEpisodesPerCell;
  g.spec.seeds = 1;
  g.spec.seed_base = 3'000'000'000ull + (mix_seed(args.seed) % 1'000'000ull) * 1000ull;
  g.spec.with_reference = false;
  g.cells = orch::expand_grid(g.spec);
  g.resolved.clear();
  for (const orch::Cell& cell : g.cells) {
    g.resolved.push_back(serve::resolve_spec(*g.zoo, orch::to_request(cell)));
  }
}

// Serial run_batch of every cell on the same seeds (one cell per thread),
// through the same factories run_grid resolves. With clocks, the actors are
// wrapped in the timing decorators.
CellResults serial_reference(const Grid& g, ActorClocks* agent_clocks,
                             ActorClocks* attack_clocks, WorldSampler* sampler) {
  CellResults ref(g.cells.size());
  parallel_for(static_cast<int>(g.cells.size()), worker_count(), [&](int i) {
    const orch::Cell& cell = g.cells[static_cast<std::size_t>(i)];
    const serve::ResolvedSpec& spec = g.resolved[static_cast<std::size_t>(i)];
    std::unique_ptr<DrivingAgent> agent = spec.agent();
    std::unique_ptr<Attacker> attacker = spec.attacker ? spec.attacker() : nullptr;
    if (agent_clocks != nullptr) {
      agent = timed(std::move(agent), *agent_clocks, sampler);
      attacker = timed(std::move(attacker), *attack_clocks);
    }
    ref[static_cast<std::size_t>(i)] = run_batch(*agent, attacker.get(), spec.config,
                                                 cell.episodes, cell.seed,
                                                 cell.with_reference);
  });
  return ref;
}

}  // namespace

Result run_grid_modular_oracle(const Args& args, Clock::time_point t_start) {
  const ScratchDir scratch("grid_modular_oracle");
  Grid g;
  SetupTimer setup(t_start, [&] { set_up(g, args, scratch); });
  const long cells = static_cast<long>(g.cells.size());

  Result result;
  std::vector<CellResults> runs;  // every repetition's store contents
  orch::GridOptions options;
  options.jobs = worker_count();
  const auto rep = [&] {
    const std::string dir = scratch.fresh("store");
    const auto t0 = Clock::now();
    orch::ResultStore store(dir);
    orch::GridReport report;
    try {
      report = orch::run_grid(store, *g.zoo, g.spec, options);
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "grid_modular_oracle: grid failed: %s\n", ex.what());
      report.cells_failed = static_cast<int>(cells);
    }
    const double wall = seconds_since(t0);
    if (report.cells_cached != 0) {
      throw SetupError("grid cells were served from the store cache");
    }
    result.attempted += cells;
    result.failed += report.cells_failed;
    CellResults got;
    for (const orch::Cell& cell : g.cells) {
      std::optional<orch::CellResult> r = store.lookup(cell);
      got.push_back(r ? std::move(r->episodes) : std::vector<EpisodeMetrics>{});
    }
    runs.push_back(std::move(got));
    return wall;
  };

  std::map<std::string, double> layer;
  std::vector<double> walls;
  if (!args.trace) {
    walls = repeat_for(args.seconds, 2, rep);
  } else {
    const std::vector<double> walls_untraced = repeat_for(args.seconds / 2, 1, rep);
    start_tracing(args.workload);
    walls = repeat_for(args.seconds / 2, 1, rep);
    const std::vector<telemetry::SpanRecord> records = telemetry::collect_spans();
    const telemetry::MetricsSnapshot snap = telemetry::metrics_snapshot();
    stop_tracing();
    auto spans = spans_by_name(records);

    // run_grid builds its actors internally, so the decorators time the same
    // cells through the same resolved factories in a serial pass; one pass
    // is exactly one grid's worth of decisions.
    ActorClocks agent_clocks, attack_clocks;
    WorldSampler sampler(256, 101);
    (void)serial_reference(g, &agent_clocks, &attack_clocks, &sampler);
    const double reps = static_cast<double>(walls.size());
    const double agents_s = agent_clocks.seconds() * reps;
    const double attack_s = attack_clocks.seconds() * reps;

    const double traced_s = sum(walls);
    LayerTable table(args.workload, traced_s, worker_count());
    const SpanStats& rollouts = spans["experiment.episode"];
    const double jobs_s = spans["orch.eval"].total_s() + spans["orch.train"].total_s();
    const double commit_s = spans["serialize.save_checked"].total_s();
    const auto decisions = static_cast<std::uint64_t>(
        static_cast<double>(agent_clocks.decide.calls) * reps);
    table.add("agents", agents_s, decisions);
    table.add("attack", attack_s,
              static_cast<std::uint64_t>(static_cast<double>(attack_clocks.decide.calls) * reps));
    table.add("sim", rollouts.total_s() - agents_s - attack_s, rollouts.count());
    table.add("serialize", commit_s, spans["serialize.save_checked"].count());
    table.add("orch", jobs_s - rollouts.total_s() - commit_s, spans["orch.eval"].count());
    const double idle_s = static_cast<double>(counter_value(snap, "runtime.idle_ns")) / 1e9;
    table.add("runtime.idle", idle_s, 0);
    const double overhead = median(walls) / median(walls_untraced) - 1.0;
    table.print(overhead);

    // Store commit time per cell: the save_checked spans under each eval job.
    std::map<std::uint64_t, double> commit_by_job;
    for (const auto& s : records) {
      if (s.name == "orch.eval") commit_by_job.emplace(s.span_id, 0.0);
    }
    for (const auto& s : records) {
      const auto it = commit_by_job.find(s.parent_span_id);
      if (s.name == "serialize.save_checked" && it != commit_by_job.end()) {
        it->second += static_cast<double>(s.end_ns - s.begin_ns) / 1e6;
      }
    }
    std::vector<double> commit_ms, episode_ms;
    for (const auto& [id, ms] : commit_by_job) commit_ms.push_back(ms);
    for (const double d : rollouts.durations_s) episode_ms.push_back(d * 1e3);

    std::size_t probe_cell = 0;
    for (std::size_t i = 0; i < g.cells.size(); ++i) {
      const orch::Cell& c = g.cells[i];
      if (c.attacker == "oracle" && c.scenario == "paper" && std::abs(c.budget - 1.0) < 1e-9) {
        probe_cell = i;
      }
    }
    const serve::ResolvedSpec& spec = g.resolved[probe_cell];
    const std::vector<double> runner_us = probe_runner_step_us(
        spec.agent, spec.attacker, spec.config, 12, g.cells[probe_cell].seed);
    const auto per_rep = [&](const char* counter) {
      return static_cast<double>(counter_value(snap, counter)) / reps;
    };
    layer = {
        {"sim.road_project_ns", probe_road_project_ns(sampler.worlds())},
        {"sim.runner_step_us.p50", quantile(runner_us, 0.5)},
        {"sim.runner_step_us.p99", quantile(runner_us, 0.99)},
        {"agents.decide_us.modular", agent_clocks.decide.mean_us()},
        {"attack.decide_us.oracle", attack_clocks.decide.mean_us()},
        {"runtime.idle_share", idle_s / table.lane_s()},
        {"runtime.tasks_stolen", per_rep("runtime.tasks_stolen")},
        {"runtime.episode_ms.p50", quantile(episode_ms, 0.5)},
        {"runtime.episode_ms.p99", quantile(episode_ms, 0.99)},
        {"orch.commit_ms.p50", quantile(commit_ms, 0.5)},
        {"orch.cells_committed", per_rep("orch.cells_committed")},
        {"serialize.bytes_written", per_rep("serialize.bytes_written")},
        {"orch.job_retries", per_rep("orch.job_retries")},
        {"trace.coverage", table.coverage()},
        {"trace.overhead_share", overhead},
    };
  }

  if (!dir_is_empty(g.zoo->dir())) {
    throw SetupError("the grid trained or cached a policy in " + g.zoo->dir());
  }
  const CellResults ref = serial_reference(g, nullptr, nullptr, nullptr);
  for (const CellResults& run : runs) {
    for (std::size_t i = 0; i < ref.size(); ++i) {
      // A cell missing from the store already counted as failed.
      if (!run[i].empty() && count_mismatches(run[i], ref[i]) > 0) ++result.failed;
    }
  }
  double episodes = 0.0, steps = 0.0, successes = 0.0;
  for (const auto& cell : ref) {
    for (const EpisodeMetrics& m : cell) {
      episodes += 1.0;
      steps += m.steps;
      successes += m.side_collision ? 1.0 : 0.0;
    }
  }
  const double success = successes / episodes;
  std::printf("grid_modular_oracle: %zu grid runs of %ld cells, attack success %.4f, "
              "%ld failed or mismatching cells vs serial run_batch\n",
              runs.size(), cells, success, result.failed);
  result.correct = result.failed == 0 && success > 0.0;
  if (args.trace) {
    add_per_layer(result, layer);
  } else {
    add_end_to_end(result, setup.finish(), walls, episodes, steps, success);
  }
  return result;
}

}  // namespace perfbench
