// Regenerates Fig. 8: attack success rate per attack-effort window (width
// 0.2, from 0.0 to 0.8+) for the nominal end-to-end agent and the four
// enhanced agents, under camera-based attacks.
//
// Paper shape targets: fine-tuned agents show nonzero success rates already
// at small efforts; PNN agents have the lowest success rates in every
// window.
//
// Episodes run on the parallel rollout runtime: all policies are resolved
// serially up front, then each 13-budget sweep fans its batches out over
// bench_jobs() workers with results bit-identical to the serial sweep.
#include "bench_common.hpp"

#include "core/experiment.hpp"
#include "defense/pnn_agent.hpp"

using namespace adsec;
using namespace adsec::bench;

namespace {

// An agent recipe per budget level (the PNN switcher is primed with the
// sweep's budget; the other agents ignore it).
using AgentForBudget = std::function<AgentFactory(double)>;

AgentForBudget e2e_for(const GaussianPolicy& policy, const std::string& name) {
  return [&policy, name](double) {
    return AgentFactory([&policy, name] {
      return std::make_unique<E2EAgent>(policy, zoo().camera(), zoo().frame_stack(),
                                        name);
    });
  };
}

AgentForBudget pnn_for(const GaussianPolicy& base, const GaussianPolicy& column,
                       double sigma) {
  return [&base, &column, sigma](double budget) {
    return AgentFactory([&base, &column, sigma, budget] {
      auto agent = std::make_unique<PnnSwitchedAgent>(base, column, sigma,
                                                      zoo().camera(),
                                                      zoo().frame_stack());
      agent->set_attack_budget_estimate(budget);
      return agent;
    });
  };
}

EffortWindowStats sweep(const AgentForBudget& agent_for_budget,
                        const GaussianPolicy& attack_policy, int rounds) {
  ExperimentConfig cfg = zoo().experiment();
  std::vector<double> efforts;
  std::vector<bool> successes;
  for (int bi = 0; bi <= 12; ++bi) {
    const double budget = bi * 0.1;
    AttackerFactory make_attacker;
    if (budget > 0.0) {
      make_attacker = [&attack_policy, budget] {
        return std::make_unique<LearnedCameraAttacker>(
            attack_policy, budget, zoo().camera(), zoo().frame_stack());
      };
    }
    // Same seeds as the serial sweep: kEvalSeedBase + 1000*bi + r.
    const auto ms = run_batch_parallel(
        agent_for_budget(budget), make_attacker, cfg, rounds,
        kEvalSeedBase + 1000 * static_cast<std::uint64_t>(bi),
        /*with_reference=*/false, bench_jobs());
    for (const EpisodeMetrics& m : ms) {
      efforts.push_back(m.attack_effort);
      successes.push_back(m.side_collision);
    }
  }
  return success_by_effort_window(efforts, successes, 0.2, 0.8);
}

}  // namespace

int main() {
  bench_init("fig8_windows");
  set_log_level(LogLevel::Info);
  print_header("Attack success rate per attack-effort window",
               "Fig. 8, Sec. VI-C");
  const int rounds = eval_episodes(10);

  Table t({"agent", "[0,.2)", "[.2,.4)", "[.4,.6)", "[.6,.8)", ".8+"});
  auto add = [&](const std::string& name, const EffortWindowStats& s) {
    std::vector<std::string> row{name};
    for (std::size_t b = 0; b < s.success_rate.size(); ++b) {
      row.push_back(fmt_pct(s.success_rate[b], 0) + " (" +
                    std::to_string(s.episodes[b]) + ")");
    }
    t.add_row(std::move(row));
  };

  // Resolve every policy serially (training on cache miss) before the
  // parallel sweeps start; worker factories only copy them.
  const GaussianPolicy attack_policy = zoo().camera_attacker_vs_e2e();
  const GaussianPolicy pi_ori = zoo().driving_policy();
  const GaussianPolicy ft11 = zoo().finetuned(1.0 / 11.0);
  const GaussianPolicy ft2 = zoo().finetuned(0.5);
  const GaussianPolicy pnn_col = zoo().pnn_column();

  add("pi_ori", sweep(e2e_for(pi_ori, "e2e"), attack_policy, rounds));
  add("pi_adv,rho=1/11",
      sweep(e2e_for(ft11, "e2e-adv,rho=1/11"), attack_policy, rounds));
  add("pi_adv,rho=1/2",
      sweep(e2e_for(ft2, "e2e-adv,rho=1/2"), attack_policy, rounds));
  add("pi_pnn,sigma=0.2", sweep(pnn_for(pi_ori, pnn_col, 0.2), attack_policy, rounds));
  add("pi_pnn,sigma=0.4", sweep(pnn_for(pi_ori, pnn_col, 0.4), attack_policy, rounds));

  std::printf("success rate (episodes in window):\n");
  t.print();
  maybe_write_csv(t, "fig8");
  return 0;
}
