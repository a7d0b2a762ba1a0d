#include "runtime/parallel_eval.hpp"

#include <atomic>
#include <exception>

#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "telemetry/telemetry.hpp"

namespace adsec {

namespace {

telemetry::Counter& episodes_counter() {
  static telemetry::Counter c = telemetry::counter("runtime.episodes");
  return c;
}

struct WorkerContext {
  std::unique_ptr<DrivingAgent> agent;
  std::unique_ptr<Attacker> attacker;  // null => nominal driving
};

WorkerContext make_context(const AgentFactory& make_agent,
                           const AttackerFactory& make_attacker) {
  WorkerContext ctx;
  ctx.agent = make_agent();
  if (make_attacker) ctx.attacker = make_attacker();
  return ctx;
}

}  // namespace

std::vector<EpisodeMetrics> run_batch_parallel(const AgentFactory& make_agent,
                                               const AttackerFactory& make_attacker,
                                               const ExperimentConfig& config,
                                               int episodes, std::uint64_t seed_base,
                                               const ParallelEvalOptions& options) {
  if (episodes <= 0) return {};
  // Root span for the whole batch: episode spans parent to it via the
  // pool's context capture, so one batch is one rooted trace.
  ADSEC_SPAN("runtime.batch");
  std::vector<EpisodeMetrics> out(static_cast<std::size_t>(episodes));
  const int jobs = options.jobs > 0 ? options.jobs : hardware_jobs();
  WorkStealingPool pool(std::min(jobs, episodes));
  // One lazily built context per worker. Slot w is only ever touched by
  // worker thread w, so no lock is needed.
  std::vector<std::unique_ptr<WorkerContext>> contexts(
      static_cast<std::size_t>(pool.size()));
  std::atomic<int> done{0};

  std::vector<std::future<void>> pending;
  pending.reserve(static_cast<std::size_t>(episodes));
  for (int k = 0; k < episodes; ++k) {
    pending.push_back(pool.submit([&, k] {
      if (fault_injector().fire("runtime.worker")) {
        throw Error(ErrorCode::Internal,
                    "injected fault in rollout worker (episode " +
                        std::to_string(k) + ")");
      }
      const int w = WorkStealingPool::current_worker_index();
      auto& ctx = contexts[static_cast<std::size_t>(w)];
      if (!ctx) {
        ctx = std::make_unique<WorkerContext>(
            make_context(make_agent, make_attacker));
      }
      ADSEC_SPAN("runtime.episode");
      out[static_cast<std::size_t>(k)] =
          evaluate_episode(*ctx->agent, ctx->attacker.get(), config,
                           seed_base + static_cast<std::uint64_t>(k),
                           options.with_reference);
      episodes_counter().inc();
      if (options.on_progress) {
        options.on_progress(done.fetch_add(1) + 1, episodes);
      }
    }));
  }

  // Wait for everything; surface the lowest-episode-index failure (the one
  // the serial loop would have hit first).
  std::exception_ptr first_error;
  for (auto& f : pending) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  telemetry::emit_event("runtime.batch",
                        {{"episodes", episodes}, {"jobs", pool.size()}});
  return out;
}

std::vector<EpisodeMetrics> run_batch_parallel(const AgentFactory& make_agent,
                                               const AttackerFactory& make_attacker,
                                               const ExperimentConfig& config,
                                               int episodes, std::uint64_t seed_base,
                                               bool with_reference, int jobs) {
  ParallelEvalOptions options;
  options.jobs = jobs;
  options.with_reference = with_reference;
  return run_batch_parallel(make_agent, make_attacker, config, episodes, seed_base,
                            options);
}

}  // namespace adsec
