#include "serve/server.hpp"

#include <map>
#include <utility>

#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/logging.hpp"
#include "common/table.hpp"
#include "runtime/aggregate.hpp"
#include "serve/json.hpp"
#include "serve/spec.hpp"
#include "telemetry/telemetry.hpp"

namespace adsec::serve {

namespace {

struct ServerMetrics {
  telemetry::Counter submitted = telemetry::counter("serve.submitted");
  telemetry::Counter completed = telemetry::counter("serve.completed");
  telemetry::Counter failed = telemetry::counter("serve.failed");
  telemetry::Counter cache_hit = telemetry::counter("serve.actor_cache_hit");
  telemetry::Counter cache_miss = telemetry::counter("serve.actor_cache_miss");
  telemetry::Histogram queue_ms = telemetry::histogram(
      "serve.queue_ms", {0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 33.0, 66.0, 125.0,
                         250.0, 500.0, 1000.0, 4000.0});
};

ServerMetrics& server_metrics() {
  static ServerMetrics m;
  return m;
}

telemetry::Histogram class_latency_histogram(const std::string& request_class) {
  // Registering an existing name returns the same instrument, so per-request
  // lookup is a registry probe, not a new registration.
  return telemetry::histogram("serve.latency_ms." + request_class,
                              latency_bounds_ms());
}

ResultRecord status_record(const EvalRequest& request, const char* status) {
  ResultRecord rec;
  rec.id = request.id;
  rec.status = status;
  rec.request_class = request_class(request);
  return rec;
}

// Aggregate one request's ordered episode metrics into its terminal record.
ResultRecord summarize(const EvalRequest& req,
                       const std::vector<EpisodeMetrics>& ms) {
  EpisodeAggregator agg;
  for (const auto& m : ms) agg.add(m);
  ResultRecord rec = status_record(req, "done");
  rec.episodes = static_cast<int>(ms.size());
  rec.mean_nominal_reward = agg.nominal_reward().mean();
  rec.mean_adv_reward = agg.adv_reward().mean();
  rec.mean_passed_npcs = agg.passed_npcs().mean();
  rec.mean_attack_effort = agg.attack_effort().mean();
  rec.mean_deviation_rmse =
      agg.deviation_rmse().count() > 0 ? agg.deviation_rmse().mean() : -1.0;
  rec.success_rate = success_rate(ms);
  rec.collisions = agg.collisions();
  rec.side_collisions = agg.side_collisions();
  return rec;
}

}  // namespace

// Per-pool-worker actor caches. Slot w is only ever touched by worker
// thread w (the dispatcher hands a request to exactly one worker), so the
// per-slot maps need no locks — the same single-writer discipline the
// parallel episode scheduler uses for its contexts.
struct EvalServer::WorkerCaches {
  struct Actors {
    std::unique_ptr<DrivingAgent> agent;
    std::unique_ptr<Attacker> attacker;  // null => nominal driving
  };
  // Key: agent|attacker|budget — the axes that change the constructed pair.
  std::vector<std::map<std::string, Actors>> per_worker;
};

EvalServer::EvalServer(const ServerOptions& options, ResultCallback default_sink)
    : options_(options),
      workers_(options.workers > 0 ? options.workers : hardware_jobs()),
      default_sink_(std::move(default_sink)),
      queue_(options.queue_depth) {
  if (options_.zoo != nullptr) {
    zoo_ = options_.zoo;
  } else {
    owned_zoo_ = std::make_unique<PolicyZoo>();
    zoo_ = owned_zoo_.get();
  }
  // The server is its own metrics consumer: the latency report reads the
  // registry, so collection is always on while a server exists — and so is
  // the flight recorder, whose whole point is to already be running when a
  // long-lived server finally hits something fatal.
  telemetry::set_metrics_enabled(true);
  telemetry::set_flight_enabled(true);
  pool_ = std::make_unique<WorkStealingPool>(workers_);
  caches_ = std::make_unique<WorkerCaches>();
  caches_->per_worker.resize(static_cast<std::size_t>(pool_->size()));
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
  telemetry::emit_event("serve.start", {{"workers", workers_},
                                        {"queue_depth",
                                         static_cast<std::uint64_t>(queue_.depth())}});
}

EvalServer::~EvalServer() { drain(); }

void EvalServer::emit(const ResultCallback& sink, const ResultRecord& record) {
  const ResultCallback& target = sink ? sink : default_sink_;
  const bool terminal = record.status == "done" || record.status == "failed" ||
                        record.status == "rejected";
  {
    MutexLock lock(sink_mu_);
    if (target) target(record);
  }
  if (terminal) {
    MutexLock lock(mu_);
    ++answered_;
  }
}

std::uint64_t EvalServer::answered() const {
  MutexLock lock(mu_);
  return answered_;
}

void EvalServer::submit_line(const std::string& line, ResultCallback sink) {
  server_metrics().submitted.inc();
  EvalRequest request;
  try {
    ParsedLine parsed = parse_line(line);
    if (parsed.kind != LineKind::Request) {
      throw Error(ErrorCode::Config,
                  "control lines are handled by the transport, not submit_line");
    }
    request = std::move(parsed.request);
  } catch (const Error& e) {
    ResultRecord rec;
    // Best-effort id salvage: a shape-invalid line may still be valid JSON
    // carrying an id, and answering under that id lets the client correlate
    // the failure. Truly garbled lines fall back to "?".
    rec.id = "?";
    try {
      const JsonValue doc = JsonValue::parse(line);
      const JsonValue* id = doc.find("id");
      if (id != nullptr && id->is_string() && !id->as_string().empty()) {
        rec.id = id->as_string();
      }
    } catch (const Error&) {
    }
    rec.status = "failed";
    rec.error_code = error_code_name(e.code());
    rec.error = e.what();
    server_metrics().failed.inc();
    emit(sink, rec);
    return;
  }
  submit(std::move(request), std::move(sink));
}

void EvalServer::submit(EvalRequest request, ResultCallback sink) {
  // The admit span records on the submitting thread; its context travels
  // with the request so the worker-side serve.request span parents to it —
  // one rooted trace per request even though it crosses threads.
  telemetry::SpanGuard admit_span("serve.admit");
  // Name validation up front: a bad request must never occupy a queue slot
  // or reach a worker.
  try {
    validate_request(request);
  } catch (const Error& e) {
    ResultRecord rec = status_record(request, "failed");
    rec.error_code = error_code_name(e.code());
    rec.error = e.what();
    server_metrics().failed.inc();
    emit(sink, rec);
    return;
  }

  PendingRequest pending;
  pending.request = std::move(request);
  pending.sink = std::move(sink);
  pending.trace = telemetry::current_trace_context();
  const ResultRecord queued = status_record(pending.request, "queued");
  const ResultCallback sink_copy = pending.sink;
  // The queued record is emitted under the queue lock, before any worker
  // can pop the request, so clients always observe queued before running.
  const AdmitDecision decision = queue_.try_push(
      std::move(pending), [&] { emit(sink_copy, queued); });
  if (!decision.admitted) {
    ResultRecord rec = queued;
    rec.status = "rejected";
    rec.error_code = error_code_name(ErrorCode::Rejected);
    rec.error = "admission rejected: " + decision.reason;
    telemetry::flight_note("serve.rejected");
    const int storm = consecutive_rejections_.fetch_add(1) + 1;
    if (options_.rejection_storm_threshold > 0 &&
        storm == options_.rejection_storm_threshold &&
        telemetry::flight_enabled()) {
      telemetry::dump_flight_recorder("serve.rejection_storm");
    }
    emit(sink_copy, rec);
  } else {
    consecutive_rejections_.store(0);
  }
}

void EvalServer::dispatcher_loop() {
  telemetry::set_thread_name("serve.dispatcher");
  while (auto popped = queue_.pop()) {
    auto pending = std::make_shared<PendingRequest>(std::move(*popped));
    {
      // Hold dispatch until a worker slot frees: the queue depth, not the
      // pool's internal deques, is the server's only backlog.
      UniqueLock lock(mu_);
      while (in_flight_ >= workers_) slots_cv_.wait(lock);
      ++in_flight_;
    }
    pool_->submit([this, pending] {
      execute(*pending);
      // Notify under the lock: the destructor may destroy slots_cv_ as soon
      // as the dispatcher observes in_flight_ == 0, and holding mu_ through
      // the notify orders this call before that observation.
      MutexLock lock(mu_);
      --in_flight_;
      slots_cv_.notify_all();
    });
  }
  // Queue closed and drained; wait for in-flight work, then mark drained.
  UniqueLock lock(mu_);
  while (in_flight_ != 0) slots_cv_.wait(lock);
  drained_ = true;
  slots_cv_.notify_all();
}

void EvalServer::execute(PendingRequest& pending) {
  // Adopt the submit-side context: everything below (including run_batch's
  // episode spans) hangs off this request's trace.
  telemetry::SpanGuard span("serve.request", pending.trace);
  const EvalRequest& req = pending.request;
  const std::uint64_t start_ns = telemetry::monotonic_ns();
  emit(pending.sink, status_record(req, "running"));

  ResultRecord rec;
  try {
    if (options_.on_request_start) options_.on_request_start(req);
    if (fault_injector().fire("serve.worker")) {
      throw Error(ErrorCode::Internal,
                  "injected fault in serve worker (request " + req.id + ")");
    }
    rec = run_request(req);
  } catch (const Error& e) {
    rec = status_record(req, "failed");
    rec.error_code = error_code_name(e.code());
    rec.error = e.what();
  } catch (const std::exception& e) {
    rec = status_record(req, "failed");
    rec.error_code = error_code_name(ErrorCode::Internal);
    rec.error = e.what();
  }

  const std::uint64_t end_ns = telemetry::monotonic_ns();
  rec.queue_ns = start_ns - pending.enqueue_ns;
  rec.run_ns = end_ns - start_ns;
  const double total_ms =
      static_cast<double>(end_ns - pending.enqueue_ns) / 1e6;
  class_latency_histogram(rec.request_class.empty() ? request_class(req)
                                                    : rec.request_class)
      .observe(total_ms);
  server_metrics().queue_ms.observe(static_cast<double>(rec.queue_ns) / 1e6);
  if (rec.status == "done") {
    server_metrics().completed.inc();
  } else {
    server_metrics().failed.inc();
    telemetry::flight_note("serve.request_failed");
  }
  telemetry::emit_event("serve.request",
                        {{"id", req.id},
                         {"class", request_class(req)},
                         {"status", rec.status},
                         {"latency_ms", total_ms}});
  emit(pending.sink, rec);
}

ResultRecord EvalServer::run_request(const EvalRequest& req) {
  // Per-worker actor reuse: repeated (agent, attacker, budget) keys skip
  // zoo loads and agent construction entirely. run_episode resets every
  // actor at episode start, so reuse cannot leak state across requests
  // (the same contract the parallel scheduler relies on).
  const int w = WorkStealingPool::current_worker_index();
  auto& cache = caches_->per_worker[static_cast<std::size_t>(w)];
  const std::string key = req.agent + "|" + req.attacker + "|" + fmt(req.budget, 6);
  auto it = cache.find(key);
  ResolvedSpec spec = resolve_spec(*zoo_, req);
  if (it == cache.end()) {
    server_metrics().cache_miss.inc();
    WorkerCaches::Actors actors;
    actors.agent = spec.agent();
    if (spec.attacker) actors.attacker = spec.attacker();
    it = cache.emplace(key, std::move(actors)).first;
  } else {
    server_metrics().cache_hit.inc();
  }

  // Episodes run serially inside the request: request-level parallelism is
  // the server's scaling axis, and the serial path keeps every request
  // bit-identical to `adsec_cli --seed <seed> --episodes <n>`.
  const std::vector<EpisodeMetrics> ms =
      run_batch(*it->second.agent, it->second.attacker.get(), spec.config,
                req.episodes, req.seed, req.with_reference);

  return summarize(req, ms);
}

void EvalServer::drain() {
  queue_.close();
  if (dispatcher_.joinable()) dispatcher_.join();
  // After the dispatcher exits, drained_ is set and in_flight_ is 0; the
  // join itself is the barrier, but keep the flag for idempotent re-entry.
  MutexLock lock(mu_);
  drained_ = true;
}

}  // namespace adsec::serve
