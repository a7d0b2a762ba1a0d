// Bounded admission queue with reject-with-reason backpressure.
//
// The server admits a request by pushing it here; the dispatcher pops in
// FIFO order. The queue never blocks a producer: when it is full (depth
// reached) or closed (draining), try_push returns the rejection reason and
// the caller answers the client immediately with a `rejected` record. That
// is the whole admission policy — bounded memory, bounded latency promise,
// and an explicit signal the client can react to (back off / resubmit)
// instead of an ever-growing invisible backlog.
//
// Telemetry: serve.queue_depth gauge tracks occupancy, serve.admitted /
// serve.rejected counters split outcomes (rejections by reason are also
// JSONL events).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>

#include "common/annotations.hpp"
#include "serve/protocol.hpp"
#include "telemetry/trace.hpp"

namespace adsec::serve {

// Where one request's status records go. Transports bind a sink per client
// connection (or per result file); empty means the server's default sink.
using ResultCallback = std::function<void(const ResultRecord&)>;

// One admitted request waiting for a worker.
struct PendingRequest {
  EvalRequest request;
  ResultCallback sink;           // empty => server default sink
  std::uint64_t enqueue_ns{0};   // telemetry clock at admission
  // Context of the submit-side admit span; the worker's serve.request span
  // parents to it so each request is one rooted cross-thread trace.
  telemetry::TraceContext trace;
};

struct AdmitDecision {
  bool admitted{false};
  std::string reason;  // "queue_full" | "shutting_down" when rejected
};

class AdmissionQueue {
 public:
  // depth == 0 is legal (every push rejects) — useful for drain tests.
  explicit AdmissionQueue(std::size_t depth);

  // Non-blocking admit. Stamps enqueue_ns on success. `on_admit` (may be
  // empty) runs under the queue lock after the push but before any consumer
  // can observe the item — the server emits the "queued" record there so
  // clients always see queued before running.
  [[nodiscard]] AdmitDecision try_push(PendingRequest pending,
                                       const std::function<void()>& on_admit = {});

  // Blocking FIFO pop; returns nullopt once the queue is closed AND empty,
  // so a drain consumes every admitted request exactly once.
  std::optional<PendingRequest> pop();

  // Stop admitting (try_push rejects with "shutting_down"); pop keeps
  // draining what was already admitted. Idempotent.
  void close();

  std::size_t depth() const { return depth_; }
  std::size_t size() const;
  bool closed() const;

 private:
  const std::size_t depth_;
  mutable Mutex mu_;
  std::condition_variable_any cv_;
  std::deque<PendingRequest> items_ ADSEC_GUARDED_BY(mu_);
  bool closed_ ADSEC_GUARDED_BY(mu_){false};
};

}  // namespace adsec::serve
