#include "serve/admission.hpp"

#include "telemetry/clock.hpp"
#include "telemetry/events.hpp"
#include "telemetry/metrics.hpp"

namespace adsec::serve {

namespace {

struct QueueMetrics {
  telemetry::Counter admitted = telemetry::counter("serve.admitted");
  telemetry::Counter rejected = telemetry::counter("serve.rejected");
  telemetry::Gauge depth = telemetry::gauge("serve.queue_depth");
};

QueueMetrics& queue_metrics() {
  static QueueMetrics m;
  return m;
}

}  // namespace

AdmissionQueue::AdmissionQueue(std::size_t depth) : depth_(depth) {}

AdmitDecision AdmissionQueue::try_push(PendingRequest pending,
                                       const std::function<void()>& on_admit) {
  std::string reason;
  {
    MutexLock lock(mu_);
    if (closed_) {
      reason = "shutting_down";
    } else if (items_.size() >= depth_) {
      reason = "queue_full";
    } else {
      pending.enqueue_ns = telemetry::monotonic_ns();
      items_.push_back(std::move(pending));
      queue_metrics().depth.set(static_cast<double>(items_.size()));
      if (on_admit) on_admit();
    }
  }
  if (reason.empty()) {
    cv_.notify_one();
    queue_metrics().admitted.inc();
    return AdmitDecision{true, ""};
  }
  queue_metrics().rejected.inc();
  telemetry::emit_event("serve.reject", {{"reason", reason}});
  return AdmitDecision{false, reason};
}

std::optional<PendingRequest> AdmissionQueue::pop() {
  UniqueLock lock(mu_);
  // Manual wait loop: a predicate lambda would be analyzed as a separate
  // function and could not see that mu_ is held.
  while (!closed_ && items_.empty()) cv_.wait(lock);
  if (items_.empty()) return std::nullopt;  // closed and drained
  PendingRequest out = std::move(items_.front());
  items_.pop_front();
  queue_metrics().depth.set(static_cast<double>(items_.size()));
  return out;
}

void AdmissionQueue::close() {
  {
    MutexLock lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

std::size_t AdmissionQueue::size() const {
  MutexLock lock(mu_);
  return items_.size();
}

bool AdmissionQueue::closed() const {
  MutexLock lock(mu_);
  return closed_;
}

}  // namespace adsec::serve
