#include "runtime/executor.hpp"

#include <cstdio>
#include <limits>
#include <string>

namespace hmm::runtime {
namespace {

/// Teardown-stall warning, rate-limited to one line per second
/// process-wide so a fleet of executors draining slowly can't flood
/// stderr.
void warn_drain_stalled(std::uint64_t still_in_flight, double waited_seconds) {
  using clock = std::chrono::steady_clock;
  static std::atomic<std::int64_t> last_log_ns{std::numeric_limits<std::int64_t>::min()};
  const std::int64_t now_ns = clock::now().time_since_epoch().count();
  std::int64_t prev = last_log_ns.load(std::memory_order_relaxed);
  if (now_ns - prev < 1'000'000'000 ||
      !last_log_ns.compare_exchange_strong(prev, now_ns, std::memory_order_relaxed)) {
    return;
  }
  std::fprintf(stderr,
               "[hmm] warning: Executor teardown still draining %llu in-flight request(s) "
               "after %.1f s (stalled worker?)\n",
               static_cast<unsigned long long>(still_in_flight), waited_seconds);
}

/// Slow-request log, rate-limited to one line per second process-wide
/// (same discipline as the drain warning): a tail-latency storm must
/// not turn the log into its own bottleneck.
bool slow_log_permitted() {
  using clock = std::chrono::steady_clock;
  constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::min();
  static std::atomic<std::int64_t> last_log_ns{kNever};
  const std::int64_t now_ns = clock::now().time_since_epoch().count();
  std::int64_t prev = last_log_ns.load(std::memory_order_relaxed);
  // `prev == kNever` must short-circuit: `now_ns - kNever` overflows.
  const bool due = prev == kNever || now_ns - prev >= 1'000'000'000;
  return due && last_log_ns.compare_exchange_strong(prev, now_ns, std::memory_order_relaxed);
}

void log_slow_request(std::uint64_t trace_id, const PhaseBreakdown& phases) {
  if (!slow_log_permitted()) return;
  std::string line = "[hmm] slow request trace=";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%016llx total=%.3f ms |",
                static_cast<unsigned long long>(trace_id),
                static_cast<double>(phases.total_ns()) / 1e6);
  line += buf;
  for (Phase p : all_phases()) {
    if (!phases.touched(p)) continue;
    std::snprintf(buf, sizeof(buf), " %s=%.3fms", std::string(to_string(p)).c_str(),
                  static_cast<double>(phases.ns[static_cast<std::size_t>(p)]) / 1e6);
    line += buf;
  }
  std::fprintf(stderr, "%s\n", line.c_str());
}

}  // namespace

Executor::Executor(util::ThreadPool& pool, ServiceMetrics* metrics, Config config)
    : pool_(pool),
      metrics_(metrics),
      config_(config),
      buffer_pool_(config.pool != nullptr ? config.pool : &util::BufferPool::global()) {}

void Executor::finalize_request(const SubmitOptions& opts) noexcept {
  if (!opts.phases) return;
  if (metrics_) metrics_->record_phases(*opts.phases);
  const auto threshold = config_.slow_log_threshold;
  if (threshold.count() <= 0) return;
  const auto threshold_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(threshold).count());
  if (opts.phases->total_ns() >= threshold_ns) {
    log_slow_request(opts.trace_id, *opts.phases);
  }
}

Executor::~Executor() {
  constexpr auto kWarnAfter = std::chrono::seconds(2);
  if (!wait_idle_for(kWarnAfter)) {
    warn_drain_stalled(in_flight(), std::chrono::duration<double>(kWarnAfter).count());
    wait_idle();  // tasks hold caller-owned spans: draining is mandatory
  }
}

void Executor::wait_idle() {
  if (pool_.on_worker_thread()) {
    // A request task waiting for the whole executor to drain would wait
    // for itself. Nothing in this subsystem does that, but fail loudly
    // rather than hang if a caller ever tries.
    HMM_CHECK_MSG(false, "Executor::wait_idle() called from a pool worker task");
  }
  std::unique_lock lock(idle_mutex_);
  idle_cv_.wait(lock, [this] { return in_flight_.load(std::memory_order_acquire) == 0; });
}

bool Executor::wait_idle_for(std::chrono::nanoseconds timeout) {
  if (pool_.on_worker_thread()) {
    HMM_CHECK_MSG(false, "Executor::wait_idle_for() called from a pool worker task");
  }
  std::unique_lock lock(idle_mutex_);
  return idle_cv_.wait_for(lock, timeout, [this] {
    return in_flight_.load(std::memory_order_acquire) == 0;
  });
}

Status Executor::admit(std::chrono::steady_clock::time_point deadline,
                       std::uint64_t& depth_out) {
  std::unique_lock lock(idle_mutex_);
  if (!has_slot_locked()) {
    if (config_.admission == Admission::kReject) {
      if (metrics_) metrics_->record_rejected();
      return Status(StatusCode::kResourceExhausted, "in-flight request bound reached");
    }
    const auto fits = [this] { return has_slot_locked(); };
    if (deadline == kNoDeadline) {
      idle_cv_.wait(lock, fits);
    } else if (!idle_cv_.wait_until(lock, deadline, fits)) {
      if (metrics_) metrics_->record_deadline_exceeded();
      return Status(StatusCode::kDeadlineExceeded, "deadline expired while blocked at admission");
    }
  }
  depth_out = in_flight_.fetch_add(1, std::memory_order_acq_rel) + 1;
  return Status::ok();
}

}  // namespace hmm::runtime
