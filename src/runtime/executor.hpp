#pragma once
/// \file executor.hpp
/// \brief Async executor: a futures-based request front-end over
///        `util::ThreadPool`, with admission control, per-request
///        deadlines, cooperative cancellation and pooled scratch.
///
/// `try_submit(permuter, a, b, opts)` enqueues one permutation request.
/// It never throws request-level failures, reporting them as a typed
/// `Status` instead — synchronously when the request is refused
/// (invalid or overlapping spans, admission bound hit, deadline already
/// expired, cancelled before enqueue) and through the returned
/// `std::future<Status>` after that. `submit_program` runs a chain of
/// permuters as one request; a plain request is its one-stage case, so
/// both share one admission prologue and one task body.
///
/// Request lifecycle controls:
///  - **Admission**: `Config::max_in_flight` bounds the number of
///    admitted-but-unfinished requests. At the bound, a submit either
///    rejects with `kResourceExhausted` (Admission::kReject) or blocks
///    the submitter until a slot frees or the request deadline passes
///    (Admission::kBlock).
///  - **Deadlines**: checked before admission, at dequeue (a request
///    that waited out its deadline in the queue resolves
///    `kDeadlineExceeded` without executing), and between the kernel
///    phases of the permuter via its phase gate.
///  - **Cancellation**: a `CancelToken` is polled at the same three
///    stages; a cancelled request resolves `kCancelled`.
///
/// **Scratch is pooled.** Every scheduled request needs an n-element
/// scratch buffer; instead of a per-request heap allocation the
/// executor draws it from a `util::BufferPool` (Config::pool, default
/// the process-wide pool) — at steady state the request path performs
/// zero heap allocations for scratch. Pool-cap exhaustion resolves
/// `kResourceExhausted`, and the `pool.exhausted` fault site injects
/// exactly that pressure for chaos runs.
///
/// Requests drain onto the shared thread pool via
/// `ThreadPool::submit_task`; each request then fans its kernels out
/// on the same pool (`parallel_for` help-drains when called from a
/// worker, so this nesting cannot deadlock — see thread_pool.hpp).
///
/// Concurrency model: one compiled plan may serve many in-flight
/// requests at once — the executor acquires per-request scratch and
/// uses the permuter's const execute path, which touches no shared
/// mutable state. The caller keeps ownership of `a` and `b` and must
/// keep them alive and un-mutated until the future is ready; a request
/// stopped by deadline/cancellation between kernel phases leaves `b`
/// partially written (treat it as garbage).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "core/permuter.hpp"
#include "runtime/cancel.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/metrics.hpp"
#include "runtime/status.hpp"
#include "util/buffer_pool.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace hmm::runtime {

/// True when `a` and `b` share at least one element. A permute cannot
/// run in place: the kernels read `a` after writing parts of `b`.
template <class T>
[[nodiscard]] bool spans_overlap(std::span<const T> a, std::span<T> b) noexcept {
  const auto a_lo = reinterpret_cast<std::uintptr_t>(a.data());
  const auto b_lo = reinterpret_cast<std::uintptr_t>(b.data());
  return !a.empty() && !b.empty() && a_lo < b_lo + b.size_bytes() &&
         b_lo < a_lo + a.size_bytes();
}

class Executor {
 public:
  /// What to do with a try_submit that finds `max_in_flight` requests
  /// already admitted.
  enum class Admission {
    kBlock,   ///< wait for a slot (bounded by the request deadline)
    kReject,  ///< fail fast with kResourceExhausted
  };

  struct Config {
    std::uint64_t max_in_flight = 0;  ///< 0 = unbounded
    Admission admission = Admission::kBlock;
    /// Requests whose attributed phase time reaches this threshold get
    /// a rate-limited stderr line with their full phase breakdown.
    /// 0 = slow-request log disabled.
    std::chrono::milliseconds slow_log_threshold{0};
    /// Scratch buffer pool; nullptr = `util::BufferPool::global()`.
    util::BufferPool* pool = nullptr;
  };

  /// "No deadline": requests never expire.
  static constexpr std::chrono::steady_clock::time_point kNoDeadline =
      std::chrono::steady_clock::time_point::max();

  struct SubmitOptions {
    std::chrono::steady_clock::time_point deadline = kNoDeadline;
    CancelToken cancel;
    /// Caller-chosen correlation id, echoed in the slow-request log.
    /// The net server passes the HMMP request_id through here.
    std::uint64_t trace_id = 0;
    /// Per-request phase accumulator. Callers that already attributed
    /// time (plan lookup/build in the service) hand their breakdown in;
    /// `try_submit` creates one otherwise. Once passed to `try_submit`
    /// the executor owns flushing it into the metrics — the caller must
    /// not record it again.
    std::shared_ptr<PhaseBreakdown> phases;
  };

  explicit Executor(util::ThreadPool& pool, ServiceMetrics* metrics = nullptr)
      : Executor(pool, metrics, Config{}) {}
  Executor(util::ThreadPool& pool, ServiceMetrics* metrics, Config config);

  /// Destruction waits for every in-flight request (their tasks hold
  /// spans owned by callers; letting them outlive the executor is fine,
  /// but draining makes teardown ordering obvious). If draining stalls past a
  /// threshold, a rate-limited warning names the number of requests
  /// still in flight — a stalled worker is otherwise invisible at
  /// teardown.
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Serving-path submit: admission control + deadline + cancellation,
  /// all failures as typed Status. A synchronous error means the
  /// request was refused before enqueue and will never execute; an OK
  /// result carries the future that resolves with the request outcome.
  /// `a` and `b` must not overlap (kInvalidArgument otherwise).
  template <class T>
  StatusOr<std::future<Status>> try_submit(std::shared_ptr<const core::OfflinePermuter<T>> h,
                                           std::span<const T> a, std::span<T> b,
                                           SubmitOptions opts = {}) {
    return submit_stages<T>(std::move(h), a, b, std::move(opts));
  }

  /// Staged program execution: run a validated chain of same-size
  /// permuters back-to-back as ONE admitted request (one in-flight
  /// slot, one future), ping-ponging through pooled intermediate
  /// buffers so a depth-k chain performs zero per-request heap
  /// allocations and intermediates never leave the process. The
  /// deadline/cancel pair is re-checked at every stage boundary (and
  /// between kernels inside each stage via the phase gate); the
  /// `program.stage` fault site injects a failure at exactly those
  /// boundaries, i.e. before stages 1..k-1 and never before stage 0.
  /// Pooled buffers are RAII handles, so every early exit (cancel,
  /// deadline, fault, pool exhaustion) releases them.
  ///
  /// `try_submit` is the k = 1 case of this call: both share one
  /// admission prologue and one task body. This is the *staged
  /// fallback* of the program subsystem — the fused path compiles the
  /// composite permutation and goes through plain try_submit. Stage
  /// semantics: stage 0 reads `a`; the last stage writes `b`; a request
  /// stopped early leaves `b` garbage.
  template <class T>
  StatusOr<std::future<Status>> submit_program(
      std::vector<std::shared_ptr<const core::OfflinePermuter<T>>> stages,
      std::span<const T> a, std::span<T> b, SubmitOptions opts = {}) {
    return submit_stages<T>(std::move(stages), a, b, std::move(opts));
  }

  /// Requests admitted but not yet finished.
  [[nodiscard]] std::uint64_t in_flight() const noexcept {
    return in_flight_.load(std::memory_order_acquire);
  }

  [[nodiscard]] const Config& config() const noexcept { return config_; }

  /// The scratch pool in use (Config::pool or the global pool).
  [[nodiscard]] util::BufferPool& buffer_pool() noexcept { return *buffer_pool_; }

  /// Block until every submitted request has finished. Callers that
  /// keep futures can equivalently wait on those; this is the bulk
  /// barrier for fire-and-forget requests.
  void wait_idle();

  /// `wait_idle` with a timeout: returns true once idle, false if the
  /// timeout elapsed with requests still in flight. Lets teardown and
  /// tests detect stalled workers instead of blocking forever.
  [[nodiscard]] bool wait_idle_for(std::chrono::nanoseconds timeout);

 private:
  /// RAII completion marker so the in-flight count stays correct on
  /// every exit path of a request task. The decrement happens under
  /// idle_mutex_ so a wait_idle() caller (e.g. the destructor) can
  /// never observe zero and tear down while this thread is still about
  /// to touch the condition variable.
  struct Completion {
    explicit Completion(Executor& e) : exec(e) {}
    ~Completion() { exec.finish_one(); }
    Executor& exec;
  };

  // --- The request path ----------------------------------------------

  template <class T>
  using Stage = std::shared_ptr<const core::OfflinePermuter<T>>;

  /// The task owns either one permuter (try_submit) or a chain
  /// (submit_program); the shared body sees both as a span of stages.
  template <class T>
  static std::span<const Stage<T>> stage_view(const Stage<T>& h) noexcept {
    return {&h, 1};
  }
  template <class T>
  static std::span<const Stage<T>> stage_view(const std::vector<Stage<T>>& stages) noexcept {
    return stages;
  }

  static bool expired(std::chrono::steady_clock::time_point deadline) noexcept {
    return deadline != kNoDeadline && std::chrono::steady_clock::now() >= deadline;
  }

  /// Not cancelled and within the deadline: the check made before
  /// admission, at dequeue, between stages, and (as the phase gate)
  /// between kernels.
  static bool live(const SubmitOptions& opts) noexcept {
    return !opts.cancel.cancelled() && !expired(opts.deadline);
  }

  /// Where `live` stopped a request; selects the Status message.
  enum class Boundary { kAdmission, kQueued, kStage, kKernel };

  /// The typed outcome of a request that `live` refused at `where`
  /// (cancellation wins over the deadline); counts it in the metrics.
  Status stopped(const SubmitOptions& opts, Boundary where) {
    static constexpr const char* kCancelled[] = {
        "cancelled before admission", "cancelled while queued",
        "cancelled between program stages", "cancelled between kernel phases"};
    static constexpr const char* kExpired[] = {
        "deadline expired before admission", "queued past the request deadline",
        "deadline exceeded between program stages", "deadline exceeded between kernel phases"};
    const auto i = static_cast<std::size_t>(where);
    if (opts.cancel.cancelled()) {
      if (metrics_) metrics_->record_cancelled();
      return Status(StatusCode::kCancelled, kCancelled[i]);
    }
    if (metrics_) metrics_->record_deadline_exceeded();
    return Status(StatusCode::kDeadlineExceeded, kExpired[i]);
  }

  /// Run `body` (which returns a Status) and map whatever it throws to
  /// a typed Status: an execute never fails by exception.
  template <class Body>
  static Status guarded(Body&& body) {
    try {
      return body();
    } catch (const FaultInjectedError& e) {
      return Status(e.code, e.what());
    } catch (const std::bad_alloc&) {
      return Status(StatusCode::kResourceExhausted, "allocation failed during execute");
    } catch (const std::exception& e) {
      return Status(StatusCode::kUnavailable, e.what());
    }
  }

  /// The execute-time fault sites, fired once per request before its
  /// scratch is acquired.
  static void inject_execute_faults() {
    FaultInjector& faults = FaultInjector::instance();
    faults.maybe_stall(fault_sites::kExecutorStall);
    faults.maybe_throw(fault_sites::kExecutorAlloc, StatusCode::kResourceExhausted,
                       "scratch allocation failure");
    faults.maybe_throw(fault_sites::kPoolExhausted, StatusCode::kResourceExhausted,
                       "buffer pool exhausted");
  }

  static void add_queue_wait(const SubmitOptions& opts,
                             std::chrono::steady_clock::time_point enqueued_at,
                             std::chrono::steady_clock::time_point now) {
    if (!opts.phases) return;
    opts.phases->add(Phase::kQueueWait,
                     static_cast<std::uint64_t>(
                         std::chrono::duration_cast<std::chrono::nanoseconds>(now - enqueued_at)
                             .count()));
  }

  /// The one admission prologue: validate, refuse a request already
  /// cancelled or expired, take an in-flight slot, then enqueue the
  /// task body. `Stages` is one permuter handle or a vector of them
  /// (see stage_view).
  template <class T, class Stages>
  StatusOr<std::future<Status>> submit_stages(Stages stages, std::span<const T> a,
                                              std::span<T> b, SubmitOptions opts) {
    const std::span<const Stage<T>> view = stage_view<T>(stages);
    if (view.empty()) return Status(StatusCode::kInvalidArgument, "program has no stages");
    for (const Stage<T>& stage : view) {
      if (stage == nullptr) return Status(StatusCode::kInvalidArgument, "null permuter handle");
      if (a.size() != stage->size() || b.size() != stage->size()) {
        return Status(StatusCode::kInvalidArgument, "span sizes do not match the permuter");
      }
    }
    if (spans_overlap(a, b)) {
      return Status(StatusCode::kInvalidArgument, "input and output spans overlap");
    }
    if (!opts.phases) opts.phases = std::make_shared<PhaseBreakdown>();
    if (!live(opts)) {
      const Status st = stopped(opts, Boundary::kAdmission);
      finalize_request(opts);
      return st;
    }

    // The admission span is recorded unconditionally (an uncontended
    // admit is a near-zero sample): "waited 0 ns" is signal, while a
    // missing admission_wait series would read as an unwired timer.
    util::Stopwatch admit_clock;
    std::uint64_t depth = 0;
    Status admitted = admit(opts.deadline, depth);
    opts.phases->add(Phase::kAdmissionWait, static_cast<std::uint64_t>(admit_clock.nanos()));
    if (!admitted.is_ok()) {
      finalize_request(opts);
      return admitted;
    }

    // `view` may point into `stages`: it is dead once they move into
    // the task, which rebuilds its own view.
    std::future<Status> fut;
    const auto enqueued_at = std::chrono::steady_clock::now();
    try {
      fut = pool_.submit_task([this, stages = std::move(stages), a, b, opts,
                               enqueued_at]() -> Status {
        Completion done(*this);
        add_queue_wait(opts, enqueued_at, std::chrono::steady_clock::now());
        const Status st = run_stages<T>(stage_view<T>(stages), a, b, opts);
        finalize_request(opts);
        return st;
      });
    } catch (...) {
      // Enqueue failed (packaged_task / queue allocation): the task
      // will never run, so its Completion never fires — roll the count
      // back or wait_idle() and the destructor would block forever.
      finish_one();
      throw;  // a process-level problem, not a request outcome
    }
    if (metrics_) metrics_->record_submit(depth);
    return fut;
  }

  /// The one task body, for a plain request (k = 1) and a staged
  /// program alike: dequeue-time checks, pooled scratch, then the
  /// stages back-to-back under the phase gate. Runs on a pool worker;
  /// every outcome is a Status. A request that reaches execution
  /// records exactly one execute sample.
  template <class T>
  Status run_stages(std::span<const Stage<T>> stages, std::span<const T> a, std::span<T> b,
                    const SubmitOptions& opts) {
    if (!live(opts)) return stopped(opts, Boundary::kQueued);
    core::KernelObserver observer;
    if (PhaseBreakdown* phases = opts.phases.get()) {
      observer = [phases](unsigned kernel, std::uint64_t ns) {
        phases->add(phase_for_kernel(kernel), ns);
      };
    }
    util::Stopwatch clock;
    const Status st = guarded([&]() -> Status {
      inject_execute_faults();
      const std::uint64_t n = a.size();
      const std::size_t k = stages.size();
      // One scratch block sized for the hungriest stage; each stage
      // views exactly its own scratch_elements() of it.
      std::uint64_t scratch_elems = 0;
      for (const Stage<T>& stage : stages) {
        scratch_elems = std::max(scratch_elems, stage->scratch_elements());
      }
      // NUMA placement: this body runs on a pool worker that (on
      // multi-node machines) is pinned to one node, and try_acquire
      // resolves to that node's free list — so the request's scratch,
      // the kernel chunks the permute fans out (the pool's per-node
      // queues prefer the submitting worker's node), and the pages
      // first-touch-bound on a miss all share the worker's socket.
      util::PooledBuffer scratch = buffer_pool_->try_acquire(scratch_elems * sizeof(T));
      // Ping-pong intermediates: none for k = 1 (straight a -> b), one
      // for k = 2, two for k >= 3. RAII handles: every exit path below
      // releases them back to the pool.
      util::PooledBuffer ping =
          k >= 2 ? buffer_pool_->try_acquire(n * sizeof(T)) : util::PooledBuffer{};
      util::PooledBuffer pong =
          k >= 3 ? buffer_pool_->try_acquire(n * sizeof(T)) : util::PooledBuffer{};
      if (!scratch.valid() || (k >= 2 && !ping.valid()) || (k >= 3 && !pong.valid())) {
        return Status(StatusCode::kResourceExhausted, "buffer pool cap exceeded");
      }
      std::span<const T> src = a;
      for (std::size_t i = 0; i < k; ++i) {
        if (i > 0) {
          // The between-stage gate: a chain must not ride through its
          // deadline on the back of stages that already ran.
          if (!live(opts)) return stopped(opts, Boundary::kStage);
          FaultInjector::instance().maybe_throw(fault_sites::kProgramStage,
                                                StatusCode::kUnavailable,
                                                "injected program stage failure");
        }
        const std::span<T> dst = (i + 1 == k)
                                     ? b
                                     : (i % 2 == 0 ? ping.template as_span<T>(n)
                                                   : pong.template as_span<T>(n));
        if (!stages[i]->permute_timed(
                src, dst, scratch.template as_span<T>(stages[i]->scratch_elements()),
                [&opts] { return live(opts); }, observer)) {
          return stopped(opts, Boundary::kKernel);
        }
        src = dst;
      }
      return Status::ok();
    });
    const auto execute_ns = static_cast<std::uint64_t>(clock.nanos());
    if (metrics_) metrics_->record_execute(execute_ns, st.is_ok());
    return st;
  }

  /// Flush a request's phase breakdown into the per-phase histograms
  /// and, when armed and over threshold, the rate-limited slow log.
  void finalize_request(const SubmitOptions& opts) noexcept;

  /// Reserve an in-flight slot, honoring the admission policy. On
  /// success `depth_out` holds the in-flight count including this
  /// request (the queue-depth sample for metrics).
  Status admit(std::chrono::steady_clock::time_point deadline, std::uint64_t& depth_out);

  void finish_one() noexcept {
    std::lock_guard lock(idle_mutex_);
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    // Wake both idle waiters and blocked admitters; admission waits on
    // the same condition variable.
    idle_cv_.notify_all();
  }

  [[nodiscard]] bool has_slot_locked() const noexcept {
    return config_.max_in_flight == 0 ||
           in_flight_.load(std::memory_order_acquire) < config_.max_in_flight;
  }

  util::ThreadPool& pool_;
  ServiceMetrics* metrics_;
  Config config_;
  util::BufferPool* buffer_pool_;
  std::atomic<std::uint64_t> in_flight_{0};
  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;

};

}  // namespace hmm::runtime
