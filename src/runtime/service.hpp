#pragma once
/// \file service.hpp
/// \brief `RobustPermuteService` — the hardened serving facade, and the
///        degradation ladder it implements.
///
/// The paper proves the scheduled algorithm (König coloring + row
/// schedules) optimal, but it also leaves us a safety net: the
/// conventional D-/S-designated algorithms (Section IV) compute the
/// *same* permutation with no offline phase at all, just more memory
/// rounds. The service exploits exactly that structure as a
/// degradation ladder:
///
///   1. **Cached** — PlanCache hit or successful build of the
///      strategy the request resolves to (by default `kMeasured`: the
///      scheduled plan or the S-designated gather, whichever this host
///      runs faster); the optimal path.
///   2. **Retry** — transient build failures (kPlanBuildFailed,
///      kUnavailable, kResourceExhausted) are retried up to
///      `max_build_retries` times with deterministic jittered
///      exponential backoff.
///   3. **Conventional fallback** — if retries are exhausted, or the
///      request's deadline budget is too tight to risk an offline
///      build, the request is served by the D-designated conventional
///      permuter (correct, slower, zero offline phase) and counted in
///      `degraded_executions`.
///   4. **Reject** — non-transient errors (kInvalidArgument), expired
///      deadlines, cancellation, and admission-bound rejections fail
///      fast with a typed Status. The process never aborts on a
///      request-level failure.
///
/// The facade owns the metrics + cache + executor stack; `submit`
/// validates the request, resolves the ladder, and hands the request
/// to the executor with its deadline and cancel token attached.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/permuter.hpp"
#include "core/plan_io.hpp"
#include "runtime/cancel.hpp"
#include "runtime/executor.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/metrics.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/program.hpp"
#include "runtime/status.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace hmm::runtime {

/// Per-request controls. Defaults: no deadline, not cancellable, let
/// the permuter pick its strategy by timing both candidates on this
/// host (`kMeasured`).
struct RequestOptions {
  std::chrono::steady_clock::time_point deadline = Executor::kNoDeadline;
  CancelToken cancel;
  core::Strategy strategy = core::Strategy::kMeasured;
  /// Correlation id echoed in the slow-request log (the net server
  /// forwards the HMMP request_id). 0 = unnamed.
  std::uint64_t trace_id = 0;
};

/// Program-request controls: everything a plain request has, plus the
/// fusion override.
struct ProgramRequestOptions : RequestOptions {
  /// Force the staged fallback — run the chain back-to-back through
  /// pooled intermediates instead of compiling one composite plan.
  /// Wire flag bit0 maps here; differential tests and chaos drills
  /// (the `program.stage` fault site only exists on this path) are the
  /// other users. Default: let the service fuse.
  bool force_staged = false;
};

class RobustPermuteService {
 public:
  struct Config {
    model::MachineParams machine = model::MachineParams::gtx680();
    PlanCache::Config cache;
    Executor::Config executor;
    /// Additional attempts after the first failed plan build (0 = fail
    /// straight through to the fallback / the caller).
    int max_build_retries = 2;
    /// Backoff before retry k is `base << k`, capped at
    /// `kRetryBackoffCapUs`, plus a deterministic jitter of up to the
    /// same amount (seeded: chaos runs replay).
    std::chrono::microseconds retry_backoff_base{200};
    std::uint64_t retry_jitter_seed = 0x5eed5eed5eed5eedull;
    /// Serve via the conventional D-designated permuter when the
    /// scheduled plan is unavailable. Off = surface the build error.
    bool allow_degraded = true;
    /// LRU bound on memoized composite permutations (program
    /// fingerprint -> fused mapping). This caches the *composition*
    /// (O(k*n) table walks); the compiled composite plan is separately
    /// content-addressed by PlanCache. 0 disables memoization.
    std::uint64_t max_cached_composites = 64;
  };

  explicit RobustPermuteService(util::ThreadPool& pool)
      : RobustPermuteService(pool, Config{}) {}
  RobustPermuteService(util::ThreadPool& pool, Config config)
      : pool_(pool),
        config_(config),
        cache_(config.cache, &metrics_),
        executor_(pool, &metrics_, config.executor) {}

  /// Validate, resolve the degradation ladder, submit. A synchronous
  /// error Status means the request was refused and never executed; an
  /// OK result carries the future with the request outcome. Arrays must
  /// stay alive and un-mutated until that future resolves. The plan's
  /// words are not read on a cache hit: the key mixes the handle's
  /// fingerprint.
  template <class T>
  StatusOr<std::future<Status>> submit(const PlanHandle& plan, std::span<const T> a,
                                       std::span<T> b, RequestOptions opts = {}) {
    if (Status refused = check_request(plan.permutation().size(), a, b, opts);
        !refused.is_ok()) {
      return refused;
    }
    // The request's phase breakdown starts here: the plan tier fills
    // in lookup/build time, the executor adds admission/queue/kernel
    // spans and owns the final flush. Requests refused before reaching
    // the executor flush whatever they accumulated on the way out.
    return submit_permutation<T>(plan, a, b, opts, std::make_shared<PhaseBreakdown>());
  }

  /// The same for a raw permutation: hashes the words once per call
  /// (charged to plan_lookup), then runs the handle path.
  template <class T>
  StatusOr<std::future<Status>> submit(const perm::Permutation& p, std::span<const T> a,
                                       std::span<T> b, RequestOptions opts = {}) {
    if (Status refused = check_request(p.size(), a, b, opts); !refused.is_ok()) return refused;
    auto phases = std::make_shared<PhaseBreakdown>();
    util::Stopwatch hash_clock;
    const PlanHandle plan = PlanHandle::borrow(p);
    phases->add(Phase::kPlanLookup, static_cast<std::uint64_t>(hash_clock.nanos()));
    return submit_permutation<T>(plan, a, b, opts, std::move(phases));
  }

  /// Execute a permutation *program* — a validated op chain over
  /// registered plans and parametric generators (see
  /// runtime/program.hpp) — as one request. The compiler resolves and
  /// fuses the chain into a single composite permutation (attributed to
  /// the `program_compile` phase and cached under the program's
  /// order-sensitive fingerprint, so repeats skip both resolution and
  /// composition; the composite *plan* is additionally content-addressed
  /// by PlanCache, which single-flights concurrent first builds). The
  /// fused composite then rides the normal degradation ladder. Two
  /// shortcuts bracket it:
  ///
  ///  - **Identity**: a chain that folds to P(i) = i (e.g. P then
  ///    INVERSE P) is answered with one memcpy — no plan, no kernels —
  ///    and counted in `programs_identity`.
  ///  - **Staged** (`opts.force_staged`): each stage acquires its own
  ///    permuter and the executor runs them back-to-back through pooled
  ///    ping-pong intermediates (`Executor::submit_program`). Bitwise
  ///    identical to the fused path; used by differential tests, chaos
  ///    drills, and wire flag bit0.
  ///
  /// All validation failures (unknown opcode, unregistered fingerprint,
  /// stage-size mismatch, generator preconditions) surface as typed
  /// kInvalidArgument *before* any composition runs — a hostile program
  /// can never reach an HMM_CHECK abort.
  template <class T>
  StatusOr<std::future<Status>> submit_program(const Program& program,
                                               const PlanResolver& resolver,
                                               std::span<const T> a, std::span<T> b,
                                               ProgramRequestOptions opts = {}) {
    if (Status refused = check_request(a.size(), a, b, opts); !refused.is_ok()) return refused;

    const std::uint64_t n = a.size();
    const std::uint64_t chain_depth = program.ops.size();
    auto phases = std::make_shared<PhaseBreakdown>();

    // --- Compile: resolve + fuse, under the program_compile phase. ---
    util::Stopwatch compile_clock;
    const Fingerprint fp = program_fingerprint(program.ops, n);
    PlanHandle composite;
    ResolvedProgram resolved;
    if (!opts.force_staged) composite = cached_composite(fp.value);
    if (!composite) {
      StatusOr<ResolvedProgram> r = resolve_program(program, n, resolver);
      if (!r.ok()) {
        phases->add(Phase::kProgramCompile, static_cast<std::uint64_t>(compile_clock.nanos()));
        metrics_.record_phases(*phases);
        return r.status();
      }
      resolved = std::move(r).value();
      if (!opts.force_staged) {
        StatusOr<perm::Permutation> fused = fuse_program(resolved);
        if (!fused.ok()) {
          phases->add(Phase::kProgramCompile, static_cast<std::uint64_t>(compile_clock.nanos()));
          metrics_.record_phases(*phases);
          return fused.status();
        }
        // Hashed once here; memo hits reuse the handle's fingerprint.
        composite =
            PlanHandle(std::make_shared<const perm::Permutation>(std::move(fused).value()));
        cache_composite(fp.value, composite);
      }
    }
    phases->add(Phase::kProgramCompile, static_cast<std::uint64_t>(compile_clock.nanos()));

    // --- Staged fallback: per-stage permuters, one executor request. ---
    if (opts.force_staged) {
      std::vector<std::shared_ptr<const core::OfflinePermuter<T>>> stages;
      stages.reserve(resolved.stages.size());
      bool degraded = false;
      for (const auto& stage_perm : resolved.stages) {
        StatusOr<LadderChoice<T>> choice =
            climb_ladder<T>(PlanHandle(stage_perm), opts, *phases);
        if (!choice.ok()) {
          metrics_.record_phases(*phases);
          return choice.status();
        }
        degraded = degraded || choice.value().degraded;
        stages.push_back(std::move(choice.value().permuter));
      }
      StatusOr<std::future<Status>> submitted = executor_.submit_program<T>(
          std::move(stages), a, b, executor_options(opts, std::move(phases)));
      if (submitted.ok()) {
        metrics_.record_program(chain_depth, ServiceMetrics::ProgramPath::kStaged);
        if (degraded) metrics_.record_degraded();
      }
      return submitted;
    }

    // --- Identity fast-path: the chain folded to P(i) = i. ---
    if (composite.permutation().is_identity()) {
      std::memcpy(b.data(), a.data(), n * sizeof(T));
      metrics_.record_program(chain_depth, ServiceMetrics::ProgramPath::kIdentity);
      metrics_.record_phases(*phases);
      std::promise<Status> done;
      done.set_value(Status::ok());
      return done.get_future();
    }

    // --- Fused: the composite rides the normal degradation ladder. ---
    StatusOr<std::future<Status>> submitted =
        submit_permutation<T>(composite, a, b, opts, std::move(phases));
    if (submitted.ok()) {
      metrics_.record_program(chain_depth, ServiceMetrics::ProgramPath::kFused);
    }
    return submitted;
  }

  [[nodiscard]] const ServiceMetrics& metrics() const noexcept { return metrics_; }
  [[nodiscard]] ServiceMetrics& metrics() noexcept { return metrics_; }
  [[nodiscard]] PlanCache& cache() noexcept { return cache_; }
  [[nodiscard]] Executor& executor() noexcept { return executor_; }
  [[nodiscard]] const Config& config() const noexcept { return config_; }

  /// Ceiling of the doubling part of a plan-build retry pause, µs.
  static constexpr std::uint64_t kRetryBackoffCapUs = 100'000;

  /// The (deterministic) pause before plan-build retry `attempt`
  /// (0-based): d = min(base * 2^attempt, cap) plus jitter in [0, d)
  /// so synchronized failures fan out. The doublings stop at 20, as the
  /// client's and router's do, so no attempt count shifts past the
  /// word. Exposed so tests can pin the schedule.
  [[nodiscard]] static std::chrono::microseconds backoff_with_jitter(const Config& config,
                                                                     int attempt) noexcept {
    const auto base_us = static_cast<std::uint64_t>(
        std::max<std::int64_t>(0, config.retry_backoff_base.count()));
    return std::chrono::microseconds(util::jittered_backoff_us(
        base_us, kRetryBackoffCapUs, std::clamp(attempt, 0, 20), config.retry_jitter_seed,
        static_cast<std::uint64_t>(attempt) + 1));
  }

  void wait_idle() { executor_.wait_idle(); }
  [[nodiscard]] bool wait_idle_for(std::chrono::nanoseconds timeout) {
    return executor_.wait_idle_for(timeout);
  }

 private:
  static bool deadline_expired(std::chrono::steady_clock::time_point deadline) noexcept {
    return deadline != Executor::kNoDeadline && std::chrono::steady_clock::now() >= deadline;
  }

  /// The request prologue of submit and submit_program: `n` elements
  /// in each of two disjoint arrays, not cancelled, not expired.
  template <class T>
  Status check_request(std::uint64_t n, std::span<const T> a, std::span<T> b,
                       const RequestOptions& opts) {
    if (n == 0) return Status(StatusCode::kInvalidArgument, "empty request");
    if (a.size() != n || b.size() != n) {
      return Status(StatusCode::kInvalidArgument, "array sizes do not match the request");
    }
    if (spans_overlap(a, b)) {
      return Status(StatusCode::kInvalidArgument, "in-place permutation is not supported");
    }
    if (opts.cancel.cancelled()) {
      metrics_.record_cancelled();
      return Status(StatusCode::kCancelled, "cancelled before submission");
    }
    if (deadline_expired(opts.deadline)) {
      metrics_.record_deadline_exceeded();
      return Status(StatusCode::kDeadlineExceeded, "deadline already expired at submission");
    }
    return Status::ok();
  }

  static Executor::SubmitOptions executor_options(const RequestOptions& opts,
                                                  std::shared_ptr<PhaseBreakdown> phases) {
    Executor::SubmitOptions submit_opts;
    submit_opts.deadline = opts.deadline;
    submit_opts.cancel = opts.cancel;
    submit_opts.trace_id = opts.trace_id;
    submit_opts.phases = std::move(phases);
    return submit_opts;
  }

  /// Serve `plan` as one executor request through the ladder. `phases`
  /// already holds whatever the caller attributed (program compile).
  template <class T>
  StatusOr<std::future<Status>> submit_permutation(const PlanHandle& plan,
                                                   std::span<const T> a, std::span<T> b,
                                                   const RequestOptions& opts,
                                                   std::shared_ptr<PhaseBreakdown> phases) {
    StatusOr<LadderChoice<T>> choice = climb_ladder<T>(plan, opts, *phases);
    if (!choice.ok()) {
      metrics_.record_phases(*phases);
      return choice.status();
    }
    StatusOr<std::future<Status>> submitted = executor_.try_submit<T>(
        std::move(choice.value().permuter), a, b, executor_options(opts, std::move(phases)));
    if (submitted.ok() && choice.value().degraded) metrics_.record_degraded();
    return submitted;
  }

  /// A rung of the degradation ladder: the permuter that will serve,
  /// and whether it is the conventional fallback.
  template <class T>
  struct LadderChoice {
    std::shared_ptr<const core::OfflinePermuter<T>> permuter;
    bool degraded = false;
  };

  /// The degradation ladder for one permutation (rungs 1-3 of the file
  /// comment): the cached or freshly built plan, retried on transient
  /// failures; else, under deadline pressure or after a transient
  /// failure, the conventional permuter. Plan lookup/build time lands
  /// in `phases`.
  template <class T>
  StatusOr<LadderChoice<T>> climb_ladder(const PlanHandle& plan, const RequestOptions& opts,
                                         PhaseBreakdown& phases) {
    // Deadline pressure: an offline build would likely eat the whole
    // budget; go straight to the conventional tier.
    if (!should_skip_build_for_deadline<T>(plan, opts)) {
      StatusOr<std::shared_ptr<const core::OfflinePermuter<T>>> acquired =
          acquire_with_retry<T>(plan, opts, &phases);
      if (acquired.ok()) return LadderChoice<T>{std::move(acquired).value(), false};
      if (!config_.allow_degraded || !is_transient(acquired.status().code())) {
        return acquired.status();
      }
    }
    // The fallback's (cheap) construction is still plan-build time:
    // the degraded tier trades the offline phase for extra memory
    // rounds, and the breakdown should show that trade.
    util::Stopwatch build_clock;
    StatusOr<std::shared_ptr<const core::OfflinePermuter<T>>> fallback =
        build_conventional<T>(plan.permutation());
    phases.add(Phase::kPlanBuild, static_cast<std::uint64_t>(build_clock.nanos()));
    if (!fallback.ok()) return fallback.status();
    return LadderChoice<T>{std::move(fallback).value(), true};
  }

  /// Deadline-pressure heuristic: with an uncached plan and a deadline
  /// tighter than the worst build observed so far, skip the offline
  /// phase entirely. Conservative on a cold service (no builds observed
  /// -> no estimate -> try the build).
  template <class T>
  bool should_skip_build_for_deadline(const PlanHandle& plan, const RequestOptions& opts) {
    if (!config_.allow_degraded || opts.deadline == Executor::kNoDeadline) return false;
    if (cache_.contains(PlanCache::plan_key<T>(plan, config_.machine, opts.strategy))) {
      return false;
    }
    const std::uint64_t worst_build_ns = metrics_.plan_build_ns_max();
    if (worst_build_ns == 0) return false;
    const auto remaining = opts.deadline - std::chrono::steady_clock::now();
    return remaining < std::chrono::nanoseconds(worst_build_ns);
  }

  template <class T>
  StatusOr<std::shared_ptr<const core::OfflinePermuter<T>>> acquire_with_retry(
      const PlanHandle& plan, const RequestOptions& opts, PhaseBreakdown* phases) {
    for (int attempt = 0;; ++attempt) {
      StatusOr<std::shared_ptr<const core::OfflinePermuter<T>>> result =
          cache_.try_acquire<T>(plan, config_.machine, opts.strategy, phases);
      if (result.ok() || attempt >= config_.max_build_retries ||
          !is_transient(result.status().code())) {
        return result;
      }
      const std::chrono::microseconds pause = backoff_with_jitter(config_, attempt);
      if (opts.deadline != Executor::kNoDeadline &&
          std::chrono::steady_clock::now() + pause >= opts.deadline) {
        return result;  // no budget left to retry; ladder decides next
      }
      metrics_.record_build_retry();
      std::this_thread::sleep_for(pause);
    }
  }

  /// The conventional tier: a D-designated permuter has no offline
  /// phase beyond copying the mapping, so it cannot hit the plan-build
  /// fault domain. Built outside the cache on purpose — degraded
  /// service must not evict healthy compiled plans.
  template <class T>
  StatusOr<std::shared_ptr<const core::OfflinePermuter<T>>> build_conventional(
      const perm::Permutation& p) {
    try {
      return std::shared_ptr<const core::OfflinePermuter<T>>(
          std::make_shared<const core::OfflinePermuter<T>>(p, config_.machine,
                                                           core::Strategy::kDDesignated));
    } catch (const std::bad_alloc&) {
      return Status(StatusCode::kResourceExhausted, "allocation failed building fallback");
    } catch (const std::exception& e) {
      return Status(StatusCode::kUnavailable,
                    std::string("conventional fallback failed: ") + e.what());
    }
  }

  /// Composite-permutation memo lookup (program fingerprint keyed);
  /// a hit refreshes LRU order. An empty handle on miss or when
  /// disabled.
  [[nodiscard]] PlanHandle cached_composite(std::uint64_t key) {
    std::lock_guard lock(composites_mutex_);
    const auto it = composites_.find(key);
    if (it == composites_.end()) return {};
    composites_lru_.splice(composites_lru_.begin(), composites_lru_, it->second.second);
    return it->second.first;
  }

  void cache_composite(std::uint64_t key, PlanHandle composite) {
    if (config_.max_cached_composites == 0) return;
    std::lock_guard lock(composites_mutex_);
    if (composites_.count(key) != 0) return;  // racing first submissions: keep the incumbent
    composites_lru_.push_front(key);
    composites_.emplace(key, std::make_pair(std::move(composite), composites_lru_.begin()));
    while (composites_.size() > config_.max_cached_composites) {
      composites_.erase(composites_lru_.back());
      composites_lru_.pop_back();
    }
  }

  util::ThreadPool& pool_;
  Config config_;
  ServiceMetrics metrics_;
  PlanCache cache_;
  Executor executor_;

  // Composite-permutation memo (see Config::max_cached_composites).
  std::mutex composites_mutex_;
  std::list<std::uint64_t> composites_lru_;
  std::unordered_map<std::uint64_t, std::pair<PlanHandle, std::list<std::uint64_t>::iterator>>
      composites_;
};

/// Load a serialized plan as a typed Status instead of a bare nullopt:
/// kUnavailable for IO-level failures, kInvalidArgument for malformed
/// or corrupt payloads (with the loader's reason attached). Carries the
/// `plan_io.read` fault-injection point, which corrupts the in-memory
/// image before parsing — proving the loader's validation rejects a
/// torn read instead of feeding garbage to a kernel.
StatusOr<core::ScheduledPlan> load_plan_checked(const std::string& path);

}  // namespace hmm::runtime
