#pragma once
/// \file plan_cache.hpp
/// \brief Thread-safe LRU cache of compiled `core::OfflinePermuter`s.
///
/// The paper's offline phase (row graph + König coloring + per-row bank
/// schedules) is data-independent: built once per permutation, a plan
/// executes any number of arrays. This cache is the serving-side
/// exploitation of that property — repeated permutations skip the
/// offline phase entirely and hit an already-compiled permuter.
///
/// Keying: the 64-bit plan key (fingerprint.hpp) — the permutation's
/// mapping fingerprint, computed once per `PlanHandle`, mixed with the
/// machine parameters + strategy + element width — further mixed with
/// a per-element-type token: entries are typed
/// (`OfflinePermuter<T>`), so two distinct types of the same width
/// (float vs int32) must occupy distinct slots even though their
/// compiled plans are structurally identical.
/// Eviction: strict LRU, bounded by total `compiled_bytes()` of the
/// resident entries. Evicted permuters stay alive as long as a caller
/// holds the returned `shared_ptr` — eviction only drops the cache's
/// reference, never invalidates in-flight executions.
///
/// Concurrency: a single mutex guards the index (lookups are O(1) and
/// the critical sections are tiny — plan *construction* happens outside
/// the lock). Concurrent misses on the same key are single-flight:
/// the first caller builds, the rest wait on a shared_future and are
/// counted as hits (they skip the build).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/permuter.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/fingerprint.hpp"
#include "runtime/metrics.hpp"
#include "runtime/status.hpp"
#include "util/stopwatch.hpp"

namespace hmm::runtime {

class PlanCache {
 public:
  struct Config {
    /// Total compiled_bytes() budget across resident entries. An entry
    /// larger than the whole budget is built and returned but not
    /// retained (counted as an immediate eviction).
    std::uint64_t max_bytes = 256ull << 20;
  };

  PlanCache() : PlanCache(Config{}) {}
  explicit PlanCache(Config config, ServiceMetrics* metrics = nullptr)
      : config_(config), metrics_(metrics) {}

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Get-or-compile the permuter for (plan, machine, strategy, T). The
  /// default strategy, kMeasured, times the gather against the host's
  /// sweep and builds the scheduled plan only when it is faster. Hits
  /// return in O(1) without touching the offline phase or the words
  /// (the key mixes the handle's fingerprint); misses compile outside
  /// the cache lock. Throws whatever the build throws (and the failed
  /// key is erased, so a later acquire retries).
  ///
  /// `phases` (optional) receives the request's time attribution:
  /// kPlanLookup covers the index probe, kPlanBuild covers an actual
  /// compile — or the wait on another thread's in-flight compile. A
  /// clean hit on a completed entry records no kPlanBuild span.
  template <class T>
  std::shared_ptr<const core::OfflinePermuter<T>> acquire(
      const PlanHandle& plan,
      const model::MachineParams& machine = model::MachineParams::gtx680(),
      core::Strategy strategy = core::Strategy::kMeasured, PhaseBreakdown* phases = nullptr) {
    util::Stopwatch lookup_clock;
    const Fingerprint fp = typed_key<T>(plan.fingerprint(), machine, strategy);
    std::promise<std::shared_ptr<EntryBase>> promise;
    std::shared_future<std::shared_ptr<EntryBase>> ready;
    bool builder = false;
    std::uint64_t my_generation = 0;
    {
      std::lock_guard lock(mutex_);
      auto it = slots_.find(fp.value);
      if (it != slots_.end()) {
        if (metrics_) metrics_->record_lookup(/*hit=*/true);
        touch_locked(it->second);
        ready = it->second.ready;
      } else {
        if (metrics_) metrics_->record_lookup(/*hit=*/false);
        builder = true;
        ready = promise.get_future().share();
        my_generation = insert_pending_locked(fp.value, ready);
      }
    }
    if (phases) {
      phases->add(Phase::kPlanLookup, static_cast<std::uint64_t>(lookup_clock.nanos()));
    }

    if (builder) {
      util::Stopwatch clock;
      std::shared_ptr<TypedEntry<T>> entry;
      try {
        auto& faults = FaultInjector::instance();
        faults.maybe_stall(fault_sites::kPlanBuildStall);
        faults.maybe_throw(fault_sites::kPlanBuild, StatusCode::kPlanBuildFailed,
                           "plan build failure");
        entry = std::make_shared<TypedEntry<T>>(plan.permutation(), machine, strategy);
      } catch (...) {
        erase(fp.value, my_generation);
        promise.set_exception(std::current_exception());
        std::rethrow_exception(std::current_exception());
      }
      const auto build_ns = static_cast<std::uint64_t>(clock.nanos());
      if (metrics_) metrics_->record_plan_build(build_ns, entry->permuter->strategy());
      if (phases) phases->add(Phase::kPlanBuild, build_ns);
      commit(fp.value, my_generation, entry, entry->permuter->compiled_bytes());
      promise.set_value(entry);
      return entry->permuter;
    }

    // Hit (possibly on a still-compiling entry: wait for the builder).
    // Only an actual wait counts as kPlanBuild time — a hit on a
    // completed entry must not pollute the build histogram with 0 ns
    // samples.
    const bool must_wait =
        ready.wait_for(std::chrono::seconds(0)) != std::future_status::ready;
    util::Stopwatch wait_clock;
    std::shared_ptr<EntryBase> base = ready.get();
    if (phases && must_wait) {
      phases->add(Phase::kPlanBuild, static_cast<std::uint64_t>(wait_clock.nanos()));
    }
    // The key carries a per-type token, so a failed cast here would
    // mean a genuine 64-bit fingerprint collision.
    auto typed = std::dynamic_pointer_cast<TypedEntry<T>>(base);
    HMM_CHECK_MSG(typed != nullptr, "plan-cache fingerprint collided across element types");
    return typed->permuter;
  }

  /// The same for a raw permutation: hashes the words once (charged to
  /// kPlanLookup, since a handle would have skipped it), then runs the
  /// handle path.
  template <class T>
  std::shared_ptr<const core::OfflinePermuter<T>> acquire(
      const perm::Permutation& p,
      const model::MachineParams& machine = model::MachineParams::gtx680(),
      core::Strategy strategy = core::Strategy::kMeasured, PhaseBreakdown* phases = nullptr) {
    return acquire<T>(hash_timed(p, phases), machine, strategy, phases);
  }

  /// Non-throwing `acquire`: build (and waiter) failures come back as a
  /// typed Status instead of an exception. This is the serving-path
  /// entry point — `RobustPermuteService` retries / degrades on the
  /// transient codes and fails fast on the rest.
  ///   - FaultInjectedError   -> its carried code (kPlanBuildFailed, ...)
  ///   - std::bad_alloc       -> kResourceExhausted
  ///   - anything else thrown -> kPlanBuildFailed with the what() string
  template <class T>
  StatusOr<std::shared_ptr<const core::OfflinePermuter<T>>> try_acquire(
      const PlanHandle& plan,
      const model::MachineParams& machine = model::MachineParams::gtx680(),
      core::Strategy strategy = core::Strategy::kMeasured, PhaseBreakdown* phases = nullptr) {
    try {
      return acquire<T>(plan, machine, strategy, phases);
    } catch (const FaultInjectedError& e) {
      return Status(e.code, e.what());
    } catch (const std::bad_alloc&) {
      return Status(StatusCode::kResourceExhausted, "allocation failed during plan build");
    } catch (const std::exception& e) {
      return Status(StatusCode::kPlanBuildFailed, e.what());
    }
  }

  /// Raw-permutation `try_acquire`: hash once, then the handle path.
  template <class T>
  StatusOr<std::shared_ptr<const core::OfflinePermuter<T>>> try_acquire(
      const perm::Permutation& p,
      const model::MachineParams& machine = model::MachineParams::gtx680(),
      core::Strategy strategy = core::Strategy::kMeasured, PhaseBreakdown* phases = nullptr) {
    return try_acquire<T>(hash_timed(p, phases), machine, strategy, phases);
  }

  /// The exact key `acquire<T>` files an entry under: the plan key of
  /// the handle's fingerprint mixed with the per-type token. Use this
  /// (not the raw `fingerprint_plan_key`) when probing `contains()`.
  template <class T>
  [[nodiscard]] static Fingerprint plan_key(
      const PlanHandle& plan,
      const model::MachineParams& machine = model::MachineParams::gtx680(),
      core::Strategy strategy = core::Strategy::kMeasured) {
    return typed_key<T>(plan.fingerprint(), machine, strategy);
  }

  /// Raw-permutation `plan_key`: hash once, then the handle key.
  template <class T>
  [[nodiscard]] static Fingerprint plan_key(
      const perm::Permutation& p,
      const model::MachineParams& machine = model::MachineParams::gtx680(),
      core::Strategy strategy = core::Strategy::kMeasured) {
    return plan_key<T>(PlanHandle::borrow(p), machine, strategy);
  }

  /// True iff a *completed* entry for this key is resident.
  [[nodiscard]] bool contains(Fingerprint fp) const;

  /// Resident compiled bytes (completed entries only).
  [[nodiscard]] std::uint64_t bytes() const;

  /// Resident entry count (including in-flight builds).
  [[nodiscard]] std::size_t entries() const;

  [[nodiscard]] const Config& config() const noexcept { return config_; }

  /// Drop every entry, completed *and* pending. Waiters on a pending
  /// build keep their shared_future and still receive the result; the
  /// builder's later commit() notices its slot generation is gone and
  /// returns the entry without retaining it (no resurrected key, no
  /// bytes_ drift). See the ClearDuringInFlightBuild regression test.
  void clear();

 private:
  struct EntryBase {
    virtual ~EntryBase() = default;
  };

  /// Process-unique token per element type, assigned on first use.
  /// Folded into the plan key so same-width types (e.g. float and
  /// int32) cannot alias a slot and fail the typed downcast.
  static std::atomic<std::uint32_t>& type_token_counter() {
    static std::atomic<std::uint32_t> counter{1};
    return counter;
  }

  template <class T>
  static std::uint32_t type_token() {
    static const std::uint32_t token =
        type_token_counter().fetch_add(1, std::memory_order_relaxed);
    return token;
  }

  /// Borrowed handle for a raw-permutation overload, with the hash
  /// charged to kPlanLookup.
  static PlanHandle hash_timed(const perm::Permutation& p, PhaseBreakdown* phases) {
    util::Stopwatch clock;
    PlanHandle plan = PlanHandle::borrow(p);
    if (phases) phases->add(Phase::kPlanLookup, static_cast<std::uint64_t>(clock.nanos()));
    return plan;
  }

  template <class T>
  static Fingerprint typed_key(Fingerprint mapping, const model::MachineParams& machine,
                               core::Strategy strategy) {
    const Fingerprint fp = fingerprint_plan_key(mapping, machine, static_cast<int>(strategy),
                                                static_cast<std::uint32_t>(sizeof(T)));
    Fnv1a64 h;
    h.update_u64(fp.value);
    h.update_u32(type_token<T>());
    return Fingerprint{h.digest()};
  }

  template <class T>
  struct TypedEntry final : EntryBase {
    TypedEntry(const perm::Permutation& p, const model::MachineParams& machine,
               core::Strategy strategy)
        : permuter(std::make_shared<const core::OfflinePermuter<T>>(p, machine, strategy)) {}
    std::shared_ptr<const core::OfflinePermuter<T>> permuter;
  };

  struct Slot {
    std::shared_future<std::shared_ptr<EntryBase>> ready;
    /// Monotonic id stamped at insert. A builder's commit()/erase()
    /// only applies to the generation it created: if clear() dropped
    /// the slot (and possibly a fresh acquire re-created the key), the
    /// stale builder must not complete someone else's slot — that
    /// would double-push the key into the LRU list and double-count
    /// bytes_.
    std::uint64_t generation = 0;
    std::uint64_t bytes = 0;
    bool completed = false;
    std::list<std::uint64_t>::iterator lru_it;  // valid iff completed
  };

  // Index maintenance (all require mutex_ held).
  void touch_locked(Slot& slot);
  [[nodiscard]] std::uint64_t insert_pending_locked(
      std::uint64_t key, std::shared_future<std::shared_ptr<EntryBase>> ready);
  void evict_to_fit_locked();

  // Builder-side transitions (take the lock themselves); no-ops when
  // the slot's generation no longer matches (clear() raced the build).
  void commit(std::uint64_t key, std::uint64_t generation, std::shared_ptr<EntryBase> entry,
              std::uint64_t entry_bytes);
  void erase(std::uint64_t key, std::uint64_t generation);

  Config config_;
  ServiceMetrics* metrics_;
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, Slot> slots_;
  std::list<std::uint64_t> lru_;  // front = most recently used
  std::uint64_t bytes_ = 0;
  std::uint64_t next_generation_ = 1;
};

}  // namespace hmm::runtime
