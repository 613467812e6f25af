#pragma once
/// \file permuter.hpp
/// \brief `OfflinePermuter<T>` — the one-stop downstream API.
///
/// Wraps the paper's decision problem for the user: given a permutation
/// known in advance, pick an algorithm (the scheduled plan or the
/// conventional gather), own the scratch buffers, and expose a single
/// `permute(a, b)` call that can be invoked any number of times.
///
/// Two rules choose the algorithm:
///  - `kMeasured`, the default of the one-argument constructor and of
///    the serving path, times both candidates on this host
///    (host_cost.hpp): the S-designated gather of this very permutation
///    against the host's memoized five-pass sweep time for (n, sizeof(T)),
///    and builds the plan only when the sweep is faster by more than
///    `kSweepMargin` (1.15x). On a CPU the gather wins while the arrays
///    fit the last-level cache — the host-side image of the paper's
///    Section VIII small-n inversion (EXPERIMENTS.md, "Measured
///    strategy").
///  - `kAuto`, the default when a machine is given, mirrors Lemma 4 vs
///    Theorem 9: scheduled wins when
///      16(n/w + l - 1) + 16 n/(dw)  <  2(n/w + l - 1) + d_w(P) + l - 1,
///    evaluated with the machine parameters and measured d_w(P). It is
///    the paper's model and what Table I, the simulator and `diagnose`
///    use.

#include <cstdint>
#include <optional>
#include <span>

#include "core/conventional.hpp"
#include "core/host_cost.hpp"
#include "core/plan.hpp"
#include "core/scheduled.hpp"
#include "core/strategy.hpp"
#include "model/cost.hpp"
#include "perm/distribution.hpp"
#include "util/bits.hpp"
#include "util/stopwatch.hpp"

namespace hmm::core {

template <class T>
class OfflinePermuter {
 public:
  /// Compile the permuter for this host: `kMeasured` with the default
  /// machine's width and plan rules.
  explicit OfflinePermuter(perm::Permutation p)
      : OfflinePermuter(std::move(p), model::MachineParams::gtx680(), Strategy::kMeasured) {}

  /// Compile the permuter. The permutation is copied (it defines the
  /// object); plan/inverse construction is the offline phase. `probe`
  /// replaces kMeasured's host timings (tests pin the decision with it).
  OfflinePermuter(perm::Permutation p, model::MachineParams machine,
                  Strategy strategy = Strategy::kAuto, const CostProbe& probe = {})
      : perm_(std::move(p)), machine_(machine) {
    const util::Stopwatch build_clock;
    const std::uint64_t n = perm_.size();
    const bool plannable = util::is_pow2(n) && plan_supported(n, machine_);

    chosen_ = strategy;
    if (strategy == Strategy::kAuto) {
      if (plannable) {
        const std::uint64_t t_sched = model::scheduled_time(n, machine_);
        const std::uint64_t t_conv = model::s_designated_time(
            n, perm::inverse_distribution(perm_, machine_.width), machine_);
        chosen_ = t_sched < t_conv ? Strategy::kScheduled : Strategy::kSDesignated;
      } else {
        chosen_ = Strategy::kSDesignated;
      }
    } else if (strategy == Strategy::kMeasured) {
      // A plan that would not fit shared memory for T is not a
      // candidate: the gather serves it instead of the check aborting.
      chosen_ = Strategy::kSDesignated;
      if (plannable && ScheduledPlan::shared_bytes_needed(shape_for(n, machine_.width),
                                                          machine_.width, sizeof(T)) <=
                           machine_.shared_bytes) {
        inverse_.emplace(perm_.inverse());
        measured_ = measure_costs<T>(util::ThreadPool::global(), *inverse_, machine_.width, probe);
        chosen_ = measured_choice(plannable, *measured_);
        if (chosen_ == Strategy::kScheduled) inverse_.reset();
      }
    }
    HMM_CHECK_MSG(chosen_ != Strategy::kScheduled || plannable,
                  "scheduled strategy requires power-of-two n >= width^2");

    switch (chosen_) {
      case Strategy::kScheduled:
        plan_.emplace(ScheduledPlan::build(perm_, machine_));
        scratch_.resize(n);
        HMM_CHECK_MSG(plan_->fits_shared(sizeof(T)),
                      "plan does not fit this machine's shared memory for T");
        break;
      case Strategy::kSDesignated:
        if (!inverse_) inverse_.emplace(perm_.inverse());
        break;
      case Strategy::kDDesignated:
        break;
      case Strategy::kAuto:
      case Strategy::kMeasured:
        break;  // unreachable; resolved above
    }
    offline_seconds_ = build_clock.seconds();
  }

  /// The strategy actually in use (after kAuto / kMeasured resolution).
  [[nodiscard]] Strategy strategy() const noexcept { return chosen_; }
  /// The timings kMeasured decided from; empty under any other rule and
  /// for sizes the plan does not support.
  [[nodiscard]] const std::optional<MeasuredCosts>& measured_costs() const noexcept {
    return measured_;
  }
  [[nodiscard]] const perm::Permutation& permutation() const noexcept { return perm_; }
  [[nodiscard]] const model::MachineParams& machine() const noexcept { return machine_; }
  [[nodiscard]] std::uint64_t size() const noexcept { return perm_.size(); }

  /// The compiled plan, when the scheduled strategy is active.
  [[nodiscard]] const ScheduledPlan* plan() const noexcept {
    return plan_ ? &*plan_ : nullptr;
  }

  /// Wall-clock seconds the constructor spent on the offline phase
  /// (strategy selection — kMeasured's timings included — plus plan
  /// build or inverse computation). This is
  /// the cost a plan cache amortizes away on a hit.
  [[nodiscard]] double offline_build_seconds() const noexcept { return offline_seconds_; }

  /// Approximate resident bytes of the compiled artifact: the owned
  /// permutation, plus the strategy's precomputed state (schedule
  /// arrays + direct row permutations, or the inverse mapping) and the
  /// internal scratch buffer. Used for byte-bounded cache accounting.
  [[nodiscard]] std::uint64_t compiled_bytes() const noexcept {
    const std::uint64_t n = size();
    std::uint64_t bytes = n * sizeof(std::uint32_t);  // perm_
    if (plan_) {
      bytes += plan_->schedule_bytes();
      bytes += 3 * n * sizeof(std::uint16_t);  // direct1/2/3
    }
    if (inverse_) bytes += n * sizeof(std::uint32_t);
    bytes += scratch_.size() * sizeof(T);
    return bytes;
  }

  /// Scratch elements an external-scratch `permute` call must provide
  /// (n for the scheduled strategy, 0 otherwise).
  [[nodiscard]] std::uint64_t scratch_elements() const noexcept {
    return chosen_ == Strategy::kScheduled ? size() : 0;
  }

  /// Thread-safe online phase: b[P(i)] = a[i] using caller-provided
  /// scratch (size `scratch_elements()`; may be empty for the
  /// conventional strategies). Unlike the stateful overload below, this
  /// is `const` and touches no member buffers, so any number of threads
  /// may execute the same compiled permuter on distinct (a, b, scratch)
  /// triples concurrently — the runtime executor's batched path.
  void permute(std::span<const T> a, std::span<T> b, std::span<T> scratch) const {
    HMM_CHECK(a.size() == size() && b.size() == size());
    if (chosen_ == Strategy::kScheduled) {
      HMM_CHECK_MSG(scratch.size() == size(), "scheduled strategy needs n scratch elements");
      scheduled_cpu_lean<T>(util::ThreadPool::global(), *plan_, a, b, scratch);
    } else {
      run_conventional(a, b);
    }
  }

  /// Gated, timed variant of the const online phase. `gate` is
  /// consulted at the boundaries between the strategy's sequential
  /// kernel launches (the scheduled algorithm's five kernels; the
  /// conventional strategies are a single kernel and only check up
  /// front). Returning false stops the execution — the function then
  /// returns false and `b`/`scratch` hold garbage. This is how the
  /// runtime executor observes deadlines and cancellation mid-request
  /// without preempting a running kernel. `observer` (when non-empty)
  /// receives one (kernel index, wall ns) callback per kernel launch
  /// that ran — indices 0..4 for the scheduled algorithm's five
  /// launches, `kConventionalKernel` for the single kernel of a
  /// conventional strategy; an empty observer skips all clock reads.
  [[nodiscard]] bool permute_timed(std::span<const T> a, std::span<T> b, std::span<T> scratch,
                                   PhaseGate gate, const KernelObserver& observer) const {
    HMM_CHECK(a.size() == size() && b.size() == size());
    if (chosen_ == Strategy::kScheduled) {
      HMM_CHECK_MSG(scratch.size() == size(), "scheduled strategy needs n scratch elements");
      BatchLane<T> lane{.a = a, .b = b, .scratch = scratch, .gate = std::move(gate)};
      scheduled_cpu_sweep<T>(util::ThreadPool::global(), *plan_,
                             std::span<BatchLane<T>>(&lane, 1), observer);
      return lane.active;
    }
    if (gate && !gate()) return false;
    std::optional<util::Stopwatch> clock;
    if (observer) clock.emplace();
    run_conventional(a, b);
    if (clock) observer(kConventionalKernel, static_cast<std::uint64_t>(clock->nanos()));
    return true;
  }

  /// Online phase: b[P(i)] = a[i]. Reusable; `a` and `b` must not
  /// alias. Uses the permuter's own scratch buffer, so calls on the
  /// same object must be serialized — use the const overload above for
  /// concurrent execution.
  void permute(std::span<const T> a, std::span<T> b) {
    permute(a, b, std::span<T>(scratch_.data(), scratch_.size()));
  }

  /// Predicted HMM running time of the active strategy (time units).
  [[nodiscard]] std::uint64_t predicted_time_units() const {
    const std::uint64_t n = size();
    switch (chosen_) {
      case Strategy::kScheduled:
        return model::scheduled_time(n, machine_);
      case Strategy::kSDesignated:
        return model::s_designated_time(
            n, perm::inverse_distribution(perm_, machine_.width), machine_);
      case Strategy::kDDesignated:
        return model::d_designated_time(n, perm::distribution(perm_, machine_.width),
                                        machine_);
      case Strategy::kAuto:
      case Strategy::kMeasured:
        break;
    }
    return 0;
  }

  /// True iff the scheduled plan is usable for (n, machine).
  static bool plan_supported(std::uint64_t n, const model::MachineParams& machine) {
    if (!util::is_pow2(n)) return false;
    const unsigned k = util::log2_floor(n);
    const unsigned wk = util::log2_floor(machine.width);
    return (k - (k + 1) / 2) >= wk;  // rows >= width (layout.cpp's rule)
  }

 private:
  /// The single kernel of a conventional strategy.
  void run_conventional(std::span<const T> a, std::span<T> b) const {
    auto& pool = util::ThreadPool::global();
    if (chosen_ == Strategy::kSDesignated) {
      s_designated_cpu<T>(pool, a, b, *inverse_);
    } else {
      d_designated_cpu<T>(pool, a, b, perm_);
    }
  }

  perm::Permutation perm_;
  model::MachineParams machine_;
  Strategy chosen_;
  std::optional<MeasuredCosts> measured_;
  double offline_seconds_ = 0;
  std::optional<ScheduledPlan> plan_;
  std::optional<perm::Permutation> inverse_;
  util::aligned_vector<T> scratch_;
};

}  // namespace hmm::core
