#pragma once
/// \file scheduled.hpp
/// \brief Online phase of the scheduled permutation (Section VII):
///        execute a compiled ScheduledPlan as five kernels —
///        row-wise, transpose, row-wise, transpose, row-wise —
///        exactly the paper's five sequential kernel launches.

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "core/plan.hpp"
#include "cpu/kernels.hpp"
#include "sim/hmm_sim.hpp"
#include "util/aligned_vector.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace hmm::core {

/// Cooperative checkpoint between the five kernel launches: return
/// false to stop the execution (deadline blown, request cancelled).
/// The paper's algorithm is five *sequential* kernel launches, so the
/// gaps between them are the natural preemption points a serving layer
/// gets for free — a stopped execution leaves `b`/`scratch` partially
/// written, which the caller must treat as garbage.
using PhaseGate = std::function<bool()>;

/// Per-kernel timing callback: invoked once after each kernel launch
/// that ran, with the kernel index and its wall time in nanoseconds.
/// Indices 0..4 are the scheduled algorithm's five launches in order
/// (row pass 1, transpose 1, row pass 2, transpose 2, row pass 3);
/// `kConventionalKernel` marks the single kernel of a conventional
/// strategy. Core stays observability-agnostic: the callback carries a
/// neutral (index, ns) pair and the serving layer maps it to its own
/// phase taxonomy.
using KernelObserver = std::function<void(unsigned kernel, std::uint64_t ns)>;

/// Kernel index reported by the timed entry points for the single
/// kernel of a conventional (non-scheduled) strategy.
inline constexpr unsigned kConventionalKernel = 5;

/// One request ("lane") of a scheduled execution: distinct
/// (a, b, scratch) triples, one shared compiled plan. The per-lane
/// `gate` is consulted at every kernel boundary; a lane gated off has
/// `active` cleared and is excluded from the remaining kernels — its
/// b/scratch hold garbage — and the other lanes proceed unaffected.
/// `a` must not alias `b` or `scratch`.
template <class T>
struct BatchLane {
  std::span<const T> a;
  std::span<T> b;
  std::span<T> scratch;
  PhaseGate gate{};    ///< empty = never stops
  bool active = true;  ///< in: lane participates; out: ran to completion
};

/// Row-pass kernel of the five-pass driver.
enum class RowKernel {
  kSchedule,  ///< read the (p̂, q) schedule arrays, as the paper's GPU kernels do
  kDirect,    ///< apply the plan's row permutations g directly (ablation baseline)
};

/// The online phase on the host backend: row pass, transpose, row
/// pass, transpose, row pass over every active lane. Each lane
/// ping-pongs through its output buffer, so one scratch array per lane
/// suffices. With one live lane a kernel runs the single-matrix
/// kernels (transpose tile = machine width); with more, all live lanes
/// advance through the kernel *together* — one fork/join per kernel
/// per batch, the plan's schedule arrays read once for every lane —
/// the serving-side image of the paper's batching lemma. `observer`
/// fires once per kernel that ran with its wall time (no clock is read
/// without one); lane gates are consulted between kernels. Lanes
/// report their outcome through `active` (true = all five kernels ran).
template <class T>
void scheduled_cpu_sweep(util::ThreadPool& pool, const ScheduledPlan& plan,
                         std::span<BatchLane<T>> lanes, const KernelObserver& observer = {},
                         RowKernel row_kernel = RowKernel::kSchedule) {
  const std::uint64_t n = plan.size();
  std::size_t live = 0;
  for (const BatchLane<T>& lane : lanes) {
    if (!lane.active) continue;
    HMM_CHECK(lane.a.size() == n && lane.b.size() == n && lane.scratch.size() == n);
    ++live;
  }

  // Kernel k has the shape of row pass k / 2: transpose 1 turns pass
  // 1's r x m layout into pass 2's m x r, transpose 2 turns it back.
  const RowScheduleSet* const sets[3] = {&plan.pass1(), &plan.pass2(), &plan.pass3()};
  const std::span<const std::uint16_t> direct[3] = {plan.direct1(), plan.direct2(),
                                                    plan.direct3()};
  std::vector<const T*> srcs;
  std::vector<T*> dsts;
  std::optional<util::Stopwatch> clock;
  if (observer) clock.emplace();

  for (unsigned k = 0; k < 5; ++k) {
    if (k > 0) {
      for (BatchLane<T>& lane : lanes) {
        if (lane.active && lane.gate && !lane.gate()) {
          lane.active = false;
          --live;
        }
      }
    }
    if (live == 0) return;

    // Legs: a -> b, b -> scratch, scratch -> b, b -> scratch, scratch -> b.
    const bool transpose = k % 2 == 1;
    const auto src = [&](const BatchLane<T>& lane) -> std::span<const T> {
      if (k == 0) return lane.a;
      return transpose ? lane.b : lane.scratch;
    };
    const auto dst = [&](const BatchLane<T>& lane) { return transpose ? lane.scratch : lane.b; };
    const RowScheduleSet& set = *sets[k / 2];

    if (live == 1 || (!transpose && row_kernel == RowKernel::kDirect)) {
      for (const BatchLane<T>& lane : lanes) {
        if (!lane.active) continue;
        if (transpose) {
          cpu::transpose_blocked<T>(pool, src(lane), dst(lane), set.rows, set.cols,
                                    plan.params().width);
        } else if (row_kernel == RowKernel::kDirect) {
          cpu::row_wise_pass_direct<T>(pool, src(lane), dst(lane), set.rows, set.cols,
                                       direct[k / 2]);
        } else {
          cpu::row_wise_pass<T>(pool, src(lane), dst(lane), set.rows, set.cols, set.phat, set.q);
        }
      }
    } else {
      srcs.clear();
      dsts.clear();
      for (const BatchLane<T>& lane : lanes) {
        if (!lane.active) continue;
        srcs.push_back(src(lane).data());
        dsts.push_back(dst(lane).data());
      }
      if (transpose) {
        cpu::transpose_blocked_batched<T>(pool, srcs, dsts, set.rows, set.cols);
      } else {
        cpu::row_wise_pass_batched<T>(pool, srcs, dsts, set.rows, set.cols, set.phat, set.q);
      }
    }

    if (clock) {
      observer(k, static_cast<std::uint64_t>(clock->nanos()));
      clock->reset();
    }
  }
}

/// One ungated, untimed execution of the plan on the host backend:
/// b[P(i)] = a[i], with `scratch` (size n) as the second ping-pong leg.
/// `a` must not alias `b` or `scratch`.
template <class T>
void scheduled_cpu_lean(util::ThreadPool& pool, const ScheduledPlan& plan,
                        std::span<const T> a, std::span<T> b, std::span<T> scratch) {
  BatchLane<T> lane{.a = a, .b = b, .scratch = scratch};
  scheduled_cpu_sweep<T>(pool, plan, std::span<BatchLane<T>>(&lane, 1));
}

/// Issue every memory-access round of the scheduled algorithm on the
/// simulator (16 coalesced global + 16 conflict-free shared rounds);
/// returns the elapsed time units. Addresses only — pair with
/// `scheduled_sim` for data movement. `words` is the data element
/// width in machine words (model::words_of<T>()).
std::uint64_t scheduled_sim_rounds(sim::HmmSim& sim, const ScheduledPlan& plan,
                                   std::uint32_t words = 1);

/// Execute the plan on the simulator backend: the host driver moves the
/// data and `scheduled_sim_rounds` accounts the model time.
template <class T>
std::uint64_t scheduled_sim(sim::HmmSim& sim, const ScheduledPlan& plan, std::span<const T> a,
                            std::span<T> b) {
  util::aligned_vector<T> scratch(plan.size());
  scheduled_cpu_lean<T>(util::ThreadPool::global(), plan, a, b, scratch);
  return scheduled_sim_rounds(sim, plan, model::words_of<T>());
}

}  // namespace hmm::core
