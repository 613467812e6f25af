#pragma once
/// \file host_cost.hpp
/// \brief Host timings behind `Strategy::kMeasured`: the five-pass
///        sweep's cost per (log2 n, element width, machine width),
///        measured once per process, and the S-designated gather of one
///        permutation, measured per plan.
///
/// `kAuto` prices both algorithms on the HMM (Lemma 4 vs Theorem 9)
/// with the machine parameters it is given — the GTX-680's by default,
/// where the scheduled algorithm wins at every plannable size. On a CPU
/// host the trade differs: the gather is one pass over the arrays and
/// wins while they fit the last-level cache, and the five-pass sweep
/// wins only above that, by a margin that depends on the permutation
/// (EXPERIMENTS.md, "Measured strategy"). No locality statistic sees
/// that margin — at n = 2^22 the cacheline-width distribution of the
/// inverse is 1.000 for random, bit-reversal and transpose alike, yet
/// the gather wins on the first and loses on the other two — so
/// `kMeasured` times the candidates instead:
///
///  - the sweep's cost depends on n and the element width only (the
///    row passes and transposes stream whole rows whatever the plan),
///    so it is timed once per process on synthetic in-row schedules —
///    no plan is built — and memoized;
///  - the gather's cost depends on the permutation, so it is timed on
///    the actual inverse, which S-designated needs anyway.
///
/// The plan is built only when the sweep beats the gather by more than
/// `kSweepMargin`, so a close call keeps the gather.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "core/layout.hpp"
#include "core/strategy.hpp"
#include "cpu/kernels.hpp"
#include "perm/permutation.hpp"
#include "util/aligned_vector.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace hmm::core {

/// The two timings kMeasured weighs, in wall-clock nanoseconds.
struct MeasuredCosts {
  double sweep_ns = 0;   ///< the five-pass sweep at this (n, element width)
  double gather_ns = 0;  ///< the S-designated gather of this permutation
};

/// How much faster than the gather the sweep must time before kMeasured
/// builds a plan. The two wrong picks cost very different amounts:
/// picking the sweep wrongly costs a plan build (13 s at 2^22) plus the
/// difference on every call; picking the gather wrongly costs at most
/// this margin per call. So the rule leans towards the gather, and a
/// pick stays within this factor of the faster kernel whenever the
/// timings are right.
inline constexpr double kSweepMargin = 1.15;

/// kMeasured's rule. A size the plan does not support gets the gather;
/// otherwise the sweep must beat it by more than `kSweepMargin` — a
/// close call or a tie keeps the gather, which needs no plan build and
/// no scratch. Never D-designated: the scatter's casual writes cost
/// what the gather's casual reads do, and it has no inverse to amortize.
[[nodiscard]] constexpr Strategy measured_choice(bool plannable,
                                                 const MeasuredCosts& costs) noexcept {
  return plannable && costs.sweep_ns * kSweepMargin < costs.gather_ns ? Strategy::kScheduled
                                                                      : Strategy::kSDesignated;
}

/// Where kMeasured takes its timings. An empty member means "time it
/// on this host"; tests inject fixed figures to pin the decision.
struct CostProbe {
  std::function<double(unsigned log2_n, std::size_t elem_bytes)> sweep_ns;
  std::function<double(std::uint64_t n, std::size_t elem_bytes)> gather_ns;
};

/// One memoized sweep calibration (reported by STATS).
struct SweepCalibration {
  unsigned log2_n = 0;
  std::uint32_t elem_bytes = 0;
  std::uint32_t width = 0;  ///< machine width: sets the matrix shape and transpose tile
  double sweep_ns = 0;
};

/// The memoized sweep time for a key; the first caller runs `measure`
/// (outside the memo's lock — a timing that fans out onto a pool must
/// not hold a lock a pool worker could wait on). Racing first callers
/// each measure; the first to finish is kept.
double memoized_sweep_ns(unsigned log2_n, std::size_t elem_bytes, std::uint32_t width,
                         const std::function<double()>& measure);

/// Every calibration this process has measured, ordered by key.
std::vector<SweepCalibration> sweep_calibrations();

/// Forget every calibration (tests; a host whose load changed).
void reset_sweep_calibrations();

/// Minimum wall time of `fn` over three runs after one warm-up, in ns.
template <class Fn>
double best_of_three_ns(Fn&& fn) {
  fn();
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    const util::Stopwatch clock;
    fn();
    best = std::min(best, static_cast<double>(clock.nanos()));
  }
  return best;
}

namespace detail {

/// A schedule set whose every row applies the same fixed pseudo-random
/// in-row permutation (p̂ and q both shuffled): the streaming traffic of
/// a real plan's row pass — n elements in, n out, 2n 16-bit schedule
/// reads — without a plan build.
inline void fill_synthetic_schedule(std::uint64_t rows, std::uint64_t cols,
                                    util::aligned_vector<std::uint16_t>& phat,
                                    util::aligned_vector<std::uint16_t>& q) {
  std::vector<std::uint16_t> row_phat(cols);
  std::vector<std::uint16_t> row_q(cols);
  for (std::uint64_t k = 0; k < cols; ++k) {
    row_phat[k] = row_q[k] = static_cast<std::uint16_t>(k);
  }
  util::Xoshiro256 rng(0x5ca1ab1e);
  for (std::uint64_t k = cols; k > 1; --k) {
    std::swap(row_phat[k - 1], row_phat[rng.bounded(k)]);
    std::swap(row_q[k - 1], row_q[rng.bounded(k)]);
  }
  phat.resize(rows * cols);
  q.resize(rows * cols);
  for (std::uint64_t r = 0; r < rows; ++r) {
    const auto offset = static_cast<std::ptrdiff_t>(r * cols);
    std::copy(row_phat.begin(), row_phat.end(), phat.begin() + offset);
    std::copy(row_q.begin(), row_q.end(), q.begin() + offset);
  }
}

}  // namespace detail

/// Time the five-pass sweep at size n (a power of two the plan
/// supports) on `pool`: the three `cpu::row_wise_pass` calls over
/// synthetic in-row schedules and the two `cpu::transpose_blocked`
/// calls of the plan's shapes, exactly as `scheduled_cpu_lean` issues
/// them. Best of three after a warm-up, ns.
template <class T>
double time_host_sweep_ns(util::ThreadPool& pool, std::uint64_t n, std::uint32_t width) {
  const MatrixShape shape = shape_for(n, width);
  const std::uint64_t r = shape.rows;
  const std::uint64_t m = shape.cols;
  util::aligned_vector<T> a(n), b(n), scratch(n);
  util::aligned_vector<std::uint16_t> phat_rm, q_rm, phat_mr, q_mr;
  detail::fill_synthetic_schedule(r, m, phat_rm, q_rm);
  if (r != m) detail::fill_synthetic_schedule(m, r, phat_mr, q_mr);
  const util::aligned_vector<std::uint16_t>& phat2 = r == m ? phat_rm : phat_mr;
  const util::aligned_vector<std::uint16_t>& q2 = r == m ? q_rm : q_mr;
  const std::span<const T> ca(a), cb(b), cs(scratch);
  return best_of_three_ns([&] {
    cpu::row_wise_pass<T>(pool, ca, b, r, m, phat_rm, q_rm);
    cpu::transpose_blocked<T>(pool, cb, scratch, r, m, width);
    cpu::row_wise_pass<T>(pool, cs, b, m, r, phat2, q2);
    cpu::transpose_blocked<T>(pool, cb, scratch, m, r, width);
    cpu::row_wise_pass<T>(pool, cs, b, r, m, phat_rm, q_rm);
  });
}

/// The host's sweep time for (n, sizeof(T), width), measured on the
/// first call for that key and memoized for the process.
template <class T>
double host_sweep_ns(util::ThreadPool& pool, std::uint64_t n, std::uint32_t width) {
  return memoized_sweep_ns(util::log2_floor(n), sizeof(T), width,
                           [&] { return time_host_sweep_ns<T>(pool, n, width); });
}

/// Time the S-designated gather `b[i] = a[inverse[i]]` of one
/// permutation on `pool`: best of three after a warm-up, ns.
template <class T>
double time_gather_ns(util::ThreadPool& pool, const perm::Permutation& inverse) {
  util::aligned_vector<T> a(inverse.size()), b(inverse.size());
  const std::span<const T> ca(a);
  return best_of_three_ns([&] { cpu::gather<T>(pool, ca, b, inverse.data()); });
}

/// Both of kMeasured's timings for a plannable permutation given its
/// inverse, from `probe` where it injects them and from `pool` where it
/// does not: the memoized host sweep and a fresh gather of this
/// permutation.
template <class T>
MeasuredCosts measure_costs(util::ThreadPool& pool, const perm::Permutation& inverse,
                            std::uint32_t width, const CostProbe& probe = {}) {
  const std::uint64_t n = inverse.size();
  return {
      .sweep_ns = probe.sweep_ns ? probe.sweep_ns(util::log2_floor(n), sizeof(T))
                                 : host_sweep_ns<T>(pool, n, width),
      .gather_ns = probe.gather_ns ? probe.gather_ns(n, sizeof(T))
                                   : time_gather_ns<T>(pool, inverse),
  };
}

}  // namespace hmm::core
