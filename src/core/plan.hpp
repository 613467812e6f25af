#pragma once
/// \file plan.hpp
/// \brief The offline phase of the scheduled permutation (Section VII):
///        factor P into row-wise / column-wise / row-wise passes and
///        precompute every conflict-free schedule.
///
/// Plan construction:
/// 1. Build the *row graph*: source rows x destination rows, one edge
///    per element e (row(e) -> row(P(e))), regular of degree `cols`.
/// 2. König-color it with `cols` colors; an element colored c routes
///    through column c. Properness makes pass 1 a valid row-wise
///    permutation; perfect-matching color classes make pass 2 a valid
///    column-wise permutation.
/// 3. Derive the three per-row permutation families g1, g2, g3 and
///    compile each row into its (p̂, q) conflict-free bank schedule
///    (row_schedule.hpp).
///
/// The plan is permutation-specific but data-independent: build once,
/// execute any number of arrays (the paper's "offline" setting).

#include <cstdint>

#include "core/layout.hpp"
#include "core/row_schedule.hpp"
#include "graph/coloring.hpp"
#include "model/machine.hpp"
#include "perm/permutation.hpp"

namespace hmm::core {

/// Timing/occupancy statistics of plan construction (the offline cost
/// the paper does not charge; `bench_plan_build` quantifies it).
struct PlanBuildStats {
  double row_graph_seconds = 0;   ///< building + coloring the row graph
  double schedules_seconds = 0;   ///< compiling all per-row bank schedules
  std::uint64_t colors = 0;       ///< number of colors (= cols)
};

/// A fully compiled scheduled-permutation plan.
class ScheduledPlan {
 public:
  /// Build the plan for permutation `p` on machine `params`.
  /// Requires |p| a power of two with shape_for-compatible size.
  static ScheduledPlan build(const perm::Permutation& p, const model::MachineParams& params,
                             graph::ColoringAlgorithm algo = graph::ColoringAlgorithm::kAuto);

  /// Parallel build: compiles the per-row schedules on the pool (the
  /// dominant half of plan construction; rows are independent).
  /// Bit-identical output to the serial build.
  static ScheduledPlan build(util::ThreadPool& pool, const perm::Permutation& p,
                             const model::MachineParams& params,
                             graph::ColoringAlgorithm algo = graph::ColoringAlgorithm::kAuto);

  [[nodiscard]] std::uint64_t size() const noexcept { return n_; }
  [[nodiscard]] const MatrixShape& shape() const noexcept { return shape_; }
  [[nodiscard]] const model::MachineParams& params() const noexcept { return params_; }
  [[nodiscard]] const PlanBuildStats& build_stats() const noexcept { return stats_; }

  /// Pass 1: row-wise over rows x cols (route every element to its color column).
  [[nodiscard]] const RowScheduleSet& pass1() const noexcept { return pass1_; }
  /// Pass 2: row-wise over the transposed matrix, cols x rows (move to destination row).
  [[nodiscard]] const RowScheduleSet& pass2() const noexcept { return pass2_; }
  /// Pass 3: row-wise over rows x cols (move to destination column).
  [[nodiscard]] const RowScheduleSet& pass3() const noexcept { return pass3_; }

  /// The raw per-row permutations g1/g2/g3 (flattened row-major;
  /// `out[r][g(j)] = in[r][j]`). The GPU-faithful executors read the
  /// (p̂, q) schedules instead; these support the direct host variant
  /// and the schedule-overhead ablation.
  [[nodiscard]] std::span<const std::uint16_t> direct1() const noexcept { return g1_; }
  [[nodiscard]] std::span<const std::uint16_t> direct2() const noexcept { return g2_; }
  [[nodiscard]] std::span<const std::uint16_t> direct3() const noexcept { return g3_; }

  /// Total bytes of schedule data the online phase reads from global
  /// memory (the paper's 16-bit 2-D arrays).
  [[nodiscard]] std::uint64_t schedule_bytes() const noexcept;

  /// Shared memory per block required to execute with `elem_size`-byte
  /// elements (the max over the three row passes and the transpose tile).
  [[nodiscard]] std::uint64_t shared_bytes_needed(std::uint64_t elem_size) const noexcept;
  /// The same for any plan of this shape and machine width — known
  /// before a plan is built.
  [[nodiscard]] static std::uint64_t shared_bytes_needed(const MatrixShape& shape,
                                                         std::uint32_t width,
                                                         std::uint64_t elem_size) noexcept;

  /// True iff the plan fits this machine's shared memory for the
  /// element size (the paper's 48 KiB / double limitation).
  [[nodiscard]] bool fits_shared(std::uint64_t elem_size) const noexcept;

  /// Deep invariant check: every row schedule valid and the three-pass
  /// composition realizes exactly the original permutation. O(n).
  [[nodiscard]] bool validate(const perm::Permutation& p) const;

  /// Reassemble a plan from its stored parts (plan_io.hpp
  /// deserialization). Checks structural consistency (shapes/sizes)
  /// but not the deep schedule invariants — call validate() for that.
  static ScheduledPlan restore(MatrixShape shape, model::MachineParams params,
                               RowScheduleSet pass1, RowScheduleSet pass2,
                               RowScheduleSet pass3,
                               util::aligned_vector<std::uint16_t> g1,
                               util::aligned_vector<std::uint16_t> g2,
                               util::aligned_vector<std::uint16_t> g3);

 private:
  ScheduledPlan() = default;

  static ScheduledPlan build_with(util::ThreadPool* pool, const perm::Permutation& p,
                                  const model::MachineParams& params,
                                  graph::ColoringAlgorithm algo);

  std::uint64_t n_ = 0;
  MatrixShape shape_;
  model::MachineParams params_;
  PlanBuildStats stats_;
  RowScheduleSet pass1_;
  RowScheduleSet pass2_;
  RowScheduleSet pass3_;
  util::aligned_vector<std::uint16_t> g1_;
  util::aligned_vector<std::uint16_t> g2_;
  util::aligned_vector<std::uint16_t> g3_;
};

}  // namespace hmm::core
