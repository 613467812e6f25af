#pragma once
/// \file ladder.hpp
/// \brief The traced run's layer ladder: one plan, one element type,
///        timed at every layer from the pool-parallel memcpy roofline
///        up to the sharded router path.

#include <cstdint>
#include <memory>

#include "common.hpp"
#include "core/permuter.hpp"
#include "perm/permutation.hpp"
#include "runtime/metrics.hpp"

namespace perfbench {

struct LadderResult {
  /// Counters of the ladder's own service over its runtime and net
  /// rungs, for workloads that run no service themselves.
  hmm::runtime::MetricsSnapshot service_before;
  hmm::runtime::MetricsSnapshot service_after;
  bool correct = true;
};

/// Run every rung on `p` with u32 elements, adding each rung's metric
/// and its `.delta_us` over the rung below to `sink`. `permuter`, when
/// given, is a compiled kAuto permuter for `p` the ladder reuses.
LadderResult run_ladder(
    const hmm::perm::Permutation& p,
    std::shared_ptr<const hmm::core::OfflinePermuter<std::uint32_t>> permuter,
    MetricSink& sink);

}  // namespace perfbench
