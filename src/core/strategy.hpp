#pragma once
/// \file strategy.hpp
/// \brief `core::Strategy` — which algorithm an `OfflinePermuter` runs,
///        or how it chooses one.

#include <string_view>

namespace hmm::core {

/// Execution strategy of an OfflinePermuter. The integer values are
/// part of the plan-cache key (runtime/fingerprint.hpp): append new
/// enumerators, never renumber.
enum class Strategy {
  kAuto,           ///< pick by the paper's HMM cost model (Lemma 4 vs Theorem 9)
  kScheduled,      ///< force the paper's scheduled algorithm
  kSDesignated,    ///< force conventional gather  (b[i] = a[p̄[i]])
  kDDesignated,    ///< force conventional scatter (b[p[i]] = a[i])
  kMeasured,       ///< pick by timing both candidates on this host (host_cost.hpp)
};

std::string_view to_string(Strategy s) noexcept;

}  // namespace hmm::core
