#pragma once
/// \file workloads.hpp
/// \brief The benchmark's four closed-loop workloads and the serving
///        stack pieces they (and the ladder) stand up in-process.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/permuter.hpp"
#include "net/client.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "perm/permutation.hpp"
#include "runtime/service.hpp"

namespace perfbench {

/// What one timed window observed. Latencies are raw client-side
/// samples in nanoseconds; a failed request is kept as a `kMissed`
/// sample, never dropped.
struct LoopResult {
  std::vector<double> latency_ns;
  std::uint64_t completed = 0;   ///< requests behind `latency_ns` that succeeded
  std::uint64_t attempted = 0;   ///< every operation, the build stream included
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;  ///< outputs that differ from the scalar reference
  std::vector<double> build_ms;  ///< fresh plans served in the window (churn only)
  double wall_s = 0;
  double verify_s = 0;           ///< summed over the latency workers
  unsigned workers = 0;          ///< workers behind `latency_ns`
  std::string first_error;

  /// Window time the latency workers spent outside verification.
  [[nodiscard]] double busy_s() const {
    return wall_s - (workers == 0 ? 0.0 : verify_s / workers);
  }
  void merge(LoopResult&& other);
};

/// permd_serve's default plan-cache budget (--cache-mb 64).
inline constexpr std::uint64_t kDefaultCacheBytes = 64ull << 20;

/// One permd backend: a RobustPermuteService behind a net::Server,
/// configured with permd_serve's defaults.
struct Backend {
  std::unique_ptr<hmm::runtime::RobustPermuteService> service;
  std::unique_ptr<hmm::net::Server> server;

  static Backend start(std::uint64_t cache_bytes = kDefaultCacheBytes);
  [[nodiscard]] hmm::net::Client::Config client_config() const;
};

/// A router over `backends` with permd_router's defaults, sharding
/// PERMUTEs whose element bytes exceed `distributed_max_bytes`
/// (0 = never shard).
std::unique_ptr<hmm::net::Router> start_router(const std::vector<Backend*>& backends,
                                               std::uint64_t distributed_max_bytes);

hmm::net::Client::Config client_config(std::uint16_t port);

/// Throws std::runtime_error naming `what` when `st` is not OK.
void require_ok(const hmm::runtime::Status& st, const std::string& what);

/// Random u32 data, deterministic in `seed`.
std::vector<std::uint32_t> random_words(std::uint64_t n, std::uint64_t seed);

/// Scalar reference: b[P(i)] = a[i].
std::vector<std::uint32_t> reference(const hmm::perm::Permutation& p,
                                     std::span<const std::uint32_t> a);

class Workload {
 public:
  virtual ~Workload() = default;

  /// Build the inputs and the serving stack, register every plan and
  /// warm every cache. Throws on any failure.
  virtual void setup() = 0;
  /// One closed-loop window of `seconds`.
  virtual LoopResult run(double seconds) = 0;
  /// Cold plan builds the set-up made (ms from plan submission to the
  /// verified first result).
  [[nodiscard]] virtual const std::vector<double>& setup_builds_ms() const = 0;
  /// Blocks the end-to-end window is cut into: a multiple of its parts,
  /// each block at least ~100 requests at the workload's usual rate.
  /// Throughput and latency percentiles are medians over the blocks, so
  /// a host-noise episode that covers a minority of them does not move
  /// the result. 1 pools the whole window instead, for a workload too
  /// slow to put enough samples behind a tail percentile per block.
  [[nodiscard]] virtual unsigned blocks() const { return 9; }
  /// True when the timed window itself builds fresh plans.
  [[nodiscard]] virtual bool builds_in_window() const { return false; }
  /// Services whose counters back the runtime.* per-layer metrics.
  [[nodiscard]] virtual std::vector<const hmm::runtime::RobustPermuteService*> services()
      const = 0;
  /// The workload's hottest plan: the ladder runs on it.
  [[nodiscard]] virtual const hmm::perm::Permutation& hottest() const = 0;
  /// A compiled in-process permuter for `hottest()`, when the workload
  /// already holds one (saves the ladder a rebuild).
  [[nodiscard]] virtual std::shared_ptr<const hmm::core::OfflinePermuter<std::uint32_t>>
  permuter() const {
    return nullptr;
  }
};

/// Null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed);

}  // namespace perfbench
