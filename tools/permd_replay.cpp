/// \file permd_replay.cpp
/// \brief Replay a synthetic request trace against the permutation
///        runtime (RobustPermuteService: plan cache + async executor +
///        robustness controls) and report the service metrics.
///
/// Models a permutation-as-a-service workload: a fixed population of
/// distinct permutations with Zipf-distributed popularity (a handful of
/// hot reorder patterns — FFT bit-reversal, tensor transposes — plus a
/// long tail), each request permuting a fresh array. Hot permutations
/// hit the plan cache and skip the offline phase; the executor overlaps
/// requests on the shared thread pool.
///
/// Chaos mode: `--fault-rate`/`--fault-seed` arm the deterministic
/// FaultInjector (default site: plan_cache.build) so scripted runs can
/// verify the degradation ladder — every *accepted* request must still
/// produce a correct permutation (`--verify`), with failures absorbed
/// by retry + conventional fallback and surfaced in the metrics.
///
/// Usage:
///   permd_replay [--n 64K] [--perms 24] [--requests 400] [--zipf 1.0]
///                [--cache-mb 64] [--seed 42] [--verify] [--json]
///                [--metrics-json <path>] [--prom-file <path>] [--slow-ms 0]
///                [--fault-rate 0.0] [--fault-seed 1] [--fault-sites plan_cache.build]
///                [--fault-stall-ms 50] [--deadline-ms 0] [--max-in-flight 0] [--reject]
///
/// `--json` appends the metrics snapshot as a single JSON line (the
/// same `to_json()` dump a service would export to a scraper),
/// including the robustness section (rejected / cancelled /
/// deadline_exceeded / degraded_executions / build_retries).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <future>
#include <iostream>
#include <string>
#include <vector>

#include "core/permuter.hpp"
#include "perm/generators.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/metrics.hpp"
#include "runtime/service.hpp"
#include "runtime/status.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace hmm;

/// The permutation population: a few named hot families first, then a
/// tail of independent random permutations.
perm::Permutation make_member(std::uint64_t rank, std::uint64_t n, std::uint64_t seed) {
  // butterfly only exists at even powers of two; rotation stands in at
  // odd ones so every pow2 --n is accepted.
  const bool even_log2 = util::log2_exact(n) % 2 == 0;
  static const std::vector<std::string> named = {"bit-reversal", "shuffle", "transpose",
                                                 "gray", "butterfly", "unshuffle"};
  if (rank < named.size()) {
    const std::string& family =
        (named[rank] == "butterfly" && !even_log2) ? "rotation" : named[rank];
    return perm::by_name(family, n, seed);
  }
  return perm::by_name("random", n, seed + rank);
}

/// Zipf(s) sampler over ranks [0, k) via inverse-CDF binary search.
class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t k, double s) : cdf_(k) {
    double total = 0;
    for (std::uint64_t r = 0; r < k; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = total;
    }
    for (auto& c : cdf_) c /= total;
  }

  std::uint64_t operator()(util::Xoshiro256& rng) const {
    const double u = rng.uniform01();
    std::uint64_t lo = 0, hi = cdf_.size() - 1;
    while (lo < hi) {
      const std::uint64_t mid = (lo + hi) / 2;
      if (cdf_[mid] < u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  if (!cli.expect_flags({"n", "perms", "requests", "zipf", "cache-mb", "seed", "verify",
                         "json", "metrics-json", "prom-file", "slow-ms", "fault-rate",
                         "fault-seed", "fault-sites", "fault-stall-ms", "deadline-ms",
                         "max-in-flight", "reject"},
                        std::cerr)) {
    return 2;
  }
  const std::uint64_t n = static_cast<std::uint64_t>(cli.get_int("n", 64 << 10));
  const std::uint64_t num_perms = static_cast<std::uint64_t>(cli.get_int("perms", 24));
  const std::uint64_t requests = static_cast<std::uint64_t>(cli.get_int("requests", 400));
  const double zipf_s = cli.get_double("zipf", 1.0);
  const std::uint64_t cache_bytes =
      static_cast<std::uint64_t>(cli.get_int("cache-mb", 64)) << 20;
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  const bool verify = cli.get_bool("verify");
  const bool json = cli.get_bool("json");
  const std::string metrics_json = cli.get("metrics-json");
  const std::string prom_file = cli.get("prom-file");
  const std::int64_t slow_ms = cli.get_int("slow-ms", 0);
  // Robustness / chaos knobs.
  const double fault_rate = cli.get_double("fault-rate", 0.0);
  const std::uint64_t fault_seed = static_cast<std::uint64_t>(cli.get_int("fault-seed", 1));
  const std::uint64_t fault_stall_ms =
      static_cast<std::uint64_t>(cli.get_int("fault-stall-ms", 50));
  const std::int64_t deadline_ms = cli.get_int("deadline-ms", 0);
  const std::uint64_t max_in_flight =
      static_cast<std::uint64_t>(cli.get_int("max-in-flight", 0));
  const bool reject = cli.get_bool("reject");

  if (!util::is_pow2(n) || n < 64) {
    std::cerr << "permd_replay: --n must be a power of two >= 64 (got " << n << ")\n";
    return 2;
  }

  if (fault_rate > 0.0) {
    runtime::FaultInjector::Config faults;
    faults.enabled = true;
    faults.seed = fault_seed;
    faults.rate = fault_rate;
    faults.stall_ms = static_cast<std::uint32_t>(fault_stall_ms);
    // Default to the plan-build site (the degradation ladder's fault
    // domain); --fault-sites takes a comma-separated override.
    faults.sites = cli.get("fault-sites", std::string(runtime::fault_sites::kPlanBuild));
    runtime::FaultInjector::instance().configure(faults);
  }

  std::cout << "permd_replay: n=" << n << " perms=" << num_perms << " requests=" << requests
            << " zipf=" << zipf_s << " cache=" << util::format_bytes(cache_bytes);
  if (fault_rate > 0.0) {
    std::cout << "  [chaos: rate=" << fault_rate << " seed=" << fault_seed << "]";
  }
  if (deadline_ms > 0) std::cout << "  [deadline=" << deadline_ms << " ms]";
  std::cout << "\n";

  auto& pool = util::ThreadPool::global();

  // The permutation population is materialized up front (a real service
  // receives the mapping with the request; regenerating per request
  // would just benchmark the generators).
  std::vector<perm::Permutation> population;
  population.reserve(num_perms);
  for (std::uint64_t r = 0; r < num_perms; ++r) {
    population.push_back(make_member(r, n, seed));
  }

  runtime::RobustPermuteService::Config config;
  config.cache.max_bytes = cache_bytes;
  config.executor.max_in_flight = max_in_flight;
  config.executor.admission =
      reject ? runtime::Executor::Admission::kReject : runtime::Executor::Admission::kBlock;
  if (slow_ms > 0) config.executor.slow_log_threshold = std::chrono::milliseconds(slow_ms);
  runtime::RobustPermuteService service(pool, config);

  // A bounded ring of request buffers: slot reuse waits for the slot's
  // previous request, which caps resident memory at `slots` arrays
  // while still keeping the executor saturated.
  struct BufferSlot {
    util::aligned_vector<float> a, b;
    std::future<runtime::Status> done;
    std::uint64_t perm_rank = 0;
    bool in_use = false;
  };
  const std::size_t slots = std::max<std::size_t>(8, 2 * pool.size());
  std::vector<BufferSlot> ring(slots);
  for (auto& slot : ring) {
    slot.a.resize(n);
    slot.b.resize(n);
    for (std::uint64_t i = 0; i < n; ++i) slot.a[i] = static_cast<float>(i & 0xffff);
  }

  ZipfSampler sample(num_perms, zipf_s);
  util::Xoshiro256 rng(seed);
  std::uint64_t accepted = 0, refused = 0, ok_responses = 0, failed_responses = 0;
  std::uint64_t verified = 0, verify_failures = 0;

  auto retire = [&](BufferSlot& slot) {
    const runtime::Status status = slot.done.get();
    if (status.is_ok()) {
      ++ok_responses;
      if (verify) {
        const perm::Permutation& p = population[slot.perm_rank];
        // Spot-check a fixed stride of images (full check is O(n) per
        // request and would dominate the replay).
        for (std::uint64_t i = 0; i < n; i += 97) {
          if (slot.b[p(i)] != slot.a[i]) {
            ++verify_failures;
            break;
          }
        }
        ++verified;
      }
    } else {
      ++failed_responses;
    }
    slot.in_use = false;
  };

  util::Stopwatch wall;
  for (std::uint64_t r = 0; r < requests; ++r) {
    BufferSlot& slot = ring[r % slots];
    if (slot.in_use) retire(slot);
    const std::uint64_t rank = sample(rng);
    runtime::RequestOptions opts;
    if (deadline_ms > 0) {
      opts.deadline =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(deadline_ms);
    }
    auto submitted = service.submit<float>(population[rank],
                                           std::span<const float>(slot.a.data(), n),
                                           std::span<float>(slot.b.data(), n), opts);
    if (!submitted.ok()) {
      ++refused;  // typed refusal (admission / deadline / bad request)
      continue;
    }
    ++accepted;
    slot.perm_rank = rank;
    slot.in_use = true;
    slot.done = std::move(submitted).value();
  }
  for (auto& slot : ring) {
    if (slot.in_use) retire(slot);
  }
  service.wait_idle();
  const double wall_s = wall.seconds();

  const runtime::MetricsSnapshot snap = service.metrics().snapshot();
  std::cout << "\n";
  snap.to_table().print(std::cout);
  std::cout << "\nreplayed " << requests << " requests in " << util::format_ms(wall_s * 1e3)
            << " ms  ("
            << util::format_double(static_cast<double>(requests) / wall_s, 1) << " req/s, "
            << util::format_double(
                   static_cast<double>(requests * n) / wall_s / 1e6, 1)
            << " Melem/s)\n";
  std::cout << "accepted " << accepted << " (" << ok_responses << " ok, " << failed_responses
            << " failed late), refused " << refused << ", degraded "
            << snap.degraded_executions << ", deadline-exceeded " << snap.deadline_exceeded
            << ", rejected " << snap.rejected << "\n";
  std::cout << "cache resident: " << util::format_bytes(service.cache().bytes()) << " across "
            << service.cache().entries() << " plans\n";
  if (fault_rate > 0.0) {
    std::cout << "faults fired: " << runtime::FaultInjector::instance().total_fired() << "\n";
  }
  if (verify) {
    std::cout << "verified " << verified << " responses, " << verify_failures << " failures\n";
  }
  if (json) {
    std::cout << snap.to_json() << "\n";
  }
  if (!metrics_json.empty()) {
    // Final snapshot to a file so CI / BENCH_*.json trend tracking can
    // consume serving metrics without scraping stdout.
    std::ofstream mf(metrics_json);
    mf << snap.to_json() << "\n";
    if (!mf) {
      std::cerr << "permd_replay: cannot write --metrics-json " << metrics_json << "\n";
      return 1;
    }
  }
  if (!prom_file.empty()) {
    // Same exposition the daemon serves, dumped once at end of run so
    // offline replays feed the same dashboards / CI checks.
    std::ofstream pf(prom_file);
    pf << snap.to_prometheus();
    if (!pf) {
      std::cerr << "permd_replay: cannot write --prom-file " << prom_file << "\n";
      return 1;
    }
  }

  if (snap.hits + snap.misses != snap.lookups || (verify && verify_failures > 0)) {
    std::cerr << "permd_replay: inconsistent metrics or verification failure\n";
    return 1;
  }
  if (accepted != ok_responses + failed_responses) {
    std::cerr << "permd_replay: lost a response (accepted != resolved)\n";
    return 1;
  }
  return 0;
}
