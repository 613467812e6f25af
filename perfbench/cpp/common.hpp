#pragma once
/// \file common.hpp
/// \brief Shared pieces of the repository benchmark: raw-sample
///        percentiles, the span recorder behind the traced run, the
///        host fingerprint, a Zipf sampler and the metric sink.

#include <chrono>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Latency sample of a request that failed or was refused: it misses
/// every latency limit, so it sorts above every measured sample.
inline constexpr double kMissed = std::numeric_limits<double>::infinity();

/// Nearest-rank percentile over raw samples (never bucketed).
struct Percentile {
  double value = 0;          ///< sample at rank ceil(q * count)
  std::uint64_t count = 0;   ///< samples the percentile was taken over
  std::uint64_t beyond = 0;  ///< samples strictly above that rank
  bool missed = false;       ///< the rank landed on a failed request
};

/// `samples` is sorted in place.
[[nodiscard]] Percentile percentile(std::vector<double>& samples, double q);

[[nodiscard]] double median(std::vector<double> values);

/// Peak resident set of this process, MiB.
[[nodiscard]] double peak_rss_mib();

/// Which host and build produced a record. Records whose fingerprints
/// differ are never compared (perfbench/compare.py).
struct HostFingerprint {
  std::string cpu_model;
  unsigned nproc = 0;
  std::uint64_t llc_bytes = 0;
  std::string kernel_variant;
  int numa_nodes = 1;
  std::string source_sha;
  std::string build_type;

  [[nodiscard]] static HostFingerprint detect(std::string source_sha);
  [[nodiscard]] std::string to_json() const;
};

/// Zipf(s = 1) over ranks [0, k): rank r drawn with weight 1/(r+1).
class Zipf {
 public:
  explicit Zipf(std::size_t k);
  [[nodiscard]] std::size_t sample(hmm::util::Xoshiro256& rng) const;

 private:
  std::vector<double> cdf_;
};

/// In-memory span recorder for the traced run. Spans are recorded by
/// the benchmark around each call it makes into a layer; nothing in
/// the library is instrumented. Written out as Chrome trace events.
class Tracer {
 public:
  struct Record {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;      ///< 0 = root
    std::uint64_t request_id = 0;  ///< shared by the spans of one request
    std::uint32_t thread = 0;
  };

  [[nodiscard]] std::uint64_t next_id() noexcept;
  void record(Record r);
  [[nodiscard]] std::size_t size() const;
  /// Chrome trace-event JSON ("X" complete events, microseconds).
  [[nodiscard]] bool write_chrome_json(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Record> records_;  ///< guarded by mutex_
  std::uint64_t next_ = 1;       ///< guarded by mutex_
};

/// The active tracer, or null in an untraced run (spans then cost one
/// branch and no clock read).
Tracer* tracer() noexcept;
void set_tracer(Tracer* t) noexcept;

/// RAII span; a no-op when no tracer is active.
class Span {
 public:
  Span(std::string_view name, std::uint64_t parent = 0, std::uint64_t request_id = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  Tracer* tracer_;
  std::string_view name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t request_id_ = 0;
  std::int64_t start_ns_ = 0;
};

/// One named metric with its unit; insertion order is print order.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class MetricSink {
 public:
  void add(std::string name, double value, std::string unit);
  [[nodiscard]] const std::vector<Metric>& all() const noexcept { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// JSON number with full precision ("null" for non-finite values).
[[nodiscard]] std::string json_number(double v);
[[nodiscard]] std::string json_string(std::string_view s);

}  // namespace perfbench
