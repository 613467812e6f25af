/// \file main.cpp
/// \brief Repository benchmark entry point (normally started by
///        perfbench/run.py, which builds it first).
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             [--trace-file PATH] [--source-sha SHA]
///
/// `--trace 0` sets the workload up several times (setup_s is the
/// median), runs an untraced closed-loop window of S seconds split
/// over the first three set-ups and prints the end-to-end metrics,
/// throughput and latency as medians over blocks of the window.
/// `--trace 1` sets up once, runs a warm-up, an untraced and a traced
/// window of S/2 seconds each, then the layer ladder on the workload's
/// hottest plan, and prints the per-layer metrics; the spans go to
/// `--trace-file` as Chrome trace events.
///
/// Every output is compared with the scalar reference outside the
/// timed intervals. The last stdout line is the result object; the
/// line before it is the full record, stamped with the host
/// fingerprint. Exit status 1 on any mismatch or set-up failure.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "ladder.hpp"
#include "net/socket.hpp"
#include "runtime/phase.hpp"
#include "util/buffer_pool.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using hmm::runtime::MetricsSnapshot;
using hmm::runtime::Phase;

/// The set-up repeats at least kMinSetupReps times and until
/// kSetupBudgetS seconds of set-up have run (at most kMaxSetupReps);
/// setup_s is the median.
constexpr unsigned kMinSetupReps = 3;
constexpr unsigned kMaxSetupReps = 25;
constexpr double kSetupBudgetS = 2.0;
/// The end-to-end window is split over this many set-ups, each part
/// preceded by an untimed warm-up of kWarmupS and cut into blocks
/// (Workload::blocks()).
constexpr unsigned kWindows = 3;
constexpr double kWarmupS = 0.5;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_file;
  std::string source_sha = "unknown";
};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      o.trace = value == "1" ? 1 : (value == "0" ? 0 : -1);
    } else if (key == "--trace-file") {
      o.trace_file = value;
    } else if (key == "--source-sha") {
      o.source_sha = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0 && o.trace >= 0;
}

/// Server-side counters summed over a workload's services.
struct ServiceTotals {
  double lookups = 0, hits = 0, evictions = 0, builds = 0, build_ns = 0;
  double degraded = 0, rejected = 0;
  double lookup_ns = 0, lookup_count = 0, queue_ns = 0, queue_count = 0;
  double kernel_ns = 0, kernel_requests = 0;

  void add(const MetricsSnapshot& s, double sign) {
    lookups += sign * static_cast<double>(s.lookups);
    hits += sign * static_cast<double>(s.hits);
    evictions += sign * static_cast<double>(s.evictions);
    builds += sign * static_cast<double>(s.plan_builds);
    build_ns += sign * static_cast<double>(s.plan_build_ns_total);
    degraded += sign * static_cast<double>(s.degraded_executions);
    rejected += sign * static_cast<double>(s.rejected);
    lookup_ns += sign * static_cast<double>(s.phase(Phase::kPlanLookup).ns_sum);
    lookup_count += sign * static_cast<double>(s.phase(Phase::kPlanLookup).count);
    queue_ns += sign * static_cast<double>(s.phase(Phase::kQueueWait).ns_sum);
    queue_count += sign * static_cast<double>(s.phase(Phase::kQueueWait).count);
    for (const Phase k : {Phase::kKernelRowPass1, Phase::kKernelTranspose1, Phase::kKernelRowPass2,
                          Phase::kKernelTranspose2, Phase::kKernelRowPass3,
                          Phase::kKernelConventional}) {
      kernel_ns += sign * static_cast<double>(s.phase(k).ns_sum);
    }
    // One request runs either the first scheduled kernel or the
    // conventional one.
    kernel_requests += sign * static_cast<double>(s.phase(Phase::kKernelRowPass1).count +
                                                  s.phase(Phase::kKernelConventional).count);
  }

  void report(MetricSink& sink) const {
    const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    sink.add("runtime.cache_hit_ratio", ratio(hits, lookups), "fraction");
    sink.add("runtime.cache_evictions", evictions, "count");
    sink.add("runtime.plan_builds", builds, "count");
    sink.add("runtime.plan_build_ms_mean", ratio(build_ns, builds) / 1e6, "ms");
    sink.add("runtime.plan_lookup_us_mean", ratio(lookup_ns, lookup_count) / 1e3, "us");
    sink.add("runtime.queue_wait_us_mean", ratio(queue_ns, queue_count) / 1e3, "us");
    sink.add("runtime.kernel_us_mean", ratio(kernel_ns, kernel_requests) / 1e3, "us");
    sink.add("runtime.degraded", degraded, "count");
    sink.add("runtime.rejected", rejected, "count");
  }
};

std::vector<MetricsSnapshot> snapshots(const Workload& w) {
  std::vector<MetricsSnapshot> out;
  for (const auto* s : w.services()) out.push_back(s->metrics().snapshot());
  return out;
}

struct Counts {
  std::uint64_t attempted = 0, failed = 0, mismatches = 0;
  void add(const LoopResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    mismatches += r.mismatches;
  }
};

/// A percentile of samples taken in `unit_ms` milliseconds, as
/// milliseconds; a rank that lands on a failed request reads as the
/// whole window (it missed any limit shorter than that).
double percentile_ms(const Percentile& p, double window_s, double unit_ms) {
  return p.missed ? window_s * 1e3 : p.value * unit_ms;
}

/// Cold plan builds: ms from plan submission to the verified first
/// result. `window_s` > 0: the builds of a timed window of that length;
/// 0: the set-up's builds, whose rate is taken over their own time.
void add_build_metrics(std::vector<double> builds, double window_s, MetricSink& sink,
                       std::ostream& log) {
  double build_time_s = 0;
  std::uint64_t built = 0;
  for (const double ms : builds) {
    if (std::isfinite(ms)) {
      build_time_s += ms / 1e3;
      ++built;
    }
  }
  const Percentile b50 = percentile(builds, 0.50);
  const Percentile b90 = percentile(builds, 0.90);
  sink.add("build_p50_ms", percentile_ms(b50, window_s, 1), "ms");
  sink.add("build_p90_ms", percentile_ms(b90, window_s, 1), "ms");
  sink.add("builds_per_s",
           build_time_s > 0 ? static_cast<double>(built) / (window_s > 0 ? window_s : build_time_s)
                            : 0.0,
           "1/s");
  log << "#   builds from " << (window_s > 0 ? "the timed window" : "the set-up") << ": "
      << b50.count << " samples, " << b50.beyond << " beyond p50, " << b90.beyond
      << " beyond p90\n";
}

/// Append window `part` to `into`: the window lengths add up, the
/// worker count stays that of one window.
void pool_window(LoopResult& into, LoopResult part) {
  const double wall_s = into.wall_s + part.wall_s;
  const unsigned workers = part.workers;
  into.merge(std::move(part));
  into.wall_s = wall_s;
  into.workers = workers;
}

/// Throughput and latency percentiles of one block of the window.
struct BlockStats {
  double rps = 0, p50_ms = 0, p90_ms = 0;
  std::uint64_t samples = 0, beyond_p90 = 0;
};

/// `missed_ms` is what a percentile that lands on a failed request reads.
BlockStats block_stats(LoopResult& b, double missed_ms) {
  const Percentile p50 = percentile(b.latency_ns, 0.50);
  const Percentile p90 = percentile(b.latency_ns, 0.90);
  BlockStats s;
  s.rps = static_cast<double>(b.completed) / b.busy_s();
  s.p50_ms = p50.missed ? missed_ms : p50.value * 1e-6;
  s.p90_ms = p90.missed ? missed_ms : p90.value * 1e-6;
  s.samples = p90.count;
  s.beyond_p90 = p90.beyond;
  return s;
}

template <class F>
double median_of(const std::vector<BlockStats>& blocks, F field) {
  std::vector<double> values;
  for (const BlockStats& b : blocks) values.push_back(field(b));
  return median(std::move(values));
}

/// `extras` go into the record but not into the result object.
void run_end_to_end(const Options& o, MetricSink& sink, MetricSink& extras, Counts& counts) {
  std::vector<double> setup_s;
  std::vector<double> setup_builds;
  std::vector<LoopResult> blocks;
  unsigned per_part = 1;
  bool pooled = true;
  bool window_builds = false;
  double setup_total_s = 0;
  for (unsigned rep = 0; rep < kMaxSetupReps &&
                         (rep < kMinSetupReps || setup_total_s < kSetupBudgetS);
       ++rep) {
    std::unique_ptr<Workload> w = make_workload(o.workload, o.seed);
    const std::int64_t t0 = now_ns();
    w->setup();
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    setup_total_s += setup_s.back();
    setup_builds.insert(setup_builds.end(), w->setup_builds_ms().begin(),
                        w->setup_builds_ms().end());
    if (rep >= kWindows) continue;
    // The timed window is split over the first kWindows set-ups, so a
    // run samples several independently built stacks at different
    // times. An untimed warm-up first lets lazy set-up (pool size
    // classes, reactor and handler threads, page faults) finish.
    counts.add(w->run(kWarmupS));
    per_part = std::max(1u, w->blocks() / kWindows);
    pooled = w->blocks() == 1;
    for (unsigned b = 0; b < per_part; ++b) {
      blocks.push_back(w->run(o.seconds / (kWindows * per_part)));
      counts.add(blocks.back());
    }
    window_builds = w->builds_in_window();
  }

  LoopResult r;
  for (const LoopResult& b : blocks) pool_window(r, b);
  std::vector<BlockStats> stats;
  if (pooled) {
    stats.push_back(block_stats(r, r.wall_s * 1e3));
  } else {
    for (LoopResult& b : blocks) stats.push_back(block_stats(b, r.wall_s * 1e3));
  }
  const Percentile p99 = percentile(r.latency_ns, 0.99);
  sink.add("setup_s", median(setup_s), "s");
  sink.add("throughput_rps", median_of(stats, [](const BlockStats& b) { return b.rps; }), "1/s");
  sink.add("latency_p50_ms", median_of(stats, [](const BlockStats& b) { return b.p50_ms; }),
           "ms");
  sink.add("latency_p90_ms", median_of(stats, [](const BlockStats& b) { return b.p90_ms; }),
           "ms");
  sink.add("peak_rss_mib", peak_rss_mib(), "MiB");
  extras.add("latency_p99_ms", percentile_ms(p99, r.wall_s, 1e-6), "ms");

  const auto samples = [](const BlockStats& a, const BlockStats& b) {
    return a.samples < b.samples;
  };
  const auto [fewest, most] = std::minmax_element(stats.begin(), stats.end(), samples);
  std::cout << "# set-up: " << setup_s.size() << " repetitions; timed window: " << kWindows
            << " parts x " << per_part << " blocks, " << r.wall_s << " s\n"
            << "#   " << r.completed << " requests completed, " << r.verify_s
            << " worker-s of verification excluded from throughput\n"
            << "#   throughput and p50/p90: median over " << stats.size() << " block(s) of "
            << fewest->samples << " to " << most->samples << " samples (at least "
            << fewest->beyond_p90 << " beyond p90)\n"
            << "#   p99 over the pooled window: " << p99.count << " samples, " << p99.beyond
            << " beyond\n#   per block (1/s, p50 ms, p90 ms):";
  for (const BlockStats& b : stats) std::cout << " " << b.rps << "/" << b.p50_ms << "/" << b.p90_ms;
  std::cout << "\n";
  add_build_metrics(window_builds ? std::move(r.build_ms) : std::move(setup_builds),
                    window_builds ? r.wall_s : 0, extras, std::cout);
  extras.add("error_rate",
             counts.attempted ? static_cast<double>(counts.failed) /
                                    static_cast<double>(counts.attempted)
                              : 0.0,
             "fraction");
  if (!r.first_error.empty()) std::cout << "#   first error: " << r.first_error << "\n";
}

void run_traced(const Options& o, MetricSink& sink, Counts& counts, bool& ladder_ok) {
  std::unique_ptr<Workload> w = make_workload(o.workload, o.seed);
  w->setup();
  const double half = o.seconds / 2;

  counts.add(w->run(kWarmupS));
  LoopResult untraced = w->run(half);
  counts.add(untraced);

  Tracer tracer;
  const std::vector<MetricsSnapshot> before = snapshots(*w);
  const auto pool_before = hmm::util::BufferPool::global().stats();
  set_tracer(&tracer);
  LoopResult traced = w->run(half);
  set_tracer(nullptr);
  const auto pool_after = hmm::util::BufferPool::global().stats();
  const std::vector<MetricsSnapshot> after = snapshots(*w);
  counts.add(traced);

  const double untraced_rps = static_cast<double>(untraced.completed) / untraced.busy_s();
  const double untraced_p99_ms =
      percentile_ms(percentile(untraced.latency_ns, 0.99), untraced.wall_s, 1e-6);
  const double traced_rps = static_cast<double>(traced.completed) / traced.busy_s();
  const double requests = static_cast<double>(traced.completed + traced.build_ms.size());

  std::vector<double> builds = w->setup_builds_ms();
  double build_window_s = 0;
  if (w->builds_in_window()) {
    builds = untraced.build_ms;
    builds.insert(builds.end(), traced.build_ms.begin(), traced.build_ms.end());
    build_window_s = untraced.wall_s + traced.wall_s;
  }
  const hmm::perm::Permutation hottest = w->hottest();
  auto permuter = w->permuter();
  w.reset();

  set_tracer(&tracer);
  const LadderResult lr = run_ladder(hottest, std::move(permuter), sink);
  set_tracer(nullptr);
  ladder_ok = lr.correct;

  ServiceTotals totals;
  if (before.empty()) {
    // No service on the workload's path: report the ladder's own.
    totals.add(lr.service_after, 1);
    totals.add(lr.service_before, -1);
  } else {
    for (const auto& s : after) totals.add(s, 1);
    for (const auto& s : before) totals.add(s, -1);
  }

  sink.add("util.pool_misses_per_req",
           requests > 0 ? static_cast<double>(pool_after.misses - pool_before.misses) / requests
                        : 0.0,
           "count");
  totals.report(sink);
  add_build_metrics(std::move(builds), build_window_s, sink, std::cout);
  sink.add("latency_p99_ms", untraced_p99_ms, "ms");
  sink.add("trace.overhead_frac", (untraced_rps - traced_rps) / untraced_rps, "fraction");

  std::cout << "# traced window: " << traced.completed << " requests, " << tracer.size()
            << " spans; untraced " << untraced_rps << " 1/s, traced " << traced_rps << " 1/s\n";
  if (!o.trace_file.empty()) {
    if (!tracer.write_chrome_json(o.trace_file)) {
      throw std::runtime_error("cannot write trace file " + o.trace_file);
    }
    std::cout << "# trace events: " << o.trace_file << "\n";
  }
}

std::string metrics_json(const MetricSink& sink) {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < sink.all().size(); ++i) {
    const Metric& m = sink.all()[i];
    out << (i ? ", " : "") << json_string(m.name) << ": {\"value\": " << json_number(m.value)
        << ", \"unit\": " << json_string(m.unit) << "}";
  }
  out << "}";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o) || make_workload(o.workload, 0) == nullptr) {
    std::cerr << "usage: perfbench --workload {serve-hot-8k|bulk-4m|churn-64k|dist-1m} "
                 "--seed N --seconds S --trace 0|1 [--trace-file PATH] [--source-sha SHA]\n";
    return 2;
  }
  hmm::net::ignore_sigpipe();
  const HostFingerprint host = HostFingerprint::detect(o.source_sha);
  std::cout << "# perfbench workload=" << o.workload << " seed=" << o.seed
            << " seconds=" << o.seconds << " trace=" << o.trace << "\n# host " << host.to_json()
            << "\n";

  MetricSink sink;
  MetricSink extras;
  Counts counts;
  bool ladder_ok = true;
  try {
    if (o.trace == 0) {
      run_end_to_end(o, sink, extras, counts);
    } else {
      run_traced(o, sink, counts, ladder_ok);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << o.workload << ": " << e.what() << "\n";
    return 1;
  }

  for (const MetricSink* part : {&sink, &extras}) {
    for (const Metric& m : part->all()) {
      std::cout << "# " << m.name << " = " << m.value << " " << m.unit << "\n";
    }
  }
  const bool correct = counts.mismatches == 0 && ladder_ok;
  MetricSink all = sink;
  for (const Metric& m : extras.all()) all.add(m.name, m.value, m.unit);
  std::cout << "PERFBENCH_RECORD {\"workload\": " << json_string(o.workload)
            << ", \"seed\": " << o.seed << ", \"trace\": " << o.trace
            << ", \"seconds\": " << o.seconds << ", \"host\": " << host.to_json()
            << ", \"attempted\": " << counts.attempted << ", \"failed\": " << counts.failed
            << ", \"mismatches\": " << counts.mismatches << ", \"metrics\": " << metrics_json(all)
            << "}\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << counts.attempted << ", \"failed\": " << counts.failed
            << ", \"metrics\": " << metrics_json(sink) << "}" << std::endl;
  if (!correct) {
    std::cerr << "perfbench: " << counts.mismatches << " output(s) differ from the reference\n";
    return 1;
  }
  return 0;
}
