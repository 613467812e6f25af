#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "cpu/dispatch.hpp"
#include "util/numa.hpp"

namespace perfbench {

Percentile percentile(std::vector<double>& samples, double q) {
  Percentile p;
  p.count = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(p.count)));
  rank = std::clamp<std::uint64_t>(rank, 1, p.count);
  p.value = samples[rank - 1];
  p.beyond = p.count - rank;
  p.missed = std::isinf(p.value);
  return p;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double peak_rss_mib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

namespace {

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::uint64_t parse_cache_size(const std::string& text) {
  if (text.empty()) return 0;
  std::uint64_t value = std::strtoull(text.c_str(), nullptr, 10);
  switch (text.back()) {
    case 'K': value <<= 10; break;
    case 'M': value <<= 20; break;
    case 'G': value <<= 30; break;
    default: break;
  }
  return value;
}

/// Size of the highest-level unified or data cache cpu0 reports.
std::uint64_t detect_llc_bytes() {
  int best_level = 0;
  std::uint64_t best = 0;
  for (int index = 0; index < 16; ++index) {
    const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    const std::string level = read_first_line(dir + "/level");
    if (level.empty()) break;
    if (read_first_line(dir + "/type") == "Instruction") continue;
    const int lv = std::atoi(level.c_str());
    if (lv >= best_level) {
      best_level = lv;
      best = parse_cache_size(read_first_line(dir + "/size"));
    }
  }
  return best;
}

std::string detect_cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? std::string() : line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

HostFingerprint HostFingerprint::detect(std::string source_sha) {
  HostFingerprint f;
  f.cpu_model = detect_cpu_model();
  f.nproc = std::max(1u, std::thread::hardware_concurrency());
  f.llc_bytes = detect_llc_bytes();
  f.kernel_variant = std::string(hmm::cpu::to_string(hmm::cpu::kernel_variant()));
  f.numa_nodes = hmm::util::numa::node_count();
  f.source_sha = std::move(source_sha);
  f.build_type = PERFBENCH_BUILD_TYPE;
  return f;
}

std::string HostFingerprint::to_json() const {
  std::ostringstream os;
  os << "{\"cpu_model\":" << json_string(cpu_model) << ",\"nproc\":" << nproc
     << ",\"llc_bytes\":" << llc_bytes << ",\"kernel_variant\":" << json_string(kernel_variant)
     << ",\"numa_nodes\":" << numa_nodes << ",\"source_sha\":" << json_string(source_sha)
     << ",\"build_type\":" << json_string(build_type) << "}";
  return os.str();
}

Zipf::Zipf(std::size_t k) : cdf_(k) {
  double sum = 0;
  for (std::size_t r = 0; r < k; ++r) {
    sum += 1.0 / static_cast<double>(r + 1);
    cdf_[r] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

std::size_t Zipf::sample(hmm::util::Xoshiro256& rng) const {
  const double u = rng.uniform01();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

std::uint64_t Tracer::next_id() noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_++;
}

void Tracer::record(Record r) {
  std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back(std::move(r));
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t origin = records_.empty() ? 0 : std::min_element(
      records_.begin(), records_.end(),
      [](const Record& a, const Record& b) { return a.start_ns < b.start_ns; })->start_ns;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  bool first = true;
  for (const Record& r : records_) {
    std::fprintf(f,
                 "%s\n{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"span\":%llu,\"parent\":%llu,\"request\":%llu}}",
                 first ? "" : ",", json_string(r.name).c_str(), r.thread,
                 static_cast<double>(r.start_ns - origin) / 1e3,
                 static_cast<double>(r.end_ns - r.start_ns) / 1e3,
                 static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent),
                 static_cast<unsigned long long>(r.request_id));
    first = false;
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

namespace {
std::atomic<Tracer*> g_tracer{nullptr};
std::atomic<std::uint32_t> g_thread_counter{0};

/// Small stable per-thread number for trace output.
std::uint32_t thread_number() noexcept {
  thread_local const std::uint32_t number = g_thread_counter.fetch_add(1) + 1;
  return number;
}
}  // namespace

Tracer* tracer() noexcept { return g_tracer.load(std::memory_order_acquire); }
void set_tracer(Tracer* t) noexcept { g_tracer.store(t, std::memory_order_release); }

Span::Span(std::string_view name, std::uint64_t parent, std::uint64_t request_id)
    : tracer_(tracer()), name_(name), parent_(parent), request_id_(request_id) {
  if (tracer_ == nullptr) return;
  id_ = tracer_->next_id();
  start_ns_ = now_ns();
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  tracer_->record({std::string(name_), start_ns_, now_ns(), id_, parent_, request_id_,
                   thread_number()});
}

void MetricSink::add(std::string name, double value, std::string unit) {
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace perfbench
