#include "core/host_cost.hpp"

#include <map>
#include <mutex>
#include <tuple>

namespace hmm::core {
namespace {

using SweepKey = std::tuple<unsigned, std::uint32_t, std::uint32_t>;  // log2 n, elem, width

struct SweepMemo {
  std::mutex mutex;
  std::map<SweepKey, double> ns;  // guarded by mutex
};

SweepMemo& memo() {
  static SweepMemo instance;
  return instance;
}

}  // namespace

double memoized_sweep_ns(unsigned log2_n, std::size_t elem_bytes, std::uint32_t width,
                         const std::function<double()>& measure) {
  const SweepKey key{log2_n, static_cast<std::uint32_t>(elem_bytes), width};
  SweepMemo& m = memo();
  {
    std::lock_guard lock(m.mutex);
    if (const auto it = m.ns.find(key); it != m.ns.end()) return it->second;
  }
  const double measured = measure();
  std::lock_guard lock(m.mutex);
  return m.ns.try_emplace(key, measured).first->second;
}

std::vector<SweepCalibration> sweep_calibrations() {
  SweepMemo& m = memo();
  std::lock_guard lock(m.mutex);
  std::vector<SweepCalibration> out;
  out.reserve(m.ns.size());
  for (const auto& [key, ns] : m.ns) {
    out.push_back({std::get<0>(key), std::get<1>(key), std::get<2>(key), ns});
  }
  return out;
}

void reset_sweep_calibrations() {
  SweepMemo& m = memo();
  std::lock_guard lock(m.mutex);
  m.ns.clear();
}

}  // namespace hmm::core
