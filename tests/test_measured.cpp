/// `Strategy::kMeasured`: the decision rule under injected timings
/// (ties, sizes the plan does not support, every element width), the
/// per-process sweep memo, and a battery showing that whatever the
/// host's timings pick, the output is bit-identical to
/// `Permutation::apply`.

#include <gtest/gtest.h>

#include <complex>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/host_cost.hpp"
#include "core/permuter.hpp"
#include "perm/generators.hpp"
#include "test_helpers.hpp"
#include "util/thread_pool.hpp"

namespace hmm {
namespace {

using core::CostProbe;
using core::MeasuredCosts;
using core::OfflinePermuter;
using core::Strategy;
using model::MachineParams;

TEST(MeasuredChoice, SweepMustWinByTheMargin) {
  EXPECT_EQ(core::measured_choice(true, {.sweep_ns = 10, .gather_ns = 20}), Strategy::kScheduled);
  EXPECT_EQ(core::measured_choice(true, {.sweep_ns = 100, .gather_ns = 116}),
            Strategy::kScheduled);
  EXPECT_EQ(core::measured_choice(true, {.sweep_ns = 100, .gather_ns = 114}),
            Strategy::kSDesignated)
      << "a sweep faster by no more than the margin keeps the gather";
  EXPECT_EQ(core::measured_choice(true, {.sweep_ns = 11, .gather_ns = 10}),
            Strategy::kSDesignated);
  EXPECT_EQ(core::measured_choice(true, {.sweep_ns = 10, .gather_ns = 10}),
            Strategy::kSDesignated)
      << "a tie keeps the gather: no plan to build";
}

TEST(MeasuredChoice, UnplannableSizeAlwaysGathers) {
  EXPECT_EQ(core::measured_choice(false, {.sweep_ns = 1, .gather_ns = 1e9}),
            Strategy::kSDesignated);
}

/// A probe returning fixed figures and recording how it was asked.
struct FixedProbe {
  double sweep_ns = 0;
  double gather_ns = 0;
  int sweep_calls = 0;
  int gather_calls = 0;
  unsigned asked_log2_n = 0;
  std::size_t asked_sweep_bytes = 0;
  std::uint64_t asked_n = 0;
  std::size_t asked_gather_bytes = 0;

  CostProbe probe() {
    return CostProbe{
        .sweep_ns =
            [this](unsigned log2_n, std::size_t elem_bytes) {
              ++sweep_calls;
              asked_log2_n = log2_n;
              asked_sweep_bytes = elem_bytes;
              return sweep_ns;
            },
        .gather_ns =
            [this](std::uint64_t n, std::size_t elem_bytes) {
              ++gather_calls;
              asked_n = n;
              asked_gather_bytes = elem_bytes;
              return gather_ns;
            },
    };
  }
};

template <class T>
std::vector<T> sample_data(std::uint64_t n) {
  std::vector<T> v(n);
  for (std::uint64_t i = 0; i < n; ++i) v[i] = static_cast<T>(i * 2654435761u + 7);
  return v;
}

template <class T>
void expect_matches_apply(const OfflinePermuter<T>& op, const perm::Permutation& p) {
  const std::uint64_t n = p.size();
  const std::vector<T> a = sample_data<T>(n);
  std::vector<T> want(n), got(n);
  p.apply<T>(std::span<const T>(a), std::span<T>(want));
  util::aligned_vector<T> scratch(op.scratch_elements());
  op.permute(std::span<const T>(a), std::span<T>(got), std::span<T>(scratch));
  EXPECT_TRUE(got == want) << to_string(op.strategy()) << " at n = " << n;
}

template <class T>
class MeasuredWidths : public ::testing::Test {};

using Widths = ::testing::Types<std::uint8_t, std::uint16_t, std::uint32_t, std::uint64_t,
                                std::complex<double>>;
TYPED_TEST_SUITE(MeasuredWidths, Widths);

TYPED_TEST(MeasuredWidths, InjectedTimingsDecideAndTheProbeSeesTheElementWidth) {
  using T = TypeParam;
  const std::uint64_t n = 1 << 12;
  const perm::Permutation p = perm::by_name("random", n, 3);
  const MachineParams mp = MachineParams::gtx680();

  FixedProbe sweep_wins{.sweep_ns = 100, .gather_ns = 200};
  const OfflinePermuter<T> sched(p, mp, Strategy::kMeasured, sweep_wins.probe());
  EXPECT_EQ(sched.strategy(), Strategy::kScheduled);
  EXPECT_NE(sched.plan(), nullptr);
  EXPECT_EQ(sweep_wins.sweep_calls, 1);
  EXPECT_EQ(sweep_wins.gather_calls, 1);
  EXPECT_EQ(sweep_wins.asked_log2_n, 12u);
  EXPECT_EQ(sweep_wins.asked_sweep_bytes, sizeof(T));
  EXPECT_EQ(sweep_wins.asked_n, n);
  EXPECT_EQ(sweep_wins.asked_gather_bytes, sizeof(T));
  ASSERT_TRUE(sched.measured_costs().has_value());
  EXPECT_EQ(sched.measured_costs()->sweep_ns, 100);
  EXPECT_EQ(sched.measured_costs()->gather_ns, 200);
  expect_matches_apply(sched, p);

  FixedProbe gather_wins{.sweep_ns = 200, .gather_ns = 100};
  const OfflinePermuter<T> gather(p, mp, Strategy::kMeasured, gather_wins.probe());
  EXPECT_EQ(gather.strategy(), Strategy::kSDesignated);
  EXPECT_EQ(gather.plan(), nullptr);
  EXPECT_EQ(gather.scratch_elements(), 0u);
  expect_matches_apply(gather, p);

  FixedProbe tie{.sweep_ns = 150, .gather_ns = 150};
  const OfflinePermuter<T> tied(p, mp, Strategy::kMeasured, tie.probe());
  EXPECT_EQ(tied.strategy(), Strategy::kSDesignated);
  expect_matches_apply(tied, p);
}

TEST(MeasuredStrategy, ACloseCallKeepsTheGatherAndTimesEachKernelOnce) {
  // The sweep is 1.1x faster: inside the margin, so no plan is built.
  const perm::Permutation p = perm::by_name("bit-reversal", 1 << 12, 1);
  FixedProbe close{.sweep_ns = 100, .gather_ns = 110};
  const OfflinePermuter<std::uint32_t> op(p, MachineParams::gtx680(), Strategy::kMeasured,
                                          close.probe());
  EXPECT_EQ(close.sweep_calls, 1);
  EXPECT_EQ(close.gather_calls, 1);
  EXPECT_EQ(op.strategy(), Strategy::kSDesignated);
  EXPECT_EQ(op.plan(), nullptr);
  expect_matches_apply(op, p);
}

TYPED_TEST(MeasuredWidths, UnplannableSizesGatherWithoutTiming) {
  using T = TypeParam;
  const MachineParams mp = MachineParams::gtx680();
  // 1000 is not a power of two; 2^9 has fewer rows than the width (32).
  for (const std::uint64_t n : {std::uint64_t{1000}, std::uint64_t{1} << 9}) {
    const perm::Permutation p = perm::by_name("random", n, 5);
    FixedProbe probe{.sweep_ns = 1, .gather_ns = 1e9};
    const OfflinePermuter<T> op(p, mp, Strategy::kMeasured, probe.probe());
    EXPECT_EQ(op.strategy(), Strategy::kSDesignated) << n;
    EXPECT_FALSE(op.measured_costs().has_value()) << n;
    EXPECT_EQ(probe.sweep_calls + probe.gather_calls, 0) << n;
    expect_matches_apply(op, p);
  }
}

TEST(MeasuredStrategy, APlanOverSharedMemoryGathersWithoutTiming) {
  // 2^10 elements make 32-element rows: a row pass needs 384 bytes of
  // shared memory for u32, more than this machine's 256.
  const MachineParams small{.width = 8, .latency = 20, .dmms = 4, .shared_bytes = 256};
  const perm::Permutation p = perm::by_name("random", 1 << 10, 6);
  ASSERT_TRUE(OfflinePermuter<std::uint32_t>::plan_supported(p.size(), small));
  FixedProbe probe{.sweep_ns = 1, .gather_ns = 1e9};
  const OfflinePermuter<std::uint32_t> op(p, small, Strategy::kMeasured, probe.probe());
  EXPECT_EQ(op.strategy(), Strategy::kSDesignated);
  EXPECT_EQ(probe.sweep_calls + probe.gather_calls, 0);
  expect_matches_apply(op, p);
}

TEST(MeasuredStrategy, OneArgumentConstructorMeasuresAndNeverPicksTheScatter) {
  const perm::Permutation p = perm::by_name("random", 1 << 12, 9);
  const OfflinePermuter<float> op(p);
  ASSERT_TRUE(op.measured_costs().has_value());
  EXPECT_GT(op.measured_costs()->sweep_ns, 0);
  EXPECT_GT(op.measured_costs()->gather_ns, 0);
  EXPECT_EQ(op.strategy(), core::measured_choice(true, *op.measured_costs()));
  EXPECT_NE(op.strategy(), Strategy::kDDesignated);
}

TEST(MeasuredStrategy, SweepTimeIsMeasuredOncePerKey) {
  core::reset_sweep_calibrations();
  int measured = 0;
  const auto measure = [&measured] {
    ++measured;
    return 1234.0;
  };
  EXPECT_EQ(core::memoized_sweep_ns(30, 4, 32, measure), 1234.0);
  EXPECT_EQ(core::memoized_sweep_ns(30, 4, 32, [] { return 9.0; }), 1234.0);
  EXPECT_EQ(measured, 1);
  EXPECT_EQ(core::memoized_sweep_ns(30, 8, 32, [] { return 77.0; }), 77.0)
      << "another element width is another key";

  const std::vector<core::SweepCalibration> cals = core::sweep_calibrations();
  ASSERT_EQ(cals.size(), 2u);
  EXPECT_EQ(cals[0].log2_n, 30u);
  EXPECT_EQ(cals[0].elem_bytes, 4u);
  EXPECT_EQ(cals[0].width, 32u);
  EXPECT_EQ(cals[0].sweep_ns, 1234.0);
  EXPECT_EQ(cals[1].elem_bytes, 8u);

  // The host measurement lands in the same memo.
  const double host = core::host_sweep_ns<std::uint32_t>(util::ThreadPool::global(), 1 << 12, 32);
  EXPECT_GT(host, 0);
  EXPECT_EQ(core::host_sweep_ns<std::uint32_t>(util::ThreadPool::global(), 1 << 12, 32), host);
  EXPECT_EQ(core::sweep_calibrations().size(), 3u);
  core::reset_sweep_calibrations();
  EXPECT_TRUE(core::sweep_calibrations().empty());
}

/// Whatever the host's timings pick, the result is the permutation.
class MeasuredBattery : public ::testing::TestWithParam<std::string> {};

TEST_P(MeasuredBattery, BitIdenticalToApplyAtEverySize) {
  for (unsigned k = 10; k <= 20; ++k) {
    const std::uint64_t n = std::uint64_t{1} << k;
    const perm::Permutation p = perm::by_name(GetParam(), n, k);
    OfflinePermuter<std::uint32_t> op(p);
    ASSERT_TRUE(op.strategy() == Strategy::kScheduled || op.strategy() == Strategy::kSDesignated)
        << to_string(op.strategy());
    const std::vector<std::uint32_t> a = sample_data<std::uint32_t>(n);
    std::vector<std::uint32_t> want(n), got(n);
    p.apply<std::uint32_t>(std::span<const std::uint32_t>(a), std::span<std::uint32_t>(want));
    op.permute(std::span<const std::uint32_t>(a), std::span<std::uint32_t>(got));
    ASSERT_TRUE(got == want) << GetParam() << " n = 2^" << k << " via "
                             << to_string(op.strategy());
  }
}

INSTANTIATE_TEST_SUITE_P(Families, MeasuredBattery,
                         ::testing::Values("random", "bit-reversal", "transpose"),
                         [](const ::testing::TestParamInfo<std::string>& param) {
                           std::string name = param.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace hmm
