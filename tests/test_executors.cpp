#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/conventional.hpp"
#include "core/plan.hpp"
#include "core/scheduled.hpp"
#include "model/cost.hpp"
#include "perm/distribution.hpp"
#include "perm/generators.hpp"
#include "test_helpers.hpp"

namespace hmm::core {
namespace {

using model::MachineParams;

template <class T>
void expect_permuted(const perm::Permutation& p, std::span<const T> a, std::span<const T> b) {
  for (std::uint64_t i = 0; i < p.size(); ++i) {
    ASSERT_EQ(b[p(i)], a[i]) << "element " << i;
  }
}

TEST(ConventionalCpu, DDesignatedCorrect) {
  util::ThreadPool pool(2);
  const std::uint64_t n = 1 << 12;
  const perm::Permutation p = perm::by_name("random", n, 1);
  const auto a = test::iota_data<float>(n);
  util::aligned_vector<float> b(n, -1.f);
  d_designated_cpu<float>(pool, a, b, p);
  expect_permuted<float>(p, a, b);
}

TEST(ConventionalCpu, SDesignatedCorrect) {
  util::ThreadPool pool(2);
  const std::uint64_t n = 1 << 12;
  const perm::Permutation p = perm::by_name("random", n, 2);
  const auto a = test::iota_data<double>(n);
  util::aligned_vector<double> b(n, -1.0);
  s_designated_cpu<double>(pool, a, b, p.inverse());
  expect_permuted<double>(p, a, b);
}

TEST(ConventionalSim, DDesignatedTimeMatchesLemma4) {
  const MachineParams mp = MachineParams::tiny(4, 9, 2);
  const std::uint64_t n = 256;
  for (const auto& name : test::families_for(n)) {
    const perm::Permutation p = perm::by_name(name, n);
    sim::HmmSim sim(mp);
    const auto a = test::iota_data<float>(n);
    util::aligned_vector<float> b(n, -1.f);
    const std::uint64_t t = d_designated_sim<float>(sim, a, b, p);
    expect_permuted<float>(p, a, b);
    EXPECT_EQ(t, model::d_designated_time(n, perm::distribution(p, mp.width), mp)) << name;
    EXPECT_TRUE(sim.stats().declarations_hold()) << name;
  }
}

TEST(ConventionalSim, SDesignatedTimeMatchesLemma4) {
  const MachineParams mp = MachineParams::tiny(4, 9, 2);
  const std::uint64_t n = 256;
  for (const auto& name : test::families_for(n)) {
    const perm::Permutation p = perm::by_name(name, n);
    sim::HmmSim sim(mp);
    const auto a = test::iota_data<float>(n);
    util::aligned_vector<float> b(n, -1.f);
    const std::uint64_t t = s_designated_sim<float>(sim, a, b, p.inverse());
    expect_permuted<float>(p, a, b);
    EXPECT_EQ(t, model::s_designated_time(n, perm::inverse_distribution(p, mp.width), mp))
        << name;
  }
}

TEST(ConventionalSim, RoundInventoryMatchesTable1) {
  const MachineParams mp = MachineParams::tiny(4, 9, 2);
  const perm::Permutation p = perm::bit_reversal(256);
  sim::HmmSim sim(mp);
  const auto a = test::iota_data<float>(256);
  util::aligned_vector<float> b(256);
  d_designated_sim<float>(sim, a, b, p);
  const auto counts = sim.stats().observed_counts();
  EXPECT_EQ(counts.coalesced_read, model::rounds::d_designated.coalesced_read);
  EXPECT_EQ(counts.casual_write_global, model::rounds::d_designated.casual_write_global);
  EXPECT_EQ(counts.total_rounds(), 3u);
}

TEST(ScheduledCpu, CorrectForAllFamilies) {
  util::ThreadPool pool(2);
  const MachineParams mp = MachineParams::tiny(4, 9, 2);
  const std::uint64_t n = 1 << 10;
  for (const auto& name : test::families_for(n)) {
    const perm::Permutation p = perm::by_name(name, n);
    const ScheduledPlan plan = ScheduledPlan::build(p, mp);
    const auto a = test::iota_data<float>(n);
    util::aligned_vector<float> b(n, -1.f), scratch(n);
    scheduled_cpu_lean<float>(pool, plan, a, b, scratch);
    expect_permuted<float>(p, a, b);
  }
}

TEST(ScheduledCpu, DoubleElements) {
  util::ThreadPool pool(2);
  const MachineParams mp = MachineParams::tiny(8, 9, 4);
  const std::uint64_t n = 1 << 12;
  const perm::Permutation p = perm::by_name("random", n, 3);
  const ScheduledPlan plan = ScheduledPlan::build(p, mp);
  const auto a = test::iota_data<double>(n);
  util::aligned_vector<double> b(n, -1.0), scratch(n);
  scheduled_cpu_lean<double>(pool, plan, a, b, scratch);
  expect_permuted<double>(p, a, b);
}

/// Boundary semantics of the five-pass driver: lane count x row-pass
/// kernel x the kernel after which one lane's gate trips (-1 = never).
struct SweepCase {
  std::size_t lanes;
  RowKernel row_kernel;
  int trip_after;
};

class SweepBoundary : public ::testing::TestWithParam<SweepCase> {};

TEST_P(SweepBoundary, GateStopsOnlyTheTrippedLane) {
  const SweepCase c = GetParam();
  util::ThreadPool pool(2);
  const MachineParams mp = MachineParams::tiny(4, 9, 2);
  const std::uint64_t n = 1 << 10;
  const perm::Permutation p = perm::by_name("random", n, 7);
  const ScheduledPlan plan = ScheduledPlan::build(p, mp);
  const auto a = test::iota_data<float>(n);
  util::aligned_vector<float> expected(n);
  p.apply<float>(a, expected);

  // The middle lane trips; every gate counts how often it was consulted.
  // An ungated case (trip_after = -1) installs no gates at all.
  const std::size_t tripped = c.lanes / 2;
  const bool gated = c.trip_after >= 0;
  std::vector<util::aligned_vector<float>> bs(c.lanes, util::aligned_vector<float>(n, -1.f));
  std::vector<util::aligned_vector<float>> scratches(c.lanes, util::aligned_vector<float>(n));
  std::vector<int> gate_calls(c.lanes, 0);
  std::vector<BatchLane<float>> lanes(c.lanes);
  for (std::size_t l = 0; l < c.lanes; ++l) {
    lanes[l].a = a;
    lanes[l].b = bs[l];
    lanes[l].scratch = scratches[l];
    const int trip = l == tripped ? c.trip_after : -1;
    if (gated) lanes[l].gate = [&calls = gate_calls[l], trip] { return calls++ != trip; };
  }

  // Fan each observation into the lanes active during that kernel, the
  // way the executor attributes batch time to requests.
  std::vector<unsigned> batch_seen;
  std::vector<std::vector<unsigned>> lane_seen(c.lanes);
  const KernelObserver observer = [&](unsigned kernel, std::uint64_t) {
    batch_seen.push_back(kernel);
    for (std::size_t l = 0; l < c.lanes; ++l) {
      if (lanes[l].active) lane_seen[l].push_back(kernel);
    }
  };
  scheduled_cpu_sweep<float>(pool, plan, lanes, observer, c.row_kernel);

  const std::vector<unsigned> all = {0, 1, 2, 3, 4};
  for (std::size_t l = 0; l < c.lanes; ++l) {
    if (l == tripped && gated) {
      std::vector<unsigned> upto(all.begin(), all.begin() + c.trip_after + 1);
      EXPECT_EQ(lane_seen[l], upto) << "lane " << l;
      EXPECT_FALSE(lanes[l].active) << "lane " << l;
      EXPECT_EQ(gate_calls[l], c.trip_after + 1) << "lane " << l;
    } else {
      EXPECT_EQ(lane_seen[l], all) << "lane " << l;
      EXPECT_TRUE(lanes[l].active) << "lane " << l;
      EXPECT_EQ(gate_calls[l], gated ? 4 : 0) << "gates are consulted between kernels only";
      EXPECT_EQ(bs[l], expected) << "lane " << l;
    }
  }
  // The batch-wide observer stops with the last live lane; an ungated
  // run makes exactly five observations.
  EXPECT_EQ(batch_seen, c.lanes == 1 && gated ? lane_seen[tripped] : all);
}

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> cases;
  for (std::size_t lanes : {1, 3}) {
    for (RowKernel row_kernel : {RowKernel::kSchedule, RowKernel::kDirect}) {
      for (int trip = -1; trip <= 3; ++trip) cases.push_back({lanes, row_kernel, trip});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    ScheduledSweep, SweepBoundary, ::testing::ValuesIn(sweep_cases()),
    [](const ::testing::TestParamInfo<SweepCase>& param_info) {
      const SweepCase& c = param_info.param;
      return "lanes" + std::to_string(c.lanes) +
             (c.row_kernel == RowKernel::kSchedule ? "_schedule" : "_direct") +
             (c.trip_after < 0 ? std::string("_ungated")
                               : "_trip" + std::to_string(c.trip_after));
    });

TEST(ScheduledSim, CorrectAndFullyCoalesced) {
  const MachineParams mp = MachineParams::tiny(4, 9, 2);
  const std::uint64_t n = 1 << 10;
  for (const auto& name : test::families_for(n)) {
    const perm::Permutation p = perm::by_name(name, n);
    const ScheduledPlan plan = ScheduledPlan::build(p, mp);
    sim::HmmSim sim(mp);
    const auto a = test::iota_data<float>(n);
    util::aligned_vector<float> b(n, -1.f);
    scheduled_sim<float>(sim, plan, a, b);
    expect_permuted<float>(p, a, b);

    // The paper's key structural claim: all 16 global rounds coalesced,
    // all 16 shared rounds conflict-free, zero casual rounds.
    const auto counts = sim.stats().observed_counts();
    EXPECT_EQ(counts.coalesced_read, 11u) << name;
    EXPECT_EQ(counts.coalesced_write, 5u) << name;
    EXPECT_EQ(counts.conflict_free_read, 8u) << name;
    EXPECT_EQ(counts.conflict_free_write, 8u) << name;
    EXPECT_EQ(counts.casual_read_global + counts.casual_write_global, 0u) << name;
    EXPECT_TRUE(sim.stats().declarations_hold()) << name;
  }
}

TEST(ScheduledSim, TimeIndependentOfPermutation) {
  // Theorem 9 empirically: same n => exactly the same simulated time,
  // whatever the permutation.
  const MachineParams mp = MachineParams::tiny(4, 9, 2);
  const std::uint64_t n = 1 << 10;
  std::uint64_t reference_time = 0;
  for (const auto& name : test::families_for(n)) {
    const perm::Permutation p = perm::by_name(name, n);
    const ScheduledPlan plan = ScheduledPlan::build(p, mp);
    sim::HmmSim sim(mp);
    const std::uint64_t t = scheduled_sim_rounds(sim, plan);
    if (reference_time == 0) {
      reference_time = t;
    } else {
      EXPECT_EQ(t, reference_time) << name;
    }
  }
}

TEST(ScheduledSim, TimeMatchesTheorem9ForSquare) {
  const MachineParams mp = MachineParams::tiny(4, 9, 2);
  const std::uint64_t n = 1 << 10;  // 32 x 32: square, rows divisible by dmms
  const perm::Permutation p = perm::bit_reversal(n);
  const ScheduledPlan plan = ScheduledPlan::build(p, mp);
  sim::HmmSim sim(mp);
  const std::uint64_t t = scheduled_sim_rounds(sim, plan);
  EXPECT_EQ(t, model::scheduled_time(n, mp));
}

TEST(ScheduledSim, BeatsConventionalOnHighDistribution) {
  const MachineParams mp = MachineParams::gtx680();
  const std::uint64_t n = 1 << 16;
  const perm::Permutation p = perm::bit_reversal(n);
  const ScheduledPlan plan = ScheduledPlan::build(p, mp);

  sim::HmmSim sim_sched(mp);
  const std::uint64_t t_sched = scheduled_sim_rounds(sim_sched, plan);
  sim::HmmSim sim_conv(mp);
  const std::uint64_t t_conv = d_designated_sim_rounds(sim_conv, p);
  EXPECT_LT(t_sched, t_conv);
}

TEST(ScheduledSim, LosesToConventionalOnIdentical) {
  const MachineParams mp = MachineParams::gtx680();
  const std::uint64_t n = 1 << 16;
  const perm::Permutation p = perm::identical(n);
  const ScheduledPlan plan = ScheduledPlan::build(p, mp);

  sim::HmmSim sim_sched(mp);
  const std::uint64_t t_sched = scheduled_sim_rounds(sim_sched, plan);
  sim::HmmSim sim_conv(mp);
  const std::uint64_t t_conv = d_designated_sim_rounds(sim_conv, p);
  EXPECT_GT(t_sched, t_conv);
}

}  // namespace
}  // namespace hmm::core
