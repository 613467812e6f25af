/// \file bench_ablation_l2.cpp
/// \brief Ablation for the paper's small-n observation (Section VIII):
///        on the GTX-680 the conventional algorithm beats the scheduled
///        one below n = 256K, which the authors attribute to the 512 KiB
///        L2 cache absorbing the casual writes. We run the simulator
///        with and without the L2 model and locate the crossover.
///
/// A second table is the same inversion on this host: the five-pass
/// sweep (`scheduled_cpu_lean` on the real plan) against the
/// S-designated gather for the random, bit-reversal and transpose
/// families, with the pick `Strategy::kMeasured` makes from its own
/// timings (the gather of the permutation against the memoized sweep
/// estimate, shown beside the real plan's sweep) and the pick's time
/// over the faster of the two.
///
/// Usage: bench_ablation_l2 [--max 1M] [--csv]
///   The simulator table runs n = 16K..max; the host table runs
///   n = 4K..max(4M, max) (so `--max 16M` adds 2^23 and 2^24).

#include "bench_common.hpp"

#include <algorithm>
#include <iostream>
#include <limits>

#include "core/host_cost.hpp"

namespace {

using namespace hmm;

void print(const util::Table& table, bool csv) {
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
}

/// The host crossover table (u32 data, the global pool).
void host_crossover(std::uint64_t max_n, bool csv) {
  constexpr int kRounds = 3;
  auto& pool = util::ThreadPool::global();
  const model::MachineParams mp = model::MachineParams::gtx680();
  util::Table table({"family", "n", "sweep us", "gather us", "sweep est us", "kMeasured",
                     "pick/best"});
  for (const char* family : {"random", "bit-reversal", "transpose"}) {
    for (std::uint64_t n = 4 << 10; n <= max_n; n <<= 1) {
      const perm::Permutation p = perm::by_name(family, n, 1);
      const perm::Permutation inverse = p.inverse();
      const core::ScheduledPlan plan = core::ScheduledPlan::build(pool, p, mp);
      util::aligned_vector<std::uint32_t> a(n), b(n), scratch(n);
      for (std::uint64_t i = 0; i < n; ++i) a[i] = static_cast<std::uint32_t>(i);
      const std::span<const std::uint32_t> ca(a);
      // Interleaved rounds, best of each: other tenants' load hits both
      // kernels alike instead of whichever ran during a burst.
      double sweep_ns = std::numeric_limits<double>::infinity();
      double gather_ns = sweep_ns;
      for (int round = 0; round < kRounds; ++round) {
        sweep_ns = std::min(sweep_ns, core::best_of_three_ns([&] {
          core::scheduled_cpu_lean<std::uint32_t>(pool, plan, ca, b, scratch);
        }));
        gather_ns = std::min(gather_ns, core::best_of_three_ns([&] {
          core::s_designated_cpu<std::uint32_t>(pool, ca, b, inverse);
        }));
      }
      const core::MeasuredCosts costs =
          core::measure_costs<std::uint32_t>(pool, inverse, mp.width);
      const core::Strategy pick = core::measured_choice(true, costs);
      const double pick_ns = pick == core::Strategy::kScheduled ? sweep_ns : gather_ns;
      table.add_row({family, bench::size_label(n), util::format_double(sweep_ns / 1e3, 1),
                     util::format_double(gather_ns / 1e3, 1),
                     util::format_double(costs.sweep_ns / 1e3, 1),
                     std::string(core::to_string(pick)),
                     util::format_double(pick_ns / std::min(sweep_ns, gather_ns), 2)});
    }
  }
  print(table, csv);
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  if (!cli.expect_flags({"csv", "max"}, std::cerr)) return 2;
  const std::uint64_t max_n = cli.get_int("max", 1 << 20);
  const bool csv = cli.get_bool("csv");

  bench::print_header("Ablation — L2 cache model vs the Table II small-n inversion",
                      "Section VIII discussion of Table II");

  model::MachineParams mp = model::MachineParams::gtx680();
  sim::L2Model l2;
  l2.enabled = true;
  l2.capacity_bytes = 512 * 1024;  // GTX-680 whitepaper
  l2.element_bytes = sizeof(float);
  l2.hit_speedup = 4;

  util::Table table({"n", "D-des no-L2", "D-des with-L2", "scheduled", "winner no-L2",
                     "winner with-L2"});
  for (std::uint64_t n = 16 << 10; n <= max_n; n <<= 1) {
    const perm::Permutation p = perm::bit_reversal(n);
    const core::ScheduledPlan plan =
        core::ScheduledPlan::build(util::ThreadPool::global(), p, mp);

    sim::HmmSim plain(mp);
    const std::uint64_t t_plain = core::d_designated_sim_rounds(plain, p);

    sim::HmmSim cached(mp);
    cached.set_l2(l2);
    const std::uint64_t t_cached = core::d_designated_sim_rounds(cached, p);

    sim::HmmSim sched(mp);
    const std::uint64_t t_sched = core::scheduled_sim_rounds(sched, plan);

    table.add_row({bench::size_label(n), util::format_count(t_plain),
                   util::format_count(t_cached), util::format_count(t_sched),
                   t_plain < t_sched ? "conventional" : "scheduled",
                   t_cached < t_sched ? "conventional" : "scheduled"});
  }
  print(table, csv);
  std::cout << "\nExpected shape: without L2, scheduled wins everywhere the model allows;\n"
               "with the L2 model, conventional wins at small n (footprint fits in 512 KiB)\n"
               "and the crossover sits near the paper's observed 256K.\n";

  bench::print_header("Host crossover — five-pass sweep vs S-designated gather (u32)",
                      "Section VIII's small-n inversion, measured on this CPU");
  host_crossover(std::max<std::uint64_t>(max_n, 4 << 20), csv);
  std::cout << "\nsweep/gather: the best of three interleaved rounds, each a warm-up plus the\n"
               "best of three runs. kMeasured picks from its own timings (this\n"
               "permutation's gather vs the memoized sweep estimate), so pick/best near\n"
               "1.00 means the rule chose the faster kernel.\n";
  return 0;
}
