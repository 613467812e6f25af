/// \file bench_ablation_passes.cpp
/// \brief Ablation of the online phase's pass structure on the host:
///  * GPU-faithful scheduled (reads the (p̂, q) schedule arrays, like
///    the paper's kernels) vs the direct variant (applies g per row,
///    one indirection) — the cost of schedule reads;
///  * per-pass breakdown (3 row passes + 2 transposes) vs the
///    conventional single-scatter — where the 5x traffic goes.
///
/// Usage: bench_ablation_passes [--n 1M] [--reps 3] [--csv]

#include "bench_common.hpp"

#include <iostream>

int main(int argc, char** argv) {
  using namespace hmm;
  util::Cli cli(argc, argv);
  if (!cli.expect_flags({"csv", "n", "reps"}, std::cerr)) return 2;
  const std::uint64_t n = cli.get_int("n", 1 << 20);
  const int reps = static_cast<int>(cli.get_int("reps", 3));
  const bool csv = cli.get_bool("csv");

  bench::print_header("Ablation — pass structure & schedule-read overhead (host)",
                      "Section VIII implementation notes");

  const model::MachineParams mp = model::MachineParams::gtx680();
  util::ThreadPool pool;
  const perm::Permutation p = perm::bit_reversal(n);
  const core::ScheduledPlan plan = core::ScheduledPlan::build(p, mp);
  const std::uint64_t r = plan.shape().rows;
  const std::uint64_t m = plan.shape().cols;

  util::aligned_vector<float> a(n, 1.f), b(n), scratch(n);

  const double t_sched = bench::time_ms(
      [&] { core::scheduled_cpu_lean<float>(pool, plan, a, b, scratch); }, reps);
  core::BatchLane<float> lane{.a = a, .b = b, .scratch = scratch};
  const double t_direct = bench::time_ms(
      [&] {
        core::scheduled_cpu_sweep<float>(pool, plan, std::span(&lane, 1), {},
                                         core::RowKernel::kDirect);
      },
      reps);
  const double t_conv =
      bench::time_ms([&] { core::d_designated_cpu<float>(pool, a, b, p); }, reps);

  const double t_row = bench::time_ms(
      [&] {
        cpu::row_wise_pass<float>(pool, a, scratch, r, m, plan.pass1().phat, plan.pass1().q);
      },
      reps);
  const double t_row_direct = bench::time_ms(
      [&] { cpu::row_wise_pass_direct<float>(pool, a, scratch, r, m, plan.direct1()); }, reps);
  const double t_transpose = bench::time_ms(
      [&] { cpu::transpose_blocked<float>(pool, a, scratch, r, m, mp.width); }, reps);

  util::Table table({"variant", "ms", "vs conventional", "notes"});
  auto ratio = [&](double t) { return util::format_double(t / t_conv, 2) + "x"; };
  table.add_row({"D-designated (1 scatter)", util::format_ms(t_conv), "1.00x",
                 "casual writes"});
  table.add_row({"scheduled, GPU-faithful", util::format_ms(t_sched), ratio(t_sched),
                 "reads phat+q arrays (paper's kernels)"});
  table.add_row({"scheduled, direct g", util::format_ms(t_direct), ratio(t_direct),
                 "one indirection per element"});
  table.add_separator();
  table.add_row({"one row-wise pass (sched)", util::format_ms(t_row), ratio(t_row),
                 "of 3 in the pipeline"});
  table.add_row({"one row-wise pass (direct)", util::format_ms(t_row_direct),
                 ratio(t_row_direct), ""});
  table.add_row({"one blocked transpose", util::format_ms(t_transpose), ratio(t_transpose),
                 "of 2 in the pipeline"});
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }

  std::cout << "\nn = " << bench::size_label(n)
            << " float32. Expected: 3*row + 2*transpose ~= scheduled total; the\n"
               "direct variant trims the schedule-array traffic (the paper's GPU\n"
               "reads schedules essentially for free thanks to coalescing).\n";
  return 0;
}
