#include "ladder.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/plan.hpp"
#include "core/scheduled.hpp"
#include "graph/coloring.hpp"
#include "net/client.hpp"
#include "net/wire.hpp"
#include "runtime/fingerprint.hpp"
#include "runtime/program.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using hmm::perm::Permutation;
using hmm::runtime::Status;
using U32 = std::uint32_t;

/// Median wall time of one call, in microseconds. Unless `cold`, one
/// untimed call warms caches first; then calls repeat until both
/// `min_reps` and `budget_s` are reached. The whole rung is one span.
template <class F>
double per_call_us(const char* rung, F&& f, int min_reps = 5, double budget_s = 0.25,
                   bool cold = false) {
  const Span span(rung);
  if (!cold) f();
  std::vector<double> samples;
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(budget_s * 1e9);
  while (static_cast<int>(samples.size()) < min_reps ||
         (now_ns() < end && samples.size() < 20'000)) {
    const std::int64_t t0 = now_ns();
    f();
    samples.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  const double us = median(samples);
  std::fprintf(stderr, "perfbench: %s: %.1f us (median of %zu)\n", rung, us, samples.size());
  return us;
}

bool same(const std::vector<U32>& a, const std::vector<U32>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * 4) == 0;
}

void wait_ok(hmm::runtime::StatusOr<std::future<Status>> submitted, const char* what) {
  require_ok(submitted.status(), what);
  require_ok(submitted.value().get(), what);
}

}  // namespace

LadderResult run_ladder(const Permutation& p,
                        std::shared_ptr<const hmm::core::OfflinePermuter<U32>> permuter,
                        MetricSink& sink) {
  LadderResult result;
  auto& pool = hmm::util::ThreadPool::global();
  const auto machine = hmm::model::MachineParams::gtx680();
  const std::uint64_t n = p.size();
  const double bytes = static_cast<double>(n * sizeof(U32));
  const std::vector<U32> a = random_words(n, 0x1add3f);
  const std::vector<U32> expected = reference(p, a);
  std::vector<U32> b(n), scratch(n);
  const auto check = [&](const char* rung) {
    if (!same(b, expected)) {
      result.correct = false;
      std::fprintf(stderr, "perfbench: ladder rung %s produced a wrong permutation\n", rung);
    }
    std::fill(b.begin(), b.end(), 0u);
  };
  const auto rung = [&](const std::string& name, double us, double below_us) {
    sink.add(name + "_us", us, "us");
    sink.add(name + ".delta_us", us - below_us, "us");
  };

  // --- util: the copy roofline and an empty fork/join ------------------
  const double memcpy_us = per_call_us("ladder.util.memcpy", [&] {
    pool.parallel_for_chunks(0, n, [&](std::uint64_t lo, std::uint64_t hi) {
      std::memcpy(b.data() + lo, a.data() + lo, (hi - lo) * sizeof(U32));
    });
  });
  if (std::memcmp(a.data(), b.data(), n * sizeof(U32)) != 0) result.correct = false;
  // Bytes moved = bytes read + bytes written.
  const double memcpy_gbs = 2 * bytes / (memcpy_us * 1e3);
  rung("util.memcpy", memcpy_us, 0);
  sink.add("util.memcpy_gbs", memcpy_gbs, "GB/s");
  const auto no_work = [](std::uint64_t, std::uint64_t) {};
  sink.add("util.fork_join_us",
           per_call_us("ladder.util.fork_join", [&] { pool.parallel_for_chunks(0, n, no_work); }),
           "us");

  // --- graph + core: the offline phase ---------------------------------
  const hmm::core::MatrixShape shape = hmm::core::shape_for(n, machine.width);
  double coloring_ms = 0;
  {
    hmm::graph::BipartiteMultigraph row_graph(static_cast<U32>(shape.rows),
                                              static_cast<U32>(shape.rows));
    row_graph.reserve(n);
    const auto map = p.data();
    for (std::uint64_t e = 0; e < n; ++e) {
      row_graph.add_edge(static_cast<U32>(e / shape.cols), static_cast<U32>(map[e] / shape.cols));
    }
    coloring_ms = per_call_us("ladder.graph.color_edges",
                              [&] { (void)hmm::graph::color_edges(row_graph); }, 1, 0.5, true) /
                  1e3;
  }
  sink.add("graph.coloring_ms", coloring_ms, "ms");

  std::unique_ptr<hmm::core::ScheduledPlan> plan;
  const double build_ms = per_call_us("ladder.core.ScheduledPlan::build", [&] {
    plan = std::make_unique<hmm::core::ScheduledPlan>(
        hmm::core::ScheduledPlan::build(pool, p, machine));
  }, 1, 0.5, true) / 1e3;
  sink.add("core.plan_build_ms", build_ms, "ms");
  sink.add("core.row_schedules_ms", plan->build_stats().schedules_seconds * 1e3, "ms");

  // --- cpu: the five passes, then the sweep on 4 workers and on 1 ------
  const std::uint64_t r = plan->shape().rows;
  const std::uint64_t m = plan->shape().cols;
  const std::uint64_t tile = plan->params().width;
  const std::span<const U32> in(a);
  const std::span<U32> bs(b), ss(scratch);
  const double pass_us[5] = {
      per_call_us("ladder.cpu.row_wise_pass.1", [&] {
        hmm::cpu::row_wise_pass<U32>(pool, in, bs, r, m, plan->pass1().phat, plan->pass1().q);
      }),
      per_call_us("ladder.cpu.transpose_blocked.1",
                  [&] { hmm::cpu::transpose_blocked<U32>(pool, bs, ss, r, m, tile); }),
      per_call_us("ladder.cpu.row_wise_pass.2", [&] {
        hmm::cpu::row_wise_pass<U32>(pool, ss, bs, m, r, plan->pass2().phat, plan->pass2().q);
      }),
      per_call_us("ladder.cpu.transpose_blocked.2",
                  [&] { hmm::cpu::transpose_blocked<U32>(pool, bs, ss, m, r, tile); }),
      per_call_us("ladder.cpu.row_wise_pass.3", [&] {
        hmm::cpu::row_wise_pass<U32>(pool, ss, bs, r, m, plan->pass3().phat, plan->pass3().q);
      }),
  };
  check("cpu passes");
  // Computed bytes per pass: a row pass reads and writes n elements and
  // reads the two uint16 schedule arrays (p-hat, q); a transpose reads
  // and writes n elements. Computed, not counted by hardware.
  const char* pass_names[5] = {"cpu.pass1_row", "cpu.pass2_transpose", "cpu.pass3_row",
                               "cpu.pass4_transpose", "cpu.pass5_row"};
  double passes_sum_us = 0;
  for (int k = 0; k < 5; ++k) {
    const bool row_pass = k % 2 == 0;
    const double pass_bytes =
        static_cast<double>(n) * (2 * sizeof(U32) + (row_pass ? 2 * sizeof(std::uint16_t) : 0));
    rung(pass_names[k], pass_us[k], memcpy_us);
    sink.add(std::string("cpu.pass") + std::to_string(k + 1) + "_roofline_frac",
             pass_bytes / (pass_us[k] * 1e3) / memcpy_gbs, "fraction");
    passes_sum_us += pass_us[k];
  }
  const double sweep_us = per_call_us("ladder.cpu.sweep", [&] {
    hmm::core::scheduled_cpu_lean<U32>(pool, *plan, in, bs, ss);
  });
  check("cpu.sweep");
  rung("cpu.sweep", sweep_us, passes_sum_us);
  {
    hmm::util::ThreadPool one(1);
    sink.add("cpu.sweep_1t_us", per_call_us("ladder.cpu.sweep_1t", [&] {
      hmm::core::scheduled_cpu_lean<U32>(one, *plan, in, bs, ss);
    }), "us");
    check("cpu.sweep_1t");
  }
  plan.reset();

  // --- core: the permuter (kAuto) and the S-designated gather ----------
  if (!permuter) permuter = std::make_shared<hmm::core::OfflinePermuter<U32>>(p);
  std::vector<U32> permuter_scratch(permuter->scratch_elements());
  const double permute_us = per_call_us("ladder.core.OfflinePermuter::permute", [&] {
    permuter->permute(in, bs, permuter_scratch);
  });
  check("core.permute");
  rung("core.permute", permute_us, sweep_us);
  {
    const hmm::core::OfflinePermuter<U32> conventional(p, machine,
                                                       hmm::core::Strategy::kSDesignated);
    sink.add("core.conventional_us", per_call_us("ladder.core.conventional", [&] {
      conventional.permute(in, bs, {});
    }), "us");
    check("core.conventional");
  }

  // --- runtime: one permd backend's service, then the wire above it ----
  // The default 64 MiB plan cache cannot hold a 4M plan (~100 MiB),
  // and a plan the cache cannot retain is rebuilt on every request.
  // The ladder's backends get room for the plan, its composite and its
  // shard copy, so their rungs time serving rather than rebuilding.
  const std::uint64_t cache_bytes =
      std::max(kDefaultCacheBytes, 4 * permuter->compiled_bytes());
  Backend local = Backend::start(cache_bytes);
  hmm::runtime::RobustPermuteService& service = *local.service;
  result.service_before = service.metrics().snapshot();
  sink.add("runtime.fingerprint_us", per_call_us("ladder.runtime.fingerprint_permutation", [&] {
    (void)hmm::runtime::fingerprint_permutation(p);
  }), "us");
  std::shared_ptr<const hmm::core::OfflinePermuter<U32>> handle;
  sink.add("runtime.cache_hit_us", per_call_us("ladder.runtime.PlanCache::acquire", [&] {
    handle = service.cache().acquire<U32>(p, machine);
  }), "us");
  const double executor_us = per_call_us("ladder.runtime.Executor::try_submit", [&] {
    wait_ok(service.executor().try_submit<U32>(handle, in, bs), "executor");
  });
  check("runtime.executor");
  rung("runtime.executor", executor_us, permute_us);
  const double service_us = per_call_us("ladder.runtime.RobustPermuteService::submit", [&] {
    wait_ok(service.submit<U32>(p, in, bs), "service");
  });
  check("runtime.service");
  rung("runtime.service", service_us, executor_us);
  {
    const auto shared = std::make_shared<const Permutation>(p);
    const hmm::runtime::PlanResolver resolver = [&](std::uint64_t) { return shared; };
    hmm::runtime::Program program;
    program.ops.assign(4, {hmm::runtime::ProgramOpCode::kPermute, 1});
    std::vector<U32> chained = expected;
    for (int d = 1; d < 4; ++d) chained = reference(p, chained);
    const double program_us =
        per_call_us("ladder.runtime.RobustPermuteService::submit_program", [&] {
          wait_ok(service.submit_program<U32>(program, resolver, in, bs), "program");
        });
    sink.add("runtime.program_us", program_us, "us");
    if (!same(b, chained)) result.correct = false;
  }

  // --- net: checksum, loopback HMMP, router, sharded router ------------
  const std::span<const std::uint8_t> a_bytes(reinterpret_cast<const std::uint8_t*>(a.data()),
                                              n * sizeof(U32));
  const double checksum_us = per_call_us("ladder.net.checksum_bytes", [&] {
    (void)hmm::net::checksum_bytes(a_bytes);
  });
  sink.add("net.checksum_gbs", bytes / (checksum_us * 1e3), "GB/s");

  hmm::net::Client direct(local.client_config());
  const hmm::runtime::StatusOr<std::uint64_t> id = direct.submit_plan(p);
  require_ok(id.status(), "ladder SUBMIT_PLAN");
  sink.add("net.ping_us", per_call_us("ladder.net.Client::ping", [&] {
    require_ok(direct.ping(), "PING");
  }), "us");
  const double net_us = per_call_us("ladder.net.Client::permute", [&] {
    require_ok(direct.permute(id.value(), in, bs), "PERMUTE");
  });
  check("net.permute");
  rung("net.permute", net_us, service_us);
  result.service_after = service.metrics().snapshot();

  double router_us = 0;
  {
    auto router = start_router({&local}, 0);
    hmm::net::Client client(client_config(router->port()));
    require_ok(client.submit_plan(p).status(), "router SUBMIT_PLAN");
    router_us = per_call_us("ladder.net.Router(forward)", [&] {
      require_ok(client.permute(id.value(), in, bs), "routed PERMUTE");
    });
    check("net.router_permute");
    router->stop();
  }
  rung("net.router_permute", router_us, net_us);

  {
    Backend others[3] = {Backend::start(cache_bytes), Backend::start(cache_bytes),
                         Backend::start(cache_bytes)};
    // Shards compile the full scheduled plan on first use; at 4M that
    // outlasts the peers' exchange timeout, so compile it up front.
    {
      std::vector<std::thread> primers;
      for (Backend* shard : {&local, &others[0], &others[1], &others[2]}) {
        primers.emplace_back([&, shard] {
          (void)shard->service->cache().acquire<U32>(p, machine, hmm::core::Strategy::kScheduled);
        });
      }
      for (std::thread& t : primers) t.join();
    }
    auto router = start_router({&local, &others[0], &others[1], &others[2]}, 1);
    hmm::net::Client client(client_config(router->port()));
    require_ok(client.submit_plan(p).status(), "sharded SUBMIT_PLAN");
    const auto before = router->snapshot();
    const double dist_us = per_call_us("ladder.net.Router(sharded)", [&] {
      require_ok(client.permute(id.value(), in, bs), "sharded PERMUTE");
    }, 3);
    check("net.dist_permute");
    const auto after = router->snapshot();
    const std::uint64_t sharded = after.dist_requests - before.dist_requests;
    if (sharded == 0) throw std::runtime_error("ladder: the router did not shard the request");
    sink.add("net.dist_permute_ms", dist_us / 1e3, "ms");
    sink.add("net.dist_permute.delta_us", dist_us - router_us, "us");
    sink.add("net.dist_bytes_per_req",
             static_cast<double>(after.dist_bytes - before.dist_bytes) /
                 static_cast<double>(sharded),
             "bytes");
    router->stop();
    for (Backend& o : others) o.server->stop();
  }
  local.server->stop();
  return result;
}

}  // namespace perfbench
