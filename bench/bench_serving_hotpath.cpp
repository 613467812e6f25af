/// \file bench_serving_hotpath.cpp
/// \brief Serving-path benchmark: loopback client-observed latency and
///        throughput, buffer-pool reuse (allocations/request via pool
///        counters), and the fused multi-lane kernel sweep.
///
/// The `wire` row drives C concurrent connections through a real
/// net::Server (epoll reactor, HMMP frames, checksums — nothing
/// mocked) and reports client-side p50/p99/throughput plus buffer-pool
/// misses per request (the steady-state allocation rate; ~0 means the
/// pool is absorbing every per-request buffer).
///
/// The `sweep-*` rows compare L sequential single-lane five-pass sweeps
/// with one fused L-lane `core::scheduled_cpu_sweep` over the same
/// plan, in process. The `sweep-seq-<variant>` / `sweep-fused-<variant>` rows re-run the
/// sweep comparison once per selectable kernel tier (scalar, avx2,
/// avx512 — whatever this CPU supports), so the committed trajectory
/// prices the SIMD gather/scatter kernels against the scalar oracle on
/// the same plan and lanes. Unsupported tiers are skipped, not failed.
///
/// The `srv-epoll-*` rows stress what the reactor specifically buys:
/// `srv-epoll-cNN` runs the wire workload at 4x the connection count,
/// and `srv-epoll-idle1k` runs it while 1'000 idle connections are
/// parked on the same server — idle connections cost a map entry, not
/// a thread, so the row should match the plain wire row (the
/// thread-per-connection design could not open them at all past its
/// thread budget).
///
/// Usage: bench_serving_hotpath [--n 8K] [--connections 8]
///                              [--requests 200] [--batch 8]
///                              [--dist-n 1M] [--dist-shards 4]
///                              [--dist-requests 12] [--json]
///
/// `--batch` is the lane count of the fused sweep rows (at least 4).
/// `--json` appends one JSON object per row (JSON Lines) after the
/// table — the repo's BENCH_*.json trajectory format
/// (results/BENCH_serving.json keeps the committed baseline).

#include "bench_common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "core/layout.hpp"
#include "core/permuter.hpp"
#include "cpu/dispatch.hpp"
#include "net/client.hpp"
#include "net/distributed.hpp"
#include "net/server.hpp"
#include "runtime/metrics.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/program.hpp"
#include "runtime/service.hpp"
#include "util/buffer_pool.hpp"
#include "util/rng.hpp"

namespace {

using namespace hmm;

/// Best-effort RLIMIT_NOFILE raise for the idle-connection row (each
/// parked connection is one client fd + one server fd).
bool raise_fd_limit(rlim_t want) {
  struct rlimit lim {};
  if (getrlimit(RLIMIT_NOFILE, &lim) != 0) return false;
  if (lim.rlim_cur >= want) return true;
  if (lim.rlim_max != RLIM_INFINITY && lim.rlim_max < want) return false;
  lim.rlim_cur = want;
  return setrlimit(RLIMIT_NOFILE, &lim) == 0;
}

struct RunResult {
  double wall_s = 0;
  std::uint64_t requests = 0;
  std::uint64_t failures = 0;
  runtime::LogHistogram latency_ns;
  std::uint64_t batches = 0;           // fused sweeps (sweep rows only)
  std::uint64_t batched_requests = 0;  // lanes those sweeps carried
  std::uint64_t pool_misses = 0;  // delta across the measured window
};

/// One full loopback run: fresh service + server, one hot plan, C
/// client threads each issuing R PERMUTEs. The pool-miss delta is
/// captured after a warmup pass so it reflects steady state, not
/// first-touch growth. `idle_conns` connections are opened before the
/// measured window and left parked (never written to) for its whole
/// duration — the reactor must carry them for free.
void run_once(const perm::Permutation& p, std::uint64_t n, std::uint64_t connections,
              std::uint64_t requests_per_conn, RunResult& result,
              std::uint64_t idle_conns = 0) {
  auto& pool = util::ThreadPool::global();
  runtime::RobustPermuteService service(pool, runtime::RobustPermuteService::Config{});
  net::Server::Config server_config;
  server_config.max_connections =
      static_cast<std::uint32_t>(std::max<std::uint64_t>(256, idle_conns + connections + 16));
  net::Server server(service, server_config);
  if (runtime::Status s = server.start(); !s.is_ok()) {
    std::cerr << "bench_serving_hotpath: " << s.to_string() << "\n";
    std::exit(1);
  }

  net::Client::Config client_config;
  client_config.port = server.port();

  std::vector<net::TcpStream> parked;
  parked.reserve(idle_conns);
  for (std::uint64_t i = 0; i < idle_conns; ++i) {
    runtime::StatusOr<net::TcpStream> conn =
        net::tcp_connect("127.0.0.1", server.port(), std::chrono::milliseconds(2'000));
    if (!conn.ok()) {
      std::cerr << "bench_serving_hotpath: idle connection " << i
                << " failed: " << conn.status().to_string() << "\n";
      std::exit(1);
    }
    parked.push_back(std::move(conn).value());
  }

  std::uint64_t plan_id = 0;
  {
    net::Client setup(client_config);
    runtime::StatusOr<std::uint64_t> id = setup.submit_plan(p);
    if (!id.ok()) {
      std::cerr << "bench_serving_hotpath: SUBMIT_PLAN failed: " << id.status().to_string()
                << "\n";
      std::exit(1);
    }
    plan_id = id.value();
    // Warmup: populate the plan cache, the pool's size classes, and the
    // connection-level frame storage before the measured window.
    std::vector<std::uint32_t> a(n), b(n);
    for (std::uint64_t i = 0; i < n; ++i) a[i] = static_cast<std::uint32_t>(i);
    for (int i = 0; i < 8; ++i) {
      (void)setup.permute(plan_id, {a.data(), n}, {b.data(), n});
    }
  }

  const runtime::MetricsSnapshot before = service.metrics().snapshot();
  std::atomic<std::uint64_t> failures{0};
  util::Stopwatch wall;

  std::vector<std::thread> workers;
  workers.reserve(connections);
  for (std::uint64_t w = 0; w < connections; ++w) {
    workers.emplace_back([&, w] {
      net::Client client(client_config);
      std::vector<std::uint32_t> a(n), b(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        a[i] = static_cast<std::uint32_t>(i + w * 1315423911u);
      }
      for (std::uint64_t r = 0; r < requests_per_conn; ++r) {
        util::Stopwatch sw;
        const runtime::Status s = client.permute(plan_id, {a.data(), n}, {b.data(), n});
        result.latency_ns.record(static_cast<std::uint64_t>(sw.nanos()));
        if (!s.is_ok()) failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : workers) t.join();

  result.wall_s = wall.millis() / 1e3;
  result.requests = connections * requests_per_conn;
  result.failures = failures.load();
  const runtime::MetricsSnapshot after = service.metrics().snapshot();
  result.pool_misses = after.pool_misses - before.pool_misses;
  server.stop();
}

/// Sweep-level run: the fused five-pass kernel sequence against L
/// sequential single-lane sweeps — the batching lemma's amortization
/// (schedule arrays read once per quad of lanes instead of once per
/// request) with no serving machinery at all. Both modes run over the
/// SAME compiled plan and the same lane buffers, in alternating timed
/// windows, so allocation/alignment luck and machine noise hit both
/// sides equally; each side keeps its best window.
void run_sweep(const perm::Permutation& p, std::uint64_t n, std::uint64_t lanes,
               RunResult& sequential, RunResult& fused) {
  auto& pool = util::ThreadPool::global();
  runtime::PlanCache cache({}, nullptr);
  auto h = cache.acquire<std::uint32_t>(p, model::MachineParams::gtx680(),
                                        core::Strategy::kScheduled);
  std::vector<util::aligned_vector<std::uint32_t>> as(lanes), bs(lanes), ss(lanes);
  for (auto* group : {&as, &bs, &ss}) {
    for (auto& v : *group) v.resize(n);
  }
  for (std::uint64_t l = 0; l < lanes; ++l) {
    for (std::uint64_t i = 0; i < n; ++i) as[l][i] = static_cast<std::uint32_t>(i + l);
  }
  std::vector<core::BatchLane<std::uint32_t>> lane_views(lanes);
  for (std::uint64_t l = 0; l < lanes; ++l) {
    lane_views[l].a = {as[l].data(), n};
    lane_views[l].b = {bs[l].data(), n};
    lane_views[l].scratch = {ss[l].data(), n};
  }
  const auto sweep_sequential = [&] {
    for (std::uint64_t l = 0; l < lanes; ++l) {
      core::scheduled_cpu_lean<std::uint32_t>(pool, *h->plan(), {as[l].data(), n},
                                              {bs[l].data(), n}, {ss[l].data(), n});
    }
  };
  const auto sweep_fused = [&] {
    for (auto& lane : lane_views) lane.active = true;
    core::scheduled_cpu_sweep<std::uint32_t>(
        pool, *h->plan(), {lane_views.data(), lane_views.size()}, nullptr);
  };
  // One warm pass of each keeps first-touch page faults out of the
  // windows; the best of several short alternating windows filters
  // scheduler noise (a window is milliseconds, so any preemption
  // swamps it — the min is the unpreempted run).
  sweep_sequential();
  sweep_fused();
  const int reps = 25;
  const int windows = 6;
  double best_seq_s = 1e30;
  double best_fused_s = 1e30;
  for (int w = 0; w < windows; ++w) {
    util::Stopwatch seq_wall;
    for (int r = 0; r < reps; ++r) sweep_sequential();
    best_seq_s = std::min(best_seq_s, seq_wall.millis() / 1e3);
    util::Stopwatch fused_wall;
    for (int r = 0; r < reps; ++r) sweep_fused();
    best_fused_s = std::min(best_fused_s, fused_wall.millis() / 1e3);
  }
  sequential.wall_s = best_seq_s;
  sequential.requests = static_cast<std::uint64_t>(reps) * lanes;
  fused.wall_s = best_fused_s;
  fused.requests = sequential.requests;
  fused.batches = reps;
  fused.batched_requests = fused.requests;
  for (RunResult* result : {&sequential, &fused}) {
    const std::uint64_t per_request_ns = static_cast<std::uint64_t>(
        result->wall_s * 1e9 / static_cast<double>(result->requests));
    for (std::uint64_t i = 0; i < result->requests; ++i) {
      result->latency_ns.record(per_request_ns);
    }
  }
}

/// Program-fusion run: one depth-k chain of registered random plans,
/// applied to every request, served two ways over the same loopback
/// wire — one EXECUTE_PROGRAM round trip (the service fuses the chain
/// into a single composite plan) vs k sequential PERMUTE round trips,
/// each feeding the previous response back in (what a client without
/// the PROGRAM op chain is forced to do). A "request" in both rows is
/// one whole chain, so req/s compares like with like and the latency
/// histogram records chain completion time.
void run_program_compare(std::uint64_t n, std::uint64_t depth, std::uint64_t connections,
                         std::uint64_t requests_per_conn, RunResult& fused,
                         RunResult& sequential) {
  auto& pool = util::ThreadPool::global();
  runtime::RobustPermuteService service(pool, {});
  net::Server server(service, {});
  if (runtime::Status s = server.start(); !s.is_ok()) {
    std::cerr << "bench_serving_hotpath: " << s.to_string() << "\n";
    std::exit(1);
  }
  net::Client::Config client_config;
  client_config.port = server.port();

  std::vector<std::uint64_t> plan_ids(depth);
  std::vector<runtime::ProgramOp> ops(depth);
  {
    net::Client setup(client_config);
    util::Xoshiro256 rng(2026);
    for (std::uint64_t d = 0; d < depth; ++d) {
      runtime::StatusOr<std::uint64_t> id = setup.submit_plan(perm::random(n, rng));
      if (!id.ok()) {
        std::cerr << "bench_serving_hotpath: SUBMIT_PLAN failed: " << id.status().to_string()
                  << "\n";
        std::exit(1);
      }
      plan_ids[d] = id.value();
      ops[d] = {runtime::ProgramOpCode::kPermute, plan_ids[d]};
    }
    // Warmup compiles the composite once (and each stage plan for the
    // sequential side), so both measured windows run on a hot cache.
    std::vector<std::uint32_t> a(n), b(n);
    for (std::uint64_t i = 0; i < n; ++i) a[i] = static_cast<std::uint32_t>(i);
    for (int i = 0; i < 4; ++i) {
      (void)setup.execute_program({ops.data(), ops.size()}, {a.data(), n}, {b.data(), n});
      for (std::uint64_t d = 0; d < depth; ++d) {
        (void)setup.permute(plan_ids[d], {a.data(), n}, {b.data(), n});
      }
    }
  }

  const auto run_mode = [&](bool use_program, RunResult& result) {
    std::atomic<std::uint64_t> failures{0};
    util::Stopwatch wall;
    std::vector<std::thread> workers;
    workers.reserve(connections);
    for (std::uint64_t w = 0; w < connections; ++w) {
      workers.emplace_back([&, w] {
        net::Client client(client_config);
        std::vector<std::uint32_t> a(n), b(n);
        for (std::uint64_t i = 0; i < n; ++i) {
          a[i] = static_cast<std::uint32_t>(i + w * 1315423911u);
        }
        for (std::uint64_t r = 0; r < requests_per_conn; ++r) {
          util::Stopwatch sw;
          bool ok = true;
          if (use_program) {
            ok = client
                     .execute_program({ops.data(), ops.size()}, {a.data(), n}, {b.data(), n})
                     .is_ok();
          } else {
            // k round trips, each feeding the next: the response lands
            // in b, then becomes the next request's input.
            std::span<const std::uint32_t> src{a.data(), n};
            for (std::uint64_t d = 0; d < depth && ok; ++d) {
              ok = client.permute(plan_ids[d], src, {b.data(), n}).is_ok();
              src = {b.data(), n};
            }
          }
          result.latency_ns.record(static_cast<std::uint64_t>(sw.nanos()));
          if (!ok) failures.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& t : workers) t.join();
    result.wall_s = wall.millis() / 1e3;
    result.requests = connections * requests_per_conn;
    result.failures = failures.load();
  };

  run_mode(false, sequential);
  run_mode(true, fused);
  server.stop();
}

/// Distributed-vs-single comparison over the same plan and data: one
/// row drives plain PERMUTEs at a single shard, the others fan the same
/// request out as SHARD_EXEC row bands across S in-process shards (the
/// peer-to-peer column exchange included). On one machine over loopback
/// this measures the sharding *overhead* — the exchange's extra wire
/// hops — not a speedup; the row exists so the trajectory catches
/// regressions in the distributed path's constant factors.
void run_distributed_compare(std::uint64_t n, std::uint32_t shard_count,
                             std::uint64_t requests, RunResult& single, RunResult& dist) {
  auto& pool = util::ThreadPool::global();
  const perm::Permutation p = perm::by_name("random", n, 2026);
  const core::MatrixShape shape = core::shape_for(n, 32);

  std::vector<std::unique_ptr<runtime::RobustPermuteService>> services;
  std::vector<std::unique_ptr<net::Server>> servers;
  std::vector<net::ShardTarget> targets;
  std::uint64_t plan_id = 0;
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    services.push_back(std::make_unique<runtime::RobustPermuteService>(
        pool, runtime::RobustPermuteService::Config{}));
    servers.push_back(std::make_unique<net::Server>(*services.back(), net::Server::Config{}));
    if (runtime::Status st = servers.back()->start(); !st.is_ok()) {
      std::cerr << "bench_serving_hotpath: " << st.to_string() << "\n";
      std::exit(1);
    }
    net::Client::Config cc;
    cc.port = servers.back()->port();
    net::Client setup(cc);
    runtime::StatusOr<std::uint64_t> id = setup.submit_plan(p);
    if (!id.ok()) {
      std::cerr << "bench_serving_hotpath: SUBMIT_PLAN failed: " << id.status().to_string()
                << "\n";
      std::exit(1);
    }
    plan_id = id.value();
    targets.push_back(net::ShardTarget{"127.0.0.1", servers.back()->port(), s});
  }

  std::vector<std::uint32_t> a(n), b(n);
  for (std::uint64_t i = 0; i < n; ++i) a[i] = static_cast<std::uint32_t>(i * 2654435761u);

  // Single-node row against shard 0 (warmup compiles the plan there).
  {
    net::Client::Config cc;
    cc.port = servers[0]->port();
    net::Client client(cc);
    for (int i = 0; i < 2; ++i) (void)client.permute(plan_id, {a.data(), n}, {b.data(), n});
    util::Stopwatch wall;
    for (std::uint64_t r = 0; r < requests; ++r) {
      util::Stopwatch sw;
      if (!client.permute(plan_id, {a.data(), n}, {b.data(), n}).is_ok()) single.failures++;
      single.latency_ns.record(static_cast<std::uint64_t>(sw.nanos()));
    }
    single.wall_s = wall.millis() / 1e3;
    single.requests = requests;
  }

  // Distributed row: same data, fanned out as row bands.
  net::DistributedPermuter::Config config;
  config.max_payload_bytes = net::kDefaultMaxPayload;
  config.io_timeout = std::chrono::milliseconds(120'000);
  const std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(a.data()), n * sizeof(std::uint32_t));
  const auto fire = [&](std::uint64_t session) {
    return net::DistributedPermuter::execute(config, session, plan_id, 0, shape.rows,
                                             shape.cols, bytes, targets, [](std::size_t) {});
  };
  if (auto warm = fire(0xbe9c0000u); !warm.ok()) {
    std::cerr << "bench_serving_hotpath: distributed warmup failed: "
              << warm.status().to_string() << "\n";
    std::exit(1);
  }
  util::Stopwatch wall;
  for (std::uint64_t r = 0; r < requests; ++r) {
    util::Stopwatch sw;
    auto result = fire(0xbe9c1000u + r);
    dist.latency_ns.record(static_cast<std::uint64_t>(sw.nanos()));
    if (!result.ok()) dist.failures++;
  }
  dist.wall_s = wall.millis() / 1e3;
  dist.requests = requests;

  for (auto& server : servers) server->stop();
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  if (!cli.expect_flags({"n", "connections", "requests", "batch", "program-depth", "dist-n",
                         "dist-shards", "dist-requests", "json"},
                        std::cerr)) {
    return 2;
  }
  const std::uint64_t n = static_cast<std::uint64_t>(cli.get_int("n", 8 << 10));
  const std::uint64_t connections = static_cast<std::uint64_t>(cli.get_int("connections", 8));
  const std::uint64_t requests = static_cast<std::uint64_t>(cli.get_int("requests", 200));
  const auto batch_max = static_cast<std::uint32_t>(cli.get_int("batch", 8));
  const auto program_depth = static_cast<std::uint64_t>(cli.get_int("program-depth", 4));
  const std::uint64_t dist_n = static_cast<std::uint64_t>(cli.get_int("dist-n", 1 << 20));
  const auto dist_shards = static_cast<std::uint32_t>(cli.get_int("dist-shards", 4));
  const std::uint64_t dist_requests =
      static_cast<std::uint64_t>(cli.get_int("dist-requests", 12));
  const bool json = cli.get_bool("json");
  if (program_depth < 1 || program_depth > runtime::kMaxProgramOps) {
    std::cerr << "bench_serving_hotpath: --program-depth must be in [1, "
              << runtime::kMaxProgramOps << "]\n";
    return 2;
  }

  if (!util::is_pow2(n) || n < 64) {
    std::cerr << "bench_serving_hotpath: --n must be a power of two >= 64\n";
    return 2;
  }

  bench::print_header("Serving hot path: pooled buffers + fused sweeps",
                      "loopback HMMP, client-observed");
  net::ignore_sigpipe();

  const perm::Permutation p = perm::by_name("bit-reversal", n, 42);

  util::Table table({"mode", "conns", "reqs", "req/s", "p50 ms", "p99 ms", "miss/req",
                     "batches", "mean batch"});
  const auto add = [&](const char* mode, const RunResult& r,
                       std::uint64_t conns = 0) {
    if (conns == 0) conns = connections;
    const double rps = static_cast<double>(r.requests) / r.wall_s;
    const double mean_batch =
        r.batches == 0 ? 1.0
                       : static_cast<double>(r.batched_requests) / static_cast<double>(r.batches);
    table.add_row({mode, util::format_count(conns), util::format_count(r.requests),
                   util::format_double(rps, 1),
                   util::format_ms(static_cast<double>(r.latency_ns.quantile(0.5)) / 1e6),
                   util::format_ms(static_cast<double>(r.latency_ns.quantile(0.99)) / 1e6),
                   util::format_double(static_cast<double>(r.pool_misses) /
                                           static_cast<double>(r.requests),
                                       3),
                   util::format_count(r.batches), util::format_double(mean_batch, 2)});
    if (r.failures != 0) {
      std::cerr << "bench_serving_hotpath: " << r.failures << " request(s) failed in '" << mode
                << "'\n";
      std::exit(1);
    }
    return rps;
  };

  RunResult wire, sweep_unbatched, sweep_batched;
  const std::uint64_t sweep_lanes = std::max<std::uint64_t>(4, batch_max);
  run_sweep(p, n, sweep_lanes, sweep_unbatched, sweep_batched);
  const double sweep_unbatched_rps = add("sweep-unbatched", sweep_unbatched);
  const double sweep_batched_rps = add("sweep-batched", sweep_batched);

  // Per-kernel-tier sweep rows: the same plan and lanes, forced through
  // each selectable variant. The scalar rows are the oracle baseline the
  // SIMD tiers are measured against; tiers this CPU cannot run are
  // skipped (set_kernel_variant clamps the request downward).
  double scalar_fused_rps = 0, best_simd_fused_rps = 0;
  {
    const cpu::KernelVariant prev = cpu::kernel_variant();
    for (const cpu::KernelVariant v : {cpu::KernelVariant::kScalar, cpu::KernelVariant::kAvx2,
                                       cpu::KernelVariant::kAvx512}) {
      if (cpu::set_kernel_variant(v) != v) continue;
      RunResult seq, fused;
      run_sweep(p, n, sweep_lanes, seq, fused);
      const std::string name(cpu::to_string(v));
      const double seq_rps = add(("sweep-seq-" + name).c_str(), seq);
      const double fused_rps = add(("sweep-fused-" + name).c_str(), fused);
      (void)seq_rps;
      if (v == cpu::KernelVariant::kScalar) {
        scalar_fused_rps = fused_rps;
      } else {
        best_simd_fused_rps = std::max(best_simd_fused_rps, fused_rps);
      }
    }
    (void)cpu::set_kernel_variant(prev);
  }

  run_once(p, n, connections, requests, wire);
  add("wire", wire);

  // Reactor-specific rows: a 4x-wide concurrent window and the base
  // workload with 1'000 idle connections parked on the same server.
  const std::uint64_t wide_conns = connections * 4;
  RunResult epoll_wide, epoll_idle;
  run_once(p, n, wide_conns, requests, epoll_wide);
  const std::string wide_label = "srv-epoll-c" + std::to_string(wide_conns);
  add(wide_label.c_str(), epoll_wide, wide_conns);
  const bool idle_row = raise_fd_limit(4096);
  if (idle_row) {
    run_once(p, n, connections, requests, epoll_idle, 1'000);
    add("srv-epoll-idle1k", epoll_idle);
  } else {
    std::cerr << "bench_serving_hotpath: RLIMIT_NOFILE too low for the "
                 "srv-epoll-idle1k row; skipping it\n";
  }

  RunResult program_fused, program_sequential;
  run_program_compare(n, program_depth, connections, requests, program_fused,
                      program_sequential);
  const std::string seq_label = "chain-" + std::to_string(program_depth) + "x-roundtrip";
  const double program_seq_rps = add(seq_label.c_str(), program_sequential);
  const double program_fused_rps = add("chain-program-fused", program_fused);

  RunResult dist_single, dist_sharded;
  run_distributed_compare(dist_n, dist_shards, dist_requests, dist_single, dist_sharded);
  const double dist_single_rps = add("dist-single", dist_single);
  const std::string dist_label = "dist-" + std::to_string(dist_shards) + "shard";
  const double dist_sharded_rps = add(dist_label.c_str(), dist_sharded);

  table.print(std::cout);
  std::cout << "\nfused-sweep speedup: "
            << util::format_double(sweep_batched_rps / sweep_unbatched_rps, 2)
            << "x at batch " << sweep_lanes;
  if (scalar_fused_rps > 0 && best_simd_fused_rps > 0) {
    std::cout << "    simd/scalar fused sweep: "
              << util::format_double(best_simd_fused_rps / scalar_fused_rps, 2)
              << "x (best tier vs scalar oracle)";
  }
  std::cout << "    program fusion speedup: "
            << util::format_double(program_fused_rps / program_seq_rps, 2) << "x at depth "
            << program_depth
            << "\n'sweep' rows compare the fused five-pass kernel sequence against\n"
               "the same lanes swept sequentially — the schedule-read amortization\n"
               "of the paper's batching lemma. The 'wire' row carries the full\n"
               "per-request framing, checksum, and syscall cost (which dominates\n"
               "loopback on few-core hosts). 'miss/req' ~ 0 means the buffer pool\n"
               "absorbs every per-request allocation; 'mean batch' is lanes per\n"
               "fused sweep. The 'chain' rows serve one depth-k\n"
               "permutation chain per request: k PERMUTE round trips (each feeding\n"
               "the next) vs one EXECUTE_PROGRAM the service fuses into a single\n"
               "composite plan — k kernel sweeps, k wire copies, and k-1 round\n"
               "trips collapse into one of each. 'sweep-seq/fused-<variant>' rows\n"
               "force one kernel tier (HMM_KERNEL_VARIANT equivalent) per pair;\n"
               "tiers the CPU cannot run are absent, not zero.\n"
            << "distributed " << dist_shards << "-shard/single: "
            << util::format_double(dist_sharded_rps / dist_single_rps, 2) << "x at n="
            << util::format_count(dist_n)
            << " — 'dist' rows run the same request single-node vs sharded into row\n"
               "bands with the peer-to-peer column exchange; on one loopback host\n"
               "this prices the exchange overhead (the win is capacity: each shard\n"
               "holds and permutes only its band).\n"
               "'srv-epoll-*' rows are reactor-specific: the cNN row widens the\n"
               "concurrent window, the idle1k row parks 1'000 idle connections\n"
               "alongside the wire workload — both were impossible under\n"
               "thread-per-connection.\n";
  if (json) {
    std::cout << "\n";
    table.print_json_rows(std::cout, "\"bench\":\"serving_hotpath\"");
  }
  return 0;
}
