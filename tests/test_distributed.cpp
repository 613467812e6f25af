/// Tests for the distributed permutation subsystem: band geometry
/// (`runtime::BandPlan`), schedule slicing (`runtime::BandPlanner`),
/// the extract/scatter block transposes, the SHARD_EXEC / SHARD_XCHG
/// wire codecs, and the full networked path — `net::DistributedPermuter`
/// fanning row bands out to real in-process `net::Server` shards that
/// exchange column blocks peer-to-peer, and the router's
/// `--distributed-max-bytes` path on top of it.
///
/// Ground truth everywhere is `perm::Permutation::apply` (the serial
/// oracle): a distributed result must be bit-identical to single-node,
/// for uint32 data and for float/double carried as 32-bit words.
/// Failure discipline is tested too: a shard that is dead at fan-out
/// fails the whole request typed (kUnavailable) and every surviving
/// shard releases its pooled staging (verified via pool-stats deltas).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/layout.hpp"
#include "core/permuter.hpp"
#include "cpu/kernels.hpp"
#include "net/client.hpp"
#include "net/distributed.hpp"
#include "net/protocol.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "perm/generators.hpp"
#include "perm/permutation.hpp"
#include "runtime/distributed.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/service.hpp"
#include "runtime/status.hpp"
#include "util/buffer_pool.hpp"
#include "util/thread_pool.hpp"

namespace hmm {
namespace {

using namespace std::chrono_literals;
using model::MachineParams;
using runtime::BandPlan;
using runtime::BandPlanner;
using runtime::Status;
using runtime::StatusCode;

// ------------------------------------------------------------- geometry

TEST(BandPlan, EvenSplitCoversEverythingOnce) {
  auto plan = BandPlan::build(64, 128, 4);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  const BandPlan& bp = plan.value();
  EXPECT_EQ(bp.rows(), 64u);
  EXPECT_EQ(bp.cols(), 128u);
  EXPECT_EQ(bp.shards(), 4u);

  // Row bands tile [0, rows) contiguously; col bands tile [0, cols).
  std::uint64_t next_row = 0, next_col = 0, total = 0;
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(bp.row_band(s).begin, next_row);
    EXPECT_EQ(bp.col_band(s).begin, next_col);
    EXPECT_GE(bp.row_band(s).rows(), 1u);
    EXPECT_GE(bp.col_band(s).rows(), 1u);
    next_row = bp.row_band(s).end;
    next_col = bp.col_band(s).end;
    EXPECT_EQ(bp.band_offset(s), total);
    total += bp.band_elements(s);
  }
  EXPECT_EQ(next_row, 64u);
  EXPECT_EQ(next_col, 128u);
  EXPECT_EQ(total, 64u * 128u);
}

TEST(BandPlan, UnevenSplitBalancesWithinOneRow) {
  auto plan = BandPlan::build(64, 64, 5);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  const BandPlan& bp = plan.value();
  std::uint64_t min_rows = ~0ull, max_rows = 0;
  std::uint64_t covered = 0;
  for (std::uint32_t s = 0; s < 5; ++s) {
    const std::uint64_t r = bp.row_band(s).rows();
    min_rows = std::min(min_rows, r);
    max_rows = std::max(max_rows, r);
    covered += r;
  }
  EXPECT_EQ(covered, 64u);
  EXPECT_LE(max_rows - min_rows, 1u);
}

TEST(BandPlan, ExchangeScheduleMovesEveryBlockExactlyOnce) {
  auto plan = BandPlan::build(32, 64, 3);
  ASSERT_TRUE(plan.ok());
  const BandPlan& bp = plan.value();
  for (std::uint32_t round : {1u, 2u}) {
    const auto sched = bp.exchange(round);
    ASSERT_EQ(sched.size(), 9u) << "round " << round;
    std::uint64_t moved = 0;
    std::vector<bool> seen(9, false);
    for (const runtime::BlockTransfer& t : sched) {
      const std::size_t key = t.src * 3 + t.dst;
      EXPECT_FALSE(seen[key]) << "duplicate (src,dst) in round " << round;
      seen[key] = true;
      moved += t.elements();
      EXPECT_EQ(&bp.block(round, t.src, t.dst), &t);
    }
    // Every element of the matrix crosses the exchange exactly once.
    EXPECT_EQ(moved, 32u * 64u) << "round " << round;
  }
}

TEST(BandPlan, RejectsInfeasibleSplits) {
  EXPECT_FALSE(BandPlan::build(64, 64, 0).ok());
  EXPECT_FALSE(BandPlan::build(64, 64, 65).ok());  // > kMaxShards
  EXPECT_FALSE(BandPlan::build(4, 64, 8).ok());    // shards > rows
  EXPECT_TRUE(BandPlan::build(4, 64, 4).ok());
}

// ------------------------------------------------- extract/scatter blocks

/// Running a full round's extract+scatter over all (src, dst) pairs
/// must realize exactly a matrix transpose across band boundaries.
TEST(BandBlocks, Round1RealizesTheTranspose) {
  const std::uint64_t rows = 32, cols = 64;
  auto plan = BandPlan::build(rows, cols, 3);
  ASSERT_TRUE(plan.ok());
  const BandPlan& bp = plan.value();

  std::vector<std::uint32_t> y(rows * cols);
  for (std::uint64_t i = 0; i < y.size(); ++i) y[i] = static_cast<std::uint32_t>(i * 2654435761u);
  std::vector<std::uint32_t> z(rows * cols, 0);

  std::vector<std::uint32_t> block;
  for (std::uint32_t src = 0; src < 3; ++src) {
    const std::span<const std::uint32_t> y_band(y.data() + bp.band_offset(src),
                                                bp.band_elements(src));
    for (std::uint32_t dst = 0; dst < 3; ++dst) {
      block.assign(bp.block(1, src, dst).elements(), 0);
      runtime::extract_block_round1(bp, src, dst, y_band, block);
      const std::span<std::uint32_t> z_band(z.data() + bp.col_band(dst).begin * rows,
                                            bp.transposed_elements(dst));
      runtime::scatter_block_round1(bp, src, dst, block, z_band);
    }
  }
  // z, read as the cols x rows matrix, is y transposed.
  for (std::uint64_t r = 0; r < rows; ++r) {
    for (std::uint64_t c = 0; c < cols; ++c) {
      ASSERT_EQ(z[c * rows + r], y[r * cols + c]) << "(" << r << "," << c << ")";
    }
  }
}

TEST(BandBlocks, Round2RealizesTheInverseTranspose) {
  const std::uint64_t rows = 32, cols = 64;
  auto plan = BandPlan::build(rows, cols, 4);
  ASSERT_TRUE(plan.ok());
  const BandPlan& bp = plan.value();

  // w is the cols x rows view (pass-2 output); round 2 must put
  // w[c][r] at x[r][c].
  std::vector<std::uint32_t> w(rows * cols);
  for (std::uint64_t i = 0; i < w.size(); ++i) w[i] = static_cast<std::uint32_t>(i ^ 0x5bd1e995u);
  std::vector<std::uint32_t> x(rows * cols, 0);

  std::vector<std::uint32_t> block;
  for (std::uint32_t src = 0; src < 4; ++src) {
    const std::span<const std::uint32_t> w_band(w.data() + bp.col_band(src).begin * rows,
                                                bp.transposed_elements(src));
    for (std::uint32_t dst = 0; dst < 4; ++dst) {
      block.assign(bp.block(2, src, dst).elements(), 0);
      runtime::extract_block_round2(bp, src, dst, w_band, block);
      const std::span<std::uint32_t> x_band(x.data() + bp.band_offset(dst),
                                            bp.band_elements(dst));
      runtime::scatter_block_round2(bp, src, dst, block, x_band);
    }
  }
  for (std::uint64_t c = 0; c < cols; ++c) {
    for (std::uint64_t r = 0; r < rows; ++r) {
      ASSERT_EQ(x[r * cols + c], w[c * rows + r]) << "(" << c << "," << r << ")";
    }
  }
}

// -------------------------------------------------- planner band slices

TEST(BandPlanner, SlicesAreSubspansOfTheFullSchedules) {
  const std::uint64_t n = 1 << 12;
  runtime::PlanCache cache{runtime::PlanCache::Config{}, nullptr};
  auto h = cache.acquire<std::uint32_t>(perm::by_name("random", n, 5), MachineParams::gtx680(),
                                        core::Strategy::kScheduled);
  const core::ScheduledPlan* plan = h->plan();
  ASSERT_NE(plan, nullptr);

  auto built = BandPlanner::build(*plan, 3);
  ASSERT_TRUE(built.ok()) << built.status().to_string();
  const BandPlanner& planner = built.value();

  for (std::uint32_t s = 0; s < 3; ++s) {
    const runtime::BandPassView p1 = planner.pass1(s);
    const runtime::BandRange& rb = planner.bands().row_band(s);
    EXPECT_EQ(p1.rows, rb.rows());
    EXPECT_EQ(p1.cols, plan->pass1().cols);
    // Zero-copy: the view points into the full set's storage at the
    // band's rows — bit-identical to what a single node would run.
    EXPECT_EQ(p1.phat.data(), plan->pass1().phat.data() + rb.begin * plan->pass1().cols);
    EXPECT_EQ(p1.q.data(), plan->pass1().q.data() + rb.begin * plan->pass1().cols);

    const runtime::BandPassView p2 = planner.pass2(s);
    const runtime::BandRange& cb = planner.bands().col_band(s);
    EXPECT_EQ(p2.rows, cb.rows());
    EXPECT_EQ(p2.phat.data(), plan->pass2().phat.data() + cb.begin * plan->pass2().cols);

    const runtime::BandPassView p3 = planner.pass3(s);
    EXPECT_EQ(p3.rows, rb.rows());
    EXPECT_EQ(p3.phat.data(), plan->pass3().phat.data() + rb.begin * plan->pass3().cols);
  }
}

/// The whole distributed dataflow — band-local pass 1, block exchange,
/// band-local pass 2 on the transposed view, block exchange back,
/// band-local pass 3 — run in-process, must equal the serial oracle.
/// This pins the index math independently of any networking.
TEST(BandPlanner, LocalSimulationMatchesOracle) {
  const std::uint64_t n = 1 << 12;
  const perm::Permutation p = perm::by_name("random", n, 17);
  runtime::PlanCache cache{runtime::PlanCache::Config{}, nullptr};
  auto h = cache.acquire<std::uint32_t>(p, MachineParams::gtx680(), core::Strategy::kScheduled);
  const core::ScheduledPlan* plan = h->plan();
  ASSERT_NE(plan, nullptr);
  const std::uint64_t rows = plan->shape().rows, cols = plan->shape().cols;
  util::ThreadPool& pool = util::ThreadPool::global();

  for (std::uint32_t shards : {2u, 3u, 4u, 7u}) {
    auto built = BandPlanner::build(*plan, shards);
    ASSERT_TRUE(built.ok()) << built.status().to_string();
    const BandPlanner& planner = built.value();
    const BandPlan& bp = planner.bands();

    std::vector<std::uint32_t> in(n), y(n), z(n), w(n), x(n), out(n);
    for (std::uint64_t i = 0; i < n; ++i) in[i] = static_cast<std::uint32_t>(i * 0x9e3779b9u);

    std::vector<std::uint32_t> block;
    for (std::uint32_t s = 0; s < shards; ++s) {
      const runtime::BandPassView p1 = planner.pass1(s);
      cpu::row_wise_pass<std::uint32_t>(
          pool, {in.data() + bp.band_offset(s), bp.band_elements(s)},
          {y.data() + bp.band_offset(s), bp.band_elements(s)}, p1.rows, p1.cols, p1.phat, p1.q);
    }
    for (std::uint32_t src = 0; src < shards; ++src) {
      for (std::uint32_t dst = 0; dst < shards; ++dst) {
        block.assign(bp.block(1, src, dst).elements(), 0);
        runtime::extract_block_round1(bp, src, dst,
                                      {y.data() + bp.band_offset(src), bp.band_elements(src)},
                                      block);
        runtime::scatter_block_round1(
            bp, src, dst, block,
            {z.data() + bp.col_band(dst).begin * rows, bp.transposed_elements(dst)});
      }
    }
    for (std::uint32_t s = 0; s < shards; ++s) {
      const runtime::BandPassView p2 = planner.pass2(s);
      cpu::row_wise_pass<std::uint32_t>(
          pool, {z.data() + bp.col_band(s).begin * rows, bp.transposed_elements(s)},
          {w.data() + bp.col_band(s).begin * rows, bp.transposed_elements(s)}, p2.rows, p2.cols,
          p2.phat, p2.q);
    }
    for (std::uint32_t src = 0; src < shards; ++src) {
      for (std::uint32_t dst = 0; dst < shards; ++dst) {
        block.assign(bp.block(2, src, dst).elements(), 0);
        runtime::extract_block_round2(
            bp, src, dst, {w.data() + bp.col_band(src).begin * rows, bp.transposed_elements(src)},
            block);
        runtime::scatter_block_round2(bp, src, dst, block,
                                      {x.data() + bp.band_offset(dst), bp.band_elements(dst)});
      }
    }
    for (std::uint32_t s = 0; s < shards; ++s) {
      const runtime::BandPassView p3 = planner.pass3(s);
      cpu::row_wise_pass<std::uint32_t>(
          pool, {x.data() + bp.band_offset(s), bp.band_elements(s)},
          {out.data() + bp.band_offset(s), bp.band_elements(s)}, p3.rows, p3.cols, p3.phat,
          p3.q);
    }

    std::vector<std::uint32_t> expect(n);
    p.apply<std::uint32_t>({in.data(), n}, {expect.data(), n});
    EXPECT_EQ(out, expect) << "shards=" << shards << " rows=" << rows << " cols=" << cols;
  }
}

// --------------------------------------------------------------- codecs

net::ShardExecRequest sample_exec() {
  net::ShardExecRequest req;
  req.session_id = 0x1122334455667788ull;
  req.plan_id = 0xdeadbeefcafef00dull;
  req.deadline_ms = 1500;
  req.shard_index = 1;
  req.rows = 64;
  req.cols = 128;
  req.peers = {{"127.0.0.1", 7001}, {"10.0.0.2", 7002}, {"shard-3.local", 7003}};
  req.band.resize(256);
  for (std::size_t i = 0; i < req.band.size(); ++i) {
    req.band[i] = static_cast<std::uint32_t>(i * 977u);
  }
  return req;
}

TEST(ShardCodec, ExecRoundTrips) {
  const net::ShardExecRequest req = sample_exec();
  const std::vector<std::uint8_t> bytes = req.encode();

  auto view = net::ShardExecRequestView::decode(bytes, 1 << 20);
  ASSERT_TRUE(view.ok()) << view.status().to_string();
  EXPECT_EQ(view.value().session_id, req.session_id);
  EXPECT_EQ(view.value().plan_id, req.plan_id);
  EXPECT_EQ(view.value().deadline_ms, req.deadline_ms);
  EXPECT_EQ(view.value().shard_index, req.shard_index);
  EXPECT_EQ(view.value().rows, req.rows);
  EXPECT_EQ(view.value().cols, req.cols);
  EXPECT_EQ(view.value().shard_count(), 3u);
  ASSERT_EQ(view.value().peers.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(view.value().peers[i].host, req.peers[i].host);
    EXPECT_EQ(view.value().peers[i].port, req.peers[i].port);
  }
  ASSERT_EQ(view.value().band.count, req.band.size());
  // The band lands on an 8-byte payload offset by construction, so the
  // borrowing decode can read it in place on little-endian hosts.
  std::vector<std::uint32_t> copied(view.value().band.count);
  view.value().band.copy_to(copied);
  EXPECT_EQ(copied, req.band);
}

TEST(ShardCodec, ExecRejectsHostileInputs) {
  const net::ShardExecRequest req = sample_exec();
  const std::vector<std::uint8_t> good = req.encode();
  ASSERT_TRUE(net::ShardExecRequestView::decode(good, 1 << 20).ok());

  const auto expect_reject = [&](std::vector<std::uint8_t> bytes, const char* what) {
    auto v = net::ShardExecRequestView::decode(bytes, 1 << 20);
    EXPECT_FALSE(v.ok()) << what;
    if (!v.ok()) {
      EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument) << what;
    }
  };

  // Truncations at every structural boundary.
  expect_reject({}, "empty");
  expect_reject({good.begin(), good.begin() + 20}, "truncated header");
  expect_reject({good.begin(), good.begin() + 60}, "truncated peer table");
  expect_reject({good.begin(), good.end() - 4}, "truncated band");

  // Field tampering (offsets fixed by the v1 layout).
  auto tamper = [&](std::size_t offset, std::uint8_t value, const char* what) {
    std::vector<std::uint8_t> bad = good;
    bad[offset] = value;
    expect_reject(std::move(bad), what);
  };
  tamper(0, 99, "wrong version");
  tamper(4, 2, "wrong element width");
  tamper(32, 0, "zero shard count");
  tamper(32, 65, "shard count over wire cap");
  tamper(28, 7, "shard index >= count");
  tamper(36, 1, "nonzero reserved");
  tamper(40, 0, "zero rows");

  // Element-count cap: the same frame must be refused when the reader's
  // budget is below the band size.
  auto capped = net::ShardExecRequestView::decode(good, req.band.size() - 1);
  EXPECT_FALSE(capped.ok());

  // Band bytes must match the declared count exactly — no trailing junk.
  std::vector<std::uint8_t> oversized = good;
  oversized.insert(oversized.end(), {0, 0, 0, 0});
  EXPECT_FALSE(net::ShardExecRequestView::decode(oversized, 1 << 20).ok());
}

TEST(ShardCodec, XchgRoundTripsAndRejectsHostileInputs) {
  net::ShardXchgRequest req;
  req.session_id = 0xfeedface12345678ull;
  req.round = 2;
  req.src_shard = 5;
  req.block = {1u, 2u, 3u, 0xffffffffu};
  const std::vector<std::uint8_t> good = req.encode();

  auto view = net::ShardXchgRequestView::decode(good, 1 << 20);
  ASSERT_TRUE(view.ok()) << view.status().to_string();
  EXPECT_EQ(view.value().session_id, req.session_id);
  EXPECT_EQ(view.value().round, 2u);
  EXPECT_EQ(view.value().src_shard, 5u);
  ASSERT_EQ(view.value().block.count, 4u);
  std::vector<std::uint32_t> copied(4);
  view.value().block.copy_to(copied);
  EXPECT_EQ(copied, req.block);

  EXPECT_FALSE(
      net::ShardXchgRequestView::decode({good.begin(), good.begin() + 10}, 1 << 20).ok());
  EXPECT_FALSE(net::ShardXchgRequestView::decode({good.begin(), good.end() - 2}, 1 << 20).ok());
  std::vector<std::uint8_t> bad_round = good;
  bad_round[8] = 3;  // round must be 1 or 2
  EXPECT_FALSE(net::ShardXchgRequestView::decode(bad_round, 1 << 20).ok());
  EXPECT_FALSE(net::ShardXchgRequestView::decode(good, 3).ok()) << "block over element cap";
}

// --------------------------------------------------- networked fixtures

/// One in-process permd shard (real Server over a real service).
struct Shard {
  std::unique_ptr<runtime::RobustPermuteService> service;
  std::unique_ptr<net::Server> server;
  std::uint16_t port = 0;

  void start(std::chrono::milliseconds exchange_timeout = 5'000ms,
             std::uint32_t max_payload = net::kDefaultMaxPayload,
             std::chrono::milliseconds poll_interval = 10ms) {
    service = std::make_unique<runtime::RobustPermuteService>(
        util::ThreadPool::global(), runtime::RobustPermuteService::Config{});
    net::Server::Config config;
    config.poll_interval = poll_interval;
    config.shard_exchange_timeout = exchange_timeout;
    config.max_payload_bytes = max_payload;
    server = std::make_unique<net::Server>(*service, config);
    const Status started = server->start();
    ASSERT_TRUE(started.is_ok()) << started.to_string();
    port = server->port();
  }

  void stop() {
    if (server) server->stop();
  }

  /// Register `p` directly with this shard; returns the wire plan id.
  std::uint64_t submit(const perm::Permutation& p) {
    net::Client::Config c;
    c.host = "127.0.0.1";
    c.port = port;
    net::Client client(c);
    auto id = client.submit_plan(p);
    EXPECT_TRUE(id.ok()) << id.status().to_string();
    return id.ok() ? id.value() : 0;
  }
};

bool eventually(const std::function<bool()>& pred, std::chrono::milliseconds budget = 5'000ms) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(10ms);
  }
  return pred();
}

/// Run one distributed execution through DistributedPermuter against
/// `shards.size()` live servers and return the concatenated output.
runtime::StatusOr<std::vector<std::uint32_t>> run_distributed(
    std::vector<Shard*> shards, const perm::Permutation& p,
    std::span<const std::uint32_t> data, std::vector<std::size_t>* transport_failures = nullptr,
    std::uint32_t max_payload = net::kDefaultMaxPayload,
    std::chrono::milliseconds io_timeout = 60'000ms) {
  const core::MatrixShape shape = core::shape_for(p.size(), 32);
  std::uint64_t plan_id = 0;
  for (Shard* s : shards) {
    if (s->server) plan_id = s->submit(p);
  }

  std::vector<net::ShardTarget> targets;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    targets.push_back(net::ShardTarget{"127.0.0.1", shards[i]->port, i});
  }

  net::DistributedPermuter::Config config;
  config.max_payload_bytes = max_payload;
  config.connect_timeout = 1'000ms;
  config.io_timeout = io_timeout;
  auto result = net::DistributedPermuter::execute(
      config, /*session_id=*/0x5e55'1011u + p.size(), plan_id, /*deadline_ms=*/0, shape.rows,
      shape.cols,
      std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(data.data()),
                                    data.size_bytes()),
      targets, [&](std::size_t idx) {
        if (transport_failures) transport_failures->push_back(idx);
      });
  if (!result.ok()) return result.status();

  std::vector<std::uint32_t> out;
  out.reserve(data.size());
  for (const net::DistributedPermuter::Band& band : result.value().bands) {
    const std::size_t begin = out.size();
    out.resize(begin + band.elements);
    std::memcpy(out.data() + begin, band.bytes.data(), band.bytes.size());
  }
  return out;
}

// ------------------------------------------------------- end-to-end wire

TEST(DistributedWire, TwoAndFourShardsMatchOracleUint32) {
  const std::uint64_t n = 1 << 14;
  const perm::Permutation p = perm::by_name("random", n, 23);
  std::vector<std::uint32_t> in(n), expect(n);
  for (std::uint64_t i = 0; i < n; ++i) in[i] = static_cast<std::uint32_t>(i * 0x85ebca6bu);
  p.apply<std::uint32_t>({in.data(), n}, {expect.data(), n});

  for (std::size_t count : {2u, 4u}) {
    std::vector<std::unique_ptr<Shard>> shards;
    std::vector<Shard*> ptrs;
    for (std::size_t i = 0; i < count; ++i) {
      shards.push_back(std::make_unique<Shard>());
      shards.back()->start();
      ptrs.push_back(shards.back().get());
    }
    auto out = run_distributed(ptrs, p, {in.data(), n});
    ASSERT_TRUE(out.ok()) << count << " shards: " << out.status().to_string();
    EXPECT_EQ(out.value(), expect) << count << " shards";
    for (auto& s : shards) {
      EXPECT_EQ(s->server->counters().shard_execs, 1u);
      EXPECT_EQ(s->server->counters().shard_aborts, 0u);
      // Every shard accepted one wire block per *other* peer per round
      // (its own block short-circuits locally, never hitting the wire).
      EXPECT_EQ(s->server->counters().shard_blocks, 2 * (count - 1));
      s->stop();
    }
  }
}

TEST(ReactorWakeup, ShardedRequestsDoNotWaitOutThePollInterval) {
  // Every band's completion and peer block reaches a reactor through
  // its inbox + eventfd doorbell. A post that lands between the
  // reactor's inbox drain and its read of the doorbell must still be
  // taken at once, not after the next epoll timeout. At the default
  // 50 ms poll_interval a lost wakeup stalled 6-9 of 20 sharded 8K
  // requests by ~50 ms; a 2 s interval makes the stall stand far
  // clear of a loaded or sanitized build's ordinary latency (~340 ms
  // p90 under ThreadSanitizer).
  const std::uint64_t n = 1 << 13;
  constexpr auto kPoll = 2'000ms;
  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<Shard*> ptrs;
  for (int i = 0; i < 4; ++i) {
    shards.push_back(std::make_unique<Shard>());
    shards.back()->start(5'000ms, net::kDefaultMaxPayload, kPoll);
    ptrs.push_back(shards.back().get());
  }
  const perm::Permutation p = perm::by_name("random", n, 41);
  std::vector<std::uint32_t> in(n), expect(n);
  for (std::uint64_t i = 0; i < n; ++i) in[i] = static_cast<std::uint32_t>(i * 0x9e3779b1u);
  p.apply<std::uint32_t>({in.data(), n}, {expect.data(), n});

  ASSERT_TRUE(run_distributed(ptrs, p, {in.data(), n}).ok());  // warm: plans compiled
  std::vector<double> ms;
  for (int r = 0; r < 20; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    auto out = run_distributed(ptrs, p, {in.data(), n});
    ms.push_back(std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
                     .count());
    ASSERT_TRUE(out.ok()) << out.status().to_string();
    ASSERT_EQ(out.value(), expect);
  }
  // The stall hits a share of the requests, so the 90th percentile
  // must stay clear of it too, not just the median.
  std::sort(ms.begin(), ms.end());
  EXPECT_LT(ms[ms.size() / 2], 1'000.0) << "median of 20 sharded 8K requests (ms)";
  EXPECT_LT(ms[ms.size() * 9 / 10 - 1], 1'000.0) << "90th percentile of the same (ms)";
  for (auto& s : shards) s->stop();
}

TEST(DistributedWire, FloatAndDoubleRideAsWordsBitIdentical) {
  // float: one word per element — the word permutation IS the element
  // permutation, so the wire path is exercised with float payload bits.
  {
    const std::uint64_t n = 1 << 12;
    const perm::Permutation p = perm::by_name("shuffle", n, 7);
    std::vector<float> a(n);
    for (std::uint64_t i = 0; i < n; ++i) a[i] = 0.5f + static_cast<float>(i) * 1.25f;
    std::vector<float> expect(n);
    p.apply<float>({a.data(), n}, {expect.data(), n});

    std::vector<std::uint32_t> words(n);
    std::memcpy(words.data(), a.data(), n * sizeof(float));

    std::vector<std::unique_ptr<Shard>> shards;
    std::vector<Shard*> ptrs;
    for (int i = 0; i < 3; ++i) {
      shards.push_back(std::make_unique<Shard>());
      shards.back()->start();
      ptrs.push_back(shards.back().get());
    }
    auto out = run_distributed(ptrs, p, {words.data(), n});
    ASSERT_TRUE(out.ok()) << out.status().to_string();
    EXPECT_EQ(std::memcmp(out.value().data(), expect.data(), n * sizeof(float)), 0);
    for (auto& s : shards) s->stop();
  }
  // double: two words per element. The word-level permutation
  // P_w(2i + j) = 2 P(i) + j over 2n words moves each double's word
  // pair together, so permuting the word view equals permuting doubles.
  {
    const std::uint64_t n = 1 << 12;
    const perm::Permutation p = perm::by_name("random", n, 9);
    util::aligned_vector<std::uint32_t> word_map(2 * n);
    for (std::uint64_t i = 0; i < n; ++i) {
      word_map[2 * i] = 2 * p(i);
      word_map[2 * i + 1] = 2 * p(i) + 1;
    }
    const perm::Permutation pw(std::move(word_map));

    std::vector<double> a(n);
    for (std::uint64_t i = 0; i < n; ++i) a[i] = 1.0 / (1.0 + static_cast<double>(i));
    std::vector<double> expect(n);
    p.apply<double>({a.data(), n}, {expect.data(), n});

    std::vector<std::uint32_t> words(2 * n);
    std::memcpy(words.data(), a.data(), n * sizeof(double));

    std::vector<std::unique_ptr<Shard>> shards;
    std::vector<Shard*> ptrs;
    for (int i = 0; i < 4; ++i) {
      shards.push_back(std::make_unique<Shard>());
      shards.back()->start();
      ptrs.push_back(shards.back().get());
    }
    auto out = run_distributed(ptrs, pw, {words.data(), 2 * n});
    ASSERT_TRUE(out.ok()) << out.status().to_string();
    EXPECT_EQ(std::memcmp(out.value().data(), expect.data(), n * sizeof(double)), 0);
    for (auto& s : shards) s->stop();
  }
}

TEST(DistributedWire, DeadShardFailsTypedAndLeaksNothing) {
  const std::uint64_t n = 1 << 12;
  const perm::Permutation p = perm::by_name("bit-reversal", n, 1);
  std::vector<std::uint32_t> in(n);
  for (std::uint64_t i = 0; i < n; ++i) in[i] = static_cast<std::uint32_t>(i);

  // Two live shards with a short exchange deadline, plus one target
  // that is already dead (started to claim a port, then stopped): the
  // live shards receive SHARD_EXEC naming the dead peer and must abort
  // their sessions, typed, releasing all pooled staging.
  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<Shard*> ptrs;
  for (int i = 0; i < 2; ++i) {
    shards.push_back(std::make_unique<Shard>());
    shards.back()->start(/*exchange_timeout=*/500ms);
    ptrs.push_back(shards.back().get());
  }
  shards.push_back(std::make_unique<Shard>());
  shards.back()->start();
  shards.back()->stop();
  shards.back()->server.reset();  // port stays claimed by nobody — connects fail
  ptrs.push_back(shards.back().get());

  const std::uint64_t baseline = util::BufferPool::global().stats().outstanding_bytes;

  std::vector<std::size_t> transport_failures;
  auto out = run_distributed(ptrs, p, {in.data(), n}, &transport_failures);
  ASSERT_FALSE(out.ok()) << "a dead shard must fail the whole request";
  EXPECT_EQ(out.status().code(), StatusCode::kUnavailable) << out.status().to_string();
  // The dead target's failure was transport-level and attributed.
  EXPECT_NE(std::find(transport_failures.begin(), transport_failures.end(), 2u),
            transport_failures.end());

  // Every pooled staging byte on the survivors is released once their
  // sessions abort (bounded by the exchange timeout).
  EXPECT_TRUE(eventually([&] {
    return util::BufferPool::global().stats().outstanding_bytes <= baseline;
  })) << "pooled staging leaked after a mid-exchange abort";
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_GE(shards[i]->server->counters().shard_aborts, 1u);
    EXPECT_EQ(shards[i]->server->counters().shard_execs, 0u);
  }
  for (auto& s : shards) s->stop();
}

TEST(DistributedWire, PlanBuildFaultFailsTypedAndCountsAborts) {
  // SHARD_EXEC compiles the full plan on first use. A failed build must
  // answer its typed code through the session abort path (not the
  // handler's last-resort kUnavailable) and count as a shard abort.
  const std::uint64_t n = 1 << 12;
  const perm::Permutation p = perm::by_name("random", n, 31);
  std::vector<std::uint32_t> in(n);
  for (std::uint64_t i = 0; i < n; ++i) in[i] = static_cast<std::uint32_t>(i);

  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<Shard*> ptrs;
  for (int i = 0; i < 2; ++i) {
    shards.push_back(std::make_unique<Shard>());
    shards.back()->start(/*exchange_timeout=*/500ms);
    ptrs.push_back(shards.back().get());
  }

  runtime::FaultInjector::Config faults;
  faults.seed = 1;
  faults.rate = 1.0;
  faults.sites = std::string(runtime::fault_sites::kPlanBuild);
  {
    runtime::ScopedFaultInjection chaos(faults);
    auto out = run_distributed(ptrs, p, {in.data(), n});
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kPlanBuildFailed) << out.status().to_string();
  }
  for (auto& s : shards) {
    EXPECT_EQ(s->server->counters().shard_aborts, 1u);
    EXPECT_EQ(s->server->counters().shard_execs, 0u);
  }

  // Disarmed, the same shards build and serve.
  std::vector<std::uint32_t> expect(n);
  p.apply<std::uint32_t>({in.data(), n}, {expect.data(), n});
  auto out = run_distributed(ptrs, p, {in.data(), n});
  ASSERT_TRUE(out.ok()) << out.status().to_string();
  EXPECT_EQ(out.value(), expect);
  for (auto& s : shards) s->stop();
}

// ------------------------------------------------------- routed serving

TEST(DistributedRouter, LargePermuteShardsTransparently) {
  const std::uint64_t n = 1 << 14;  // 64 KiB of element data
  std::vector<std::unique_ptr<Shard>> backends;
  net::Router::Config config;
  for (int i = 0; i < 4; ++i) {
    backends.push_back(std::make_unique<Shard>());
    backends.back()->start();
    config.backends.push_back(net::BackendAddress{"127.0.0.1", backends.back()->port});
  }
  // Shard any PERMUTE over 16 KiB: n * 4 bytes / 16 KiB = 4 bands.
  config.distributed_max_bytes = 16 << 10;
  config.connect_timeout = 1'000ms;
  config.io_timeout = 30'000ms;
  config.poll_interval = 10ms;
  net::Router router(std::move(config));
  ASSERT_TRUE(router.start().is_ok());

  net::Client::Config cc;
  cc.host = "127.0.0.1";
  cc.port = router.port();
  cc.io_timeout = 30'000ms;
  net::Client client(cc);

  const perm::Permutation p = perm::by_name("random", n, 31);
  auto plan = client.submit_plan(p);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();

  std::vector<std::uint32_t> a(n), b(n, 0), expect(n);
  for (std::uint64_t i = 0; i < n; ++i) a[i] = static_cast<std::uint32_t>(i ^ 0xc2b2ae35u);
  p.apply<std::uint32_t>({a.data(), n}, {expect.data(), n});

  const Status s = client.permute(plan.value(), {a.data(), n}, {b.data(), n});
  ASSERT_TRUE(s.is_ok()) << s.to_string();
  EXPECT_EQ(b, expect);

  const net::Router::Snapshot snap = router.snapshot();
  EXPECT_EQ(snap.dist_requests, 1u);
  EXPECT_EQ(snap.dist_failures, 0u);
  EXPECT_EQ(snap.dist_bytes, n * 4);
  // The data really was sharded: multiple backends ran a band.
  std::size_t executed = 0;
  for (auto& be : backends) {
    executed += be->server->counters().shard_execs > 0 ? 1 : 0;
  }
  EXPECT_GE(executed, 2u);

  // A small request on the same plan takes the single-node path.
  const std::uint64_t small_n = 1 << 10;
  const perm::Permutation ps = perm::by_name("bit-reversal", small_n, 1);
  auto small_plan = client.submit_plan(ps);
  ASSERT_TRUE(small_plan.ok());
  std::vector<std::uint32_t> sa(small_n, 1), sb(small_n, 0);
  ASSERT_TRUE(client.permute(small_plan.value(), {sa.data(), small_n}, {sb.data(), small_n})
                  .is_ok());
  EXPECT_EQ(router.snapshot().dist_requests, 1u) << "small request must not shard";

  router.stop();
  for (auto& be : backends) be->stop();
}

// Gated big-n run (64 MiB of element data — above the default 64 MiB
// frame cap, so every layer's payload ceiling must be raised): set
// HMM_DISTRIBUTED_BIG=1 to run, e.g. in the Release CI job.
TEST(DistributedRouter, BigPermuteAboveSingleFrameCap) {
  if (std::getenv("HMM_DISTRIBUTED_BIG") == nullptr) {
    GTEST_SKIP() << "set HMM_DISTRIBUTED_BIG=1 to run the 2^24 distributed check";
  }
  const std::uint64_t n = 1ull << 24;
  const std::uint32_t big_payload = 80u << 20;

  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<Shard*> ptrs;
  for (int i = 0; i < 4; ++i) {
    shards.push_back(std::make_unique<Shard>());
    // Generous budgets: each shard cold-compiles the full 2^24 plan on
    // first use, which dwarfs the exchange itself.
    shards.back()->start(/*exchange_timeout=*/600'000ms, big_payload);
    ptrs.push_back(shards.back().get());
  }

  const perm::Permutation p = perm::by_name("random", n, 3);
  std::vector<std::uint32_t> in(n), expect(n);
  for (std::uint64_t i = 0; i < n; ++i) in[i] = static_cast<std::uint32_t>(i * 0x9e3779b9u);
  p.apply<std::uint32_t>({in.data(), n}, {expect.data(), n});

  auto out = run_distributed(ptrs, p, {in.data(), n}, nullptr, big_payload, 600'000ms);
  ASSERT_TRUE(out.ok()) << out.status().to_string();
  EXPECT_EQ(out.value() == expect, true) << "2^24 distributed result diverged from oracle";
  for (auto& s : shards) s->stop();
}

}  // namespace
}  // namespace hmm
