/// Tests for `net::Router`: consistent-hash preference lists, proxied
/// end-to-end serving, and the fault-tolerance battery the fleet story
/// rests on — failover off a killed backend is bit-identical, an
/// ejected backend rejoins through the half-open probe with its plan
/// registry replayed, a restarted (plan-less) backend is healed by the
/// lazy resync path, and a dead shard trips its circuit breaker so
/// later requests shed it in O(1) instead of burning a connect timeout.
///
/// Backends are real in-process `net::Server`s over real
/// `RobustPermuteService`s on loopback; "killing" one is `stop()`, and
/// "restarting" binds a fresh Server (fresh, empty service — exactly
/// what a crashed permd looks like to the router) on the same port.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "perm/generators.hpp"
#include "perm/permutation.hpp"
#include "runtime/service.hpp"
#include "runtime/status.hpp"
#include "util/thread_pool.hpp"

namespace hmm {
namespace {

using namespace std::chrono_literals;
using runtime::Status;
using runtime::StatusCode;

/// One in-process permd backend. Restartable: start(port) rebinds the
/// same port with a *fresh* service (empty plan registry), which is
/// what a crash-restarted backend looks like.
struct Backend {
  std::unique_ptr<runtime::RobustPermuteService> service;
  std::unique_ptr<net::Server> server;
  std::uint16_t port = 0;

  void start(std::uint16_t fixed_port = 0,
             std::uint64_t max_plan_bytes = net::Server::Config{}.max_plan_bytes) {
    service = std::make_unique<runtime::RobustPermuteService>(
        util::ThreadPool::global(), runtime::RobustPermuteService::Config{});
    net::Server::Config config;
    config.port = fixed_port;
    config.poll_interval = 10ms;
    config.max_plan_bytes = max_plan_bytes;
    server = std::make_unique<net::Server>(*service, config);
    const Status started = server->start();
    ASSERT_TRUE(started.is_ok()) << started.to_string();
    port = server->port();
  }

  void stop() {
    if (server) server->stop();
  }
};

/// N backends + a router over them, with probe/breaker knobs tuned for
/// test time scales (override via `tune` before start).
struct Fleet {
  std::vector<std::unique_ptr<Backend>> backends;
  std::unique_ptr<net::Router> router;

  explicit Fleet(std::size_t n, const std::function<void(net::Router::Config&)>& tune = {}) {
    net::Router::Config config;
    for (std::size_t i = 0; i < n; ++i) {
      backends.push_back(std::make_unique<Backend>());
      backends.back()->start();
      config.backends.push_back(net::BackendAddress{"127.0.0.1", backends.back()->port});
    }
    config.probe_interval = 50ms;
    config.probe_timeout = 500ms;
    config.eject_after = 2;
    config.breaker_threshold = 3;
    config.breaker_cooldown = 200ms;
    config.failover_backoff_base = 1ms;
    config.failover_backoff_cap = 5ms;
    config.connect_timeout = 500ms;
    config.io_timeout = 5'000ms;
    config.poll_interval = 10ms;
    if (tune) tune(config);
    router = std::make_unique<net::Router>(std::move(config));
    const Status started = router->start();
    EXPECT_TRUE(started.is_ok()) << started.to_string();
  }

  ~Fleet() {
    if (router) router->stop();
    for (auto& b : backends) b->stop();
  }

  [[nodiscard]] net::Client::Config client_config() const {
    net::Client::Config c;
    c.host = "127.0.0.1";
    c.port = router->port();
    c.connect_timeout = 2'000ms;
    c.io_timeout = 10'000ms;
    return c;
  }

  /// Spin until `pred` holds or ~`budget` elapses.
  static bool eventually(const std::function<bool()>& pred,
                         std::chrono::milliseconds budget = 5'000ms) {
    const auto deadline = std::chrono::steady_clock::now() + budget;
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred()) return true;
      std::this_thread::sleep_for(10ms);
    }
    return pred();
  }
};

// ------------------------------------------------------------- hashing

TEST(RouterRing, PreferenceListIsDistinctAndCoversEveryBackend) {
  Fleet fleet(3);
  for (std::uint64_t key : {0ull, 1ull, 0xdeadbeefull, 0xffff'ffff'ffff'ffffull}) {
    const std::vector<std::size_t> prefs = fleet.router->preference(key);
    ASSERT_EQ(prefs.size(), 3u) << "key " << key;
    std::vector<std::size_t> sorted = prefs;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<std::size_t>{0, 1, 2})) << "key " << key;
  }
}

TEST(RouterRing, KeysSpreadAcrossBackends) {
  Fleet fleet(3);
  std::vector<std::uint64_t> primaries(3, 0);
  for (std::uint64_t key = 0; key < 512; ++key) {
    primaries[fleet.router->preference(key * 0x9e3779b97f4a7c15ull)[0]]++;
  }
  // With 64 vnodes/backend the split is rough, not exact; each backend
  // must own a nontrivial share (no degenerate all-on-one ring).
  for (std::size_t b = 0; b < 3; ++b) {
    EXPECT_GT(primaries[b], 512u / 10) << "backend " << b << " owns almost nothing";
  }
}

// ------------------------------------------------------------ proxying

TEST(RouterLoopback, RoutedPermuteMatchesLocalApply) {
  Fleet fleet(3);
  net::Client client(fleet.client_config());

  const std::uint64_t n = 1024;
  const perm::Permutation p = perm::by_name("bit-reversal", n, 1);
  auto plan = client.submit_plan(p);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();

  std::vector<std::uint32_t> a(n), b(n, 0), expect(n);
  for (std::uint64_t i = 0; i < n; ++i) a[i] = static_cast<std::uint32_t>(i * 2654435761u);
  p.apply<std::uint32_t>({a.data(), n}, {expect.data(), n});

  const Status s = client.permute(plan.value(), {a.data(), n}, {b.data(), n});
  ASSERT_TRUE(s.is_ok()) << s.to_string();
  EXPECT_EQ(b, expect);

  const net::Router::Snapshot snap = fleet.router->snapshot();
  EXPECT_GE(snap.requests_total, 2u);  // SUBMIT_PLAN + PERMUTE
  EXPECT_EQ(snap.no_backend_available, 0u);
}

TEST(RouterLoopback, PingAndStatsAreAnsweredLocally) {
  Fleet fleet(2);
  net::Client client(fleet.client_config());
  EXPECT_TRUE(client.ping().is_ok());
  auto stats = client.stats_json();
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_NE(stats.value().find("\"router\""), std::string::npos);
  EXPECT_NE(stats.value().find("\"backends\""), std::string::npos);
  // Local answers are not proxied requests.
  EXPECT_EQ(fleet.router->snapshot().requests_total, 0u);
}

TEST(RouterLoopback, ResubmittingAPlanDeduplicates) {
  Fleet fleet(2);
  net::Client client(fleet.client_config());
  const perm::Permutation p = perm::by_name("shuffle", 512, 3);
  auto first = client.submit_plan(p);
  auto second = client.submit_plan(p);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value(), second.value());
  EXPECT_EQ(fleet.router->plans(), 1u);
}

// ------------------------------------------------------------ failover

TEST(RouterFailover, KilledPrimaryFailsOverBitIdenticalWithoutResubmit) {
  Fleet fleet(3);
  net::Client client(fleet.client_config());

  const std::uint64_t n = 2048;
  const perm::Permutation p = perm::by_name("bit-reversal", n, 1);
  auto plan = client.submit_plan(p);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();

  // Replication (default 2) already pushed the plan to the first
  // replica of the preference list — the exact backend the failover
  // lands on. Killing the primary must therefore be a hit, not a
  // resubmit.
  const std::vector<std::size_t> prefs = fleet.router->preference(plan.value());
  fleet.backends[prefs[0]]->stop();

  std::vector<std::uint32_t> a(n), b(n, 0), expect(n);
  for (std::uint64_t i = 0; i < n; ++i) a[i] = static_cast<std::uint32_t>(i ^ 0xa5a5);
  p.apply<std::uint32_t>({a.data(), n}, {expect.data(), n});

  const Status s = client.permute(plan.value(), {a.data(), n}, {b.data(), n});
  ASSERT_TRUE(s.is_ok()) << "failover did not serve: " << s.to_string();
  EXPECT_EQ(b, expect);

  const net::Router::Snapshot snap = fleet.router->snapshot();
  EXPECT_GE(snap.failovers_total, 1u);
  EXPECT_EQ(snap.plan_resyncs, 0u) << "replica should already hold the plan";
  EXPECT_GE(snap.backends[prefs[1]].failovers_to, 1u);
}

TEST(RouterFailover, EjectedBackendRecoversViaHalfOpenProbeAndServesAgain) {
  Fleet fleet(3);
  net::Client client(fleet.client_config());

  // Register a handful of plans so the recovery resync has a registry
  // to replay; remember one routed to the backend we will kill.
  const std::uint64_t n = 1024;
  std::vector<perm::Permutation> pop;
  std::vector<std::uint64_t> ids;
  for (std::uint64_t seedling = 1; seedling <= 6; ++seedling) {
    pop.push_back(perm::by_name("random", n, seedling));
    auto id = client.submit_plan(pop.back());
    ASSERT_TRUE(id.ok()) << id.status().to_string();
    ids.push_back(id.value());
  }

  const std::size_t victim = fleet.router->preference(ids[0])[0];
  const std::uint16_t victim_port = fleet.backends[victim]->port;
  fleet.backends[victim]->stop();

  ASSERT_TRUE(Fleet::eventually([&] { return !fleet.router->backend_healthy(victim); }))
      << "health checker never ejected the dead backend";

  // Restart on the same port with an empty plan registry. The half-open
  // probe must notice, replay the router's registry into it, and only
  // then mark it healthy.
  fleet.backends[victim]->start(victim_port);
  ASSERT_EQ(fleet.backends[victim]->port, victim_port);
  ASSERT_TRUE(Fleet::eventually([&] { return fleet.router->backend_healthy(victim); }))
      << "restarted backend never rejoined";

  net::Router::Snapshot snap = fleet.router->snapshot();
  EXPECT_GE(snap.backends[victim].ejections, 1u);
  EXPECT_GE(snap.backends[victim].recoveries, 1u);
  // The rejoin replayed every remembered plan into the empty registry.
  EXPECT_GE(snap.backends[victim].plans_synced, ids.size());
  EXPECT_EQ(fleet.backends[victim]->server->plans(), ids.size());

  // And it serves traffic again: route a request whose primary it is.
  const std::uint64_t before_ok = snap.backends[victim].ok;
  std::vector<std::uint32_t> a(n, 7), b(n, 0), expect(n);
  pop[0].apply<std::uint32_t>({a.data(), n}, {expect.data(), n});
  const Status s = client.permute(ids[0], {a.data(), n}, {b.data(), n});
  ASSERT_TRUE(s.is_ok()) << s.to_string();
  EXPECT_EQ(b, expect);
  EXPECT_GT(fleet.router->snapshot().backends[victim].ok, before_ok)
      << "recovered backend did not serve the request it is primary for";
}

TEST(RouterFailover, QuietRestartIsHealedByLazyPlanResync) {
  // Probes effectively off: the router never notices the restart, so
  // the *request path* must heal the empty registry (backend answers
  // "unknown plan", router re-pushes the plans it holds, retries once).
  Fleet fleet(2, [](net::Router::Config& c) {
    c.probe_interval = 60'000ms;
    c.eject_after = 1'000'000;
  });
  net::Client client(fleet.client_config());

  const std::uint64_t n = 1024;
  const perm::Permutation p = perm::by_name("bit-reversal", n, 1);
  auto plan = client.submit_plan(p);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();

  // Bounce every backend: wherever the request lands, the registry is
  // empty and the cached link is stale.
  for (auto& b : fleet.backends) {
    const std::uint16_t port = b->port;
    b->stop();
    b->start(port);
  }

  std::vector<std::uint32_t> a(n), b(n, 0), expect(n);
  for (std::uint64_t i = 0; i < n; ++i) a[i] = static_cast<std::uint32_t>(3 * i + 1);
  p.apply<std::uint32_t>({a.data(), n}, {expect.data(), n});

  const Status s = client.permute(plan.value(), {a.data(), n}, {b.data(), n});
  ASSERT_TRUE(s.is_ok()) << "lazy resync did not heal the restart: " << s.to_string();
  EXPECT_EQ(b, expect);
  EXPECT_GE(fleet.router->snapshot().plan_resyncs, 1u);
}

TEST(RouterFailover, PlanEvictedFromABackendRegistryIsResyncedAndServed) {
  // The backend's registry holds one plan, so registering a second
  // evicts the first; a forwarded PERMUTE of the evicted plan draws
  // "unknown plan id", which the router heals by push-and-retry.
  const std::uint64_t n = 1024;
  Backend backend;
  backend.start(0, n * net::kElemBytes);
  net::Router::Config config;
  config.backends.push_back(net::BackendAddress{"127.0.0.1", backend.port});
  config.probe_interval = 60'000ms;
  config.eject_after = 1'000'000;
  config.connect_timeout = 500ms;
  config.io_timeout = 5'000ms;
  config.poll_interval = 10ms;
  net::Router router(std::move(config));
  ASSERT_TRUE(router.start().is_ok());
  net::Client::Config cc;
  cc.host = "127.0.0.1";
  cc.port = router.port();
  cc.io_timeout = 10'000ms;
  net::Client client(cc);

  const perm::Permutation first = perm::by_name("random", n, 1);
  const perm::Permutation second = perm::by_name("random", n, 2);
  auto first_id = client.submit_plan(first);
  auto second_id = client.submit_plan(second);
  ASSERT_TRUE(first_id.ok() && second_id.ok());
  ASSERT_EQ(backend.server->counters().plans_evicted, 1u);

  std::vector<std::uint32_t> a(n), b(n, 0), expect(n);
  for (std::uint64_t i = 0; i < n; ++i) a[i] = static_cast<std::uint32_t>(5 * i + 2);
  first.apply<std::uint32_t>({a.data(), n}, {expect.data(), n});
  const Status s = client.permute(first_id.value(), {a.data(), n}, {b.data(), n});
  ASSERT_TRUE(s.is_ok()) << "the resync did not heal the eviction: " << s.to_string();
  EXPECT_EQ(b, expect);
  EXPECT_EQ(router.snapshot().plan_resyncs, 1u);

  router.stop();
  backend.stop();
}

// ------------------------------------------------------------- breaker

TEST(RouterBreaker, OpensAfterConsecutiveFailuresAndShedsInO1) {
  // One live backend + one permanently dead address. Health checking is
  // effectively disabled so ejection cannot mask the breaker: every
  // request aimed at the dead shard must burn a connect failure until
  // the breaker opens, after which it is skipped outright.
  auto doomed = net::TcpListener::bind("127.0.0.1", 0);
  ASSERT_TRUE(doomed.ok());
  const std::uint16_t dead_port = doomed.value().port();
  doomed.value().close();

  std::vector<std::unique_ptr<Backend>> live;
  live.push_back(std::make_unique<Backend>());
  live.back()->start();

  net::Router::Config config;
  config.backends = {net::BackendAddress{"127.0.0.1", live.back()->port},
                     net::BackendAddress{"127.0.0.1", dead_port}};
  config.probe_interval = 60'000ms;
  config.eject_after = 1'000'000;
  config.breaker_threshold = 2;
  config.breaker_cooldown = 60'000ms;
  config.failover_backoff_base = 1ms;
  config.failover_backoff_cap = 2ms;
  config.connect_timeout = 250ms;
  config.io_timeout = 5'000ms;
  config.poll_interval = 10ms;
  net::Router router(std::move(config));
  ASSERT_TRUE(router.start().is_ok());

  net::Client::Config cc;
  cc.host = "127.0.0.1";
  cc.port = router.port();
  net::Client client(cc);

  // Find a plan whose primary is the dead shard, so every permute must
  // attempt it first (until the breaker opens).
  const std::uint64_t n = 512;
  std::uint64_t dead_primary_id = 0;
  perm::Permutation chosen = perm::by_name("random", n, 1);
  for (std::uint64_t seedling = 1; seedling <= 64; ++seedling) {
    perm::Permutation candidate = perm::by_name("random", n, seedling);
    auto id = client.submit_plan(candidate);
    ASSERT_TRUE(id.ok()) << id.status().to_string();
    if (router.preference(id.value())[0] == 1) {
      dead_primary_id = id.value();
      chosen = std::move(candidate);
      break;
    }
  }
  ASSERT_NE(dead_primary_id, 0u) << "no sampled plan hashed to the dead shard";

  std::vector<std::uint32_t> a(n, 9), b(n, 0), expect(n);
  chosen.apply<std::uint32_t>({a.data(), n}, {expect.data(), n});

  // Every attempt succeeds via failover; after breaker_threshold
  // consecutive transport failures the dead shard's breaker opens.
  for (int round = 0; round < 4; ++round) {
    const Status s = client.permute(dead_primary_id, {a.data(), n}, {b.data(), n});
    ASSERT_TRUE(s.is_ok()) << "round " << round << ": " << s.to_string();
    ASSERT_EQ(b, expect);
  }
  EXPECT_TRUE(router.backend_breaker_open(1));

  net::Router::Snapshot snap = router.snapshot();
  EXPECT_GE(snap.backends[1].breaker_opens, 1u);
  const std::uint64_t failures_at_open = snap.backends[1].transport_failures;

  // With the breaker open the dead shard is skipped without a connect:
  // more rounds add short-circuits but no new transport failures.
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(client.permute(dead_primary_id, {a.data(), n}, {b.data(), n}).is_ok());
  }
  snap = router.snapshot();
  EXPECT_EQ(snap.backends[1].transport_failures, failures_at_open);
  EXPECT_GE(snap.breaker_short_circuits, 3u);

  router.stop();
  live.back()->stop();
}

}  // namespace
}  // namespace hmm
