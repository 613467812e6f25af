#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "perm/generators.hpp"
#include "runtime/program.hpp"
#include "util/rng.hpp"

namespace perfbench {

using hmm::net::Client;
using hmm::perm::Permutation;
using hmm::runtime::ProgramOp;
using hmm::runtime::ProgramOpCode;
using hmm::runtime::RobustPermuteService;
using hmm::runtime::Status;

void LoopResult::merge(LoopResult&& other) {
  latency_ns.insert(latency_ns.end(), other.latency_ns.begin(), other.latency_ns.end());
  build_ms.insert(build_ms.end(), other.build_ms.begin(), other.build_ms.end());
  completed += other.completed;
  attempted += other.attempted;
  failed += other.failed;
  mismatches += other.mismatches;
  verify_s += other.verify_s;
  workers += other.workers;
  if (first_error.empty()) first_error = std::move(other.first_error);
}

void require_ok(const Status& st, const std::string& what) {
  if (!st.is_ok()) throw std::runtime_error(what + ": " + st.to_string());
}

Backend Backend::start(std::uint64_t cache_bytes) {
  Backend b;
  RobustPermuteService::Config config;
  config.cache.max_bytes = cache_bytes;
  b.service = std::make_unique<RobustPermuteService>(hmm::util::ThreadPool::global(), config);
  b.server = std::make_unique<hmm::net::Server>(*b.service, hmm::net::Server::Config{});
  require_ok(b.server->start(), "server start");
  return b;
}

Client::Config client_config(std::uint16_t port) {
  Client::Config config;
  config.port = port;
  return config;
}

Client::Config Backend::client_config() const { return perfbench::client_config(server->port()); }

std::unique_ptr<hmm::net::Router> start_router(const std::vector<Backend*>& backends,
                                               std::uint64_t distributed_max_bytes) {
  hmm::net::Router::Config config;
  for (const Backend* b : backends) config.backends.push_back({"127.0.0.1", b->server->port()});
  config.distributed_max_bytes = distributed_max_bytes;
  auto router = std::make_unique<hmm::net::Router>(config);
  require_ok(router->start(), "router start");
  return router;
}

std::vector<std::uint32_t> random_words(std::uint64_t n, std::uint64_t seed) {
  hmm::util::Xoshiro256 rng(seed);
  std::vector<std::uint32_t> words(n);
  for (auto& w : words) w = static_cast<std::uint32_t>(rng.next());
  return words;
}

std::vector<std::uint32_t> reference(const Permutation& p, std::span<const std::uint32_t> a) {
  std::vector<std::uint32_t> b(a.size());
  p.apply<std::uint32_t>(a, b);
  return b;
}

namespace {

/// Seed of the i-th derived stream of a workload seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t i) {
  hmm::util::SplitMix64 mix(seed * 0x9e3779b97f4a7c15ull + i);
  return mix.next();
}

Permutation random_perm(std::uint64_t n, std::uint64_t seed) {
  hmm::util::Xoshiro256 rng(seed);
  return hmm::perm::random(n, rng);
}

bool same(std::span<const std::uint32_t> a, std::span<const std::uint32_t> b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * 4) == 0;
}

/// One closed-loop request: `send` is timed, `check` (the comparison
/// against the scalar reference) runs after the clock stops.
template <class Send, class Check>
void timed_request(LoopResult& r, const char* name, Send&& send, Check&& check) {
  Tracer* t = tracer();
  const std::uint64_t request_id = t != nullptr ? t->next_id() : 0;
  const Span root(name, 0, request_id);
  ++r.attempted;
  const std::int64_t t0 = now_ns();
  const Status st = send(root.id(), request_id);
  const std::int64_t t1 = now_ns();
  if (!st.is_ok()) {
    ++r.failed;
    r.latency_ns.push_back(kMissed);
    if (r.first_error.empty()) r.first_error = st.to_string();
    return;
  }
  r.latency_ns.push_back(static_cast<double>(t1 - t0));
  ++r.completed;
  {
    const Span verify("bench.verify", root.id(), request_id);
    if (!check()) ++r.mismatches;
  }
  r.verify_s += static_cast<double>(now_ns() - t1) * 1e-9;
}

/// Run `body(worker, deadline_ns, result)` on `count` threads until
/// the deadline and merge their results.
LoopResult run_workers(unsigned count, double seconds,
                       const std::function<void(unsigned, std::int64_t, LoopResult&)>& body) {
  std::vector<LoopResult> parts(count);
  const std::int64_t start = now_ns();
  const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  threads.reserve(count);
  for (unsigned w = 0; w < count; ++w) {
    threads.emplace_back([&, w] { body(w, deadline, parts[w]); });
  }
  for (std::thread& t : threads) t.join();
  LoopResult merged;
  merged.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
  for (LoopResult& part : parts) merged.merge(std::move(part));
  return merged;
}

/// SUBMIT_PLAN then one PERMUTE, verified: a cold plan build as a
/// client sees it. Returns the plan id; `ms` receives the span.
std::uint64_t register_and_verify(Client& client, const Permutation& p,
                                  std::span<const std::uint32_t> input,
                                  std::span<const std::uint32_t> expected, double& ms,
                                  bool& matched) {
  std::vector<std::uint32_t> out(input.size());
  const std::int64_t t0 = now_ns();
  hmm::runtime::StatusOr<std::uint64_t> id = [&] {
    const Span s("net.Client::submit_plan");
    return client.submit_plan(p);
  }();
  require_ok(id.status(), "SUBMIT_PLAN");
  {
    const Span s("net.Client::permute");
    require_ok(client.permute(id.value(), input, out), "first PERMUTE");
  }
  matched = same(out, expected);
  ms = static_cast<double>(now_ns() - t0) * 1e-6;
  return id.value();
}

// ---------------------------------------------------------------------------

/// 4 connections of u32 PERMUTEs at n = 8K over 16 registered plans
/// (Zipf), one request in eight a depth-4 EXECUTE_PROGRAM.
class ServeHot final : public Workload {
 public:
  explicit ServeHot(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    backend_ = Backend::start();
    perms_.clear();
    perms_.push_back(random_perm(kN, derive(seed_, 1)));
    perms_.push_back(hmm::perm::bit_reversal(kN));
    perms_.push_back(hmm::perm::by_name("transpose", kN));
    for (std::size_t i = perms_.size(); i < kPlans; ++i) {
      perms_.push_back(random_perm(kN, derive(seed_, 100 + i)));
    }
    for (unsigned w = 0; w < kConns; ++w) {
      inputs_.push_back(random_words(kN, derive(seed_, 200 + w)));
    }
    expected_.assign(kConns, {});
    for (unsigned w = 0; w < kConns; ++w) {
      for (const Permutation& p : perms_) expected_[w].push_back(reference(p, inputs_[w]));
    }

    Client setup_client(backend_.client_config());
    ids_.clear();
    for (std::size_t i = 0; i < kPlans; ++i) {
      double ms = 0;
      bool matched = false;
      ids_.push_back(register_and_verify(setup_client, perms_[i], inputs_[0], expected_[0][i],
                                         ms, matched));
      if (!matched) throw std::runtime_error("serve-hot-8k: set-up PERMUTE mismatch");
      builds_ms_.push_back(ms);
    }

    hmm::util::Xoshiro256 rng(derive(seed_, 3));
    chains_.assign(kChains, {});
    chain_expected_.assign(kConns, {});
    for (auto& chain : chains_) {
      for (unsigned d = 0; d < kDepth; ++d) chain.push_back(rng.bounded(kPlans));
    }
    for (unsigned w = 0; w < kConns; ++w) {
      for (const auto& chain : chains_) {
        std::vector<std::uint32_t> cur = inputs_[w];
        for (const std::size_t idx : chain) cur = reference(perms_[idx], cur);
        chain_expected_[w].push_back(std::move(cur));
      }
    }

    // Persistent connections, warmed on every plan and chain so the
    // composite plans are compiled before any window.
    clients_.clear();
    std::vector<std::uint32_t> out(kN);
    for (unsigned w = 0; w < kConns; ++w) {
      clients_.push_back(std::make_unique<Client>(backend_.client_config()));
      for (std::size_t i = 0; i < kPlans; ++i) {
        require_ok(clients_[w]->permute(ids_[i], inputs_[w], out), "warm-up PERMUTE");
        if (!same(out, expected_[w][i])) throw std::runtime_error("serve-hot-8k: warm-up mismatch");
      }
      for (std::size_t c = 0; c < kChains; ++c) {
        const std::vector<ProgramOp> ops = program(c);
        require_ok(clients_[w]->execute_program(ops, inputs_[w], out), "warm-up EXECUTE_PROGRAM");
        if (!same(out, chain_expected_[w][c])) {
          throw std::runtime_error("serve-hot-8k: warm-up program mismatch");
        }
      }
    }
  }

  LoopResult run(double seconds) override {
    const Zipf zipf(kPlans);
    std::vector<std::vector<ProgramOp>> programs;
    for (std::size_t c = 0; c < kChains; ++c) programs.push_back(program(c));
    const std::uint64_t window = ++windows_;
    return run_workers(kConns, seconds, [&](unsigned w, std::int64_t deadline, LoopResult& r) {
      r.workers = 1;
      Client& client = *clients_[w];
      hmm::util::Xoshiro256 rng(derive(seed_, 1000 + w + 17 * window));
      std::vector<std::uint32_t> out(kN);
      while (now_ns() < deadline) {
        if (rng.bounded(8) == 0) {
          const std::size_t c = rng.bounded(kChains);
          timed_request(
              r, "request.program",
              [&](std::uint64_t parent, std::uint64_t req) {
                const Span s("net.Client::execute_program", parent, req);
                return client.execute_program(programs[c], inputs_[w], out);
              },
              [&] { return same(out, chain_expected_[w][c]); });
        } else {
          const std::size_t i = zipf.sample(rng);
          timed_request(
              r, "request.permute",
              [&](std::uint64_t parent, std::uint64_t req) {
                const Span s("net.Client::permute", parent, req);
                return client.permute(ids_[i], inputs_[w], out);
              },
              [&] { return same(out, expected_[w][i]); });
        }
      }
    });
  }

  const std::vector<double>& setup_builds_ms() const override { return builds_ms_; }
  std::vector<const RobustPermuteService*> services() const override {
    return {backend_.service.get()};
  }
  const Permutation& hottest() const override { return perms_.front(); }

  ~ServeHot() override {
    clients_.clear();
    if (backend_.server) backend_.server->stop();
  }

 private:
  static constexpr std::uint64_t kN = 8192;
  static constexpr std::size_t kPlans = 16;
  static constexpr unsigned kConns = 4;
  static constexpr std::size_t kChains = 4;
  static constexpr unsigned kDepth = 4;

  std::vector<ProgramOp> program(std::size_t c) const {
    std::vector<ProgramOp> ops;
    for (const std::size_t idx : chains_[c]) ops.push_back({ProgramOpCode::kPermute, ids_[idx]});
    return ops;
  }

  std::uint64_t seed_;
  std::uint64_t windows_ = 0;
  Backend backend_;
  std::vector<Permutation> perms_;
  std::vector<std::uint64_t> ids_;
  std::vector<std::vector<std::uint32_t>> inputs_;
  std::vector<std::vector<std::vector<std::uint32_t>>> expected_;  ///< [conn][plan]
  std::vector<std::vector<std::size_t>> chains_;
  std::vector<std::vector<std::vector<std::uint32_t>>> chain_expected_;  ///< [conn][chain]
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<double> builds_ms_;
};

// ---------------------------------------------------------------------------

/// Back-to-back in-process OfflinePermuter<uint32_t>::permute calls on
/// one random permutation at n = 2^22 (16 MiB per array).
class Bulk final : public Workload {
 public:
  explicit Bulk(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    perm_ = std::make_unique<Permutation>(random_perm(kN, derive(seed_, 1)));
    input_ = random_words(kN, derive(seed_, 2));
    expected_ = reference(*perm_, input_);
    out_.assign(kN, 0);
    const std::int64_t t0 = now_ns();
    {
      const Span s("core.OfflinePermuter::OfflinePermuter");
      permuter_ = std::make_shared<hmm::core::OfflinePermuter<std::uint32_t>>(*perm_);
    }
    {
      const Span s("core.OfflinePermuter::permute");
      permuter_->permute(input_, out_);
    }
    if (!same(out_, expected_)) throw std::runtime_error("bulk-4m: first permute mismatch");
    builds_ms_.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  }

  LoopResult run(double seconds) override {
    return run_workers(1, seconds, [&](unsigned, std::int64_t deadline, LoopResult& r) {
      r.workers = 1;
      while (now_ns() < deadline) {
        timed_request(
            r, "request.permute",
            [&](std::uint64_t parent, std::uint64_t req) {
              const Span s("core.OfflinePermuter::permute", parent, req);
              permuter_->permute(input_, out_);
              return Status::ok();
            },
            [&] { return same(out_, expected_); });
      }
    });
  }

  const std::vector<double>& setup_builds_ms() const override { return builds_ms_; }
  std::vector<const RobustPermuteService*> services() const override { return {}; }
  const Permutation& hottest() const override { return *perm_; }
  std::shared_ptr<const hmm::core::OfflinePermuter<std::uint32_t>> permuter() const override {
    return permuter_;
  }

 private:
  static constexpr std::uint64_t kN = 1ull << 22;

  std::uint64_t seed_;
  std::unique_ptr<Permutation> perm_;
  std::shared_ptr<hmm::core::OfflinePermuter<std::uint32_t>> permuter_;
  std::vector<std::uint32_t> input_, expected_, out_;
  std::vector<double> builds_ms_;
};

// ---------------------------------------------------------------------------

/// n = 64K: 3 connections of hot PERMUTEs (Zipf over 8 plans) beside
/// one connection registering fresh plans (SUBMIT_PLAN + one PERMUTE
/// each) against a plan cache filled to eviction during set-up.
class Churn final : public Workload {
 public:
  explicit Churn(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    backend_ = Backend::start();
    for (std::size_t i = 0; i < kHot; ++i) {
      perms_.push_back(random_perm(kN, derive(seed_, 100 + i)));
    }
    for (unsigned w = 0; w < kHotConns; ++w) {
      inputs_.push_back(random_words(kN, derive(seed_, 200 + w)));
    }
    expected_.assign(kHotConns, {});
    for (unsigned w = 0; w < kHotConns; ++w) {
      for (const Permutation& p : perms_) expected_[w].push_back(reference(p, inputs_[w]));
    }
    fresh_input_ = random_words(kN, derive(seed_, 300));

    Client setup_client(backend_.client_config());
    for (std::size_t i = 0; i < kHot; ++i) {
      double ms = 0;
      bool matched = false;
      ids_.push_back(register_and_verify(setup_client, perms_[i], inputs_[0], expected_[0][i],
                                         ms, matched));
      if (!matched) throw std::runtime_error("churn-64k: set-up PERMUTE mismatch");
      builds_ms_.push_back(ms);
    }

    // Fill the plan cache with fresh plans until it evicts, four
    // connections at a time, so the window starts at steady-state
    // eviction.
    std::atomic<bool> full{false};
    std::atomic<bool> bad{false};
    std::vector<std::thread> fillers;
    for (unsigned f = 0; f < 4; ++f) {
      fillers.emplace_back([&] {
        try {
          Client client(backend_.client_config());
          while (!full.load() && !bad.load()) {
            double ms = 0;
            if (!fresh_build(client, ms)) bad = true;
            if (backend_.service->metrics().snapshot().evictions > 0) full = true;
          }
        } catch (const std::exception& e) {
          std::cerr << "perfbench: churn-64k fill: " << e.what() << "\n";
          bad = true;
        }
      });
    }
    for (std::thread& t : fillers) t.join();
    if (bad.load()) throw std::runtime_error("churn-64k: cache fill failed");

    clients_.clear();
    std::vector<std::uint32_t> out(kN);
    for (unsigned w = 0; w < kHotConns + 1; ++w) {
      clients_.push_back(std::make_unique<Client>(backend_.client_config()));
      if (w == kHotConns) {
        require_ok(clients_[w]->ping(), "fresh-plan connection PING");
        continue;
      }
      for (std::size_t i = 0; i < kHot; ++i) {
        require_ok(clients_[w]->permute(ids_[i], inputs_[w], out), "warm-up PERMUTE");
        if (!same(out, expected_[w][i])) throw std::runtime_error("churn-64k: warm-up mismatch");
      }
    }
  }

  LoopResult run(double seconds) override {
    const Zipf zipf(kHot);
    const std::uint64_t window = ++windows_;
    return run_workers(kHotConns + 1, seconds,
                       [&](unsigned w, std::int64_t deadline, LoopResult& r) {
      Client& client = *clients_[w];
      if (w == kHotConns) {
        while (now_ns() < deadline) {
          ++r.attempted;
          double ms = 0;
          bool matched = false;
          try {
            matched = fresh_build(client, ms);
          } catch (const std::exception& e) {
            ++r.failed;
            r.build_ms.push_back(kMissed);
            if (r.first_error.empty()) r.first_error = e.what();
            continue;
          }
          if (!matched) ++r.mismatches;
          r.build_ms.push_back(ms);
        }
        return;
      }
      r.workers = 1;
      hmm::util::Xoshiro256 rng(derive(seed_, 1000 + w + 17 * window));
      std::vector<std::uint32_t> out(kN);
      while (now_ns() < deadline) {
        const std::size_t i = zipf.sample(rng);
        timed_request(
            r, "request.permute",
            [&](std::uint64_t parent, std::uint64_t req) {
              const Span s("net.Client::permute", parent, req);
              return client.permute(ids_[i], inputs_[w], out);
            },
            [&] { return same(out, expected_[w][i]); });
      }
    });
  }

  const std::vector<double>& setup_builds_ms() const override { return builds_ms_; }
  bool builds_in_window() const override { return true; }
  std::vector<const RobustPermuteService*> services() const override {
    return {backend_.service.get()};
  }
  const Permutation& hottest() const override { return perms_.front(); }

  ~Churn() override {
    clients_.clear();
    if (backend_.server) backend_.server->stop();
  }

 private:
  static constexpr std::uint64_t kN = 65536;
  static constexpr std::size_t kHot = 8;
  static constexpr unsigned kHotConns = 3;

  /// Register one never-seen permutation and verify its first result.
  /// Generating it and its reference happens before the span starts.
  bool fresh_build(Client& client, double& ms) {
    const Permutation p = random_perm(kN, derive(seed_, 1'000'000 + fresh_.fetch_add(1)));
    const std::vector<std::uint32_t> expected = reference(p, fresh_input_);
    Tracer* t = tracer();
    const std::uint64_t request_id = t != nullptr ? t->next_id() : 0;
    const Span root("request.fresh_plan", 0, request_id);
    bool matched = false;
    (void)register_and_verify(client, p, fresh_input_, expected, ms, matched);
    return matched;
  }

  std::uint64_t seed_;
  std::uint64_t windows_ = 0;
  std::atomic<std::uint64_t> fresh_{0};
  Backend backend_;
  std::vector<Permutation> perms_;
  std::vector<std::uint64_t> ids_;
  std::vector<std::vector<std::uint32_t>> inputs_;
  std::vector<std::vector<std::vector<std::uint32_t>>> expected_;
  std::vector<std::uint32_t> fresh_input_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<double> builds_ms_;
};

// ---------------------------------------------------------------------------

/// One connection of u32 PERMUTEs at n = 1M through a router that
/// shards them into row bands across 4 in-process backends.
class Dist final : public Workload {
 public:
  explicit Dist(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    for (auto& b : backends_) b = Backend::start();
    std::vector<Backend*> ptrs;
    for (auto& b : backends_) ptrs.push_back(&b);
    // 1 MiB threshold: every 4 MiB request of this workload is sharded.
    router_ = start_router(ptrs, 1ull << 20);

    perm_ = std::make_unique<Permutation>(random_perm(kN, derive(seed_, 1)));
    input_ = random_words(kN, derive(seed_, 2));
    expected_ = reference(*perm_, input_);
    client_ = std::make_unique<Client>(client_config(router_->port()));
    double ms = 0;
    bool matched = false;
    id_ = register_and_verify(*client_, *perm_, input_, expected_, ms, matched);
    if (!matched) throw std::runtime_error("dist-1m: first PERMUTE mismatch");
    builds_ms_.push_back(ms);
    if (router_->snapshot().dist_requests == 0) {
      throw std::runtime_error("dist-1m: the router did not shard the request");
    }
  }

  LoopResult run(double seconds) override {
    const std::uint64_t before = router_->snapshot().dist_requests;
    std::vector<std::uint32_t> out(kN);
    LoopResult result =
        run_workers(1, seconds, [&](unsigned, std::int64_t deadline, LoopResult& r) {
          r.workers = 1;
          while (now_ns() < deadline) {
            timed_request(
                r, "request.permute",
                [&](std::uint64_t parent, std::uint64_t req) {
                  const Span s("net.Client::permute", parent, req);
                  return client_->permute(id_, input_, out);
                },
                [&] { return same(out, expected_); });
          }
        });
    const std::uint64_t sharded = router_->snapshot().dist_requests - before;
    if (sharded < result.completed) {
      throw std::runtime_error("dist-1m: " + std::to_string(result.completed - sharded) +
                               " request(s) bypassed the sharded path");
    }
    return result;
  }

  const std::vector<double>& setup_builds_ms() const override { return builds_ms_; }
  std::vector<const RobustPermuteService*> services() const override {
    std::vector<const RobustPermuteService*> out;
    for (const auto& b : backends_) out.push_back(b.service.get());
    return out;
  }
  const Permutation& hottest() const override { return *perm_; }
  /// About 6 requests/s: a block of a 10 s window would hold a handful.
  unsigned blocks() const override { return 1; }

  ~Dist() override {
    client_.reset();
    if (router_) router_->stop();
    for (auto& b : backends_) {
      if (b.server) b.server->stop();
    }
  }

 private:
  static constexpr std::uint64_t kN = 1ull << 20;

  std::uint64_t seed_;
  Backend backends_[4];
  std::unique_ptr<hmm::net::Router> router_;
  std::unique_ptr<Permutation> perm_;
  std::vector<std::uint32_t> input_, expected_;
  std::unique_ptr<Client> client_;
  std::uint64_t id_ = 0;
  std::vector<double> builds_ms_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "serve-hot-8k") return std::make_unique<ServeHot>(seed);
  if (name == "bulk-4m") return std::make_unique<Bulk>(seed);
  if (name == "churn-64k") return std::make_unique<Churn>(seed);
  if (name == "dist-1m") return std::make_unique<Dist>(seed);
  return nullptr;
}

}  // namespace perfbench
