#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <memory>
#include <future>
#include <new>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "util/aligned_vector.hpp"
#include "util/bits.hpp"
#include "util/buffer_pool.hpp"
#include "util/cli.hpp"
#include "util/numa.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace hmm::util {
namespace {

TEST(Bits, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(1ull << 40));
  EXPECT_FALSE(is_pow2((1ull << 40) + 1));
}

TEST(Bits, Log2) {
  EXPECT_EQ(log2_floor(1), 0u);
  EXPECT_EQ(log2_floor(2), 1u);
  EXPECT_EQ(log2_floor(3), 1u);
  EXPECT_EQ(log2_floor(1024), 10u);
  EXPECT_EQ(log2_exact(4096), 12u);
}

TEST(Bits, CeilHelpers) {
  EXPECT_EQ(ceil_pow2(0), 1u);
  EXPECT_EQ(ceil_pow2(1), 1u);
  EXPECT_EQ(ceil_pow2(3), 4u);
  EXPECT_EQ(ceil_pow2(1024), 1024u);
  EXPECT_EQ(ceil_div(10, 3), 4u);
  EXPECT_EQ(ceil_div(9, 3), 3u);
}

TEST(Bits, BitReverse) {
  EXPECT_EQ(bit_reverse(0b001, 3), 0b100u);
  EXPECT_EQ(bit_reverse(0b110, 3), 0b011u);
  // Involution: reverse twice is the identity.
  for (std::uint64_t x = 0; x < 256; ++x) {
    EXPECT_EQ(bit_reverse(bit_reverse(x, 8), 8), x);
  }
}

TEST(Bits, Rotations) {
  EXPECT_EQ(rotate_left_bits(0b100, 3), 0b001u);
  EXPECT_EQ(rotate_left_bits(0b011, 3), 0b110u);
  EXPECT_EQ(rotate_right_bits(0b001, 3), 0b100u);
  // rotate_left then rotate_right is the identity.
  for (std::uint64_t x = 0; x < 1024; ++x) {
    EXPECT_EQ(rotate_right_bits(rotate_left_bits(x, 10), 10), x);
  }
}

TEST(Bits, GrayCodeAdjacentDifferByOneBit) {
  for (std::uint64_t i = 0; i + 1 < 512; ++i) {
    const std::uint64_t diff = gray_code(i) ^ gray_code(i + 1);
    EXPECT_TRUE(is_pow2(diff)) << i;
  }
}

TEST(Bits, IsqrtExact) {
  EXPECT_EQ(isqrt_exact(1), 1u);
  EXPECT_EQ(isqrt_exact(4), 2u);
  EXPECT_EQ(isqrt_exact(1 << 20), 1u << 10);
  EXPECT_EQ(isqrt_exact(9), 3u);
}

TEST(Rng, Deterministic) {
  Xoshiro256 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BoundedInRange) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.bounded(17), 17u);
  }
}

TEST(Rng, BoundedRoughlyUniform) {
  Xoshiro256 rng(3);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.bounded(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(Rng, Uniform01Range) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, LongJumpDiverges) {
  Xoshiro256 a(9), b(9);
  b.long_jump();
  EXPECT_NE(a.next(), b.next());
}

TEST(AlignedVector, Alignment) {
  aligned_vector<float> v(100);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % 128, 0u);
  aligned_vector<double> w(3);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(w.data()) % 128, 0u);
}

/// Resident set size of this process, from /proc/self/statm.
std::uint64_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size_pages = 0, resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

TEST(AlignedVector, LargeBlocksAreAlignedAndReturnedToTheOs) {
  constexpr std::size_t kBlock = 256 << 10;
  constexpr std::size_t kTotal = 256 << 20;
  static_assert(kBlock >= kDirectMapBytes);
  // One churned block first: through malloc, its free would raise
  // glibc's dynamic mmap threshold so later blocks land in the arena.
  { aligned_vector<std::uint8_t> warm(kBlock); }
  // Small allocations that outlive the blocks, interleaved with them,
  // as a serving process's other state is: an arena could not trim
  // the holes the freed blocks leave between them.
  std::vector<std::unique_ptr<std::uint64_t>> pins;
  const std::uint64_t baseline = resident_bytes();
  {
    std::vector<aligned_vector<std::uint8_t>> blocks;
    for (std::size_t i = 0; i < kTotal / kBlock; ++i) {
      blocks.emplace_back(kBlock, std::uint8_t{0xa5});
      ASSERT_EQ(reinterpret_cast<std::uintptr_t>(blocks.back().data()) % 128, 0u) << i;
      pins.push_back(std::make_unique<std::uint64_t>(i));
    }
    EXPECT_GE(resident_bytes(), baseline + kTotal / 2);
    if (!detail::kDirectMap) {
      GTEST_SKIP() << "AddressSanitizer build: large blocks stay on operator new";
    }
  }
  EXPECT_LT(resident_bytes(), baseline + kTotal / 8)
      << "freed blocks stayed resident (baseline " << baseline << " bytes)";
}

TEST(Table, RendersAllRows) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_separator();
  t.add_row({"beta", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("beta"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
}

TEST(Table, Csv) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, JsonRowsStrictNumbersAndEscaping) {
  // Cells strtod happens to parse ("inf", "nan", hex) are not valid
  // bare JSON tokens and must be quoted; control characters inside
  // strings must be \u-escaped.
  Table t({"num", "weird", "text"});
  t.add_row({"-1.5e3", "inf", "a\tb\"c"});
  t.add_row({"42", "0x1A", "nan"});
  std::ostringstream os;
  t.print_json_rows(os);
  EXPECT_EQ(os.str(),
            "{\"num\":-1.5e3,\"weird\":\"inf\",\"text\":\"a\\u0009b\\\"c\"}\n"
            "{\"num\":42,\"weird\":\"0x1A\",\"text\":\"nan\"}\n");
}

TEST(Table, Formatters) {
  EXPECT_EQ(format_double(1.234, 2), "1.23");
  EXPECT_EQ(format_count(42), "42");
  EXPECT_EQ(format_bytes(48 * 1024), "48.0KiB");
  EXPECT_EQ(format_bytes(100), "100B");
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::uint64_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForChunksDisjointCover) {
  ThreadPool pool(3);
  std::vector<int> hits(512, 0);
  std::mutex m;
  pool.parallel_for_chunks(0, hits.size(), [&](std::uint64_t lo, std::uint64_t hi) {
    std::lock_guard g(m);
    for (std::uint64_t i = lo; i < hi; ++i) ++hits[i];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolGrain, BelowTheGrainRunsOnceOnTheCallingThread) {
  ThreadPool pool(4);
  // 1000 indices with a grain of 600 yields one chunk: no fork.
  for (const std::uint64_t grain : {600ull, 1000ull, 5000ull}) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> calls;
    std::vector<std::thread::id> threads;
    pool.parallel_for_chunks(
        0, 1000,
        [&](std::uint64_t lo, std::uint64_t hi) {
          calls.emplace_back(lo, hi);  // unsynchronized: must run on this thread
          threads.push_back(std::this_thread::get_id());
        },
        4, grain);
    ASSERT_EQ(calls.size(), 1u) << grain;
    EXPECT_EQ(calls[0], std::make_pair(std::uint64_t{0}, std::uint64_t{1000}));
    EXPECT_EQ(threads[0], std::this_thread::get_id());
  }
}

TEST(ThreadPoolGrain, AboveTheGrainKeepsTheChunkCount) {
  ThreadPool pool(4);
  const auto count_chunks = [&](std::uint64_t total, std::uint64_t grain) {
    std::atomic<std::uint64_t> chunks{0};
    std::atomic<std::uint64_t> covered{0};
    pool.parallel_for_chunks(
        0, total,
        [&](std::uint64_t lo, std::uint64_t hi) {
          chunks.fetch_add(1);
          covered.fetch_add(hi - lo);
        },
        4, grain);
    EXPECT_EQ(covered.load(), total);
    return chunks.load();
  };
  // 4 workers x 4 chunks each; any grain <= total / 16 leaves it alone.
  EXPECT_EQ(count_chunks(4096, 1), 16u);
  EXPECT_EQ(count_chunks(4096, 256), 16u);
  // Between one chunk and the full count, the grain caps the count.
  EXPECT_EQ(count_chunks(4096, 1024), 4u);
  EXPECT_EQ(count_chunks(4096, 2048), 2u);
}

TEST(ThreadPoolGrain, ExceptionsPropagateInlineAndForked) {
  ThreadPool pool(4);
  for (const std::uint64_t grain : {1ull, 1000ull}) {
    EXPECT_THROW(pool.parallel_for_chunks(
                     0, 1000,
                     [](std::uint64_t lo, std::uint64_t) {
                       if (lo == 0) throw std::runtime_error("chunk failed");
                     },
                     4, grain),
                 std::runtime_error)
        << grain;
  }
}

TEST(ThreadPool, EmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::uint64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleWorkerSerialFallback) {
  ThreadPool pool(1);
  std::uint64_t sum = 0;
  pool.parallel_for(0, 100, [&](std::uint64_t i) { sum += i; });
  EXPECT_EQ(sum, 4950u);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(4);
  // A throwing kernel must surface on the calling thread (previously it
  // escaped a worker and terminated the process), and every chunk must
  // still be accounted for — no hang, pool usable afterwards.
  EXPECT_THROW(
      pool.parallel_for(0, 1000,
                        [&](std::uint64_t i) {
                          if (i == 333) throw std::runtime_error("kernel failure");
                        }),
      std::runtime_error);

  std::atomic<std::uint64_t> sum{0};
  pool.parallel_for(0, 100, [&](std::uint64_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(ThreadPool, ParallelForPropagatesExceptionFromSerialFallback) {
  ThreadPool pool(1);  // degraded inline path must behave identically
  EXPECT_THROW(pool.parallel_for(0, 10,
                                 [](std::uint64_t) { throw std::runtime_error("boom"); }),
               std::runtime_error);
}

TEST(ThreadPool, SubmitTaskReturnsValueThroughFuture) {
  ThreadPool pool(2);
  auto fut = pool.submit_task([] { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, SubmitTaskDeliversExceptionThroughFuture) {
  ThreadPool pool(2);
  auto fut = pool.submit_task([]() -> int { throw std::runtime_error("task failure"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, NestedParallelForFromSubmittedTasksDoesNotDeadlock) {
  // Regression for the runtime executor's pattern: tasks running *on*
  // the pool fan out with parallel_for on the same pool. With blocking
  // waits this deadlocks once tasks occupy every worker; the help-drain
  // path must keep making progress.
  ThreadPool pool(2);
  std::vector<std::future<std::uint64_t>> futs;
  for (int t = 0; t < 8; ++t) {
    futs.push_back(pool.submit_task([&pool] {
      std::atomic<std::uint64_t> sum{0};
      pool.parallel_for(0, 10000, [&](std::uint64_t i) { sum.fetch_add(i); });
      return sum.load();
    }));
  }
  for (auto& f : futs) EXPECT_EQ(f.get(), 49995000u);
}

TEST(Cli, FlagsAndPositional) {
  // NOTE: `--flag value` consumes the next token, so positionals come
  // first or bare boolean flags go last / use `--flag=true`.
  const char* argv[] = {"prog", "pos1", "--n", "1024", "--type=float", "--verbose"};
  Cli cli(6, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("n", 0), 1024);
  EXPECT_EQ(cli.get("type"), "float");
  EXPECT_TRUE(cli.get_bool("verbose"));
  EXPECT_FALSE(cli.get_bool("quiet"));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
}

TEST(Cli, SizeSuffixes) {
  const char* argv[] = {"prog", "--n", "4M", "--m=2K"};
  Cli cli(4, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("n", 0), 4 << 20);
  EXPECT_EQ(cli.get_int("m", 0), 2048);
}

TEST(Cli, ExpectFlagsAcceptsKnownSubset) {
  const char* argv[] = {"prog", "--n", "1024", "--verbose"};
  Cli cli(4, const_cast<char**>(argv));
  std::ostringstream err;
  // Known list may be a superset of what was actually passed.
  EXPECT_TRUE(cli.expect_flags({"n", "verbose", "seed", "csv"}, err));
  EXPECT_TRUE(err.str().empty());
}

TEST(Cli, ExpectFlagsRejectsUnknownWithUsageDump) {
  const char* argv[] = {"prog", "--n", "1024", "--fautl-rate", "0.3"};
  Cli cli(5, const_cast<char**>(argv));
  std::ostringstream err;
  EXPECT_FALSE(cli.expect_flags({"n", "fault-rate"}, err));
  const std::string msg = err.str();
  EXPECT_NE(msg.find("unknown flag --fautl-rate"), std::string::npos);
  EXPECT_NE(msg.find("usage:"), std::string::npos);
  EXPECT_NE(msg.find("--fault-rate"), std::string::npos);
}

TEST(Cli, ExpectFlagsReportsEveryOffender) {
  const char* argv[] = {"prog", "--bogus=1", "--also-bogus=2"};
  Cli cli(3, const_cast<char**>(argv));
  std::ostringstream err;
  EXPECT_FALSE(cli.expect_flags({"n"}, err));
  EXPECT_NE(err.str().find("--bogus"), std::string::npos);
  EXPECT_NE(err.str().find("--also-bogus"), std::string::npos);
}

TEST(Cli, ExpectFlagsIgnoresPositionals) {
  const char* argv[] = {"prog", "ping", "--port", "9"};
  Cli cli(4, const_cast<char**>(argv));
  std::ostringstream err;
  EXPECT_TRUE(cli.expect_flags({"port"}, err));
}

TEST(BufferPool, ClassRoundingIsPowerOfTwoFlooredAtMin) {
  EXPECT_EQ(BufferPool::class_bytes(1, 4096), 4096u);
  EXPECT_EQ(BufferPool::class_bytes(4096, 4096), 4096u);
  EXPECT_EQ(BufferPool::class_bytes(4097, 4096), 8192u);
  EXPECT_EQ(BufferPool::class_bytes(12000, 4096), 16384u);
  EXPECT_EQ(BufferPool::class_bytes(1 << 20, 4096), 1u << 20);
  EXPECT_EQ(BufferPool::class_bytes(100, 256), 256u);
}

TEST(BufferPool, ReleasedBlockIsReusedBySameClass) {
  BufferPool pool;
  std::uint8_t* first = nullptr;
  {
    PooledBuffer b = pool.try_acquire(10000);
    ASSERT_TRUE(b.valid());
    first = b.data();
  }
  PooledBuffer again = pool.try_acquire(9000);  // same 16K class
  ASSERT_TRUE(again.valid());
  EXPECT_EQ(again.data(), first);
  const BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
}

TEST(BufferPool, BuffersAre128ByteAligned) {
  BufferPool pool;
  for (std::size_t bytes : {1u, 5000u, 70000u}) {
    PooledBuffer b = pool.try_acquire(bytes);
    ASSERT_TRUE(b.valid());
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % kBufferAlignment, 0u);
    EXPECT_GE(b.capacity(), bytes);
  }
}

TEST(BufferPool, ZeroByteAcquireIsValidAndFree) {
  BufferPool pool;
  PooledBuffer b = pool.try_acquire(0);
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.capacity(), 0u);
  const BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.hits + s.misses, 0u);
}

TEST(BufferPool, AsSpanViewsTheBlock) {
  BufferPool pool;
  PooledBuffer b = pool.try_acquire(256 * sizeof(std::uint32_t));
  std::span<std::uint32_t> view = b.as_span<std::uint32_t>(256);
  ASSERT_EQ(view.size(), 256u);
  for (std::uint32_t i = 0; i < 256; ++i) view[i] = i;
  EXPECT_EQ(view[255], 255u);
}

TEST(BufferPool, OutstandingCapRefusesAndCounts) {
  BufferPool::Config config;
  config.min_class_bytes = 4096;
  config.max_outstanding_bytes = 8192;
  BufferPool pool(config);
  PooledBuffer a = pool.try_acquire(4096);
  PooledBuffer b = pool.try_acquire(4096);
  ASSERT_TRUE(a.valid() && b.valid());
  PooledBuffer c = pool.try_acquire(4096);  // would exceed the cap
  EXPECT_FALSE(c.valid());
  EXPECT_THROW((void)pool.acquire(4096), std::bad_alloc);
  EXPECT_EQ(pool.stats().acquire_failures, 2u);
  a.reset();  // frees headroom: the next acquire succeeds again
  PooledBuffer d = pool.try_acquire(4096);
  EXPECT_TRUE(d.valid());
}

TEST(BufferPool, PooledCapTrimsInsteadOfCaching) {
  BufferPool::Config config;
  config.min_class_bytes = 4096;
  config.max_pooled_bytes = 4096;
  BufferPool pool(config);
  { PooledBuffer a = pool.try_acquire(4096); }  // pooled (fills the cap)
  { PooledBuffer b = pool.try_acquire(8192); }  // released over the cap: freed
  const BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.trims, 1u);
  EXPECT_LE(s.pooled_bytes, 4096u);
  EXPECT_EQ(s.releases, 2u);
}

TEST(BufferPool, TrimFreesEveryCachedBlock) {
  BufferPool pool;
  { PooledBuffer a = pool.try_acquire(4096); }
  { PooledBuffer b = pool.try_acquire(65536); }
  EXPECT_GT(pool.stats().pooled_bytes, 0u);
  pool.trim();
  EXPECT_EQ(pool.stats().pooled_bytes, 0u);
  EXPECT_EQ(pool.stats().outstanding_bytes, 0u);
}

TEST(BufferPool, SteadyStateHasNoMissesAfterWarmup) {
  BufferPool pool;
  for (int i = 0; i < 3; ++i) {  // warm one buffer per class used below
    PooledBuffer warm = pool.try_acquire(4096);
  }
  const std::uint64_t misses_before = pool.stats().misses;
  for (int i = 0; i < 100; ++i) {
    PooledBuffer b = pool.try_acquire(4096);
    ASSERT_TRUE(b.valid());
  }
  EXPECT_EQ(pool.stats().misses, misses_before);
}

// Exercised under TSan in CI: concurrent acquire/release across size
// classes must not race on the free lists or the stats counters.
TEST(BufferPool, ConcurrentAcquireReleaseIsRaceFree) {
  BufferPool pool;
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 400;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        const std::size_t bytes = 1024u << (static_cast<unsigned>(t + i) % 4);
        PooledBuffer b = pool.try_acquire(bytes);
        ASSERT_TRUE(b.valid());
        b.data()[0] = static_cast<std::uint8_t>(i);
        b.data()[b.capacity() - 1] = static_cast<std::uint8_t>(t);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.hits + s.misses, static_cast<std::uint64_t>(kThreads) * kItersPerThread);
  EXPECT_EQ(s.outstanding_bytes, 0u);
  EXPECT_EQ(s.releases, s.hits + s.misses);
}

// --- NUMA topology + node-aware pool/worker placement ------------------

TEST(Numa, TopologyHasAtLeastOneNodeAndCoversCpus) {
  const numa::Topology& topo = numa::topology();
  ASSERT_GE(topo.nodes(), 1);
  EXPECT_EQ(numa::node_count(), topo.nodes());
  // Every CPU listed under a node must map back to that node.
  for (int node = 0; node < topo.nodes(); ++node) {
    for (int cpu : topo.node_cpus[static_cast<std::size_t>(node)]) {
      EXPECT_EQ(numa::node_of_cpu(cpu), node);
    }
  }
  // Unknown CPUs clamp to node 0, never out of range.
  EXPECT_EQ(numa::node_of_cpu(-1), 0);
  EXPECT_EQ(numa::node_of_cpu(1 << 20), 0);
}

TEST(Numa, CurrentNodeIsInRange) {
  const int node = numa::current_node();
  EXPECT_GE(node, 0);
  EXPECT_LT(node, numa::node_count());
}

TEST(Numa, AwareRequiresMultipleNodes) {
  // aware() may also be vetoed by HMM_NUMA=0; the invariant that must
  // hold everywhere is: single-node machines are never "aware".
  if (numa::node_count() <= 1) {
    EXPECT_FALSE(numa::aware());
  }
}

TEST(BufferPool, AcquireOnNodeTagsAndRoundTrips) {
  BufferPool pool;
  PooledBuffer buf = pool.try_acquire_on_node(4096, 0);
  ASSERT_TRUE(buf.valid());
  EXPECT_EQ(buf.node(), 0);
  buf.reset();  // releases back to node 0's free list
  PooledBuffer again = pool.try_acquire_on_node(4096, 0);
  ASSERT_TRUE(again.valid());
  const BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.hits, 1u);  // second acquire reuses the released block
  EXPECT_EQ(s.misses, 1u);
}

TEST(BufferPool, OutOfRangeNodeClampsToZero) {
  BufferPool pool;
  PooledBuffer buf = pool.try_acquire_on_node(1024, 99);
  ASSERT_TRUE(buf.valid());
  EXPECT_EQ(buf.node(), 0);
  buf.reset();
  // The clamped release lands on node 0, where plain try_acquire (on a
  // single-node box) finds it again.
  PooledBuffer again = pool.try_acquire_on_node(1024, 0);
  ASSERT_TRUE(again.valid());
  EXPECT_EQ(pool.stats().hits, 1u);
}

TEST(ThreadPool, PinnedConstructionStillRunsWork) {
  // On a single-node machine pinning degenerates to the unpinned pool;
  // on a multi-node machine this exercises per-node queues + stealing.
  ThreadPool pool(2, /*pin_workers=*/true);
  if (numa::node_count() <= 1) {
    EXPECT_FALSE(pool.workers_pinned());
  }
  std::atomic<std::uint64_t> sum{0};
  pool.parallel_for_chunks(0, 1000, [&sum](std::uint64_t lo, std::uint64_t hi) {
    std::uint64_t local = 0;
    for (std::uint64_t i = lo; i < hi; ++i) local += i;
    sum.fetch_add(local, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 1000u * 999u / 2u);
  for (unsigned i = 0; i < pool.size(); ++i) {
    const int node = pool.worker_node(i);
    EXPECT_GE(node, 0);
    EXPECT_LT(node, numa::node_count());
  }
}

}  // namespace
}  // namespace hmm::util
