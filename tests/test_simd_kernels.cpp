/// Differential battery for the SIMD kernel tiers: every vector
/// variant must be BIT-identical to the scalar oracle — not just
/// value-equal. Outputs are compared with memcmp, and the float/double
/// runs are seeded with raw random bit patterns (which include NaNs,
/// denormals, and negative zeros), so a variant that round-trips
/// values through arithmetic instead of moving bits would be caught.
/// Shapes deliberately include odd tails (cols not a multiple of any
/// lane width), single rows/columns, and the batched quad-lane
/// geometries the serving path uses.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "core/layout.hpp"
#include "cpu/dispatch.hpp"
#include "cpu/kernels.hpp"
#include "perm/generators.hpp"
#include "util/aligned_vector.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace hmm::cpu {
namespace {

/// Fill with raw random bits reinterpreted as T: exercises every bit
/// pattern, including ones that are not valid arithmetic values.
template <class T>
util::aligned_vector<T> random_bits(std::uint64_t n, std::uint64_t seed) {
  util::aligned_vector<T> v(n);
  util::Xoshiro256 rng(seed);
  for (auto& x : v) {
    const std::uint64_t bits = rng.next();
    std::memcpy(&x, &bits, sizeof(T));
  }
  return v;
}

/// Random permutation of [0, n) as uint16 (for row schedules).
std::vector<std::uint16_t> random_perm16(std::uint64_t n, util::Xoshiro256& rng) {
  std::vector<std::uint16_t> p(n);
  for (std::uint64_t j = 0; j < n; ++j) p[j] = static_cast<std::uint16_t>(j);
  for (std::uint64_t j = n - 1; j > 0; --j) std::swap(p[j], p[rng.bounded(j + 1)]);
  return p;
}

template <class T>
void expect_bit_identical(const util::aligned_vector<T>& got,
                          const util::aligned_vector<T>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(T)), 0) << what;
}

/// Run `fn` with the given variant temporarily installed.
template <class Fn>
void with_variant(KernelVariant v, Fn&& fn) {
  const KernelVariant prev = kernel_variant();
  ASSERT_EQ(set_kernel_variant(v), v);
  fn();
  set_kernel_variant(prev);
}

/// Fixture parameterized by the variant under test; skips (not fails)
/// when the CPU or build cannot run it, so CI on older machines stays
/// green while still proving the scalar leg.
class SimdVariantTest : public ::testing::TestWithParam<KernelVariant> {
 protected:
  void SetUp() override {
    prev_ = kernel_variant();
    if (set_kernel_variant(GetParam()) != GetParam()) {
      set_kernel_variant(prev_);
      GTEST_SKIP() << "variant " << to_string(GetParam())
                   << " unsupported on this CPU/build";
    }
  }
  void TearDown() override { set_kernel_variant(prev_); }

  KernelVariant prev_{};
};

constexpr std::uint64_t kRowCounts[] = {1, 3, 17};
constexpr std::uint64_t kColCounts[] = {1, 7, 16, 24, 100, 257, 1000};

template <class T>
void run_row_pass_differential(KernelVariant variant) {
  util::ThreadPool pool(2);
  for (const std::uint64_t rows : kRowCounts) {
    for (const std::uint64_t cols : kColCounts) {
      const std::uint64_t n = rows * cols;
      util::Xoshiro256 rng(rows * 100003 + cols);
      std::vector<std::uint16_t> phat(n), q(n);
      for (std::uint64_t r = 0; r < rows; ++r) {
        const auto ph = random_perm16(cols, rng);
        const auto qq = random_perm16(cols, rng);
        std::copy(ph.begin(), ph.end(), phat.begin() + static_cast<std::ptrdiff_t>(r * cols));
        std::copy(qq.begin(), qq.end(), q.begin() + static_cast<std::ptrdiff_t>(r * cols));
      }
      const auto in = random_bits<T>(n, n + sizeof(T));
      util::aligned_vector<T> want(n), got(n);
      with_variant(KernelVariant::kScalar, [&] {
        row_wise_pass<T>(pool, in, want, rows, cols, phat, q);
      });
      with_variant(variant, [&] {
        row_wise_pass<T>(pool, in, got, rows, cols, phat, q);
      });
      expect_bit_identical(got, want, "row_wise_pass");
    }
  }
}

TEST_P(SimdVariantTest, RowPassBitIdenticalU32) {
  run_row_pass_differential<std::uint32_t>(GetParam());
}
TEST_P(SimdVariantTest, RowPassBitIdenticalU64) {
  run_row_pass_differential<std::uint64_t>(GetParam());
}
TEST_P(SimdVariantTest, RowPassBitIdenticalFloat) {
  run_row_pass_differential<float>(GetParam());
}
TEST_P(SimdVariantTest, RowPassBitIdenticalDouble) {
  run_row_pass_differential<double>(GetParam());
}

template <class T>
void run_row_pass_batched_differential(KernelVariant variant) {
  util::ThreadPool pool(2);
  const std::uint64_t rows = 5;
  for (const std::uint64_t cols : {24ull, 100ull, 256ull}) {
    for (const std::uint64_t lanes : {1ull, 2ull, 4ull, 5ull, 9ull}) {
      const std::uint64_t n = rows * cols;
      util::Xoshiro256 rng(cols * 31 + lanes);
      std::vector<std::uint16_t> phat(n), q(n);
      for (std::uint64_t r = 0; r < rows; ++r) {
        const auto ph = random_perm16(cols, rng);
        const auto qq = random_perm16(cols, rng);
        std::copy(ph.begin(), ph.end(), phat.begin() + static_cast<std::ptrdiff_t>(r * cols));
        std::copy(qq.begin(), qq.end(), q.begin() + static_cast<std::ptrdiff_t>(r * cols));
      }
      std::vector<util::aligned_vector<T>> ins, wants, gots;
      std::vector<const T*> srcs;
      std::vector<T*> want_ptrs, got_ptrs;
      for (std::uint64_t l = 0; l < lanes; ++l) {
        ins.push_back(random_bits<T>(n, l * 7919 + cols));
        wants.emplace_back(n);
        gots.emplace_back(n);
      }
      for (std::uint64_t l = 0; l < lanes; ++l) {
        srcs.push_back(ins[l].data());
        want_ptrs.push_back(wants[l].data());
        got_ptrs.push_back(gots[l].data());
      }
      with_variant(KernelVariant::kScalar, [&] {
        row_wise_pass_batched<T>(pool, srcs, want_ptrs, rows, cols, phat, q);
      });
      with_variant(variant, [&] {
        row_wise_pass_batched<T>(pool, srcs, got_ptrs, rows, cols, phat, q);
      });
      for (std::uint64_t l = 0; l < lanes; ++l) {
        expect_bit_identical(gots[l], wants[l], "row_wise_pass_batched");
      }
    }
  }
}

TEST_P(SimdVariantTest, RowPassBatchedBitIdenticalU32) {
  run_row_pass_batched_differential<std::uint32_t>(GetParam());
}
TEST_P(SimdVariantTest, RowPassBatchedBitIdenticalU64) {
  run_row_pass_batched_differential<std::uint64_t>(GetParam());
}
TEST_P(SimdVariantTest, RowPassBatchedBitIdenticalFloat) {
  run_row_pass_batched_differential<float>(GetParam());
}
TEST_P(SimdVariantTest, RowPassBatchedBitIdenticalDouble) {
  run_row_pass_batched_differential<double>(GetParam());
}

template <class T>
void run_transpose_differential(KernelVariant variant) {
  util::ThreadPool pool(2);
  const std::pair<std::uint64_t, std::uint64_t> shapes[] = {
      {7, 13}, {32, 32}, {100, 52}, {1, 128}, {128, 1}, {64, 16}, {33, 17}};
  for (const auto& [rows, cols] : shapes) {
    for (const std::uint64_t tile : {1ull, 5ull, 16ull, 32ull}) {
      const std::uint64_t n = rows * cols;
      const auto in = random_bits<T>(n, rows * 31 + cols * 7 + tile);
      util::aligned_vector<T> want(n), got(n);
      with_variant(KernelVariant::kScalar, [&] {
        transpose_blocked<T>(pool, in, want, rows, cols, tile);
      });
      with_variant(variant, [&] {
        transpose_blocked<T>(pool, in, got, rows, cols, tile);
      });
      expect_bit_identical(got, want, "transpose_blocked");
    }
  }
}

TEST_P(SimdVariantTest, TransposeBitIdenticalU32) {
  run_transpose_differential<std::uint32_t>(GetParam());
}
TEST_P(SimdVariantTest, TransposeBitIdenticalU64) {
  run_transpose_differential<std::uint64_t>(GetParam());
}
TEST_P(SimdVariantTest, TransposeBitIdenticalFloat) {
  run_transpose_differential<float>(GetParam());
}
TEST_P(SimdVariantTest, TransposeBitIdenticalDouble) {
  run_transpose_differential<double>(GetParam());
}

template <class T>
void run_transpose_batched_differential(KernelVariant variant) {
  util::ThreadPool pool(2);
  const std::uint64_t rows = 33, cols = 21;
  const std::uint64_t n = rows * cols;
  for (const std::uint64_t lanes : {1ull, 2ull, 4ull, 5ull, 9ull}) {
    std::vector<util::aligned_vector<T>> ins, wants, gots;
    std::vector<const T*> srcs;
    std::vector<T*> want_ptrs, got_ptrs;
    for (std::uint64_t l = 0; l < lanes; ++l) {
      ins.push_back(random_bits<T>(n, l * 104729 + lanes));
      wants.emplace_back(n);
      gots.emplace_back(n);
    }
    for (std::uint64_t l = 0; l < lanes; ++l) {
      srcs.push_back(ins[l].data());
      want_ptrs.push_back(wants[l].data());
      got_ptrs.push_back(gots[l].data());
    }
    with_variant(KernelVariant::kScalar, [&] {
      transpose_blocked_batched<T>(pool, srcs, want_ptrs, rows, cols, 16);
    });
    with_variant(variant, [&] {
      transpose_blocked_batched<T>(pool, srcs, got_ptrs, rows, cols, 16);
    });
    for (std::uint64_t l = 0; l < lanes; ++l) {
      expect_bit_identical(gots[l], wants[l], "transpose_blocked_batched");
    }
  }
}

TEST_P(SimdVariantTest, TransposeBatchedBitIdenticalU32) {
  run_transpose_batched_differential<std::uint32_t>(GetParam());
}
TEST_P(SimdVariantTest, TransposeBatchedBitIdenticalU64) {
  run_transpose_batched_differential<std::uint64_t>(GetParam());
}
TEST_P(SimdVariantTest, TransposeBatchedBitIdenticalFloat) {
  run_transpose_batched_differential<float>(GetParam());
}
TEST_P(SimdVariantTest, TransposeBatchedBitIdenticalDouble) {
  run_transpose_batched_differential<double>(GetParam());
}

template <class T>
void run_conventional_differential(KernelVariant variant) {
  util::ThreadPool pool(2);
  const std::uint64_t n = 50021;  // odd: exercises every tail path
  const perm::Permutation p = perm::by_name("random", n, 11);
  const auto a = random_bits<T>(n, n);
  util::aligned_vector<T> want_s(n), got_s(n), want_g(n), got_g(n);
  with_variant(KernelVariant::kScalar, [&] {
    scatter<T>(pool, a, want_s, p.data());
    gather<T>(pool, a, want_g, p.data());
  });
  with_variant(variant, [&] {
    scatter<T>(pool, a, got_s, p.data());
    gather<T>(pool, a, got_g, p.data());
  });
  expect_bit_identical(got_s, want_s, "scatter");
  expect_bit_identical(got_g, want_g, "gather");
}

TEST_P(SimdVariantTest, GatherScatterBitIdenticalU32) {
  run_conventional_differential<std::uint32_t>(GetParam());
}
TEST_P(SimdVariantTest, GatherScatterBitIdenticalU64) {
  run_conventional_differential<std::uint64_t>(GetParam());
}
TEST_P(SimdVariantTest, GatherScatterBitIdenticalFloat) {
  run_conventional_differential<float>(GetParam());
}
TEST_P(SimdVariantTest, GatherScatterBitIdenticalDouble) {
  run_conventional_differential<double>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(SimdKernels, SimdVariantTest,
                         ::testing::Values(KernelVariant::kAvx2, KernelVariant::kAvx512),
                         [](const ::testing::TestParamInfo<KernelVariant>& param_info) {
                           return std::string(to_string(param_info.param));
                         });

// ---- the fork/join grain ---------------------------------------------
//
// Every kernel runs inline below `kMinChunkBytes` of traffic per chunk
// and forks above it. This battery checks each kernel against a plain
// serial reference for n = 2^10 .. 2^22, which straddles the grain, on
// a 4-worker pool and for every variant (scalar included).

class GrainBatteryTest : public SimdVariantTest {};

/// Row schedules for a rows x cols matrix: random per-row permutations.
struct RowSchedules {
  std::vector<std::uint16_t> phat, q;
};

RowSchedules random_schedules(std::uint64_t rows, std::uint64_t cols, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  RowSchedules s{std::vector<std::uint16_t>(rows * cols),
                 std::vector<std::uint16_t>(rows * cols)};
  for (std::uint64_t r = 0; r < rows; ++r) {
    const auto ph = random_perm16(cols, rng);
    const auto qq = random_perm16(cols, rng);
    std::copy(ph.begin(), ph.end(), s.phat.begin() + static_cast<std::ptrdiff_t>(r * cols));
    std::copy(qq.begin(), qq.end(), s.q.begin() + static_cast<std::ptrdiff_t>(r * cols));
  }
  return s;
}

TEST_P(GrainBatteryTest, EveryKernelMatchesTheSerialReferenceAcrossTheGrain) {
  util::ThreadPool pool(4);
  for (int lg = 10; lg <= 22; lg += 2) {
    SCOPED_TRACE("n = 2^" + std::to_string(lg));
    const std::uint64_t n = std::uint64_t{1} << lg;
    const std::uint64_t cols = 1024;
    const std::uint64_t rows = n / cols;
    const auto in = random_bits<std::uint32_t>(n, n + 1);
    util::aligned_vector<std::uint32_t> want(n), got(n);

    const RowSchedules s = random_schedules(rows, cols, n);
    for (std::uint64_t r = 0; r < rows; ++r) {
      for (std::uint64_t k = 0; k < cols; ++k) {
        want[r * cols + s.q[r * cols + k]] = in[r * cols + s.phat[r * cols + k]];
      }
    }
    row_wise_pass<std::uint32_t>(pool, in, got, rows, cols, s.phat, s.q);
    expect_bit_identical(got, want, "row_wise_pass");

    // Direct-g pass with g = q o phat^-1 reproduces the same output.
    std::vector<std::uint16_t> g(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      g[(i / cols) * cols + s.phat[i]] = s.q[i];
    }
    std::fill(got.begin(), got.end(), 0u);
    row_wise_pass_direct<std::uint32_t>(pool, in, got, rows, cols, g);
    expect_bit_identical(got, want, "row_wise_pass_direct");

    const util::aligned_vector<std::uint32_t> in2 = random_bits<std::uint32_t>(n, n + 2);
    util::aligned_vector<std::uint32_t> want2(n), got2(n);
    for (std::uint64_t r = 0; r < rows; ++r) {
      for (std::uint64_t k = 0; k < cols; ++k) {
        want2[r * cols + s.q[r * cols + k]] = in2[r * cols + s.phat[r * cols + k]];
      }
    }
    std::fill(got.begin(), got.end(), 0u);
    const std::uint32_t* srcs[] = {in.data(), in2.data()};
    std::uint32_t* dsts[] = {got.data(), got2.data()};
    row_wise_pass_batched<std::uint32_t>(pool, srcs, dsts, rows, cols, s.phat, s.q);
    expect_bit_identical(got, want, "row_wise_pass_batched lane 0");
    expect_bit_identical(got2, want2, "row_wise_pass_batched lane 1");

    for (std::uint64_t i = 0; i < rows; ++i) {
      for (std::uint64_t j = 0; j < cols; ++j) want[j * rows + i] = in[i * cols + j];
    }
    for (std::uint64_t i = 0; i < rows; ++i) {
      for (std::uint64_t j = 0; j < cols; ++j) want2[j * rows + i] = in2[i * cols + j];
    }
    transpose_blocked<std::uint32_t>(pool, in, got, rows, cols, 32);
    expect_bit_identical(got, want, "transpose_blocked");
    std::fill(got.begin(), got.end(), 0u);
    std::fill(got2.begin(), got2.end(), 0u);
    transpose_blocked_batched<std::uint32_t>(pool, srcs, dsts, rows, cols, 16);
    expect_bit_identical(got, want, "transpose_blocked_batched lane 0");
    expect_bit_identical(got2, want2, "transpose_blocked_batched lane 1");

    const perm::Permutation p = perm::by_name("random", n, static_cast<std::uint64_t>(lg));
    const auto map = p.data();
    for (std::uint64_t i = 0; i < n; ++i) want[map[i]] = in[i];
    scatter<std::uint32_t>(pool, in, got, map);
    expect_bit_identical(got, want, "scatter");
    for (std::uint64_t i = 0; i < n; ++i) want[i] = in[map[i]];
    gather<std::uint32_t>(pool, in, got, map);
    expect_bit_identical(got, want, "gather");
  }
}

INSTANTIATE_TEST_SUITE_P(KernelGrain, GrainBatteryTest,
                         ::testing::Values(KernelVariant::kScalar, KernelVariant::kAvx2,
                                           KernelVariant::kAvx512),
                         [](const ::testing::TestParamInfo<KernelVariant>& param) {
                           return std::string(to_string(param.param));
                         });

TEST(KernelGrain, FullPartitionAtFourMillionElements) {
  // At n = 2^22 every kernel's grain leaves the 4-worker pool's
  // partition of 16 chunks untouched (the count parallel_for_chunks
  // plans is min(16, units / grain), at least 1).
  constexpr std::uint64_t kChunks = 16;
  constexpr std::uint64_t n = std::uint64_t{1} << 22, tile = 32;
  const core::MatrixShape shape = core::shape_for(n, 32);
  const std::uint64_t rows = shape.rows, cols = shape.cols;
  const auto chunks = [](std::uint64_t units, std::uint64_t unit_bytes) {
    return std::max<std::uint64_t>(1, units / detail::grain_units(unit_bytes));
  };
  for (const std::uint64_t elem : {4ull, 8ull}) {
    EXPECT_GE(chunks(rows, cols * (2 * elem + 4)), kChunks) << "row pass";
    EXPECT_GE(chunks(rows, cols * (2 * elem + 2)), kChunks) << "direct row pass";
    EXPECT_GE(chunks((rows / tile) * (cols / tile), tile * tile * 2 * elem), kChunks)
        << "transpose";
    EXPECT_GE(chunks(n, 2 * elem + 4), kChunks) << "gather / scatter";
  }
  // A whole 8K-element request is under the grain: it runs inline.
  EXPECT_EQ(chunks(8, 1024 * (2 * 4 + 4)), 1u);
}

// ---- dispatcher behavior ---------------------------------------------

TEST(KernelDispatch, BestVariantIsSupported) {
  const KernelVariant best = best_kernel_variant();
  EXPECT_EQ(set_kernel_variant(best), best);
}

TEST(KernelDispatch, ScalarAlwaysSelectable) {
  const KernelVariant prev = kernel_variant();
  EXPECT_EQ(set_kernel_variant(KernelVariant::kScalar), KernelVariant::kScalar);
  EXPECT_EQ(kernel_variant(), KernelVariant::kScalar);
  // No ops table in scalar mode: every kernel takes the oracle loop.
  EXPECT_EQ(active_kernel_ops(4), nullptr);
  EXPECT_EQ(active_kernel_ops(8), nullptr);
  set_kernel_variant(prev);
}

TEST(KernelDispatch, UnsupportedWidthsRunScalar) {
  // 2-byte elements have no SIMD table in any tier.
  EXPECT_EQ(active_kernel_ops(2), nullptr);
  EXPECT_EQ(active_kernel_ops(16), nullptr);
}

TEST(KernelDispatch, RequestsClampDownward) {
  const KernelVariant prev = kernel_variant();
  const CpuFeatures& f = cpu_features();
  const KernelVariant got = set_kernel_variant(KernelVariant::kAvx512);
  if (f.avx512) {
    EXPECT_EQ(got, KernelVariant::kAvx512);
  } else if (f.avx2) {
    EXPECT_EQ(got, KernelVariant::kAvx2);
  } else {
    EXPECT_EQ(got, KernelVariant::kScalar);
  }
  set_kernel_variant(prev);
}

}  // namespace
}  // namespace hmm::cpu
