#pragma once
/// \file rng.hpp
/// \brief Deterministic, fast PRNG (xoshiro256**) used by generators,
///        property tests, and benchmark workloads.
///
/// A fixed seed gives fully reproducible experiment tables; the engine
/// satisfies the `std::uniform_random_bit_generator` concept so it can
/// drive `std::shuffle`-style code, but we provide our own unbiased
/// bounded sampler to keep results identical across standard libraries.

#include <cstdint>

namespace hmm::util {

/// The splitmix64 golden-ratio increment.
inline constexpr std::uint64_t kGolden64 = 0x9e3779b97f4a7c15ull;

/// splitmix64 finalizer: a cheap, full-avalanche 64 -> 64 bit mix.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Deterministic jittered exponential backoff, in microseconds:
/// `delay = min(base_us << doublings, cap_us)` plus a jitter in
/// [0, delay) drawn from `mix64(seed ^ kGolden64 * salt)`. Equal inputs
/// give equal pauses, so chaos and failover runs replay exactly, while
/// distinct salts keep concurrent retriers from marching in lockstep.
constexpr std::uint64_t jittered_backoff_us(std::uint64_t base_us, std::uint64_t cap_us,
                                            int doublings, std::uint64_t seed,
                                            std::uint64_t salt) noexcept {
  const std::uint64_t grown = base_us << doublings;
  const std::uint64_t delay = grown < cap_us ? grown : cap_us;
  return delay == 0 ? 0 : delay + mix64(seed ^ (kGolden64 * salt)) % delay;
}

/// SplitMix64 — used to expand a 64-bit seed into xoshiro state.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept { return mix64(state_ += kGolden64); }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference algorithm).
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed = 0x1234abcd5678ef90ull) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ull; }

  std::uint64_t operator()() noexcept { return next(); }
  std::uint64_t next() noexcept;

  /// Unbiased uniform draw in [0, bound) via Lemire rejection.
  std::uint64_t bounded(std::uint64_t bound) noexcept;

  /// Uniform double in [0, 1).
  double uniform01() noexcept;

  /// Long-jump: advance 2^192 steps (for carving independent streams).
  void long_jump() noexcept;

 private:
  std::uint64_t s_[4];
};

}  // namespace hmm::util
