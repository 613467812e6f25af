#pragma once
/// \file fingerprint.hpp
/// \brief 64-bit cache keys for compiled permutation plans.
///
/// A compiled `core::OfflinePermuter` is fully determined by
///   (permutation mapping, machine parameters, strategy, element width),
/// so the plan cache keys entries by an FNV-1a hash over exactly those
/// inputs: the mapping is hashed once into its fingerprint (which is
/// also the wire plan id, carried by a `PlanHandle`), and the key mixes
/// that fingerprint with the rest. Each hash is seeded with its own
/// schema tag so a change to either schema can never silently alias
/// values of an older one.
///
/// FNV-1a is not collision-free; the cache treats the fingerprint as an
/// identity (no stored-key comparison) because a 64-bit hash over the
/// handful of distinct permutations a service compiles makes accidental
/// collision astronomically unlikely (~2^-64 per pair). The fingerprint
/// of the *permutation words* dominates the input, so two permutations
/// differing in a single image get unrelated keys.

#include <cstdint>
#include <memory>
#include <span>

#include "model/machine.hpp"
#include "perm/permutation.hpp"

namespace hmm::runtime {

/// Streaming FNV-1a (64-bit). Deterministic across platforms for the
/// integer-typed update helpers (values are fed little-endian).
class Fnv1a64 {
 public:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ull;
  static constexpr std::uint64_t kPrime = 0x100000001b3ull;

  constexpr Fnv1a64() = default;

  constexpr Fnv1a64& update_byte(std::uint8_t b) noexcept {
    state_ = (state_ ^ b) * kPrime;
    return *this;
  }

  constexpr Fnv1a64& update_u32(std::uint32_t v) noexcept {
    for (int i = 0; i < 4; ++i) update_byte(static_cast<std::uint8_t>(v >> (8 * i)));
    return *this;
  }

  constexpr Fnv1a64& update_u64(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) update_byte(static_cast<std::uint8_t>(v >> (8 * i)));
    return *this;
  }

  Fnv1a64& update_u32_span(std::span<const std::uint32_t> words) noexcept;

  [[nodiscard]] constexpr std::uint64_t digest() const noexcept { return state_; }

 private:
  std::uint64_t state_ = kOffsetBasis;
};

/// Strongly typed wrapper so a fingerprint can't be confused with a
/// byte count or an index in an interface.
struct Fingerprint {
  std::uint64_t value = 0;

  friend constexpr bool operator==(Fingerprint, Fingerprint) = default;
};

/// Hash of the permutation mapping alone (no machine / strategy).
[[nodiscard]] Fingerprint fingerprint_permutation(const perm::Permutation& p);

/// Same hash over a raw mapping span (host order). This *is* the wire
/// plan id: SUBMIT_PLAN answers it and the router consistent-hashes on
/// it, so it must agree bit-for-bit with `fingerprint_permutation` of a
/// Permutation built from the same words (tested as such).
[[nodiscard]] Fingerprint fingerprint_mapping(std::span<const std::uint32_t> words);

/// Full plan-cache key: the mapping fingerprint mixed with machine
/// parameters + strategy tag + element width in bytes, under its own
/// schema tag (so a key never equals a plan id). `strategy_tag` is the
/// integer value of `core::Strategy` (kept as an int here so this
/// header does not depend on core/). O(1): the words were hashed once,
/// into `mapping`.
[[nodiscard]] Fingerprint fingerprint_plan_key(Fingerprint mapping,
                                               const model::MachineParams& machine,
                                               int strategy_tag, std::uint32_t elem_bytes);

/// The same key for a raw permutation: hashes the words, then mixes.
[[nodiscard]] Fingerprint fingerprint_plan_key(const perm::Permutation& p,
                                               const model::MachineParams& machine,
                                               int strategy_tag, std::uint32_t elem_bytes);

/// A shared permutation together with its mapping fingerprint, hashed
/// exactly once. The server mints one per SUBMIT_PLAN and serves every
/// later request from it, so a cache hit costs a key mix instead of a
/// pass over the words. The only way to make a non-empty handle is the
/// constructor, which hashes; the fingerprint can therefore never
/// disagree with the words (the permutation is immutable).
class PlanHandle {
 public:
  PlanHandle() = default;
  explicit PlanHandle(std::shared_ptr<const perm::Permutation> p)
      : perm_(std::move(p)), fp_(perm_ ? fingerprint_permutation(*perm_) : Fingerprint{}) {}

  /// A handle that does not own `p` — for the raw-`Permutation`
  /// overloads, which hash once and then run the handle path within a
  /// single call. Valid only while `p` lives; never store one.
  [[nodiscard]] static PlanHandle borrow(const perm::Permutation& p) {
    // Aliasing constructor with an empty owner: points at p, owns nothing.
    return PlanHandle(
        std::shared_ptr<const perm::Permutation>(std::shared_ptr<const void>(), &p));
  }

  [[nodiscard]] explicit operator bool() const noexcept { return perm_ != nullptr; }
  /// Pre: non-empty.
  [[nodiscard]] const perm::Permutation& permutation() const noexcept { return *perm_; }
  [[nodiscard]] const std::shared_ptr<const perm::Permutation>& shared() const noexcept {
    return perm_;
  }
  /// `fingerprint_permutation(permutation())` — the wire plan id.
  [[nodiscard]] Fingerprint fingerprint() const noexcept { return fp_; }

 private:
  std::shared_ptr<const perm::Permutation> perm_;
  Fingerprint fp_;
};

}  // namespace hmm::runtime
