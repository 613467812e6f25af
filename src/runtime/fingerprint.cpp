#include "runtime/fingerprint.hpp"

namespace hmm::runtime {
namespace {

/// Schema tag of the mapping fingerprint (the wire plan id). Bumping
/// it changes every plan id, so it stays 1.
constexpr std::uint64_t kKeySchemaVersion = 1;
/// Schema tag of the plan-cache key; bumped whenever its fields, order
/// or widths change. (1 hashed the words inline; 2 mixes the mapping
/// fingerprint.)
constexpr std::uint64_t kPlanKeySchemaVersion = 2;

}  // namespace

Fnv1a64& Fnv1a64::update_u32_span(std::span<const std::uint32_t> words) noexcept {
  // Word-at-a-time keeps the loop tight; equivalent to feeding the
  // little-endian byte stream of the mapping.
  for (const std::uint32_t w : words) update_u32(w);
  return *this;
}

Fingerprint fingerprint_permutation(const perm::Permutation& p) {
  return fingerprint_mapping(p.data());
}

Fingerprint fingerprint_mapping(std::span<const std::uint32_t> words) {
  Fnv1a64 h;
  h.update_u64(kKeySchemaVersion);
  h.update_u64(words.size());
  h.update_u32_span(words);
  return Fingerprint{h.digest()};
}

Fingerprint fingerprint_plan_key(Fingerprint mapping, const model::MachineParams& machine,
                                 int strategy_tag, std::uint32_t elem_bytes) {
  Fnv1a64 h;
  h.update_u64(kPlanKeySchemaVersion);
  h.update_u32(machine.width);
  h.update_u32(machine.latency);
  h.update_u32(machine.shared_latency);
  h.update_u32(machine.dmms);
  h.update_u64(machine.shared_bytes);
  h.update_u32(static_cast<std::uint32_t>(strategy_tag));
  h.update_u32(elem_bytes);
  h.update_u64(mapping.value);
  return Fingerprint{h.digest()};
}

Fingerprint fingerprint_plan_key(const perm::Permutation& p,
                                 const model::MachineParams& machine, int strategy_tag,
                                 std::uint32_t elem_bytes) {
  return fingerprint_plan_key(fingerprint_permutation(p), machine, strategy_tag, elem_bytes);
}

}  // namespace hmm::runtime
