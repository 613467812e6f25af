#include "net/wire.hpp"

#include <array>

#include "cpu/dispatch.hpp"
#include "util/check.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define HMM_HAVE_SSE42_CRC 1
#endif

namespace hmm::net {

namespace {

/// CRC-32C (Castagnoli), reflected form.
constexpr std::uint32_t kCrc32cPoly = 0x82F63B78u;

/// Slice-by-8 tables: kCrcTables[0] is the classic byte table, and
/// kCrcTables[k][b] advances kCrcTables[k - 1][b] by one more zero byte,
/// so eight lookups fold eight input bytes at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t c = b;
    for (int bit = 0; bit < 8; ++bit) c = (c >> 1) ^ (kCrc32cPoly & (0u - (c & 1u)));
    t[0][b] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t b = 0; b < 256; ++b) {
      t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xffu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

/// Little-endian 8-byte load (one mov on LE hosts).
std::uint64_t load_le64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

/// The raw register update (no pre/post inversion).
std::uint32_t crc_update_portable(std::uint32_t crc, const std::uint8_t* p,
                                  std::size_t n) noexcept {
  const auto& t = kCrcTables;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint64_t w = load_le64(p) ^ crc;
    crc = t[7][w & 0xff] ^ t[6][(w >> 8) & 0xff] ^ t[5][(w >> 16) & 0xff] ^
          t[4][(w >> 24) & 0xff] ^ t[3][(w >> 32) & 0xff] ^ t[2][(w >> 40) & 0xff] ^
          t[1][(w >> 48) & 0xff] ^ t[0][w >> 56];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
  return crc;
}

#if defined(HMM_HAVE_SSE42_CRC)
/// Same update through the SSE4.2 `crc32` instruction, 8 bytes a step.
__attribute__((target("sse4.2"))) std::uint32_t crc_update_sse42(
    std::uint32_t crc, const std::uint8_t* p, std::size_t n) noexcept {
  std::uint64_t c = crc;
  for (; n >= 8; p += 8, n -= 8) c = _mm_crc32_u64(c, load_le64(p));
  auto c32 = static_cast<std::uint32_t>(c);
  for (; n > 0; ++p, --n) c32 = _mm_crc32_u8(c32, *p);
  return c32;
}
#endif

}  // namespace

std::uint32_t crc32c_portable(std::uint32_t crc, std::span<const std::uint8_t> bytes) noexcept {
  return ~crc_update_portable(~crc, bytes.data(), bytes.size());
}

bool crc32c_hardware_available() noexcept {
#if defined(HMM_HAVE_SSE42_CRC)
  static const bool available = __builtin_cpu_supports("sse4.2") != 0;
  return available;
#else
  return false;
#endif
}

std::uint32_t crc32c_hardware(std::uint32_t crc, std::span<const std::uint8_t> bytes) noexcept {
#if defined(HMM_HAVE_SSE42_CRC)
  return ~crc_update_sse42(~crc, bytes.data(), bytes.size());
#else
  return crc32c_portable(crc, bytes);
#endif
}

std::string_view to_string(FrameError e) noexcept {
  switch (e) {
    case FrameError::kOk: return "ok";
    case FrameError::kShortHeader: return "short header";
    case FrameError::kBadMagic: return "bad magic";
    case FrameError::kBadVersion: return "unsupported wire version";
    case FrameError::kOversized: return "payload exceeds frame budget";
    case FrameError::kShortPayload: return "truncated payload";
    case FrameError::kBadChecksum: return "payload checksum mismatch";
  }
  return "unknown frame error";
}

std::uint64_t checksum_bytes(std::span<const std::uint8_t> bytes) noexcept {
  return checksum_extend(checksum_seed(), bytes);
}

std::uint64_t checksum_seed() noexcept { return 0; }

std::uint64_t checksum_extend(std::uint64_t state,
                              std::span<const std::uint8_t> bytes) noexcept {
  // The state is the finished CRC of the bytes so far (zero-extended),
  // so extending undoes the final inversion, folds, and re-inverts.
  const auto crc = static_cast<std::uint32_t>(state);
  const bool hardware = crc32c_hardware_available() &&
                        cpu::kernel_variant() != cpu::KernelVariant::kScalar;
  return hardware ? crc32c_hardware(crc, bytes) : crc32c_portable(crc, bytes);
}

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  HMM_CHECK(frame.payload.size() <= UINT32_MAX);
  ByteWriter w;
  w.put_u32(kMagic);
  w.put_u16(kWireVersion);
  w.put_u16(frame.kind);
  w.put_u64(frame.request_id);
  w.put_u32(static_cast<std::uint32_t>(frame.payload.size()));
  w.put_u64(checksum_bytes(frame.payload));
  w.put_bytes(frame.payload);
  return w.take();
}

FrameError decode_frame(std::span<const std::uint8_t> buf, Frame& out, std::size_t& consumed,
                        std::uint32_t max_payload) {
  ByteReader r(buf);
  std::uint32_t magic = 0, payload_len = 0;
  std::uint16_t version = 0, kind = 0;
  std::uint64_t request_id = 0, checksum = 0;
  if (!r.get_u32(magic) || !r.get_u16(version) || !r.get_u16(kind) ||
      !r.get_u64(request_id) || !r.get_u32(payload_len) || !r.get_u64(checksum)) {
    return FrameError::kShortHeader;
  }
  // Magic before version before length: report the earliest field that
  // proves the stream is not (this version of) HMMP.
  if (magic != kMagic) return FrameError::kBadMagic;
  if (version != kWireVersion) return FrameError::kBadVersion;
  if (payload_len > max_payload) return FrameError::kOversized;
  std::span<const std::uint8_t> payload;
  if (!r.get_bytes(payload_len, payload)) return FrameError::kShortPayload;
  if (checksum_bytes(payload) != checksum) return FrameError::kBadChecksum;
  out.kind = kind;
  out.request_id = request_id;
  out.payload.assign(payload.begin(), payload.end());
  consumed = kHeaderBytes + payload_len;
  return FrameError::kOk;
}

}  // namespace hmm::net
