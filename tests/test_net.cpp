/// Tests for the net layer: HMMP framing (encode/decode round-trip and
/// strict rejection of truncated / foreign / oversized / corrupt
/// frames), the typed payload codecs, the Status<->wire-error bijection,
/// and a loopback end-to-end suite running `net::Server` and
/// `net::Client` in-process — including the deadline-exceeded and
/// admission-reject paths and graceful drain under load.

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cpu/dispatch.hpp"
#include "net/client.hpp"
#include "net/frame_io.hpp"
#include "net/protocol.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "perm/generators.hpp"
#include "perm/permutation.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/phase.hpp"
#include "runtime/service.hpp"
#include "runtime/status.hpp"
#include "util/buffer_pool.hpp"
#include "util/thread_pool.hpp"

namespace hmm {
namespace {

using namespace std::chrono_literals;
using runtime::Status;
using runtime::StatusCode;

// ---------------------------------------------------------------- wire

net::Frame sample_frame() {
  net::Frame f;
  f.kind = static_cast<std::uint16_t>(net::MsgKind::kPing);
  f.request_id = 0x1122334455667788ull;
  f.payload = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x42};
  return f;
}

TEST(Wire, FrameRoundTrip) {
  const net::Frame in = sample_frame();
  const std::vector<std::uint8_t> bytes = net::encode_frame(in);
  ASSERT_EQ(bytes.size(), net::kHeaderBytes + in.payload.size());

  net::Frame out;
  std::size_t consumed = 0;
  ASSERT_EQ(net::decode_frame(bytes, out, consumed), net::FrameError::kOk);
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(out.kind, in.kind);
  EXPECT_EQ(out.request_id, in.request_id);
  EXPECT_EQ(out.payload, in.payload);
}

TEST(Wire, EmptyPayloadRoundTrips) {
  net::Frame in;
  in.kind = static_cast<std::uint16_t>(net::MsgKind::kStats);
  in.request_id = 7;
  const auto bytes = net::encode_frame(in);
  ASSERT_EQ(bytes.size(), net::kHeaderBytes);

  net::Frame out;
  std::size_t consumed = 0;
  ASSERT_EQ(net::decode_frame(bytes, out, consumed), net::FrameError::kOk);
  EXPECT_TRUE(out.payload.empty());
}

TEST(Wire, MagicBytesSpellHMMP) {
  const auto bytes = net::encode_frame(sample_frame());
  EXPECT_EQ(bytes[0], 'H');
  EXPECT_EQ(bytes[1], 'M');
  EXPECT_EQ(bytes[2], 'M');
  EXPECT_EQ(bytes[3], 'P');
}

TEST(Wire, ShortHeaderIsRejectedWithoutTouchingOutputs) {
  const auto bytes = net::encode_frame(sample_frame());
  net::Frame out;
  out.request_id = 99;  // sentinel: must survive a failed decode
  std::size_t consumed = 123;
  const std::span<const std::uint8_t> head(bytes.data(), net::kHeaderBytes - 1);
  EXPECT_EQ(net::decode_frame(head, out, consumed), net::FrameError::kShortHeader);
  EXPECT_EQ(out.request_id, 99u);
  EXPECT_EQ(consumed, 123u);
}

TEST(Wire, BadMagicIsRejected) {
  auto bytes = net::encode_frame(sample_frame());
  bytes[0] ^= 0xff;
  net::Frame out;
  std::size_t consumed = 0;
  EXPECT_EQ(net::decode_frame(bytes, out, consumed), net::FrameError::kBadMagic);
}

TEST(Wire, UnknownVersionIsRejected) {
  auto bytes = net::encode_frame(sample_frame());
  bytes[4] = 0x7f;  // version lives at offset 4, LE
  net::Frame out;
  std::size_t consumed = 0;
  EXPECT_EQ(net::decode_frame(bytes, out, consumed), net::FrameError::kBadVersion);
}

TEST(Wire, PayloadOverBudgetIsRejectedBeforeRead) {
  const net::Frame in = sample_frame();
  const auto bytes = net::encode_frame(in);
  net::Frame out;
  std::size_t consumed = 0;
  const auto budget = static_cast<std::uint32_t>(in.payload.size() - 1);
  EXPECT_EQ(net::decode_frame(bytes, out, consumed, budget), net::FrameError::kOversized);
}

TEST(Wire, TruncatedPayloadIsRejected) {
  const auto bytes = net::encode_frame(sample_frame());
  net::Frame out;
  std::size_t consumed = 0;
  const std::span<const std::uint8_t> torn(bytes.data(), bytes.size() - 1);
  EXPECT_EQ(net::decode_frame(torn, out, consumed), net::FrameError::kShortPayload);
}

TEST(Wire, CorruptPayloadFailsChecksum) {
  auto bytes = net::encode_frame(sample_frame());
  bytes[net::kHeaderBytes + 2] ^= 0x01;  // flip one payload bit
  net::Frame out;
  std::size_t consumed = 0;
  EXPECT_EQ(net::decode_frame(bytes, out, consumed), net::FrameError::kBadChecksum);
}

TEST(Wire, FrameErrorNamesAreStable) {
  EXPECT_EQ(net::to_string(net::FrameError::kOk), "ok");
  EXPECT_EQ(net::to_string(net::FrameError::kBadMagic), "bad magic");
  EXPECT_EQ(net::to_string(net::FrameError::kBadChecksum), "payload checksum mismatch");
}

TEST(Wire, ByteWriterIsLittleEndian) {
  net::ByteWriter w;
  w.put_u32(0x01020304u);
  w.put_u16(0xa0b0u);
  const auto& b = w.bytes();
  ASSERT_EQ(b.size(), 6u);
  EXPECT_EQ(b[0], 0x04);
  EXPECT_EQ(b[1], 0x03);
  EXPECT_EQ(b[2], 0x02);
  EXPECT_EQ(b[3], 0x01);
  EXPECT_EQ(b[4], 0xb0);
  EXPECT_EQ(b[5], 0xa0);
}

TEST(Wire, ByteReaderNeverOverReads) {
  const std::uint8_t raw[] = {0x01, 0x02};
  net::ByteReader r({raw, 2});
  std::uint32_t word = 0xcafef00d;
  EXPECT_FALSE(r.get_u32(word));       // only 2 bytes available
  EXPECT_EQ(word, 0xcafef00du);        // output untouched on failure
  std::uint16_t half = 0;
  EXPECT_TRUE(r.get_u16(half));
  EXPECT_EQ(half, 0x0201u);
  EXPECT_TRUE(r.exhausted());
  std::uint8_t byte = 0;
  EXPECT_FALSE(r.get_u8(byte));
}

TEST(Wire, WriterReaderRoundTripAllWidths) {
  net::ByteWriter w;
  w.put_u8(0xab);
  w.put_u16(0x1234);
  w.put_u32(0xdeadbeef);
  w.put_u64(0x0123456789abcdefull);
  w.put_string("hmm");

  net::ByteReader r(w.bytes());
  std::uint8_t u8 = 0;
  std::uint16_t u16 = 0;
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  ASSERT_TRUE(r.get_u8(u8));
  ASSERT_TRUE(r.get_u16(u16));
  ASSERT_TRUE(r.get_u32(u32));
  ASSERT_TRUE(r.get_u64(u64));
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u16, 0x1234);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefull);
  EXPECT_EQ(r.rest_as_string(), "hmm");
  EXPECT_TRUE(r.exhausted());
}

// ------------------------------------------------------------ protocol

TEST(NetProtocol, StatusToWireIsABijection) {
  const StatusCode codes[] = {
      StatusCode::kOk,           StatusCode::kInvalidArgument,
      StatusCode::kDeadlineExceeded, StatusCode::kResourceExhausted,
      StatusCode::kPlanBuildFailed,  StatusCode::kCancelled,
      StatusCode::kUnavailable,
  };
  std::vector<std::uint32_t> images;
  for (StatusCode code : codes) {
    const net::WireError wire = net::to_wire(code);
    EXPECT_EQ(net::from_wire(static_cast<std::uint32_t>(wire)), code);
    images.push_back(static_cast<std::uint32_t>(wire));
  }
  std::sort(images.begin(), images.end());
  EXPECT_TRUE(std::adjacent_find(images.begin(), images.end()) == images.end())
      << "two StatusCodes share a wire code";
}

TEST(NetProtocol, ResourceExhaustedTravelsAsRetryLater) {
  EXPECT_EQ(net::to_wire(StatusCode::kResourceExhausted), net::WireError::kRetryLater);
  EXPECT_EQ(net::to_string(net::WireError::kRetryLater), "RETRY_LATER");
}

TEST(NetProtocol, UnknownWireCodeDecodesAsUnavailable) {
  EXPECT_EQ(net::from_wire(0xdeadu), StatusCode::kUnavailable);
}

TEST(NetProtocol, RequestKindsAreRecognized) {
  EXPECT_TRUE(net::is_request_kind(static_cast<std::uint16_t>(net::MsgKind::kPing)));
  EXPECT_TRUE(net::is_request_kind(static_cast<std::uint16_t>(net::MsgKind::kPermute)));
  EXPECT_FALSE(net::is_request_kind(static_cast<std::uint16_t>(net::MsgKind::kPingOk)));
  EXPECT_FALSE(net::is_request_kind(static_cast<std::uint16_t>(net::MsgKind::kError)));
  EXPECT_FALSE(net::is_request_kind(0x0000));
}

std::vector<std::uint32_t> words_of(const net::WordsView& view) {
  std::vector<std::uint32_t> out(view.count);
  view.copy_to(out);
  return out;
}

TEST(NetProtocol, SubmitPlanRoundTrips) {
  net::SubmitPlanRequest in;
  in.mapping = {3, 1, 0, 2};
  const auto payload = in.encode();
  auto out = net::SubmitPlanRequestView::decode(payload, 16);
  ASSERT_TRUE(out.ok()) << out.status().to_string();
  EXPECT_EQ(words_of(out.value().mapping), in.mapping);
}

TEST(NetProtocol, SubmitPlanRejectsMalformedPayloads) {
  net::SubmitPlanRequest in;
  in.mapping = {3, 1, 0, 2};
  const auto payload = in.encode();

  // Truncated: count promises more words than the payload carries.
  const std::span<const std::uint8_t> torn(payload.data(), payload.size() - 2);
  EXPECT_FALSE(net::SubmitPlanRequestView::decode(torn, 16).ok());

  // Trailing garbage after the mapping.
  auto padded = payload;
  padded.push_back(0x00);
  EXPECT_FALSE(net::SubmitPlanRequestView::decode(padded, 16).ok());

  // Count above the receiver's element budget.
  EXPECT_EQ(net::SubmitPlanRequestView::decode(payload, 3).status().code(),
            StatusCode::kInvalidArgument);

  // Empty mapping.
  net::SubmitPlanRequest empty;
  EXPECT_FALSE(net::SubmitPlanRequestView::decode(empty.encode(), 16).ok());
}

TEST(NetProtocol, PermuteRequestRoundTrips) {
  net::PermuteRequest in;
  in.plan_id = 0xfeedfacecafebeefull;
  in.deadline_ms = 250;
  in.data = {10, 20, 30, 40, 50, 60, 70, 80};
  const auto payload = in.encode();
  auto out = net::PermuteRequestView::decode(payload, 64);
  ASSERT_TRUE(out.ok()) << out.status().to_string();
  EXPECT_EQ(out.value().plan_id, in.plan_id);
  EXPECT_EQ(out.value().deadline_ms, in.deadline_ms);
  EXPECT_EQ(words_of(out.value().data), in.data);
}

TEST(NetProtocol, PermuteRequestRejectsForeignElementWidth) {
  net::PermuteRequest in;
  in.plan_id = 1;
  in.data = {1, 2};
  auto payload = in.encode();
  // elem_bytes sits after plan_id (8) + deadline_ms (4), as a u32 LE.
  payload[12] = 8;
  const auto out = net::PermuteRequestView::decode(payload, 64);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

TEST(NetProtocol, PermuteResponseRoundTrips) {
  net::PermuteResponse in;
  in.data = {5, 4, 3, 2, 1};
  const auto payload = in.encode();  // the view borrows it
  auto out = net::WordsResponseView::decode(payload, 8);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(words_of(out.value().data), in.data);
}

TEST(NetProtocol, ErrorResponseRoundTripsAndMapsToStatus) {
  net::ErrorResponse in;
  in.code = static_cast<std::uint32_t>(net::WireError::kDeadlineExceeded);
  in.message = "queued past the request deadline";
  auto out = net::ErrorResponse::decode(in.encode());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().code, in.code);
  EXPECT_EQ(out.value().message, in.message);
  const Status s = out.value().to_status();
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(s.to_string().find(in.message), std::string::npos);
}

// Regression (PR 4): the client used to cast deadline.count() straight
// to uint32_t, so values >= 2^32 ms wrapped around. The clamp saturates
// instead.
TEST(NetProtocol, ClampDeadlineSaturatesInsteadOfWrapping) {
  using std::chrono::milliseconds;
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  EXPECT_EQ(net::PermuteRequest::clamp_deadline(milliseconds(-5)), 0u);
  EXPECT_EQ(net::PermuteRequest::clamp_deadline(milliseconds(0)), 0u);
  EXPECT_EQ(net::PermuteRequest::clamp_deadline(milliseconds(1)), 1u);
  EXPECT_EQ(net::PermuteRequest::clamp_deadline(milliseconds(kMax) - milliseconds(1)),
            kMax - 1);
  EXPECT_EQ(net::PermuteRequest::clamp_deadline(milliseconds(kMax)), kMax);
  // 2^32 + 1 ms used to wrap to 1 ms — the bug this clamp exists for.
  EXPECT_EQ(net::PermuteRequest::clamp_deadline(milliseconds((std::int64_t{1} << 32) + 1)),
            kMax);
  EXPECT_EQ(net::PermuteRequest::clamp_deadline(milliseconds(std::int64_t{1} << 40)), kMax);
}

TEST(NetProtocol, MakeErrorFrameCarriesTypedStatus) {
  const Status cause(StatusCode::kResourceExhausted, "admission bound reached");
  const net::Frame frame = net::make_error_frame(42, cause);
  EXPECT_EQ(frame.kind, static_cast<std::uint16_t>(net::MsgKind::kError));
  EXPECT_EQ(frame.request_id, 42u);
  auto decoded = net::ErrorResponse::decode(frame.payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().to_status().code(), StatusCode::kResourceExhausted);
}

// ------------------------------------------------------------ loopback

/// One in-process server over a fresh RobustPermuteService, bound to an
/// ephemeral loopback port.
struct Loopback {
  runtime::RobustPermuteService service;
  net::Server server;

  explicit Loopback(runtime::RobustPermuteService::Config service_config =
                        runtime::RobustPermuteService::Config{},
                    net::Server::Config server_config = net::Server::Config{})
      : service(util::ThreadPool::global(), service_config),
        server(service, std::move(server_config)) {
    const Status started = server.start();
    EXPECT_TRUE(started.is_ok()) << started.to_string();
  }

  [[nodiscard]] net::Client::Config client_config() const {
    net::Client::Config c;
    c.host = "127.0.0.1";
    c.port = server.port();
    c.connect_timeout = 2'000ms;
    c.io_timeout = 10'000ms;
    return c;
  }
};

TEST(NetLoopback, PingEchoes) {
  Loopback loop;
  net::Client client(loop.client_config());
  const Status s = client.ping();
  EXPECT_TRUE(s.is_ok()) << s.to_string();
  EXPECT_GE(loop.server.counters().requests_served(), 1u);
}

TEST(PlanHandle, RegistryPlanIdIsTheHandleFingerprint) {
  Loopback loop;
  net::Client client(loop.client_config());
  const perm::Permutation p = perm::by_name("random", 4096, 5);
  auto id = client.submit_plan(p);
  ASSERT_TRUE(id.ok()) << id.status().to_string();
  const runtime::PlanHandle handle(std::make_shared<const perm::Permutation>(p));
  EXPECT_EQ(id.value(), handle.fingerprint().value);
  EXPECT_EQ(id.value(), runtime::fingerprint_mapping(p.data()).value);

  // PERMUTEs served from the registered handle hit one cache entry.
  std::vector<std::uint32_t> a(p.size()), b(p.size()), want(p.size());
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = static_cast<std::uint32_t>(i * 3 + 1);
  p.apply<std::uint32_t>(a, want);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.permute(id.value(), a, b).is_ok());
    EXPECT_EQ(b, want);
  }
  EXPECT_TRUE(
      loop.service.cache().contains(runtime::PlanCache::plan_key<std::uint32_t>(handle)));
  EXPECT_EQ(loop.service.metrics().snapshot().plan_builds, 1u);
}

// Regression (PR 4): `requests_served` used to count ERROR responses
// (and even responses whose write failed) as served requests. The
// split counters attribute each delivered response to exactly one of
// ok/error.
TEST(NetLoopback, CountersSplitOkFromErrorResponses) {
  Loopback loop;
  net::Client client(loop.client_config());
  ASSERT_TRUE(client.ping().is_ok());
  ASSERT_TRUE(client.ping().is_ok());

  // Unknown plan id -> a delivered ERROR frame.
  std::vector<std::uint32_t> a(64, 1), b(64, 0);
  const Status s = client.permute(/*plan_id=*/0xdeadbeef, {a.data(), a.size()},
                                  {b.data(), b.size()});
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);

  const net::Server::Counters counters = loop.server.counters();
  EXPECT_EQ(counters.requests_ok, 2u);
  EXPECT_EQ(counters.requests_error, 1u);
  EXPECT_EQ(counters.requests_served(), 3u);
}

// Regression (PR 4): Client::permute cast deadline.count() straight to
// uint32_t, so a deadline of 2^32+1 ms wrapped to 1 ms and a perfectly
// relaxed request died with DEADLINE_EXCEEDED.
TEST(NetLoopback, HugeDeadlineDoesNotWrapToATinyBudget) {
  Loopback loop;
  net::Client client(loop.client_config());
  const std::uint64_t n = 1024;
  const perm::Permutation p = perm::by_name("bit-reversal", n, 1);
  auto plan = client.submit_plan(p);
  ASSERT_TRUE(plan.ok());

  std::vector<std::uint32_t> a(n), b(n, 0), expect(n);
  for (std::uint64_t i = 0; i < n; ++i) a[i] = static_cast<std::uint32_t>(i);
  p.apply<std::uint32_t>({a.data(), n}, {expect.data(), n});

  const auto huge = std::chrono::milliseconds((std::int64_t{1} << 32) + 1);
  const Status s = client.permute(plan.value(), {a.data(), n}, {b.data(), n}, huge);
  ASSERT_TRUE(s.is_ok()) << "huge deadline wrapped: " << s.to_string();
  EXPECT_EQ(b, expect);
}

TEST(NetLoopback, StatsIncludePhaseBreakdown) {
  Loopback loop;
  net::Client client(loop.client_config());
  const std::uint64_t n = 1024;
  const perm::Permutation p = perm::by_name("bit-reversal", n, 1);
  auto plan = client.submit_plan(p);
  ASSERT_TRUE(plan.ok());
  std::vector<std::uint32_t> a(n, 1), b(n, 0);
  ASSERT_TRUE(client.permute(plan.value(), {a.data(), n}, {b.data(), n}).is_ok());

  auto stats = client.stats_json();
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_NE(stats.value().find("\"phases\""), std::string::npos);

  const std::vector<runtime::PhaseScrape> phases = runtime::scrape_phases_json(stats.value());
  ASSERT_FALSE(phases.empty());
  const auto count_of = [&phases](std::string_view label) -> std::uint64_t {
    for (const runtime::PhaseScrape& row : phases) {
      if (row.label == label) return row.count;
    }
    return 0;
  };
  // One permute ran end to end: the request-path phases must each have
  // at least one sample in the wire-visible snapshot.
  EXPECT_GE(count_of("admission_wait"), 1u);
  EXPECT_GE(count_of("queue_wait"), 1u);
  EXPECT_GE(count_of("plan_lookup"), 1u);
  EXPECT_GE(count_of("plan_build"), 1u);
  // The serialize span is recorded after the response is written, so
  // the PERMUTE's own serialize sample may postdate this STATS read —
  // but the SUBMIT_PLAN and PERMUTE responses already landed.
  EXPECT_GE(count_of("serialize"), 1u);
}

TEST(NetLoopback, PermuteMatchesLocalApply) {
  Loopback loop;
  net::Client client(loop.client_config());

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
}

TEST(NetLoopback, ResubmittingAPlanDeduplicates) {
  Loopback loop;
  net::Client client(loop.client_config());
  const perm::Permutation p = perm::by_name("shuffle", 512, 3);
  auto first = client.submit_plan(p);
  auto second = client.submit_plan(p);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value(), second.value());
  EXPECT_EQ(loop.server.plans(), 1u);
}

/// PERMUTE `p` through `client` as plan `id`; true iff it succeeded
/// and matches the local apply. `why` receives a failure's status.
bool permute_matches(net::Client& client, std::uint64_t id, const perm::Permutation& p,
                     Status* why = nullptr) {
  const std::uint64_t n = p.size();
  std::vector<std::uint32_t> a(n), b(n, 0), want(n);
  for (std::uint64_t i = 0; i < n; ++i) a[i] = static_cast<std::uint32_t>(i * 7 + 3);
  p.apply<std::uint32_t>({a.data(), n}, {want.data(), n});
  const Status s = client.permute(id, {a.data(), n}, {b.data(), n});
  if (why != nullptr) *why = s;
  return s.is_ok() && b == want;
}

TEST(NetRegistry, RecentlyUsedPlanSurvivesEvictionAndAnIdleOneDoesNot) {
  const std::uint64_t n = 1024;  // 4 KiB of mapping per plan
  net::Server::Config server_config;
  server_config.max_plan_bytes = 2 * n * net::kElemBytes;  // room for two plans
  Loopback loop(runtime::RobustPermuteService::Config{}, server_config);
  net::Client client(loop.client_config());
  const perm::Permutation hot = perm::by_name("random", n, 1);
  const perm::Permutation idle = perm::by_name("random", n, 2);
  const perm::Permutation fresh = perm::by_name("random", n, 3);

  auto hot_id = client.submit_plan(hot);
  auto idle_id = client.submit_plan(idle);
  ASSERT_TRUE(hot_id.ok() && idle_id.ok());
  ASSERT_TRUE(permute_matches(client, hot_id.value(), hot));  // `hot` is now the newest use
  auto fresh_id = client.submit_plan(fresh);
  ASSERT_TRUE(fresh_id.ok());

  EXPECT_EQ(loop.server.plans(), 2u);
  EXPECT_EQ(loop.server.plan_bytes(), 2 * n * net::kElemBytes);
  EXPECT_EQ(loop.server.counters().plans_evicted, 1u);
  EXPECT_TRUE(permute_matches(client, hot_id.value(), hot));
  EXPECT_TRUE(permute_matches(client, fresh_id.value(), fresh));
  Status evicted;
  EXPECT_FALSE(permute_matches(client, idle_id.value(), idle, &evicted));
  EXPECT_EQ(evicted.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(evicted.message().find("unknown plan id"), std::string::npos) << evicted.to_string();

  // Re-submitting heals it (and evicts the now-coldest plan).
  ASSERT_TRUE(client.submit_plan(idle).ok());
  EXPECT_TRUE(permute_matches(client, idle_id.value(), idle));
  EXPECT_EQ(loop.server.counters().plans_evicted, 2u);

  auto stats = client.stats_json();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats.value().find("\"plans_evicted\":2"), std::string::npos) << stats.value();
}

TEST(NetRegistry, APlanAloneOverBudgetIsKept) {
  const std::uint64_t n = 1024;
  net::Server::Config server_config;
  server_config.max_plan_bytes = 16;  // smaller than any plan
  Loopback loop(runtime::RobustPermuteService::Config{}, server_config);
  net::Client client(loop.client_config());
  const perm::Permutation first = perm::by_name("random", n, 4);
  const perm::Permutation second = perm::by_name("bit-reversal", n, 1);

  auto first_id = client.submit_plan(first);
  ASSERT_TRUE(first_id.ok());
  EXPECT_EQ(loop.server.plans(), 1u);
  EXPECT_TRUE(permute_matches(client, first_id.value(), first));

  auto second_id = client.submit_plan(second);
  ASSERT_TRUE(second_id.ok());
  EXPECT_EQ(loop.server.plans(), 1u);
  EXPECT_EQ(loop.server.counters().plans_evicted, 1u);
  EXPECT_TRUE(permute_matches(client, second_id.value(), second));
  EXPECT_FALSE(permute_matches(client, first_id.value(), first));
}

TEST(NetLoopback, UnknownPlanIsInvalidArgument) {
  Loopback loop;
  net::Client client(loop.client_config());
  std::vector<std::uint32_t> a(64, 1), b(64, 0);
  const Status s = client.permute(0xdeadbeefull, {a.data(), 64}, {b.data(), 64});
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(NetLoopback, CountMismatchIsInvalidArgument) {
  Loopback loop;
  net::Client client(loop.client_config());
  const std::uint64_t n = 512;
  const perm::Permutation p = perm::by_name("rotation", n, 1);
  auto plan = client.submit_plan(p);
  ASSERT_TRUE(plan.ok());
  std::vector<std::uint32_t> a(n / 2, 1), b(n / 2, 0);
  const Status s = client.permute(plan.value(), {a.data(), n / 2}, {b.data(), n / 2});
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(NetLoopback, NonBijectiveMappingIsRejected) {
  Loopback loop;
  // The typed client only sends valid Permutations; speak raw HMMP to
  // deliver a mapping with a repeated image.
  auto conn = net::tcp_connect("127.0.0.1", loop.server.port(), 2'000ms);
  ASSERT_TRUE(conn.ok()) << conn.status().to_string();
  net::TcpStream stream = std::move(conn).value();

  net::SubmitPlanRequest bad;
  bad.mapping = {0, 1, 2, 2};  // 2 appears twice, 3 never
  net::Frame request;
  request.kind = static_cast<std::uint16_t>(net::MsgKind::kSubmitPlan);
  request.request_id = 9;
  request.payload = bad.encode();
  ASSERT_TRUE(net::write_frame(stream, request).is_ok());

  auto response = net::read_frame(stream, net::kDefaultMaxPayload);
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  EXPECT_EQ(response.value().kind, static_cast<std::uint16_t>(net::MsgKind::kError));
  EXPECT_EQ(response.value().request_id, 9u);
  auto err = net::ErrorResponse::decode(response.value().payload);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err.value().to_status().code(), StatusCode::kInvalidArgument);
}

TEST(NetLoopback, GarbageBytesGetAnErrorFrameNotAHangup) {
  Loopback loop;
  auto conn = net::tcp_connect("127.0.0.1", loop.server.port(), 2'000ms);
  ASSERT_TRUE(conn.ok());
  net::TcpStream stream = std::move(conn).value();

  // A full header's worth of non-HMMP bytes: the server answers with a
  // best-effort ERROR frame, then closes the connection.
  std::vector<std::uint8_t> junk(net::kHeaderBytes, 0x5a);
  ASSERT_TRUE(stream.send_all(junk.data(), junk.size()).is_ok());

  auto response = net::read_frame(stream, net::kDefaultMaxPayload);
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  EXPECT_EQ(response.value().kind, static_cast<std::uint16_t>(net::MsgKind::kError));
  auto err = net::ErrorResponse::decode(response.value().payload);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err.value().to_status().code(), StatusCode::kInvalidArgument);

  // The connection is closed afterwards...
  auto next = net::read_frame(stream, net::kDefaultMaxPayload);
  EXPECT_FALSE(next.ok());
  // ...and the process is fine: a fresh connection still serves.
  net::Client client(loop.client_config());
  EXPECT_TRUE(client.ping().is_ok());
  EXPECT_GE(loop.server.counters().protocol_errors, 1u);
}

TEST(NetLoopback, StatsReturnsMetricsJson) {
  Loopback loop;
  net::Client client(loop.client_config());
  auto stats = client.stats_json();
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_NE(stats.value().find("\"cache\""), std::string::npos);
  EXPECT_NE(stats.value().find("\"executor\""), std::string::npos);
  EXPECT_NE(stats.value().find("\"phases\""), std::string::npos);
}

TEST(NetLoopback, StatsReportStrategyChoicesAndSweepCalibrations) {
  Loopback loop;
  net::Client client(loop.client_config());
  const perm::Permutation p = perm::by_name("random", 4096, 12);
  auto id = client.submit_plan(p);
  ASSERT_TRUE(id.ok());
  // The served build is measured: it files the host's sweep
  // calibration for 2^12 x u32 and resolves to the sweep or the gather.
  ASSERT_TRUE(permute_matches(client, id.value(), p));

  const runtime::MetricsSnapshot snap = loop.service.metrics().snapshot();
  EXPECT_EQ(snap.built_scheduled + snap.built_s_designated, 1u);
  EXPECT_EQ(snap.built_d_designated, 0u);
  const std::string built = snap.built_scheduled == 1 ? "scheduled" : "s-designated";
  auto stats = client.stats_json();
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  const std::string& json = stats.value();
  EXPECT_NE(json.find("\"built_scheduled\":" + std::to_string(snap.built_scheduled)),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"built_s_designated\":" + std::to_string(snap.built_s_designated)),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("{\"log2_n\":12,\"elem_bytes\":4,\"width\":32,\"sweep_ns\":"),
            std::string::npos)
      << json;

  const std::string prom = snap.to_prometheus();
  EXPECT_NE(prom.find("hmm_plans_built_total{strategy=\"" + built + "\"} 1"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("hmm_sweep_calibration_seconds{log2_n=\"12\",elem_bytes=\"4\",width=\"32\"}"),
            std::string::npos)
      << prom;
}

TEST(NetLoopback, DeadlineExceededSurfacesTyped) {
  Loopback loop;
  net::Client client(loop.client_config());
  const std::uint64_t n = 1024;
  const perm::Permutation p = perm::by_name("bit-reversal", n, 1);
  auto plan = client.submit_plan(p);
  ASSERT_TRUE(plan.ok());

  // Stall every execution 300 ms; a 50 ms budget cannot survive that.
  runtime::FaultInjector::Config faults;
  faults.enabled = true;
  faults.seed = 1;
  faults.rate = 1.0;
  faults.stall_ms = 300;
  faults.sites = std::string(runtime::fault_sites::kExecutorStall);
  runtime::ScopedFaultInjection chaos(faults);

  std::vector<std::uint32_t> a(n, 1), b(n, 0);
  const Status s = client.permute(plan.value(), {a.data(), n}, {b.data(), n}, 50ms);
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
}

TEST(NetLoopback, AdmissionRejectSurfacesAsRetryLater) {
  runtime::RobustPermuteService::Config service_config;
  service_config.executor.max_in_flight = 1;
  service_config.executor.admission = runtime::Executor::Admission::kReject;
  Loopback loop(service_config);

  const std::uint64_t n = 4096;
  const perm::Permutation p = perm::by_name("bit-reversal", n, 1);
  net::Client setup(loop.client_config());
  auto plan = setup.submit_plan(p);
  ASSERT_TRUE(plan.ok());

  // Stall the single admitted slot so a concurrent request must bounce.
  runtime::FaultInjector::Config faults;
  faults.enabled = true;
  faults.seed = 1;
  faults.rate = 1.0;
  faults.stall_ms = 500;
  faults.sites = std::string(runtime::fault_sites::kExecutorStall);
  runtime::ScopedFaultInjection chaos(faults);

  std::thread occupant([&] {
    net::Client client(loop.client_config());
    std::vector<std::uint32_t> a(n, 1), b(n, 0);
    // Outcome does not matter; this request exists to hold the slot.
    (void)client.permute(plan.value(), {a.data(), n}, {b.data(), n});
  });

  // Wait until the occupant's request is actually admitted (in flight),
  // then send: with max_in_flight=1 this request must be bounced.
  bool occupied = false;
  for (int spin = 0; spin < 400 && !occupied; ++spin) {
    occupied = loop.service.executor().in_flight() > 0;
    if (!occupied) std::this_thread::sleep_for(5ms);
  }
  ASSERT_TRUE(occupied) << "occupant request never reached the executor";

  net::Client client(loop.client_config());
  std::vector<std::uint32_t> a(n, 1), b(n, 0);
  const Status s = client.permute(plan.value(), {a.data(), n}, {b.data(), n});
  occupant.join();
  ASSERT_FALSE(s.is_ok()) << "request admitted past a full admission bound";
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted)
      << "expected RETRY_LATER, got " << s.to_string();
}

TEST(NetLoopback, GracefulStopAnswersTheInFlightRequest) {
  auto loop = std::make_unique<Loopback>();
  const std::uint64_t n = 1024;
  const perm::Permutation p = perm::by_name("bit-reversal", n, 1);
  net::Client client(loop->client_config());
  auto plan = client.submit_plan(p);
  ASSERT_TRUE(plan.ok());

  // Stretch the request so stop() overlaps it.
  runtime::FaultInjector::Config faults;
  faults.enabled = true;
  faults.seed = 1;
  faults.rate = 1.0;
  faults.stall_ms = 200;
  faults.sites = std::string(runtime::fault_sites::kExecutorStall);
  runtime::ScopedFaultInjection chaos(faults);

  std::vector<std::uint32_t> a(n), b(n, 0), expect(n);
  for (std::uint64_t i = 0; i < n; ++i) a[i] = static_cast<std::uint32_t>(i);
  p.apply<std::uint32_t>({a.data(), n}, {expect.data(), n});

  Status result(StatusCode::kUnavailable, "not run");
  std::thread request([&] {
    result = client.permute(plan.value(), {a.data(), n}, {b.data(), n});
  });
  std::this_thread::sleep_for(50ms);  // let the request reach the executor
  loop->server.stop();                // must drain, not drop
  request.join();

  EXPECT_TRUE(result.is_ok()) << result.to_string();
  EXPECT_EQ(b, expect);
  EXPECT_FALSE(loop->server.running());
}

// ------------------------------------------------------- client backoff

TEST(NetClient, RetryBackoffGrowsAndSaturatesAtTheCap) {
  net::Client::Config config;
  config.retry_backoff_base = 20ms;
  config.retry_backoff_cap = 160ms;

  // Attempt 0 is the initial try — never delayed.
  EXPECT_EQ(net::Client::retry_backoff(config, 0).count(), 0);

  for (int attempt = 1; attempt <= 24; ++attempt) {
    const auto delay = net::Client::retry_backoff(config, attempt);
    const auto base_us = std::chrono::duration_cast<std::chrono::microseconds>(
                             config.retry_backoff_base)
                             .count();
    const auto cap_us = std::chrono::duration_cast<std::chrono::microseconds>(
                            config.retry_backoff_cap)
                            .count();
    const std::int64_t raw =
        std::min(base_us << std::min(attempt - 1, 20), cap_us);
    // Jitter lives in [0, raw): total in [raw, 2*raw).
    EXPECT_GE(delay.count(), raw) << "attempt " << attempt;
    EXPECT_LT(delay.count(), 2 * raw) << "attempt " << attempt;
    // Determinism: same config + attempt -> same pause (chaos replay).
    EXPECT_EQ(delay.count(), net::Client::retry_backoff(config, attempt).count());
  }

  // Disabled backoff keeps the legacy immediate-retry behaviour.
  net::Client::Config off = config;
  off.retry_backoff_base = 0ms;
  EXPECT_EQ(net::Client::retry_backoff(off, 5).count(), 0);
}

// Regression (PR 4): retries used to reconnect in a hot zero-delay
// loop. Against a dead port (connect fails instantly with
// ECONNREFUSED) the retries must now consume at least the scheduled
// backoff time.
TEST(NetClient, RetriesAgainstDeadPortPaceThemselves) {
  // Grab an ephemeral port, then close the listener so connects are
  // refused immediately.
  auto listener = net::TcpListener::bind("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status().to_string();
  const std::uint16_t dead_port = listener.value().port();
  listener.value().close();

  net::Client::Config config;
  config.host = "127.0.0.1";
  config.port = dead_port;
  config.connect_timeout = 250ms;
  config.max_retries = 2;
  config.retry_backoff_base = 30ms;
  config.retry_backoff_cap = 120ms;
  net::Client client(config);

  std::chrono::microseconds scheduled{0};
  for (int attempt = 1; attempt <= config.max_retries; ++attempt) {
    scheduled += net::Client::retry_backoff(config, attempt);
  }
  ASSERT_GT(scheduled.count(), 0);

  const auto started = std::chrono::steady_clock::now();
  const Status s = client.ping();
  const auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_FALSE(s.is_ok());
  EXPECT_GE(std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count(),
            scheduled.count());
}

TEST(NetLoopback, ClientReconnectsAfterClose) {
  Loopback loop;
  net::Client client(loop.client_config());
  ASSERT_TRUE(client.ping().is_ok());
  client.close();
  EXPECT_FALSE(client.connected());
  // The next request reconnects lazily.
  EXPECT_TRUE(client.ping().is_ok());
  EXPECT_TRUE(client.connected());
}

TEST(NetLoopback, IdleConnectionsAreClosedAndCounted) {
  net::Server::Config server_config;
  server_config.idle_timeout = 100ms;
  server_config.poll_interval = 10ms;
  Loopback loop({}, server_config);

  // A slow-loris peer: connects, sends nothing, holds a slot.
  auto conn = net::tcp_connect("127.0.0.1", loop.server.port(), 2'000ms);
  ASSERT_TRUE(conn.ok()) << conn.status().to_string();
  net::TcpStream idle = std::move(conn).value();
  ASSERT_TRUE(idle.set_io_timeout(5'000ms, 5'000ms).is_ok());

  // The server closes it quietly (no ERROR frame): the read sees EOF.
  auto got = net::read_frame(idle, net::kDefaultMaxPayload);
  EXPECT_FALSE(got.ok());
  EXPECT_GE(loop.server.counters().idle_closed, 1u);

  // An active connection is unaffected: requests reset the idle clock.
  net::Client client(loop.client_config());
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(client.ping().is_ok());
    std::this_thread::sleep_for(40ms);
  }
  EXPECT_TRUE(client.connected());
}

// Regression: the server's pre-frame connection-cap rejection is an
// ERROR frame addressed to request id 0. The client used to classify
// it as "response id does not match the request" (UNAVAILABLE) — a
// protocol violation — instead of the typed RETRY_LATER it is.
TEST(NetLoopback, ConnectionCapRejectionSurfacesTypedRetryLater) {
  net::Server::Config server_config;
  server_config.max_connections = 1;
  Loopback loop({}, server_config);

  // Occupy the only slot, and prove it is held by completing a request.
  auto conn = net::tcp_connect("127.0.0.1", loop.server.port(), 2'000ms);
  ASSERT_TRUE(conn.ok()) << conn.status().to_string();
  net::TcpStream occupant = std::move(conn).value();
  net::Frame ping;
  ping.kind = static_cast<std::uint16_t>(net::MsgKind::kPing);
  ping.request_id = 1;
  ping.payload = {'h', 'i'};
  ASSERT_TRUE(net::write_frame(occupant, ping).is_ok());
  ASSERT_TRUE(net::read_frame(occupant, net::kDefaultMaxPayload).ok());

  net::Client::Config config = loop.client_config();
  config.max_retries = 0;  // surface the first answer, no backoff loop
  net::Client client(config);
  const Status s = client.ping();
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted)
      << "expected typed RETRY_LATER, got " << s.to_string();
  EXPECT_GE(loop.server.counters().connections_rejected, 1u);
}

TEST(NetLoopback, ServerStartStopIsIdempotent) {
  Loopback loop;
  loop.server.stop();
  loop.server.stop();  // second stop is a no-op
  EXPECT_FALSE(loop.server.running());
}

// ------------------------------------------------------ zero-copy wire

TEST(WireZeroCopy, ChecksumExtendMatchesChecksumOverConcatenation) {
  std::vector<std::uint8_t> bytes(301);
  for (std::size_t i = 0; i < bytes.size(); ++i) bytes[i] = static_cast<std::uint8_t>(i * 7 + 3);
  const std::uint64_t whole = net::checksum_bytes(bytes);
  for (std::size_t split : {std::size_t{0}, std::size_t{1}, std::size_t{17}, bytes.size()}) {
    std::uint64_t state = net::checksum_seed();
    state = net::checksum_extend(state, std::span<const std::uint8_t>(bytes).first(split));
    state = net::checksum_extend(state, std::span<const std::uint8_t>(bytes).subspan(split));
    EXPECT_EQ(state, whole) << "split at " << split;
  }
  // Three-way split, including an empty middle part.
  std::uint64_t state = net::checksum_seed();
  state = net::checksum_extend(state, std::span<const std::uint8_t>(bytes).first(100));
  state = net::checksum_extend(state, std::span<const std::uint8_t>(bytes).subspan(100, 0));
  state = net::checksum_extend(state, std::span<const std::uint8_t>(bytes).subspan(100));
  EXPECT_EQ(state, whole);
}

// ------------------------------------------------------------- CRC-32C

std::span<const std::uint8_t> text_bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

std::vector<std::uint8_t> crc_test_bytes(std::size_t n) {
  std::vector<std::uint8_t> bytes(n);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (auto& b : bytes) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<std::uint8_t>(x);
  }
  return bytes;
}

TEST(Crc32c, KnownAnswers) {
  // The CRC-32C check value (RFC 3720 appendix B.4 parameters).
  EXPECT_EQ(net::checksum_bytes({}), 0u);
  EXPECT_EQ(net::checksum_bytes(text_bytes("123456789")), 0xE3069283u);
  EXPECT_EQ(net::crc32c_portable(0, text_bytes("123456789")), 0xE3069283u);
  // 32 zero bytes and 32 0xFF bytes (RFC 3720 B.4 test vectors).
  const std::vector<std::uint8_t> zeros(32, 0x00), ones(32, 0xff);
  EXPECT_EQ(net::checksum_bytes(zeros), 0x8A9136AAu);
  EXPECT_EQ(net::checksum_bytes(ones), 0x62A8AB43u);
  if (net::crc32c_hardware_available()) {
    EXPECT_EQ(net::crc32c_hardware(0, text_bytes("123456789")), 0xE3069283u);
  }
}

TEST(Crc32c, HardwareAndPortableAgreeAtEveryLengthAndAlignment) {
  if (!net::crc32c_hardware_available()) GTEST_SKIP() << "no SSE4.2 crc32 on this CPU/build";
  const std::vector<std::uint8_t> bytes = crc_test_bytes(4096 + 8);
  const std::span<const std::uint8_t> all(bytes);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 4096; ++len) {
      const auto part = all.subspan(offset, len);
      ASSERT_EQ(net::crc32c_hardware(0, part), net::crc32c_portable(0, part))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32c, StreamingAgreesAtEverySplitPoint) {
  const std::vector<std::uint8_t> bytes = crc_test_bytes(4096 + 3);
  const auto all = std::span<const std::uint8_t>(bytes).subspan(3);  // unaligned start
  const std::uint32_t whole = net::crc32c_portable(0, all);
  for (std::size_t split = 0; split <= all.size(); ++split) {
    const auto head = all.first(split);
    const auto tail = all.subspan(split);
    ASSERT_EQ(net::crc32c_portable(net::crc32c_portable(0, head), tail), whole) << split;
    const std::uint64_t streamed = net::checksum_extend(net::checksum_seed(), head);
    ASSERT_EQ(net::checksum_extend(streamed, tail), whole) << split;
    if (net::crc32c_hardware_available()) {
      ASSERT_EQ(net::crc32c_hardware(net::crc32c_hardware(0, head), tail), whole) << split;
    }
  }
}

TEST(Crc32c, EveryKernelVariantComputesTheSameFrameChecksum) {
  // The scalar kernel variant also selects the portable CRC; the frame
  // checksum must not depend on which engine ran.
  const std::vector<std::uint8_t> bytes = crc_test_bytes(32 << 10);
  const std::uint32_t want = net::crc32c_portable(0, bytes);
  const cpu::KernelVariant prev = cpu::kernel_variant();
  for (const cpu::KernelVariant v :
       {cpu::KernelVariant::kScalar, cpu::KernelVariant::kAvx2, cpu::KernelVariant::kAvx512}) {
    cpu::set_kernel_variant(v);
    EXPECT_EQ(net::checksum_bytes(bytes), want) << cpu::to_string(cpu::kernel_variant());
  }
  cpu::set_kernel_variant(prev);
}

TEST(Wire, HeaderCarriesTheCrcZeroExtended) {
  const net::Frame in = sample_frame();
  const auto bytes = net::encode_frame(in);
  std::uint64_t field = 0;
  for (int i = 0; i < 8; ++i) field |= static_cast<std::uint64_t>(bytes[20 + i]) << (8 * i);
  EXPECT_EQ(field, net::crc32c_portable(0, in.payload));
  EXPECT_EQ(field >> 32, 0u);
}

TEST(Wire, VersionOneFrameIsRefusedAsBadVersion) {
  // A v1 peer checksums with FNV-1a64; it must be told "wrong version",
  // not "corrupt payload".
  auto bytes = net::encode_frame(sample_frame());
  ASSERT_EQ(bytes[4], net::kWireVersion);
  bytes[4] = 1;
  bytes[5] = 0;
  net::Frame out;
  std::size_t consumed = 0;
  EXPECT_EQ(net::decode_frame(bytes, out, consumed), net::FrameError::kBadVersion);
}

TEST(Wire, NonzeroHighChecksumBitsAreBadChecksum) {
  auto bytes = net::encode_frame(sample_frame());
  bytes[27] = 0x01;  // bit 56 of the u64 checksum field
  net::Frame out;
  std::size_t consumed = 0;
  EXPECT_EQ(net::decode_frame(bytes, out, consumed), net::FrameError::kBadChecksum);
}

TEST(WireZeroCopy, WriteFramePartsRoundTripsThroughReadFrame) {
  auto bound = net::TcpListener::bind("127.0.0.1", 0);
  ASSERT_TRUE(bound.ok()) << bound.status().to_string();
  net::TcpListener listener = std::move(bound).value();
  auto connecting = net::tcp_connect("127.0.0.1", listener.port(), 2'000ms);
  ASSERT_TRUE(connecting.ok());
  net::TcpStream sender = std::move(connecting).value();
  auto accepted = listener.accept(2'000ms);
  ASSERT_TRUE(accepted.ok());
  net::TcpStream receiver = std::move(accepted).value();

  // A payload scattered across three non-contiguous parts (one empty):
  // the receiver must see one contiguous checksum-valid frame.
  const std::vector<std::uint8_t> head = {0x01, 0x02, 0x03};
  const std::vector<std::uint32_t> elems = {0xdeadbeefu, 0x01020304u, 0x0badf00du};
  const net::ConstBuffer parts[] = {
      {head.data(), head.size()},
      {nullptr, 0},
      {elems.data(), elems.size() * sizeof(std::uint32_t)},
  };
  const Status sent = net::write_frame_parts(
      sender, static_cast<std::uint16_t>(net::MsgKind::kPing), 77, parts);
  ASSERT_TRUE(sent.is_ok()) << sent.to_string();

  auto got = net::read_frame(receiver);
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  EXPECT_EQ(got.value().kind, static_cast<std::uint16_t>(net::MsgKind::kPing));
  EXPECT_EQ(got.value().request_id, 77u);
  ASSERT_EQ(got.value().payload.size(), head.size() + elems.size() * sizeof(std::uint32_t));
  EXPECT_EQ(0, std::memcmp(got.value().payload.data(), head.data(), head.size()));
  EXPECT_EQ(0, std::memcmp(got.value().payload.data() + head.size(), elems.data(),
                           elems.size() * sizeof(std::uint32_t)));
}

TEST(WireZeroCopy, ReadFrameViewReusesPooledStorageAcrossFrames) {
  auto bound = net::TcpListener::bind("127.0.0.1", 0);
  ASSERT_TRUE(bound.ok());
  net::TcpListener listener = std::move(bound).value();
  auto connecting = net::tcp_connect("127.0.0.1", listener.port(), 2'000ms);
  ASSERT_TRUE(connecting.ok());
  net::TcpStream sender = std::move(connecting).value();
  auto accepted = listener.accept(2'000ms);
  ASSERT_TRUE(accepted.ok());
  net::TcpStream receiver = std::move(accepted).value();

  util::BufferPool pool;
  util::PooledBuffer storage;
  net::Frame f = sample_frame();
  const std::uint8_t* storage_data = nullptr;
  for (int i = 0; i < 5; ++i) {
    f.request_id = static_cast<std::uint64_t>(i);
    ASSERT_TRUE(net::write_frame(sender, f).is_ok());
    auto view = net::read_frame_view(receiver, pool, storage);
    ASSERT_TRUE(view.ok()) << view.status().to_string();
    EXPECT_EQ(view.value().request_id, static_cast<std::uint64_t>(i));
    ASSERT_EQ(view.value().payload.size(), f.payload.size());
    EXPECT_EQ(0, std::memcmp(view.value().payload.data(), f.payload.data(), f.payload.size()));
    if (i == 0) {
      storage_data = storage.data();
    } else {
      // Same-size frames: the storage block must be reused, not
      // reacquired (the steady-state zero-allocation property).
      EXPECT_EQ(storage.data(), storage_data);
    }
  }
  EXPECT_EQ(pool.stats().misses, 1u);
}

TEST(WireZeroCopy, PermuteRequestViewBorrowsThePayload) {
  net::PermuteRequest request;
  request.plan_id = 0x1122334455667788ull;
  request.deadline_ms = 250;
  request.data = {5, 4, 3, 2, 1, 0, 9, 8};
  const std::vector<std::uint8_t> payload = request.encode();

  auto view = net::PermuteRequestView::decode(payload, 1 << 20);
  ASSERT_TRUE(view.ok()) << view.status().to_string();
  EXPECT_EQ(view.value().plan_id, request.plan_id);
  EXPECT_EQ(view.value().deadline_ms, request.deadline_ms);
  const std::vector<std::uint32_t> copied = words_of(view.value().data);
  EXPECT_EQ(copied, request.data);

  const std::span<const std::uint32_t> in_place = view.value().data.in_place();
  if (!in_place.empty()) {
    // Borrowed, not copied: the span must point into the payload bytes.
    EXPECT_EQ(static_cast<const void*>(in_place.data()),
              static_cast<const void*>(view.value().data.bytes.data()));
    EXPECT_TRUE(std::equal(in_place.begin(), in_place.end(), copied.begin()));
  }
}

TEST(WireZeroCopy, ViewDecodersRejectMalformedPayloads) {
  net::PermuteRequest request;
  request.plan_id = 9;
  request.data = {1, 2, 3, 4};
  const std::vector<std::uint8_t> payload = request.encode();

  // Truncated element region, truncated header, over-budget count.
  for (std::size_t cut : {payload.size() - 1, std::size_t{5}}) {
    const std::span<const std::uint8_t> bad(payload.data(), cut);
    EXPECT_FALSE(net::PermuteRequestView::decode(bad, 1 << 20).ok()) << "cut=" << cut;
  }
  EXPECT_FALSE(net::PermuteRequestView::decode(payload, 2).ok());

  net::SubmitPlanRequest plan_request;
  plan_request.mapping = {1, 0, 3, 2};
  const std::vector<std::uint8_t> plan_payload = plan_request.encode();
  EXPECT_TRUE(net::SubmitPlanRequestView::decode(plan_payload, 1 << 20).ok());
  EXPECT_FALSE(
      net::SubmitPlanRequestView::decode(
          std::span<const std::uint8_t>(plan_payload.data(), plan_payload.size() - 2), 1 << 20)
          .ok());
  EXPECT_FALSE(net::SubmitPlanRequestView::decode(plan_payload, 2).ok());
}

// ------------------------------------------------- hostile-input battery

/// One view decoder under attack: a valid payload, where its header (and
/// peer table) ends, where its count fields sit, and a decode that
/// re-encodes what it accepted through the owning encoder.
struct DecoderCase {
  struct CountField {
    std::size_t offset = 0;
    std::size_t width = 0;    ///< bytes: 2, 4, or 8
    std::uint64_t limit = 0;  ///< the largest value the decoder accepts
  };
  std::string name;
  std::vector<std::uint8_t> payload;
  std::size_t header_len = 0;
  std::vector<CountField> counts;
  std::function<runtime::StatusOr<std::vector<std::uint8_t>>(std::span<const std::uint8_t>)>
      reencode;
};

constexpr std::uint64_t kFuzzMaxElements = 64;

template <class View, class Encode>
auto reencoder(Encode encode) {
  return [encode](std::span<const std::uint8_t> bytes)
             -> runtime::StatusOr<std::vector<std::uint8_t>> {
    auto view = View::decode(bytes, kFuzzMaxElements);
    if (!view.ok()) return view.status();
    return encode(view.value());
  };
}

std::vector<DecoderCase> decoder_cases() {
  std::vector<DecoderCase> cases;
  const std::vector<std::uint32_t> words = {7, 3, 0, 5, 1, 6, 2, 4};
  const std::uint64_t n = words.size();
  {
    net::SubmitPlanRequest req;
    req.mapping = words;
    cases.push_back({"SUBMIT_PLAN", req.encode(), 8, {{0, 8, kFuzzMaxElements}},
                     reencoder<net::SubmitPlanRequestView>([](const auto& v) {
                       return net::SubmitPlanRequest{words_of(v.mapping)}.encode();
                     })});
  }
  {
    net::PermuteRequest req;
    req.plan_id = 0x0123456789abcdefull;
    req.deadline_ms = 77;
    req.data = words;
    cases.push_back({"PERMUTE", req.encode(), 24, {{16, 8, kFuzzMaxElements}},
                     reencoder<net::PermuteRequestView>([](const auto& v) {
                       return net::PermuteRequest{v.plan_id, v.deadline_ms, words_of(v.data)}
                           .encode();
                     })});
  }
  {
    net::ExecuteProgramRequest req;
    req.deadline_ms = 5;
    req.flags = net::kProgramFlagStaged;
    req.ops = {{runtime::ProgramOpCode::kPermute, 0xabcdull},
               {runtime::ProgramOpCode::kRotate, 3}};
    req.data = words;
    const std::size_t header = 24 + 16 * req.ops.size();
    cases.push_back({"EXECUTE_PROGRAM", req.encode(), header,
                     {{12, 4, runtime::kMaxProgramOps}, {header - 8, 8, kFuzzMaxElements}},
                     reencoder<net::ExecuteProgramRequestView>([](const auto& v) {
                       return net::ExecuteProgramRequest{v.deadline_ms, v.flags, v.ops,
                                                         words_of(v.data)}
                           .encode();
                     })});
  }
  {
    net::ShardExecRequest req;
    req.session_id = 0x1111222233334444ull;
    req.plan_id = 0x5555666677778888ull;
    req.deadline_ms = 900;
    req.shard_index = 1;
    req.rows = 4;
    req.cols = 4;
    req.peers = {{"a", 7001}, {"host-b", 7002}};
    req.band = words;
    const std::vector<std::uint8_t> payload = req.encode();
    const std::size_t header = payload.size() - n * net::kElemBytes;
    // Peer table: {u16 port, u16 host_len, host} from offset 56.
    cases.push_back({"SHARD_EXEC", payload, header,
                     {{32, 4, net::kMaxWireShards},
                      {58, 2, net::kMaxShardHostLen},
                      {58 + 4 + 1, 2, net::kMaxShardHostLen},
                      {header - 8, 8, kFuzzMaxElements}},
                     reencoder<net::ShardExecRequestView>([](const auto& v) {
                       return net::ShardExecRequest{v.session_id, v.plan_id, v.deadline_ms,
                                                    v.shard_index, v.rows, v.cols, v.peers,
                                                    words_of(v.band)}
                           .encode();
                     })});
  }
  {
    net::ShardXchgRequest req;
    req.session_id = 0x9999aaaabbbbccccull;
    req.round = 2;
    req.src_shard = 3;
    req.block = words;
    cases.push_back({"SHARD_XCHG", req.encode(), 24, {{16, 8, kFuzzMaxElements}},
                     reencoder<net::ShardXchgRequestView>([](const auto& v) {
                       return net::ShardXchgRequest{v.session_id, v.round, v.src_shard,
                                                    words_of(v.block)}
                           .encode();
                     })});
  }
  {
    net::PermuteResponse resp;
    resp.data = words;
    cases.push_back({"WORDS_RESPONSE", resp.encode(), 8, {{0, 8, kFuzzMaxElements}},
                     reencoder<net::WordsResponseView>([](const auto& v) {
                       return net::PermuteResponse{words_of(v.data)}.encode();
                     })});
  }
  {
    net::ErrorResponse err;
    err.code = static_cast<std::uint32_t>(net::WireError::kRetryLater);
    err.message = "full";
    const std::vector<std::uint8_t> payload = err.encode();
    cases.push_back({"ERROR", payload, payload.size(), {},
                     [](std::span<const std::uint8_t> bytes)
                         -> runtime::StatusOr<std::vector<std::uint8_t>> {
                       auto decoded = net::ErrorResponse::decode(bytes);
                       if (!decoded.ok()) return decoded.status();
                       return decoded.value().encode();
                     }});
  }
  return cases;
}

/// The invariant: a hostile payload either fails typed kInvalidArgument
/// or decodes to exactly what it says — re-encoding gives its bytes back.
void expect_typed_or_exact(const DecoderCase& c, std::span<const std::uint8_t> bytes,
                           const std::string& what) {
  const auto result = c.reencode(bytes);
  if (!result.ok()) {
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << c.name << ": " << what;
    return;
  }
  EXPECT_TRUE(std::equal(result.value().begin(), result.value().end(), bytes.begin(),
                         bytes.end()))
      << c.name << ": " << what << " decoded but did not re-encode to the same bytes";
}

TEST(NetProtocol, EveryViewDecoderIsTypedOrExactOnHostileBytes) {
  for (const DecoderCase& c : decoder_cases()) {
    const auto valid = c.reencode(c.payload);
    ASSERT_TRUE(valid.ok()) << c.name << ": " << valid.status().to_string();
    EXPECT_EQ(valid.value(), c.payload) << c.name;

    for (std::size_t cut = 0; cut < c.payload.size(); ++cut) {
      expect_typed_or_exact(c, {c.payload.data(), cut}, "truncated at " + std::to_string(cut));
    }
    for (std::size_t at = 0; at < c.header_len; ++at) {
      for (const std::uint8_t value : {std::uint8_t{0x00}, std::uint8_t{0xff}}) {
        std::vector<std::uint8_t> bad = c.payload;
        bad[at] = value;
        expect_typed_or_exact(c, bad, "byte " + std::to_string(at) + " = " +
                                          std::to_string(value));
      }
    }
    for (const DecoderCase::CountField& field : c.counts) {
      std::uint64_t count = 0;
      for (std::size_t i = 0; i < field.width; ++i) {
        count |= static_cast<std::uint64_t>(c.payload[field.offset + i]) << (8 * i);
      }
      const std::uint64_t all_ones =
          field.width == 8 ? ~0ull : (1ull << (8 * field.width)) - 1;
      for (const std::uint64_t value :
           {count - 1, count + 1, field.limit + 1, all_ones}) {
        std::vector<std::uint8_t> bad = c.payload;
        for (std::size_t i = 0; i < field.width; ++i) {
          bad[field.offset + i] = static_cast<std::uint8_t>(value >> (8 * i));
        }
        expect_typed_or_exact(c, bad, "count at " + std::to_string(field.offset) + " = " +
                                          std::to_string(value));
      }
    }
  }
}

TEST(WireZeroCopy, MakeOkFrameMovesThePayload) {
  std::vector<std::uint8_t> payload(1024, 0xab);
  const std::uint8_t* bytes = payload.data();
  const net::Frame frame =
      net::make_ok_frame(7, net::MsgKind::kPermuteOk, std::move(payload));
  // Moved, not copied: the frame owns the very same allocation.
  EXPECT_EQ(frame.payload.data(), bytes);
  EXPECT_EQ(frame.request_id, 7u);
}

// ------------------------------------------------- hot-path loopback

TEST(NetLoopback, SteadyStatePermuteIsPoolMissFree) {
  // The wire-level zero-allocation acceptance check: after warmup, 100
  // PERMUTEs over one connection must never miss the buffer pool — the
  // request payload, response elements, and executor scratch all come
  // from warmed size classes.
  const std::uint64_t n = 1 << 13;
  Loopback loop;
  net::Client client(loop.client_config());
  const perm::Permutation p = perm::bit_reversal(n);
  auto plan = client.submit_plan(p);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();

  std::vector<std::uint32_t> a(n), b(n);
  for (std::uint64_t i = 0; i < n; ++i) a[i] = static_cast<std::uint32_t>(i ^ 0x55);
  for (int r = 0; r < 8; ++r) {  // warmup
    ASSERT_TRUE(client.permute(plan.value(), {a.data(), n}, {b.data(), n}).is_ok());
  }
  const std::uint64_t misses_before = loop.service.metrics().snapshot().pool_misses;
  for (int r = 0; r < 100; ++r) {
    ASSERT_TRUE(client.permute(plan.value(), {a.data(), n}, {b.data(), n}).is_ok());
  }
  EXPECT_EQ(loop.service.metrics().snapshot().pool_misses, misses_before);
  for (std::uint64_t i = 0; i < n; ++i) ASSERT_EQ(b[p(i)], a[i]);
}

// --------------------------------------------- reactor connection scale

/// Raise the process fd soft limit so the high-connection tests can run
/// (each loopback connection costs two fds). Returns false when even the
/// hard limit cannot carry `want`.
bool raise_fd_limit(rlim_t want) {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return false;
  if (lim.rlim_cur >= want) return true;
  if (lim.rlim_max != RLIM_INFINITY && lim.rlim_max < want) return false;
  lim.rlim_cur = want;
  return ::setrlimit(RLIMIT_NOFILE, &lim) == 0;
}

// The tentpole acceptance check at test scale: a thousand idle
// connections cost the reactor a map entry each, not a thread each,
// and a request threaded past all of them is answered promptly.
TEST(NetReactor, ThousandIdleConnectionsAreCarriedAndServed) {
  constexpr std::size_t kIdle = 1000;
  if (!raise_fd_limit(4096)) GTEST_SKIP() << "fd hard limit too low for 1k connections";

  net::Server::Config server_config;
  server_config.max_connections = kIdle + 64;
  Loopback loop({}, server_config);

  std::vector<net::TcpStream> idle;
  idle.reserve(kIdle);
  for (std::size_t i = 0; i < kIdle; ++i) {
    auto conn = net::tcp_connect("127.0.0.1", loop.server.port(), 2'000ms);
    ASSERT_TRUE(conn.ok()) << "connection " << i << ": " << conn.status().to_string();
    idle.push_back(std::move(conn).value());
  }

  // With a thousand idle peers parked on the epoll set, a live client
  // still gets served, and quickly.
  const auto started = std::chrono::steady_clock::now();
  net::Client client(loop.client_config());
  const Status s = client.ping();
  const auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_TRUE(s.is_ok()) << s.to_string();
  EXPECT_LT(elapsed, 5s) << "ping stalled behind idle connections";

  // The idle connections are still live too: a late request on one of
  // them is served like any other.
  net::Frame ping;
  ping.kind = static_cast<std::uint16_t>(net::MsgKind::kPing);
  ping.request_id = 42;
  ping.payload = {'u', 'p', '?'};
  for (std::size_t i : {std::size_t{0}, kIdle / 2, kIdle - 1}) {
    ASSERT_TRUE(idle[i].set_io_timeout(5'000ms, 5'000ms).is_ok());
    ASSERT_TRUE(net::write_frame(idle[i], ping).is_ok()) << "connection " << i;
    auto resp = net::read_frame(idle[i], net::kDefaultMaxPayload);
    ASSERT_TRUE(resp.ok()) << "connection " << i << ": " << resp.status().to_string();
    EXPECT_EQ(resp.value().payload, ping.payload);
  }
  EXPECT_GE(loop.server.counters().connections_accepted, kIdle + 1);
}

// Open/close storm: connections that vanish instantly, mid-header, or
// after a served request must all be reaped without wedging the
// reactor or leaking conn slots.
TEST(NetReactor, ConnectionChurnStormLeavesTheServerServing) {
  Loopback loop;
  constexpr int kStorm = 300;
  const std::uint8_t half_header[] = {'H', 'M', 'M', 'P', 0x01, 0x00};
  for (int i = 0; i < kStorm; ++i) {
    auto conn = net::tcp_connect("127.0.0.1", loop.server.port(), 2'000ms);
    ASSERT_TRUE(conn.ok()) << "connection " << i << ": " << conn.status().to_string();
    net::TcpStream stream = std::move(conn).value();
    if (i % 3 == 1) {
      (void)stream.send_all(half_header, sizeof(half_header));  // torn header, then gone
    } else if (i % 3 == 2) {
      net::Frame ping;
      ping.kind = static_cast<std::uint16_t>(net::MsgKind::kPing);
      ping.request_id = static_cast<std::uint64_t>(i);
      ASSERT_TRUE(net::write_frame(stream, ping).is_ok());
      // Close without reading the response: the flush hits a dead peer.
    }
    stream.close();
  }

  // The server is still fully in business afterwards.
  net::Client client(loop.client_config());
  EXPECT_TRUE(client.ping().is_ok());
  EXPECT_GE(loop.server.counters().connections_accepted,
            static_cast<std::uint64_t>(kStorm));
}

// A slow-loris peer that trickles half a header and stalls is closed by
// the io_timeout stall scan — the resumable decoder holds the partial
// header, the reactor's clock bounds how long.
TEST(NetReactor, SlowLorisPartialHeaderIsClosedByIoTimeout) {
  net::Server::Config server_config;
  server_config.io_timeout = 150ms;
  server_config.poll_interval = 10ms;
  Loopback loop({}, server_config);

  auto conn = net::tcp_connect("127.0.0.1", loop.server.port(), 2'000ms);
  ASSERT_TRUE(conn.ok()) << conn.status().to_string();
  net::TcpStream loris = std::move(conn).value();
  ASSERT_TRUE(loris.set_io_timeout(5'000ms, 5'000ms).is_ok());
  const std::uint8_t torn[] = {'H', 'M', 'M', 'P', 0x01, 0x00, 0x01, 0x00, 0x07};
  ASSERT_TRUE(loris.send_all(torn, sizeof(torn)).is_ok());

  // Quiet close (EOF), not an ERROR frame, and well before the 5s
  // blocking-read budget: the stall scan fired.
  const auto started = std::chrono::steady_clock::now();
  auto got = net::read_frame(loris, net::kDefaultMaxPayload);
  const auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kUnavailable) << got.status().to_string();
  EXPECT_LT(elapsed, 3s) << "mid-frame stall outlived io_timeout";
}

// Graceful drain under concurrency: stop() lands while several requests
// are mid-execution; every one of them must still get its full
// response flushed before the reactors exit.
TEST(NetReactor, GracefulDrainFlushesAllInFlightResponses) {
  auto loop = std::make_unique<Loopback>();
  const std::uint64_t n = 1024;
  const perm::Permutation p = perm::by_name("bit-reversal", n, 1);
  std::uint64_t plan_id = 0;
  {
    net::Client setup(loop->client_config());
    auto plan = setup.submit_plan(p);
    ASSERT_TRUE(plan.ok());
    plan_id = plan.value();
  }

  runtime::FaultInjector::Config faults;
  faults.enabled = true;
  faults.seed = 1;
  faults.rate = 1.0;
  faults.stall_ms = 200;
  faults.sites = std::string(runtime::fault_sites::kExecutorStall);
  runtime::ScopedFaultInjection chaos(faults);

  std::vector<std::uint32_t> expect(n);
  constexpr int kInFlight = 4;
  std::vector<std::vector<std::uint32_t>> inputs(kInFlight), outputs(kInFlight);
  std::vector<Status> outcomes(kInFlight, Status(StatusCode::kUnavailable, "not run"));
  std::vector<std::thread> requests;
  requests.reserve(kInFlight);
  for (int c = 0; c < kInFlight; ++c) {
    inputs[c].assign(n, 0);
    outputs[c].assign(n, 0);
    for (std::uint64_t i = 0; i < n; ++i) {
      inputs[c][i] = static_cast<std::uint32_t>(i + static_cast<std::uint64_t>(c) * n);
    }
    requests.emplace_back([&, c] {
      net::Client client(loop->client_config());
      outcomes[c] =
          client.permute(plan_id, {inputs[c].data(), n}, {outputs[c].data(), n});
    });
  }
  std::this_thread::sleep_for(80ms);  // let the requests reach the executor
  loop->server.stop();                // must drain all four, not drop them
  for (std::thread& t : requests) t.join();

  for (int c = 0; c < kInFlight; ++c) {
    ASSERT_TRUE(outcomes[c].is_ok()) << "request " << c << ": " << outcomes[c].to_string();
    p.apply<std::uint32_t>({inputs[c].data(), n}, {expect.data(), n});
    EXPECT_EQ(outputs[c], expect) << "request " << c << " got a torn response";
  }
  EXPECT_FALSE(loop->server.running());
}

// Regression (PR 9): the over-cap RETRY_LATER frame used to be written
// synchronously by the accept thread under the full io_timeout, so one
// hostile over-cap peer could freeze admission for everyone. The frame
// is now flushed by a reactor under reject_write_budget; the accept
// thread never writes.
TEST(NetReactor, CapRejectionIsFlushedOffTheAcceptPath) {
  net::Server::Config server_config;
  server_config.max_connections = 1;
  server_config.io_timeout = 30'000ms;  // the old bug's worst-case stall, per peer
  Loopback loop({}, server_config);

  // Occupy the only slot and prove it serves.
  auto conn = net::tcp_connect("127.0.0.1", loop.server.port(), 2'000ms);
  ASSERT_TRUE(conn.ok()) << conn.status().to_string();
  net::TcpStream occupant = std::move(conn).value();
  ASSERT_TRUE(occupant.set_io_timeout(5'000ms, 5'000ms).is_ok());
  net::Frame ping;
  ping.kind = static_cast<std::uint16_t>(net::MsgKind::kPing);
  ping.request_id = 1;
  ASSERT_TRUE(net::write_frame(occupant, ping).is_ok());
  ASSERT_TRUE(net::read_frame(occupant, net::kDefaultMaxPayload).ok());

  // Hostile over-cap peers: connect and never read a byte. Under the
  // old code each would have parked the accept thread in a blocking
  // write with the whole io_timeout as budget.
  std::vector<net::TcpStream> hostile;
  for (int i = 0; i < 3; ++i) {
    auto h = net::tcp_connect("127.0.0.1", loop.server.port(), 2'000ms);
    ASSERT_TRUE(h.ok()) << h.status().to_string();
    hostile.push_back(std::move(h).value());
  }

  // A polite over-cap client right behind them must still get its typed
  // rejection promptly — the accept path cannot be head-of-line blocked.
  const auto started = std::chrono::steady_clock::now();
  net::Client::Config config = loop.client_config();
  config.max_retries = 0;
  net::Client late(config);
  const Status s = late.ping();
  const auto elapsed = std::chrono::steady_clock::now() - started;
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted)
      << "expected typed RETRY_LATER, got " << s.to_string();
  EXPECT_LT(elapsed, 2s) << "rejection was head-of-line blocked behind hostile peers";
  EXPECT_GE(loop.server.counters().connections_rejected, 4u);

  // And the occupant, who owns the one real slot, is unaffected.
  ASSERT_TRUE(net::write_frame(occupant, ping).is_ok());
  EXPECT_TRUE(net::read_frame(occupant, net::kDefaultMaxPayload).ok());
}

// Regression (PR 9): a peer spraying SHARD_XCHG blocks at sessions that
// never materialize used to pin each block's pooled payload for the
// full exchange timeout with no bound. The holds now run under
// max_shard_hold_bytes: excess blocks answer typed RETRY_LATER, and
// every pinned byte is released once the waits resolve.
TEST(NetReactor, EarlyArrivalShardHoldsAreBoundedAndReleased) {
  const std::uint64_t baseline = util::BufferPool::global().stats().outstanding_bytes;

  net::Server::Config server_config;
  server_config.shard_exchange_timeout = 300ms;
  server_config.poll_interval = 10ms;
  server_config.max_shard_hold_bytes = 4096;  // fits one 3KiB block, not two
  {
    Loopback loop({}, server_config);

    net::ShardXchgRequest xchg;
    xchg.round = 1;
    xchg.src_shard = 0;
    xchg.block.assign(768, 7);  // 3072 payload bytes

    // First orphan block: admitted under the hold budget, parks waiting
    // for a session that will never exist.
    xchg.session_id = 0xfeed0001;
    auto first = net::tcp_connect("127.0.0.1", loop.server.port(), 2'000ms);
    ASSERT_TRUE(first.ok()) << first.status().to_string();
    net::TcpStream parked = std::move(first).value();
    ASSERT_TRUE(parked.set_io_timeout(5'000ms, 5'000ms).is_ok());
    net::Frame frame;
    frame.kind = static_cast<std::uint16_t>(net::MsgKind::kShardXchg);
    frame.request_id = 1;
    frame.payload = xchg.encode();
    ASSERT_TRUE(net::write_frame(parked, frame).is_ok());
    std::this_thread::sleep_for(50ms);  // let it reach the await

    // Second orphan block: over the hold budget -> immediate typed
    // RETRY_LATER, not a second pinned payload.
    xchg.session_id = 0xfeed0002;
    auto second = net::tcp_connect("127.0.0.1", loop.server.port(), 2'000ms);
    ASSERT_TRUE(second.ok()) << second.status().to_string();
    net::TcpStream rejected = std::move(second).value();
    ASSERT_TRUE(rejected.set_io_timeout(5'000ms, 5'000ms).is_ok());
    frame.request_id = 2;
    frame.payload = xchg.encode();
    const auto started = std::chrono::steady_clock::now();
    ASSERT_TRUE(net::write_frame(rejected, frame).is_ok());
    auto bounced = net::read_frame(rejected, net::kDefaultMaxPayload);
    const auto elapsed = std::chrono::steady_clock::now() - started;
    ASSERT_TRUE(bounced.ok()) << bounced.status().to_string();
    ASSERT_EQ(static_cast<net::MsgKind>(bounced.value().kind), net::MsgKind::kError);
    auto err = net::ErrorResponse::decode(bounced.value().payload);
    ASSERT_TRUE(err.ok());
    EXPECT_EQ(err.value().to_status().code(), StatusCode::kResourceExhausted)
        << err.value().to_status().to_string();
    EXPECT_LT(elapsed, 2s) << "over-budget hold waited instead of bouncing";

    // The parked block resolves typed (no such session) once the
    // exchange timeout passes, releasing its hold.
    auto resolved = net::read_frame(parked, net::kDefaultMaxPayload);
    ASSERT_TRUE(resolved.ok()) << resolved.status().to_string();
    ASSERT_EQ(static_cast<net::MsgKind>(resolved.value().kind), net::MsgKind::kError);
    auto parked_err = net::ErrorResponse::decode(resolved.value().payload);
    ASSERT_TRUE(parked_err.ok());
    EXPECT_EQ(parked_err.value().to_status().code(), StatusCode::kUnavailable);

    EXPECT_GE(loop.server.counters().shard_hold_rejections, 1u);
  }
  // Server gone: every pooled byte the hostile blocks pinned is back.
  EXPECT_EQ(util::BufferPool::global().stats().outstanding_bytes, baseline);
}

// Regression (PR 9): a server that dies (or hits its drain deadline)
// *inside* a response frame used to surface as a generic transport
// error, which the retry loop resent blindly — even though the request
// may have executed. It now surfaces as kCancelled and is never
// auto-retried.
TEST(NetClient, MidFrameCloseSurfacesCancelledAndIsNotRetried) {
  auto bound = net::TcpListener::bind("127.0.0.1", 0);
  ASSERT_TRUE(bound.ok()) << bound.status().to_string();
  net::TcpListener listener = std::move(bound).value();

  // A fake server that answers with a torn frame: a complete header
  // promising 8 payload bytes, 2 delivered, then EOF.
  std::thread fake([&listener] {
    auto accepted = listener.accept(5'000ms);
    if (!accepted.ok()) return;
    net::TcpStream conn = std::move(accepted).value();
    auto request = net::read_frame(conn, net::kDefaultMaxPayload);
    if (!request.ok()) return;
    net::Frame response;
    response.kind = request.value().kind | 0x80u;
    response.request_id = request.value().request_id;
    response.payload = {1, 2, 3, 4, 5, 6, 7, 8};
    const std::vector<std::uint8_t> bytes = net::encode_frame(response);
    (void)conn.send_all(bytes.data(), net::kHeaderBytes + 2);
    conn.close();
  });

  net::Client::Config config;
  config.host = "127.0.0.1";
  config.port = listener.port();
  config.connect_timeout = 2'000ms;
  config.io_timeout = 5'000ms;
  config.max_retries = 3;  // must NOT be spent on a torn response
  config.retry_backoff_base = 0ms;
  net::Client client(config);
  const Status s = client.ping();
  fake.join();

  EXPECT_EQ(s.code(), StatusCode::kCancelled) << s.to_string();
  EXPECT_EQ(client.reconnects(), 0u) << "client retried a request with unknown outcome";
}

// --------------------------------------------------- the round trip

/// A one-shot scripted HMMP peer on a loopback port: accepts one
/// connection, reads one request frame, answers with the raw bytes
/// `script` builds from it, and closes.
class ScriptedPeer {
 public:
  using Script = std::function<std::vector<std::uint8_t>(const net::Frame& request)>;

  explicit ScriptedPeer(Script script)
      : listener_(net::TcpListener::bind("127.0.0.1", 0).value()) {
    thread_ = std::thread([this, script = std::move(script)] {
      auto accepted = listener_.accept(5'000ms);
      if (!accepted.ok()) return;
      net::TcpStream conn = std::move(accepted).value();
      auto request = net::read_frame(conn);
      if (!request.ok()) return;
      request_ = std::move(request).value();
      const std::vector<std::uint8_t> bytes = script(request_);
      (void)conn.send_all(bytes.data(), bytes.size());
    });
  }
  ~ScriptedPeer() { join(); }
  ScriptedPeer(const ScriptedPeer&) = delete;
  ScriptedPeer& operator=(const ScriptedPeer&) = delete;

  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }
  /// The request the peer read (joins the peer first).
  const net::Frame& request() {
    join();
    return request_;
  }

 private:
  void join() {
    if (thread_.joinable()) thread_.join();
  }

  net::TcpListener listener_;
  net::Frame request_;
  std::thread thread_;
};

std::vector<std::uint8_t> frame_bytes(std::uint16_t kind, std::uint64_t id,
                                      std::vector<std::uint8_t> payload) {
  net::Frame frame;
  frame.kind = kind;
  frame.request_id = id;
  frame.payload = std::move(payload);
  return net::encode_frame(frame);
}

std::vector<std::uint8_t> error_payload(net::WireError code) {
  net::ErrorResponse err;
  err.code = static_cast<std::uint32_t>(code);
  err.message = "scripted";
  return err.encode();
}

constexpr std::uint16_t kPingOk = static_cast<std::uint16_t>(net::MsgKind::kPingOk);
constexpr std::uint16_t kErrorKind = static_cast<std::uint16_t>(net::MsgKind::kError);

/// net::call a PING (request id 42) against `peer`; the answer is copied
/// out of the pooled storage.
runtime::StatusOr<net::Frame> call_peer(ScriptedPeer& peer,
                                        std::uint32_t max_payload = net::kDefaultMaxPayload) {
  auto conn = net::tcp_connect("127.0.0.1", peer.port(), 2'000ms);
  if (!conn.ok()) return conn.status();
  net::TcpStream stream = std::move(conn).value();
  (void)stream.set_io_timeout(5'000ms, 5'000ms);
  static constexpr std::uint8_t kProbe[] = {'p', 'i', 'n', 'g'};
  const net::ConstBuffer parts[] = {{kProbe, sizeof(kProbe)}};
  util::PooledBuffer storage;
  auto response = net::call(stream, net::MsgKind::kPing, 42, parts, storage, max_payload);
  if (!response.ok()) return response.status();
  net::Frame frame;
  frame.kind = response.value().kind;
  frame.request_id = response.value().request_id;
  frame.payload.assign(response.value().payload.begin(), response.value().payload.end());
  return frame;
}

TEST(NetCall, AcceptsTheAnswerToItsRequest) {
  ScriptedPeer peer([](const net::Frame& request) {
    return frame_bytes(kPingOk, request.request_id, request.payload);
  });
  auto answer = call_peer(peer);
  ASSERT_TRUE(answer.ok()) << answer.status().to_string();
  EXPECT_EQ(answer.value().kind, kPingOk);
  EXPECT_EQ(answer.value().request_id, 42u);
  EXPECT_EQ(answer.value().payload, peer.request().payload);
  EXPECT_EQ(peer.request().kind, static_cast<std::uint16_t>(net::MsgKind::kPing));
}

TEST(NetCall, RejectsAWrongRequestId) {
  for (const std::uint16_t kind : {kPingOk, kErrorKind}) {
    ScriptedPeer peer([kind](const net::Frame& request) {
      return frame_bytes(kind, request.request_id + 1,
                         error_payload(net::WireError::kInvalidArgument));
    });
    auto answer = call_peer(peer);
    ASSERT_FALSE(answer.ok()) << "kind " << kind;
    EXPECT_EQ(answer.status().code(), StatusCode::kUnavailable) << "kind " << kind;
  }
}

TEST(NetCall, RejectsAKindThatDoesNotAnswerTheRequest) {
  ScriptedPeer peer([](const net::Frame& request) {
    return frame_bytes(static_cast<std::uint16_t>(net::MsgKind::kPlanOk), request.request_id,
                       {});
  });
  auto answer = call_peer(peer);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kUnavailable);
}

TEST(NetCall, IdZeroIsAcceptedOnlyAsAPreFrameError) {
  {
    ScriptedPeer peer([](const net::Frame&) {
      return frame_bytes(kErrorKind, 0, error_payload(net::WireError::kRetryLater));
    });
    auto answer = call_peer(peer);
    ASSERT_TRUE(answer.ok()) << answer.status().to_string();
    EXPECT_EQ(answer.value().request_id, 0u);
    const net::FrameView view{answer.value().kind, 0, answer.value().payload};
    EXPECT_EQ(net::error_status(view).code(), StatusCode::kResourceExhausted);
  }
  {
    ScriptedPeer peer([](const net::Frame&) { return frame_bytes(kPingOk, 0, {}); });
    auto answer = call_peer(peer);
    ASSERT_FALSE(answer.ok());
    EXPECT_EQ(answer.status().code(), StatusCode::kUnavailable);
  }
}

TEST(NetCall, MalformedErrorPayloadMapsToUnavailable) {
  ScriptedPeer peer([](const net::Frame& request) {
    return frame_bytes(kErrorKind, request.request_id, {0x01, 0x00});  // code cut short
  });
  auto answer = call_peer(peer);
  ASSERT_TRUE(answer.ok()) << answer.status().to_string();
  const net::FrameView view{answer.value().kind, answer.value().request_id,
                            answer.value().payload};
  EXPECT_EQ(net::error_status(view).code(), StatusCode::kUnavailable);
}

TEST(NetCall, ErrorClaimingOkMapsToUnavailable) {
  ScriptedPeer peer([](const net::Frame& request) {
    return frame_bytes(kErrorKind, request.request_id, error_payload(net::WireError::kOk));
  });
  auto answer = call_peer(peer);
  ASSERT_TRUE(answer.ok()) << answer.status().to_string();
  const net::FrameView view{answer.value().kind, answer.value().request_id,
                            answer.value().payload};
  EXPECT_EQ(net::error_status(view).code(), StatusCode::kUnavailable);
}

TEST(NetCall, FrameOverMaxPayloadIsAProtocolError) {
  ScriptedPeer peer([](const net::Frame& request) {
    return frame_bytes(kPingOk, request.request_id, std::vector<std::uint8_t>(64, 0xab));
  });
  auto answer = call_peer(peer, 16);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kInvalidArgument);
}

TEST(NetCall, EofMidFrameKeepsTheTransportTaxonomy) {
  ScriptedPeer peer([](const net::Frame& request) {
    std::vector<std::uint8_t> bytes =
        frame_bytes(kPingOk, request.request_id, {1, 2, 3, 4, 5, 6, 7, 8});
    bytes.resize(net::kHeaderBytes + 2);  // header promises 8 bytes, 2 arrive
    return bytes;
  });
  auto answer = call_peer(peer);
  ASSERT_FALSE(answer.ok());
  // call() does not remap: the Client alone turns this into kCancelled.
  EXPECT_EQ(answer.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(answer.status().message().find("mid-frame"), std::string::npos)
      << answer.status().to_string();
}

net::Client::Config scripted_client_config(const ScriptedPeer& peer) {
  net::Client::Config config;
  config.host = "127.0.0.1";
  config.port = peer.port();
  config.connect_timeout = 2'000ms;
  config.io_timeout = 5'000ms;
  config.max_retries = 0;
  return config;
}

TEST(NetClient, SubmitPlanSendsTheEncodedMappingBytes) {
  const perm::Permutation p = perm::by_name("random", 1024, 11);
  ScriptedPeer peer([](const net::Frame& request) {
    net::ByteWriter w;
    w.put_u64(0x5151);
    return frame_bytes(static_cast<std::uint16_t>(net::MsgKind::kPlanOk), request.request_id,
                       w.take());
  });
  net::Client client(scripted_client_config(peer));
  auto plan_id = client.submit_plan(p);
  ASSERT_TRUE(plan_id.ok()) << plan_id.status().to_string();
  EXPECT_EQ(plan_id.value(), 0x5151u);

  net::SubmitPlanRequest expected;
  expected.mapping.assign(p.data().begin(), p.data().end());
  EXPECT_EQ(peer.request().kind, static_cast<std::uint16_t>(net::MsgKind::kSubmitPlan));
  EXPECT_EQ(peer.request().payload, expected.encode());
}

TEST(NetClient, PermuteOkWithTheWrongCountIsAProtocolBreach) {
  ScriptedPeer peer([](const net::Frame& request) {
    net::PermuteResponse short_answer;
    short_answer.data = {1, 2, 3, 4};
    return frame_bytes(static_cast<std::uint16_t>(net::MsgKind::kPermuteOk),
                       request.request_id, short_answer.encode());
  });
  net::Client client(scripted_client_config(peer));
  const std::vector<std::uint32_t> in = {5, 6, 7, 8, 9};
  std::vector<std::uint32_t> out(in.size(), 0);
  const Status s = client.permute(1, in, out);
  EXPECT_EQ(s.code(), StatusCode::kUnavailable) << s.to_string();
  EXPECT_EQ(out, std::vector<std::uint32_t>(in.size(), 0)) << "a rejected answer was written";
}

// The three jittered-backoff schedules share one helper; each must stay
// bit-identical to the values it produced before they were merged.
TEST(JitteredBackoff, SchedulesArePinned) {
  const net::Client::Config client{};
  const net::Router::Config router{};
  const runtime::RobustPermuteService::Config service{};
  const std::int64_t client_us[] = {0, 47704, 64086, 144196, 207840, 658761, 1350907};
  const std::int64_t router_us[] = {0, 3109, 6740, 13340, 17363, 47859, 90775};
  const std::int64_t service_us[] = {304, 486, 996, 3040, 5961, 6907, 23198};
  for (int attempt = 0; attempt <= 6; ++attempt) {
    EXPECT_EQ(net::Client::retry_backoff(client, attempt).count(), client_us[attempt])
        << "client attempt " << attempt;
    EXPECT_EQ(net::Router::failover_pause(router, attempt, 0x1234).count(), router_us[attempt])
        << "router hop " << attempt;
    EXPECT_EQ(runtime::RobustPermuteService::backoff_with_jitter(service, attempt).count(),
              service_us[attempt])
        << "service attempt " << attempt;
  }

  // Attempts 0-70: each delay is d + jitter with d = min(base << k, cap)
  // and jitter < d, so the schedule never decreases while d is still
  // doubling, and once d reaches the cap every delay stays in
  // [cap, 2 cap) — no attempt count overflows the shift.
  const auto check = [](const char* who, std::int64_t cap_us, const auto& delay_us) {
    bool capped = false;
    std::int64_t prev = 0;
    for (int attempt = 0; attempt <= 70; ++attempt) {
      const std::int64_t d = delay_us(attempt);
      EXPECT_GE(d, 0) << who << " attempt " << attempt;
      EXPECT_LT(d, 2 * cap_us) << who << " attempt " << attempt;
      if (!capped) {
        EXPECT_GE(d, prev) << who << " attempt " << attempt;
        capped = d >= cap_us;
      } else {
        EXPECT_GE(d, cap_us) << who << " attempt " << attempt;
      }
      prev = d;
    }
    EXPECT_TRUE(capped) << who << " never reached its cap";
  };
  check("client", std::chrono::microseconds(client.retry_backoff_cap).count(),
        [&](int attempt) { return net::Client::retry_backoff(client, attempt).count(); });
  check("router", std::chrono::microseconds(router.failover_backoff_cap).count(),
        [&](int attempt) { return net::Router::failover_pause(router, attempt, 0x1234).count(); });
  check("service", static_cast<std::int64_t>(runtime::RobustPermuteService::kRetryBackoffCapUs),
        [&](int attempt) {
          return runtime::RobustPermuteService::backoff_with_jitter(service, attempt).count();
        });
}

}  // namespace
}  // namespace hmm
