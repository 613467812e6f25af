#include "net/client.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <thread>
#include <utility>

#include "util/rng.hpp"

namespace hmm::net {

using runtime::Status;
using runtime::StatusCode;
using runtime::StatusOr;

namespace {

bool is_error(const FrameView& frame) {
  return static_cast<MsgKind>(frame.kind) == MsgKind::kError;
}

/// PERMUTE_OK / PROGRAM_OK straight into the caller's span. A malformed
/// payload is the server's protocol breach, not an invalid argument of
/// ours, so it surfaces as kUnavailable.
Status copy_words_response(const FrameView& frame, std::span<std::uint32_t> out,
                           std::string_view what) {
  const std::string malformed = "malformed " + std::string(what) + " payload: ";
  StatusOr<WordsResponseView> response = WordsResponseView::decode(frame.payload, out.size());
  if (!response.ok()) {
    return Status(StatusCode::kUnavailable, malformed + response.status().message());
  }
  if (response.value().data.count != out.size()) {
    return Status(StatusCode::kUnavailable,
                  malformed + "element count does not match the request");
  }
  response.value().data.copy_to(out);
  return Status::ok();
}

}  // namespace

Status Client::connect() {
  close();
  StatusOr<TcpStream> conn = tcp_connect(config_.host, config_.port, config_.connect_timeout);
  if (!conn.ok()) return conn.status();
  stream_ = std::move(conn).value();
  return stream_.set_io_timeout(config_.io_timeout, config_.io_timeout);
}

StatusOr<FrameView> Client::roundtrip_once(MsgKind kind, std::span<const ConstBuffer> parts,
                                           std::uint64_t request_id) {
  StatusOr<FrameView> response =
      call(stream_, kind, request_id, parts, response_storage_, config_.max_payload_bytes);
  if (!response.ok()) {
    // The request reached the wire. A clean EOF before any response
    // byte means the server never started answering (idle close, a
    // restart) — safe to resend. EOF *inside* a response frame means
    // the server was mid-answer when the connection died (a drain
    // deadline, a crash after execution): the request may well have
    // executed, so surface kCancelled — "outcome unknown" — instead of
    // a generic transport error the retry loop would resend blindly.
    const Status& s = response.status();
    if (s.code() == StatusCode::kUnavailable &&
        s.message().find("mid-frame") != std::string::npos) {
      return Status(StatusCode::kCancelled,
                    "connection closed mid-response; request outcome unknown");
    }
    return response;
  }
  if (response.value().request_id != request_id) {
    // Pre-frame admission rejection (the server answers a connection
    // it will not serve with an ERROR frame addressed to no request,
    // then closes). Surface the typed code — usually RETRY_LATER from
    // the connection cap — so the retry loop backs off instead of
    // treating this as a protocol violation.
    return error_status(response.value());
  }
  return response;
}

std::chrono::microseconds Client::retry_backoff(const Config& config, int attempt) noexcept {
  if (attempt <= 0 || config.retry_backoff_base.count() <= 0) {
    return std::chrono::microseconds{0};
  }
  const auto base_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(config.retry_backoff_base).count());
  const auto cap_us = static_cast<std::uint64_t>(std::max<std::int64_t>(
      0, std::chrono::duration_cast<std::chrono::microseconds>(config.retry_backoff_cap)
             .count()));
  return std::chrono::microseconds(util::jittered_backoff_us(
      base_us, cap_us, std::min(attempt - 1, 20), config.retry_jitter_seed,
      static_cast<std::uint64_t>(attempt)));
}

StatusOr<FrameView> Client::roundtrip_elements(MsgKind kind, std::vector<std::uint8_t> prefix,
                                               std::span<const std::uint32_t> data) {
  // Header fields, then the caller's elements straight from its span:
  // on a little-endian host the words are already wire bytes, so they
  // leave as a second scatter-gather part and the payload is never
  // staged in a buffer of its own.
  if constexpr (std::endian::native == std::endian::little) {
    const ConstBuffer parts[] = {{prefix.data(), prefix.size()},
                                 {data.data(), data.size_bytes()}};
    return roundtrip(kind, parts);
  } else {
    ByteWriter w;
    w.put_bytes(prefix);
    w.put_u32_span(data);
    const ConstBuffer parts[] = {{w.bytes().data(), w.bytes().size()}};
    return roundtrip(kind, parts);
  }
}

StatusOr<FrameView> Client::roundtrip(MsgKind kind, std::span<const ConstBuffer> parts) {
  Status last(StatusCode::kUnavailable, "not attempted");
  for (int attempt = 0; attempt <= config_.max_retries; ++attempt) {
    if (attempt > 0) {
      const std::chrono::microseconds pause = retry_backoff(config_, attempt);
      if (pause.count() > 0) std::this_thread::sleep_for(pause);
    }
    if (!connected()) {
      if (attempt > 0) ++reconnects_;
      if (Status s = connect(); !s.is_ok()) {
        last = s;
        continue;  // next attempt backs off and reconnects again
      }
    }
    StatusOr<FrameView> response = roundtrip_once(kind, parts, next_request_id());
    if (response.ok()) return response;
    last = response.status();
    // A frame-level violation or transport failure poisons the
    // connection; typed server errors arrive as kError *frames* (the
    // OK path above), so any Status here warrants a reconnect.
    close();
    if (last.code() == StatusCode::kInvalidArgument) {
      // Framing violation from the server: do not hammer a confused
      // peer with resends.
      return last;
    }
    if (last.code() == StatusCode::kCancelled) {
      // Torn response: the request may have executed server-side.
      // Resending is the application's call (idempotent PERMUTEs can;
      // anything with side effects must not), so never retry here.
      return last;
    }
  }
  return last;
}

Status Client::ping() {
  static constexpr std::uint8_t kProbe[] = {'h', 'm', 'm', 'p', '?'};
  const ConstBuffer parts[] = {{kProbe, sizeof(kProbe)}};
  StatusOr<FrameView> response = roundtrip(MsgKind::kPing, parts);
  if (!response.ok()) return response.status();
  const FrameView& frame = response.value();
  if (is_error(frame)) return error_status(frame);
  if (!std::equal(frame.payload.begin(), frame.payload.end(), std::begin(kProbe),
                  std::end(kProbe))) {
    return Status(StatusCode::kUnavailable, "PING echo mismatch");
  }
  return Status::ok();
}

StatusOr<std::uint64_t> Client::submit_plan(const perm::Permutation& p) {
  StatusOr<FrameView> response = roundtrip_elements(
      MsgKind::kSubmitPlan, SubmitPlanRequest::encode_prefix(p.size()), p.data());
  if (!response.ok()) return response.status();
  const FrameView& frame = response.value();
  if (is_error(frame)) return error_status(frame);
  ByteReader r(frame.payload);
  std::uint64_t plan_id = 0;
  if (!r.get_u64(plan_id) || !r.exhausted()) {
    return Status(StatusCode::kUnavailable, "malformed PLAN_OK payload");
  }
  return plan_id;
}

Status Client::permute(std::uint64_t plan_id, std::span<const std::uint32_t> data,
                       std::span<std::uint32_t> out, std::chrono::milliseconds deadline) {
  if (out.size() != data.size()) {
    return Status(StatusCode::kInvalidArgument, "output span size does not match input");
  }
  PermuteRequest req;
  req.plan_id = plan_id;
  req.deadline_ms = PermuteRequest::clamp_deadline(deadline);
  StatusOr<FrameView> response =
      roundtrip_elements(MsgKind::kPermute, req.encode_prefix(data.size()), data);
  if (!response.ok()) return response.status();
  const FrameView& frame = response.value();
  if (is_error(frame)) return error_status(frame);
  return copy_words_response(frame, out, "PERMUTE_OK");
}

Status Client::execute_program(std::span<const runtime::ProgramOp> ops,
                               std::span<const std::uint32_t> data, std::span<std::uint32_t> out,
                               std::chrono::milliseconds deadline, bool staged) {
  if (out.size() != data.size()) {
    return Status(StatusCode::kInvalidArgument, "output span size does not match input");
  }
  if (ops.empty()) {
    return Status(StatusCode::kInvalidArgument, "empty program");
  }
  if (ops.size() > runtime::kMaxProgramOps) {
    return Status(StatusCode::kInvalidArgument, "program op count exceeds the limit");
  }
  ExecuteProgramRequest req;
  req.deadline_ms = PermuteRequest::clamp_deadline(deadline);
  req.flags = staged ? kProgramFlagStaged : 0;
  req.ops.assign(ops.begin(), ops.end());
  StatusOr<FrameView> response =
      roundtrip_elements(MsgKind::kExecuteProgram, req.encode_prefix(data.size()), data);
  if (!response.ok()) return response.status();
  const FrameView& frame = response.value();
  if (is_error(frame)) return error_status(frame);
  // PROGRAM_OK carries the PERMUTE_OK layout.
  return copy_words_response(frame, out, "PROGRAM_OK");
}

StatusOr<std::string> Client::stats_json() {
  StatusOr<FrameView> response = roundtrip(MsgKind::kStats, {});
  if (!response.ok()) return response.status();
  const FrameView& frame = response.value();
  if (is_error(frame)) return error_status(frame);
  ByteReader r(frame.payload);
  return r.rest_as_string();
}

}  // namespace hmm::net
