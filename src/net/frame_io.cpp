#include "net/frame_io.hpp"

#include <array>
#include <cstring>
#include <string>

namespace hmm::net {

using runtime::Status;
using runtime::StatusCode;
using runtime::StatusOr;

namespace {

Status protocol_error(FrameError e) {
  return Status(StatusCode::kInvalidArgument, "frame: " + std::string(to_string(e)));
}

}  // namespace

Status write_frame(TcpStream& stream, const Frame& frame) {
  const std::vector<std::uint8_t> bytes = encode_frame(frame);
  return stream.send_all(bytes.data(), bytes.size());
}

Status write_frame_parts(TcpStream& stream, std::uint16_t kind, std::uint64_t request_id,
                         std::span<const ConstBuffer> parts) {
  std::uint64_t payload_len = 0;
  std::uint64_t checksum = checksum_seed();
  for (const ConstBuffer& part : parts) {
    payload_len += part.len;
    checksum = checksum_extend(
        checksum, {static_cast<const std::uint8_t*>(part.data), part.len});
  }
  if (payload_len > UINT32_MAX) {
    return Status(StatusCode::kInvalidArgument, "frame payload exceeds the u32 length field");
  }

  std::array<std::uint8_t, kHeaderBytes> header{};
  const auto put_u16 = [&header](std::size_t at, std::uint16_t v) {
    header[at] = static_cast<std::uint8_t>(v);
    header[at + 1] = static_cast<std::uint8_t>(v >> 8);
  };
  const auto put_u32 = [&header](std::size_t at, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) header[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  };
  const auto put_u64 = [&header](std::size_t at, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) header[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  };
  put_u32(0, kMagic);
  put_u16(4, kWireVersion);
  put_u16(6, kind);
  put_u64(8, request_id);
  put_u32(16, static_cast<std::uint32_t>(payload_len));
  put_u64(20, checksum);

  std::vector<ConstBuffer> vec;
  vec.reserve(parts.size() + 1);
  vec.push_back(ConstBuffer{header.data(), header.size()});
  vec.insert(vec.end(), parts.begin(), parts.end());
  return stream.send_vectored(vec);
}

StatusOr<Frame> read_frame(TcpStream& stream, std::uint32_t max_payload) {
  std::array<std::uint8_t, kHeaderBytes> header{};
  if (Status s = stream.recv_all(header.data(), header.size()); !s.is_ok()) return s;

  ByteReader r(header);
  std::uint32_t magic = 0, payload_len = 0;
  std::uint16_t version = 0, kind = 0;
  std::uint64_t request_id = 0, checksum = 0;
  // The header buffer is exactly kHeaderBytes, so these cannot fail.
  (void)r.get_u32(magic);
  (void)r.get_u16(version);
  (void)r.get_u16(kind);
  (void)r.get_u64(request_id);
  (void)r.get_u32(payload_len);
  (void)r.get_u64(checksum);

  if (magic != kMagic) return protocol_error(FrameError::kBadMagic);
  if (version != kWireVersion) return protocol_error(FrameError::kBadVersion);
  if (payload_len > max_payload) return protocol_error(FrameError::kOversized);

  Frame frame;
  frame.kind = kind;
  frame.request_id = request_id;
  frame.payload.resize(payload_len);
  if (payload_len > 0) {
    if (Status s = stream.recv_all(frame.payload.data(), payload_len); !s.is_ok()) return s;
  }
  if (checksum_bytes(frame.payload) != checksum) {
    return protocol_error(FrameError::kBadChecksum);
  }
  return frame;
}

StatusOr<FrameView> read_frame_view(TcpStream& stream, util::BufferPool& pool,
                                    util::PooledBuffer& storage, std::uint32_t max_payload) {
  std::array<std::uint8_t, kHeaderBytes> header{};
  if (Status s = stream.recv_all(header.data(), header.size()); !s.is_ok()) return s;

  ByteReader r(header);
  std::uint32_t magic = 0, payload_len = 0;
  std::uint16_t version = 0, kind = 0;
  std::uint64_t request_id = 0, checksum = 0;
  (void)r.get_u32(magic);
  (void)r.get_u16(version);
  (void)r.get_u16(kind);
  (void)r.get_u64(request_id);
  (void)r.get_u32(payload_len);
  (void)r.get_u64(checksum);

  if (magic != kMagic) return protocol_error(FrameError::kBadMagic);
  if (version != kWireVersion) return protocol_error(FrameError::kBadVersion);
  if (payload_len > max_payload) return protocol_error(FrameError::kOversized);

  // Grow-only reuse: the storage a connection hands back in keeps
  // serving until a larger frame arrives, so a steady request stream
  // settles into zero pool traffic (and zero heap traffic) per read.
  if (!storage.valid() || storage.capacity() < payload_len) {
    storage.reset();
    storage = pool.try_acquire(payload_len);
    if (!storage.valid()) {
      return Status(StatusCode::kResourceExhausted, "buffer pool refused the frame payload");
    }
  }
  std::span<const std::uint8_t> payload{storage.data(), payload_len};
  if (payload_len > 0) {
    if (Status s = stream.recv_all(storage.data(), payload_len); !s.is_ok()) return s;
  }
  if (checksum_bytes(payload) != checksum) return protocol_error(FrameError::kBadChecksum);

  FrameView view;
  view.kind = kind;
  view.request_id = request_id;
  view.payload = payload;
  return view;
}

StatusOr<FrameView> call(TcpStream& stream, MsgKind kind, std::uint64_t request_id,
                         std::span<const ConstBuffer> parts, util::PooledBuffer& storage,
                         std::uint32_t max_payload) {
  const auto wire_kind = static_cast<std::uint16_t>(kind);
  if (Status s = write_frame_parts(stream, wire_kind, request_id, parts); !s.is_ok()) return s;
  StatusOr<FrameView> response =
      read_frame_view(stream, util::BufferPool::global(), storage, max_payload);
  if (!response.ok()) return response;
  const FrameView& frame = response.value();
  const bool is_error = frame.kind == static_cast<std::uint16_t>(MsgKind::kError);
  if (frame.request_id != request_id && !(frame.request_id == 0 && is_error)) {
    return Status(StatusCode::kUnavailable, "response id does not match the request");
  }
  if (!is_error && frame.kind != (wire_kind | 0x80u)) {
    return Status(StatusCode::kUnavailable, "response kind does not answer the request");
  }
  return response;
}

Status error_status(const FrameView& frame) {
  StatusOr<ErrorResponse> err = ErrorResponse::decode(frame.payload);
  return err.ok() ? err.value().to_status()
                  : Status(StatusCode::kUnavailable, "malformed ERROR frame");
}

StatusOr<bool> FrameReader::poll(TcpStream& stream) {
  for (;;) {
    switch (state_) {
      case State::kHeader: {
        StatusOr<std::size_t> n = stream.recv_some(header_.data() + have_,
                                                   kHeaderBytes - have_);
        if (!n.ok()) return n.status();
        if (n.value() == 0) return false;
        have_ += n.value();
        if (have_ < kHeaderBytes) break;  // keep pulling while data lasts

        ByteReader r(header_);
        std::uint32_t magic = 0;
        std::uint16_t version = 0;
        (void)r.get_u32(magic);
        (void)r.get_u16(version);
        (void)r.get_u16(kind_);
        (void)r.get_u64(request_id_);
        (void)r.get_u32(payload_len_);
        (void)r.get_u64(checksum_);
        if (magic != kMagic) return protocol_error(FrameError::kBadMagic);
        if (version != kWireVersion) return protocol_error(FrameError::kBadVersion);
        if (payload_len_ > max_payload_) return protocol_error(FrameError::kOversized);

        // Same grow-only reuse as read_frame_view: steady-state frames
        // of a stable size touch neither the pool nor the heap.
        if (payload_len_ > 0 &&
            (!storage_.valid() || storage_.capacity() < payload_len_)) {
          storage_.reset();
          storage_ = pool_->try_acquire(payload_len_);
          if (!storage_.valid()) {
            return Status(StatusCode::kResourceExhausted,
                          "buffer pool refused the frame payload");
          }
        }
        have_ = 0;
        state_ = State::kPayload;
        break;
      }
      case State::kPayload: {
        if (have_ < payload_len_) {
          StatusOr<std::size_t> n =
              stream.recv_some(storage_.data() + have_, payload_len_ - have_);
          if (!n.ok()) return n.status();
          if (n.value() == 0) return false;
          have_ += n.value();
          if (have_ < payload_len_) break;
        }
        const std::span<const std::uint8_t> payload{
            payload_len_ > 0 ? storage_.data() : nullptr, payload_len_};
        if (checksum_bytes(payload) != checksum_) {
          return protocol_error(FrameError::kBadChecksum);
        }
        state_ = State::kReady;
        return true;
      }
      case State::kReady:
        return true;  // caller has not consumed the previous frame yet
    }
  }
}

FrameView FrameReader::view() const noexcept {
  FrameView view;
  view.kind = kind_;
  view.request_id = request_id_;
  view.payload = {payload_len_ > 0 ? storage_.data() : nullptr, payload_len_};
  return view;
}

void FrameReader::consume() noexcept {
  state_ = State::kHeader;
  have_ = 0;
  payload_len_ = 0;
}

StatusOr<OutboundFrame> make_outbound_frame(std::uint16_t kind, std::uint64_t request_id,
                                            std::span<const std::uint8_t> inline_payload,
                                            util::PooledBuffer pooled,
                                            std::size_t pooled_len,
                                            std::vector<std::uint8_t> owned,
                                            std::uint8_t tag) {
  OutboundFrame frame;
  if (inline_payload.size() > frame.prefix.size() - kHeaderBytes) {
    return Status(StatusCode::kInvalidArgument, "inline payload exceeds the prefix slot");
  }
  const std::uint64_t payload_len =
      inline_payload.size() + pooled_len + owned.size();
  if (payload_len > UINT32_MAX) {
    return Status(StatusCode::kInvalidArgument, "frame payload exceeds the u32 length field");
  }
  std::uint64_t checksum = checksum_seed();
  checksum = checksum_extend(checksum, inline_payload);
  checksum = checksum_extend(checksum, {pooled.valid() ? pooled.data() : nullptr, pooled_len});
  checksum = checksum_extend(checksum, owned);

  auto* header = frame.prefix.data();
  const auto put_u16 = [header](std::size_t at, std::uint16_t v) {
    header[at] = static_cast<std::uint8_t>(v);
    header[at + 1] = static_cast<std::uint8_t>(v >> 8);
  };
  const auto put_u32 = [header](std::size_t at, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) header[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  };
  const auto put_u64 = [header](std::size_t at, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) header[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  };
  put_u32(0, kMagic);
  put_u16(4, kWireVersion);
  put_u16(6, kind);
  put_u64(8, request_id);
  put_u32(16, static_cast<std::uint32_t>(payload_len));
  put_u64(20, checksum);
  if (!inline_payload.empty()) {
    std::memcpy(frame.prefix.data() + kHeaderBytes, inline_payload.data(),
                inline_payload.size());
  }
  frame.prefix_len = kHeaderBytes + inline_payload.size();
  frame.pooled = std::move(pooled);
  frame.pooled_len = pooled_len;
  frame.owned = std::move(owned);
  frame.tag = tag;
  return frame;
}

StatusOr<bool> FrameWriter::flush(TcpStream& stream, CompletionFn on_complete, void* ctx) {
  while (!queue_.empty()) {
    OutboundFrame& frame = queue_.front();
    // Rebuild the remaining parts from the offset each round: three
    // subtractions against one syscall, and no iovec state to persist.
    ConstBuffer parts[3];
    std::size_t count = 0;
    std::size_t skip = frame.offset;
    const auto remainder = [&](const std::uint8_t* data, std::size_t len) {
      if (skip >= len) {
        skip -= len;
        return;
      }
      parts[count++] = ConstBuffer{data + skip, len - skip};
      skip = 0;
    };
    remainder(frame.prefix.data(), frame.prefix_len);
    remainder(frame.pooled.valid() ? frame.pooled.data() : nullptr, frame.pooled_len);
    remainder(frame.owned.data(), frame.owned.size());

    if (count > 0) {
      StatusOr<std::size_t> n = stream.send_some({parts, count});
      if (!n.ok()) return n.status();
      if (n.value() == 0) return false;
      frame.offset += n.value();
      pending_bytes_ -= n.value();
    }
    if (frame.offset < frame.total()) continue;  // partial — try the socket again
    if (on_complete != nullptr) on_complete(ctx, frame);
    queue_.pop_front();
  }
  return true;
}

}  // namespace hmm::net
