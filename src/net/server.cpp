#include "net/server.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <sstream>
#include <utility>
#include <vector>

#include "core/permuter.hpp"
#include "cpu/kernels.hpp"
#include "runtime/distributed.hpp"
#include "runtime/fingerprint.hpp"
#include "runtime/metrics.hpp"
#include "util/buffer_pool.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace hmm::net {

using runtime::Status;
using runtime::StatusCode;
using runtime::StatusOr;

Server::Server(runtime::RobustPermuteService& service, Config config)
    : service_(service),
      config_(std::move(config)),
      shard_sessions_(
          ShardSessionRegistry::Config{config_.shard_exchange_timeout,
                                       config_.max_shard_sessions,
                                       config_.max_shard_hold_bytes},
          util::BufferPool::global()) {}

Server::~Server() { stop(); }

Status Server::start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status(StatusCode::kInvalidArgument, "server already running");
  }
  StatusOr<TcpListener> bound = TcpListener::bind(config_.host, config_.port);
  if (!bound.ok()) return bound.status();
  listener_ = std::move(bound).value();
  port_ = listener_.port();

  const std::uint32_t io_threads = std::max(1u, config_.io_threads);
  reactors_.clear();
  reactors_.reserve(io_threads);
  for (std::uint32_t i = 0; i < io_threads; ++i) {
    auto reactor = std::make_unique<Reactor>();
    StatusOr<Epoll> epoll = Epoll::create();
    StatusOr<EventFd> wakeup = EventFd::create();
    if (!epoll.ok() || !wakeup.ok()) {
      reactors_.clear();
      listener_.close();
      return !epoll.ok() ? epoll.status() : wakeup.status();
    }
    reactor->epoll = std::move(epoll).value();
    reactor->wakeup = std::move(wakeup).value();
    // Connection ids start at 1; id 0 is the reactor's own doorbell.
    if (Status s = reactor->epoll.add(reactor->wakeup.fd(), kEpollIn, 0); !s.is_ok()) {
      reactors_.clear();
      listener_.close();
      return s;
    }
    reactors_.push_back(std::move(reactor));
  }

  stop_.store(false, std::memory_order_release);
  {
    std::lock_guard lock(work_mutex_);
    workers_stop_ = false;
    work_.clear();
  }
  running_.store(true, std::memory_order_release);

  for (auto& reactor : reactors_) {
    reactor->thread = std::thread([this, r = reactor.get()] { reactor_loop(*r); });
  }
  std::uint32_t handlers = config_.handler_threads;
  if (handlers == 0) {
    // Two per hardware thread: a handler only decodes, waits on the
    // executor and encodes, so this keeps every executor worker fed
    // with one request queued behind it. More handlers only add
    // blocked threads, each with its own stack and malloc arena.
    handlers = 2 * std::max(1u, std::thread::hardware_concurrency());
  }
  handler_threads_.reserve(handlers);
  for (std::uint32_t i = 0; i < handlers; ++i) {
    handler_threads_.emplace_back([this] { handler_loop(); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
  return Status::ok();
}

void Server::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // drain_deadline_ is published by the release store on stop_ and read
  // only after reactors observe stop_ == true.
  drain_deadline_ = std::chrono::steady_clock::now() + config_.drain_timeout;
  stop_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();

  // Reactors drain: every in-flight request finishes and its response
  // is flushed (bounded by drain_timeout) before the loop exits. The
  // handler pool must outlive them — it is what completes those
  // requests — so it joins after.
  for (auto& reactor : reactors_) reactor->wakeup.signal();
  for (auto& reactor : reactors_) {
    if (reactor->thread.joinable()) reactor->thread.join();
  }
  {
    std::lock_guard lock(work_mutex_);
    workers_stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : handler_threads_) {
    if (t.joinable()) t.join();
  }
  handler_threads_.clear();
  {
    std::lock_guard lock(shard_thread_mutex_);
    for (ShardSlot& slot : shard_threads_) {
      if (slot.thread.joinable()) slot.thread.join();
    }
    shard_threads_.clear();
  }
  // Every request was awaited by a handler, so the executor is normally
  // idle already; the timeout guards against a stalled worker holding
  // teardown hostage.
  (void)service_.wait_idle_for(config_.drain_timeout);
}

Server::Counters Server::counters() const {
  Counters c;
  c.connections_accepted = connections_accepted_.load(std::memory_order_relaxed);
  c.connections_rejected = connections_rejected_.load(std::memory_order_relaxed);
  c.requests_ok = requests_ok_.load(std::memory_order_relaxed);
  c.requests_error = requests_error_.load(std::memory_order_relaxed);
  c.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  c.plans_registered = plans_registered_.load(std::memory_order_relaxed);
  c.plans_evicted = plans_evicted_.load(std::memory_order_relaxed);
  c.idle_closed = idle_closed_.load(std::memory_order_relaxed);
  c.shard_execs = shard_execs_.load(std::memory_order_relaxed);
  c.shard_blocks = shard_blocks_.load(std::memory_order_relaxed);
  c.shard_aborts = shard_aborts_.load(std::memory_order_relaxed);
  c.shard_hold_rejections = shard_sessions_.hold_rejections();
  return c;
}

std::uint64_t Server::plans() const {
  std::lock_guard lock(plans_mutex_);
  return plans_.size();
}

std::uint64_t Server::plan_bytes() const {
  std::lock_guard lock(plans_mutex_);
  return plan_bytes_;
}

// ---------------------------------------------------------------------------
// Accept path
// ---------------------------------------------------------------------------

void Server::accept_loop() {
  util::BufferPool& pool = util::BufferPool::global();
  std::size_t round_robin = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    StatusOr<TcpStream> accepted = listener_.accept(config_.poll_interval);
    if (!accepted.ok()) {
      if (accepted.status().code() == StatusCode::kDeadlineExceeded) continue;  // poll slice
      break;  // listener is gone; stop() owns cleanup
    }
    TcpStream stream = std::move(accepted).value();
    (void)stream.set_nonblocking(true);

    const std::uint64_t id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
    std::shared_ptr<Conn> conn;
    if (active_connections_.load(std::memory_order_acquire) >= config_.max_connections) {
      // Typed rejection instead of a dropped connection: the client
      // sees RETRY_LATER (request_id 0: this answers the connection
      // attempt, not any frame). The frame is flushed by a reactor
      // under reject_write_budget — the accept thread never writes, so
      // a hostile peer that refuses to read cannot freeze accepts.
      connections_rejected_.fetch_add(1, std::memory_order_relaxed);
      conn = std::make_shared<Conn>(id, std::move(stream), pool, config_.max_payload_bytes);
      conn->rejected = true;
      conn->closing = true;
      conn->reject_deadline =
          std::chrono::steady_clock::now() + config_.reject_write_budget;
      conn->writer.enqueue(to_outbound_tagged(
          make_error_frame(0, Status(StatusCode::kResourceExhausted,
                                     "server at connection capacity; retry later")),
          kTagNone));
    } else {
      connections_accepted_.fetch_add(1, std::memory_order_relaxed);
      active_connections_.fetch_add(1, std::memory_order_acq_rel);
      conn = std::make_shared<Conn>(id, std::move(stream), pool, config_.max_payload_bytes);
    }

    Reactor& reactor = *reactors_[round_robin++ % reactors_.size()];
    {
      std::lock_guard lock(reactor.inbox_mutex);
      reactor.incoming.push_back(std::move(conn));
    }
    reactor.wakeup.signal();
  }
}

// ---------------------------------------------------------------------------
// Reactor
// ---------------------------------------------------------------------------

void Server::on_frame_complete(void* ctx, const OutboundFrame& frame) {
  auto* self = static_cast<Server*>(ctx);
  if (frame.tag == kTagOk) {
    self->requests_ok_.fetch_add(1, std::memory_order_relaxed);
  } else if (frame.tag == kTagError) {
    self->requests_error_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Server::update_interest(Reactor& r, Conn& conn) {
  if (conn.closed) return;
  std::uint32_t want = 0;
  if (!conn.closing && !conn.in_flight && !stop_.load(std::memory_order_acquire)) {
    want |= kEpollIn;
  }
  if (!conn.writer.idle()) want |= kEpollOut;
  if (want != conn.armed) {
    // events == 0 is legal: ERR/HUP are still delivered, so a parked
    // in-flight connection's death is noticed.
    if (r.epoll.mod(conn.stream.fd(), want, conn.id).is_ok()) conn.armed = want;
  }
}

void Server::close_conn(Reactor& r, const std::shared_ptr<Conn>& conn) {
  if (conn->closed) return;
  conn->closed = true;
  (void)r.epoll.del(conn->stream.fd());
  conn->stream.close();
  if (!conn->rejected) active_connections_.fetch_sub(1, std::memory_order_acq_rel);
  r.conns.erase(conn->id);
}

void Server::flush_conn(Reactor& r, const std::shared_ptr<Conn>& conn) {
  if (conn->closed) return;
  StatusOr<bool> drained = conn->writer.flush(conn->stream, &Server::on_frame_complete, this);
  conn->last_activity = std::chrono::steady_clock::now();
  if (!drained.ok()) {
    close_conn(r, conn);
    return;
  }
  if (drained.value() && conn->closing) {
    close_conn(r, conn);
    return;
  }
  update_interest(r, *conn);
}

void Server::dispatch(Reactor& r, const std::shared_ptr<Conn>& conn) {
  conn->in_flight = true;
  const auto kind = static_cast<MsgKind>(conn->reader.view().kind);
  if (kind == MsgKind::kShardExec || kind == MsgKind::kShardXchg) {
    // Shard ops run on dedicated threads, never the bounded pool: a
    // SHARD_EXEC blocks on *peer* exchanges, so a pool full of execs
    // across shards would deadlock a distributed round.
    auto done = std::make_shared<std::atomic<bool>>(false);
    std::lock_guard lock(shard_thread_mutex_);
    reap_shard_threads_locked();
    shard_threads_.push_back(ShardSlot{
        std::thread([this, reactor = &r, conn, done]() mutable {
          run_request(*reactor, std::move(conn));
          done->store(true, std::memory_order_release);
        }),
        done});
    return;
  }
  {
    std::lock_guard lock(work_mutex_);
    work_.push_back(Work{&r, conn});
  }
  work_cv_.notify_one();
}

void Server::pump_reads(Reactor& r, const std::shared_ptr<Conn>& conn) {
  if (conn->closed || conn->closing || conn->in_flight) return;
  StatusOr<bool> ready = conn->reader.poll(conn->stream);
  conn->last_activity = std::chrono::steady_clock::now();
  if (!ready.ok()) {
    const StatusCode code = ready.status().code();
    if (code == StatusCode::kInvalidArgument) {
      // Framing violation: answer typed (best effort), then close —
      // the stream position is unrecoverable.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      conn->writer.enqueue(to_outbound_tagged(make_error_frame(0, ready.status()), kTagNone));
      conn->closing = true;
      flush_conn(r, conn);
    } else if (code == StatusCode::kResourceExhausted) {
      // The pool refused the payload buffer with the payload still on
      // the socket — same unrecoverable position, but the client gets
      // RETRY_LATER rather than a protocol error.
      conn->writer.enqueue(to_outbound_tagged(make_error_frame(0, ready.status()), kTagNone));
      conn->closing = true;
      flush_conn(r, conn);
    } else {
      close_conn(r, conn);  // transport errors (EOF/reset) close quietly
    }
    return;
  }
  if (ready.value()) {
    dispatch(r, conn);  // strict alternation: EPOLLIN pauses below
  }
  update_interest(r, *conn);
}

void Server::drain_inbox(Reactor& r) {
  std::vector<std::shared_ptr<Conn>> incoming;
  std::vector<Reactor::Completion> completions;
  {
    std::lock_guard lock(r.inbox_mutex);
    incoming.swap(r.incoming);
    completions.swap(r.completions);
  }
  const bool draining = stop_.load(std::memory_order_acquire);
  for (std::shared_ptr<Conn>& conn : incoming) {
    if (draining && !conn->closing) {
      // Raced past stop(): the listener is closing anyway.
      conn->closed = true;
      conn->stream.close();
      if (!conn->rejected) active_connections_.fetch_sub(1, std::memory_order_acq_rel);
      continue;
    }
    conn->last_activity = std::chrono::steady_clock::now();
    const std::uint32_t want = conn->closing ? kEpollOut : kEpollIn;
    if (!r.epoll.add(conn->stream.fd(), want, conn->id).is_ok()) {
      conn->closed = true;
      conn->stream.close();
      if (!conn->rejected) active_connections_.fetch_sub(1, std::memory_order_acq_rel);
      continue;
    }
    conn->armed = want;
    r.conns.emplace(conn->id, conn);
    // The rejection frame usually fits the empty send buffer whole:
    // flush now and the connection is gone before its first event.
    if (conn->closing) flush_conn(r, conn);
  }
  for (Reactor::Completion& completion : completions) {
    const std::shared_ptr<Conn>& conn = completion.conn;
    if (conn->closed) continue;  // died while the handler ran: drop the frame
    conn->reader.consume();
    conn->in_flight = false;
    conn->writer.enqueue(std::move(completion.frame));
    flush_conn(r, conn);
  }
}

void Server::tick(Reactor& r, std::chrono::steady_clock::time_point now) {
  std::vector<std::shared_ptr<Conn>> stalled;
  std::vector<std::shared_ptr<Conn>> idle;
  for (const auto& [id, conn] : r.conns) {
    if (conn->rejected) {
      if (now >= conn->reject_deadline) stalled.push_back(conn);
      continue;
    }
    const bool mid_io = conn->reader.mid_frame() || !conn->writer.idle();
    if (config_.io_timeout.count() > 0 && mid_io &&
        now - conn->last_activity >= config_.io_timeout) {
      // A slow-loris read or a peer that stopped draining its response:
      // no progress inside a frame for io_timeout. Closed quietly, like
      // the old per-direction socket timeout.
      stalled.push_back(conn);
      continue;
    }
    if (config_.idle_timeout.count() > 0 && !conn->in_flight && !mid_io &&
        now - conn->last_activity >= config_.idle_timeout) {
      idle.push_back(conn);
    }
  }
  for (const std::shared_ptr<Conn>& conn : stalled) close_conn(r, conn);
  for (const std::shared_ptr<Conn>& conn : idle) {
    // A slot-holding connection that never starts a frame: close it
    // quietly (no ERROR — there is no request to answer).
    idle_closed_.fetch_add(1, std::memory_order_relaxed);
    close_conn(r, conn);
  }
}

void Server::reactor_loop(Reactor& r) {
  std::array<Epoll::Event, 64> events;
  auto last_tick = std::chrono::steady_clock::now();
  bool draining = false;
  for (;;) {
    StatusOr<std::size_t> n = r.epoll.wait(events, config_.poll_interval);
    if (!n.ok()) break;  // the epoll fd itself broke; close everything below
    drain_inbox(r);
    for (std::size_t i = 0; i < n.value(); ++i) {
      const Epoll::Event& event = events[i];
      if (event.data == 0) {
        // Posts that landed after the drain above rang this doorbell;
        // reading the eventfd consumed their signal, so take them now
        // or they wait out a whole poll_interval.
        r.wakeup.drain();
        drain_inbox(r);
        continue;
      }
      auto it = r.conns.find(event.data);
      if (it == r.conns.end()) continue;  // stale event for a just-closed conn
      std::shared_ptr<Conn> conn = it->second;
      if ((event.events & (kEpollErr | kEpollHup)) != 0) {
        close_conn(r, conn);
        continue;
      }
      if ((event.events & kEpollOut) != 0) flush_conn(r, conn);
      if (conn->closed) continue;
      if ((event.events & (kEpollIn | kEpollRdHup)) != 0) pump_reads(r, conn);
    }
    const auto now = std::chrono::steady_clock::now();
    if (now - last_tick >= config_.poll_interval) {
      tick(r, now);
      last_tick = now;
    }
    if (!draining && stop_.load(std::memory_order_acquire)) draining = true;
    if (draining) {
      // Drain: close connections with nothing left to deliver; keep
      // pumping completions/flushes for the busy ones until they
      // quiesce or the deadline passes.
      std::vector<std::shared_ptr<Conn>> done;
      bool busy = false;
      for (const auto& [id, conn] : r.conns) {
        if (conn->in_flight || !conn->writer.idle()) {
          busy = true;
        } else {
          done.push_back(conn);
        }
      }
      for (const std::shared_ptr<Conn>& conn : done) close_conn(r, conn);
      if (!busy || now >= drain_deadline_) break;
    }
  }
  std::vector<std::shared_ptr<Conn>> rest;
  rest.reserve(r.conns.size());
  for (const auto& [id, conn] : r.conns) rest.push_back(conn);
  for (const std::shared_ptr<Conn>& conn : rest) close_conn(r, conn);
}

// ---------------------------------------------------------------------------
// Handler pool
// ---------------------------------------------------------------------------

void Server::handler_loop() {
  for (;;) {
    Work work;
    {
      std::unique_lock lock(work_mutex_);
      work_cv_.wait(lock, [&] { return workers_stop_ || !work_.empty(); });
      if (work_.empty()) return;  // stopping and fully drained
      work = std::move(work_.front());
      work_.pop_front();
    }
    run_request(*work.reactor, std::move(work.conn));
  }
}

void Server::run_request(Reactor& r, std::shared_ptr<Conn> conn) {
  OutboundFrame response = handle_request(*conn);
  {
    std::lock_guard lock(r.inbox_mutex);
    r.completions.push_back(Reactor::Completion{std::move(conn), std::move(response)});
  }
  r.wakeup.signal();
}

void Server::reap_shard_threads_locked() {
  for (auto it = shard_threads_.begin(); it != shard_threads_.end();) {
    if (it->done->load(std::memory_order_acquire)) {
      if (it->thread.joinable()) it->thread.join();
      it = shard_threads_.erase(it);
    } else {
      ++it;
    }
  }
}

// ---------------------------------------------------------------------------
// Request dispatch (handler-side)
// ---------------------------------------------------------------------------

OutboundFrame Server::to_outbound_tagged(Frame frame, std::uint8_t tag) {
  // The serialize span covers header build + streamed checksum — the
  // last leg of the request's wall time, invisible to the executor's
  // breakdown. (The socket write itself happens on the reactor.)
  util::Stopwatch serialize_clock;
  StatusOr<OutboundFrame> out =
      make_outbound_frame(frame.kind, frame.request_id, {}, util::PooledBuffer{}, 0,
                          std::move(frame.payload), tag);
  service_.metrics().record_phase(runtime::Phase::kSerialize,
                                  static_cast<std::uint64_t>(serialize_clock.nanos()));
  // Owned frames are always within bounds (small control payloads).
  return std::move(out).value();
}

OutboundFrame Server::to_outbound(Frame frame) {
  const std::uint8_t tag =
      static_cast<MsgKind>(frame.kind) == MsgKind::kError ? kTagError : kTagOk;
  return to_outbound_tagged(std::move(frame), tag);
}

OutboundFrame Server::error_outbound(std::uint64_t request_id, const Status& why) {
  return to_outbound(make_error_frame(request_id, why));
}

OutboundFrame Server::elements_outbound(MsgKind kind, std::uint64_t request_id,
                                        util::PooledBuffer buf, std::uint64_t count) {
  const std::span<std::uint32_t> span = buf.as_span<std::uint32_t>(count);
  std::uint8_t count_header[8];
  for (int i = 0; i < 8; ++i) count_header[i] = static_cast<std::uint8_t>(count >> (8 * i));
  if constexpr (std::endian::native != std::endian::little) {
    for (std::uint32_t& w : span) {
      w = ((w & 0xff000000u) >> 24) | ((w & 0x00ff0000u) >> 8) | ((w & 0x0000ff00u) << 8) |
          ((w & 0x000000ffu) << 24);
    }
  }
  util::Stopwatch serialize_clock;
  StatusOr<OutboundFrame> out = make_outbound_frame(
      static_cast<std::uint16_t>(kind), request_id, {count_header, sizeof(count_header)},
      std::move(buf), count * sizeof(std::uint32_t), {}, kTagOk);
  service_.metrics().record_phase(runtime::Phase::kSerialize,
                                  static_cast<std::uint64_t>(serialize_clock.nanos()));
  // count is bounded by max_payload_bytes / 4, so this cannot overflow.
  return std::move(out).value();
}

OutboundFrame Server::handle_request(Conn& conn) {
  const FrameView request = conn.reader.view();
  try {
    switch (static_cast<MsgKind>(request.kind)) {
      case MsgKind::kPing:
        // The echo copies out of the connection's read buffer: the
        // response outlives the handler, the reader storage must not.
        return to_outbound_tagged(
            make_ok_frame(request.request_id, MsgKind::kPingOk,
                          std::vector<std::uint8_t>(request.payload.begin(),
                                                    request.payload.end())),
            kTagOk);
      case MsgKind::kSubmitPlan:
        return to_outbound(handle_submit_plan(request));
      case MsgKind::kPermute:
        return handle_permute(request);
      case MsgKind::kExecuteProgram:
        return handle_program(request);
      case MsgKind::kShardExec:
        return handle_shard_exec(request);
      case MsgKind::kShardXchg:
        return handle_shard_xchg(request);
      case MsgKind::kStats:
        return to_outbound(handle_stats(request.request_id));
      default:
        return error_outbound(request.request_id,
                              Status(StatusCode::kInvalidArgument, "unknown request kind"));
    }
  } catch (const std::bad_alloc&) {
    return error_outbound(request.request_id,
                          Status(StatusCode::kResourceExhausted, "allocation failed"));
  } catch (const std::exception& e) {
    // Last-resort boundary: a request must never take the connection
    // (let alone the process) down without a typed answer.
    return error_outbound(request.request_id, Status(StatusCode::kUnavailable, e.what()));
  }
}

Frame Server::handle_submit_plan(const FrameView& request) {
  const std::uint64_t max_elements = config_.max_payload_bytes / kElemBytes;
  StatusOr<SubmitPlanRequestView> req =
      SubmitPlanRequestView::decode(request.payload, max_elements);
  if (!req.ok()) return make_error_frame(request.request_id, req.status());
  const WordsView& mapping = req.value().mapping;
  const auto plan_ok = [&request](std::uint64_t plan_id) {
    ByteWriter w;
    w.put_u64(plan_id);
    return make_ok_frame(request.request_id, MsgKind::kPlanOk, w.take());
  };

  // A plan the registry already holds is answered from the wire words
  // in place: no copy, no validation, no allocation. The router replays
  // SUBMIT_PLAN to every shard before each sharded request, so at 1M
  // elements this skips 4 MiB of copy and two 1 MiB validation passes
  // per shard per request. (A first registration hashes twice.)
  if (const std::span<const std::uint32_t> wire = mapping.in_place(); !wire.empty()) {
    const std::uint64_t plan_id = runtime::fingerprint_mapping(wire).value;
    if (find_plan(plan_id)) return plan_ok(plan_id);
  }

  // One copy, wire straight into the aligned storage the Permutation
  // keeps. (The former path decoded into a std::vector and copied that
  // into aligned words — two traversals of the mapping per SUBMIT_PLAN.)
  util::aligned_vector<std::uint32_t> words(mapping.count);
  mapping.copy_to({words.data(), words.size()});
  if (!perm::Permutation::is_valid({words.data(), words.size()})) {
    return make_error_frame(
        request.request_id,
        Status(StatusCode::kInvalidArgument, "SUBMIT_PLAN: mapping is not a bijection"));
  }
  // The one hash of this plan's words: every later PERMUTE, program
  // and shard request reuses the handle's fingerprint.
  runtime::PlanHandle plan(std::make_shared<const perm::Permutation>(std::move(words)));
  const std::uint64_t plan_id = plan.fingerprint().value;

  {
    std::lock_guard lock(plans_mutex_);
    if (const auto it = plans_.find(plan_id); it != plans_.end()) {
      plans_lru_.splice(plans_lru_.begin(), plans_lru_, it->second.lru_it);
    } else {
      plans_lru_.push_front(plan_id);
      plan_bytes_ += plan.permutation().size() * kElemBytes;
      plans_.emplace(plan_id, RegisteredPlan{std::move(plan), plans_lru_.begin()});
      plans_registered_.fetch_add(1, std::memory_order_relaxed);
      // Evict from the cold end; the plan just registered sits at the
      // front and survives even when it alone exceeds the budget.
      while (plan_bytes_ > config_.max_plan_bytes && plans_lru_.back() != plan_id) {
        const auto victim = plans_.find(plans_lru_.back());
        plan_bytes_ -= victim->second.plan.permutation().size() * kElemBytes;
        plans_.erase(victim);
        plans_lru_.pop_back();
        plans_evicted_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  return plan_ok(plan_id);
}

runtime::PlanHandle Server::find_plan(std::uint64_t plan_id) const {
  std::lock_guard lock(plans_mutex_);
  const auto it = plans_.find(plan_id);
  if (it == plans_.end()) return {};
  plans_lru_.splice(plans_lru_.begin(), plans_lru_, it->second.lru_it);
  return it->second.plan;
}

template <class Options, class Submit>
OutboundFrame Server::serve_elements(const FrameView& request, MsgKind ok_kind,
                                     const WordsView& data, std::uint32_t deadline_ms,
                                     Options opts, Submit&& submit) {
  // The client's relative budget becomes an absolute executor deadline
  // here — queueing and kernel phases all draw from it.
  if (deadline_ms > 0) {
    opts.deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(deadline_ms);
  }
  // The wire request id doubles as the trace id: the client controls
  // it (trace prefix in the high half), we echo it in the response and
  // thread it to the slow-request log.
  opts.trace_id = request.request_id;

  util::BufferPool& pool = util::BufferPool::global();
  const std::uint64_t count = data.count;

  // Input elements: on a little-endian host the wire bytes in the
  // pooled read buffer *are* the element array (the PERMUTE data
  // offset, 24 bytes, and the EXECUTE_PROGRAM one, 24 + 16*op_count,
  // keep them 4-aligned in 128-byte-aligned storage), so the kernels
  // read the request payload in place — it is stable for the whole
  // handler because EPOLLIN is paused while this request is in flight.
  // The fallback is one bounded copy into a pooled buffer.
  std::span<const std::uint32_t> in = data.in_place();
  util::PooledBuffer in_copy;
  if (in.empty()) {
    in_copy = pool.try_acquire(count * sizeof(std::uint32_t));
    if (!in_copy.valid()) {
      return error_outbound(request.request_id,
                            Status(StatusCode::kResourceExhausted,
                                   "buffer pool refused the request buffer"));
    }
    const std::span<std::uint32_t> copy_span = in_copy.as_span<std::uint32_t>(count);
    data.copy_to(copy_span);
    in = copy_span;
  }

  // Output elements: pooled (a steady stream of same-sized requests
  // recycles the same blocks), serialized scatter-gather without ever
  // being copied into a response payload.
  util::PooledBuffer out = pool.try_acquire(count * sizeof(std::uint32_t));
  if (!out.valid()) {
    return error_outbound(request.request_id,
                          Status(StatusCode::kResourceExhausted,
                                 "buffer pool refused the response buffer"));
  }

  StatusOr<std::future<Status>> submitted = submit(in, out.as_span<std::uint32_t>(count), opts);
  if (!submitted.ok()) return error_outbound(request.request_id, submitted.status());
  const Status outcome = submitted.value().get();
  if (!outcome.is_ok()) return error_outbound(request.request_id, outcome);

  return elements_outbound(ok_kind, request.request_id, std::move(out), count);
}

OutboundFrame Server::handle_permute(const FrameView& request) {
  const std::uint64_t max_elements = config_.max_payload_bytes / kElemBytes;
  StatusOr<PermuteRequestView> req = PermuteRequestView::decode(request.payload, max_elements);
  if (!req.ok()) return error_outbound(request.request_id, req.status());
  const PermuteRequestView& permute = req.value();

  const runtime::PlanHandle plan = find_plan(permute.plan_id);
  if (!plan) {
    return error_outbound(request.request_id,
                          Status(StatusCode::kInvalidArgument,
                                 "PERMUTE: unknown plan id (SUBMIT_PLAN it first)"));
  }
  if (permute.data.count != plan.permutation().size()) {
    return error_outbound(request.request_id,
                          Status(StatusCode::kInvalidArgument,
                                 "PERMUTE: element count does not match the plan size"));
  }

  return serve_elements(request, MsgKind::kPermuteOk, permute.data, permute.deadline_ms,
                        runtime::RequestOptions{},
                        [&](std::span<const std::uint32_t> in, std::span<std::uint32_t> out,
                            const runtime::RequestOptions& opts) {
                          return service_.submit<std::uint32_t>(plan, in, out, opts);
                        });
}

OutboundFrame Server::handle_program(const FrameView& request) {
  const std::uint64_t max_elements = config_.max_payload_bytes / kElemBytes;
  StatusOr<ExecuteProgramRequestView> req =
      ExecuteProgramRequestView::decode(request.payload, max_elements);
  if (!req.ok()) return error_outbound(request.request_id, req.status());
  const ExecuteProgramRequestView& program_req = req.value();

  // The wire plan id is the mapping fingerprint, so the registry *is*
  // the resolver. The lambda takes the lock per lookup — an op chain
  // has at most kMaxProgramOps of them.
  const runtime::PlanResolver resolver =
      [this](std::uint64_t fingerprint) -> std::shared_ptr<const perm::Permutation> {
    return find_plan(fingerprint).shared();
  };
  runtime::Program program;
  program.ops = program_req.ops;

  runtime::ProgramRequestOptions opts;
  opts.force_staged = program_req.force_staged();
  // PROGRAM_OK mirrors PERMUTE_OK byte for byte.
  return serve_elements(request, MsgKind::kProgramOk, program_req.data, program_req.deadline_ms,
                        opts,
                        [&](std::span<const std::uint32_t> in, std::span<std::uint32_t> out,
                            const runtime::ProgramRequestOptions& stamped) {
                          return service_.submit_program<std::uint32_t>(program, resolver, in,
                                                                        out, stamped);
                        });
}

namespace {

/// Milliseconds left until `deadline`, floored at 1ms so socket
/// timeouts stay armed right up to the abort.
std::chrono::milliseconds budget_until(std::chrono::steady_clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - std::chrono::steady_clock::now());
  return std::max(left, std::chrono::milliseconds(1));
}

/// A blocking client link to one peer shard, connected lazily on the
/// first exchange round and reused (with its ack storage) for the
/// second. (Peer links are plain blocking client streams — the
/// shard-exec handler owns a dedicated thread.)
struct PeerLink {
  TcpStream stream;
  util::PooledBuffer ack_storage;
};

/// Push one exchange block at a peer and wait for its ack.
Status send_shard_block(PeerLink& link, const ShardPeer& peer, std::uint64_t session_id,
                        std::uint32_t round, std::uint32_t src,
                        std::span<const std::uint32_t> block,
                        std::chrono::steady_clock::time_point deadline) {
  if (!link.stream.valid()) {
    StatusOr<TcpStream> conn = tcp_connect(peer.host, peer.port, budget_until(deadline));
    if (!conn.ok()) return conn.status();
    link.stream = std::move(conn).value();
  }
  const auto budget = budget_until(deadline);
  (void)link.stream.set_io_timeout(budget, budget);

  ShardXchgRequest header;
  header.session_id = session_id;
  header.round = round;
  header.src_shard = src;
  // Native words are already wire order: on a little-endian host the
  // block leaves straight from the extraction scratch, scatter-gathered.
  std::vector<std::uint8_t> payload = header.encode_prefix(block.size());
  ConstBuffer parts[] = {{payload.data(), payload.size()}, {block.data(), block.size_bytes()}};
  std::size_t part_count = 2;
  if constexpr (std::endian::native != std::endian::little) {
    header.block.assign(block.begin(), block.end());
    payload = header.encode();
    parts[0] = {payload.data(), payload.size()};
    part_count = 1;
  }
  StatusOr<FrameView> ack = call(link.stream, MsgKind::kShardXchg, session_id,
                                 {parts, part_count}, link.ack_storage, 4096);
  if (!ack.ok()) return ack.status();
  if (static_cast<MsgKind>(ack.value().kind) == MsgKind::kError) return error_status(ack.value());
  return Status::ok();
}

}  // namespace

OutboundFrame Server::handle_shard_exec(const FrameView& request) {
  const std::uint64_t max_elements = config_.max_payload_bytes / kElemBytes;
  StatusOr<ShardExecRequestView> req = ShardExecRequestView::decode(request.payload, max_elements);
  if (!req.ok()) return error_outbound(request.request_id, req.status());
  const ShardExecRequestView& exec = req.value();
  const std::uint32_t me = exec.shard_index;

  auto fail = [&](const Status& why) {
    shard_aborts_.fetch_add(1, std::memory_order_relaxed);
    return error_outbound(request.request_id, why);
  };

  StatusOr<runtime::BandPlan> bands_or =
      runtime::BandPlan::build(exec.rows, exec.cols, exec.shard_count());
  if (!bands_or.ok()) return fail(bands_or.status());
  if (exec.band.count != bands_or.value().band_elements(me)) {
    return fail(Status(StatusCode::kInvalidArgument,
                       "SHARD_EXEC: band element count does not match the band split"));
  }

  // Open the session *before* the (possibly slow) plan compile: peers'
  // round-1 blocks can land in staging while this shard still builds.
  StatusOr<std::shared_ptr<ShardSession>> session_or =
      shard_sessions_.create(exec.session_id, std::move(bands_or).value(), me);
  if (!session_or.ok()) return fail(session_or.status());
  std::shared_ptr<ShardSession> session = std::move(session_or).value();
  struct SessionGuard {
    ShardSessionRegistry& registry;
    std::uint64_t id;
    ~SessionGuard() { registry.erase(id); }
  } session_guard{shard_sessions_, exec.session_id};
  const runtime::BandPlan& bands = session->plan();

  // The exchange budget is the server's knob, tightened by the
  // request's own deadline when it carries one.
  const auto started = std::chrono::steady_clock::now();
  auto deadline = started + config_.shard_exchange_timeout;
  if (exec.deadline_ms > 0) {
    deadline = std::min(deadline, started + std::chrono::milliseconds(exec.deadline_ms));
  }

  const runtime::PlanHandle plan = find_plan(exec.plan_id);
  if (!plan) {
    return fail(Status(StatusCode::kInvalidArgument,
                       "SHARD_EXEC: unknown plan id (SUBMIT_PLAN it first)"));
  }
  if (plan.permutation().size() != exec.rows * exec.cols) {
    return fail(Status(StatusCode::kInvalidArgument,
                       "SHARD_EXEC: matrix shape does not match the plan size"));
  }

  // Compile (or fetch) the *full* scheduled plan — cached by
  // fingerprint, so every band of a hot plan shares one compile — and
  // slice this shard's rows of each pass as subspans. A failed build
  // (fault, allocation) aborts the session typed like any other step.
  StatusOr<std::shared_ptr<const core::OfflinePermuter<std::uint32_t>>> permuter =
      service_.cache().try_acquire<std::uint32_t>(plan, service_.config().machine,
                                                  core::Strategy::kScheduled);
  if (!permuter.ok()) return fail(permuter.status());
  const core::ScheduledPlan* splan = permuter.value()->plan();
  if (splan == nullptr) {
    return fail(Status(StatusCode::kInvalidArgument,
                       "SHARD_EXEC: plan is not schedulable on this machine"));
  }
  if (splan->shape().rows != exec.rows || splan->shape().cols != exec.cols) {
    return fail(Status(StatusCode::kInvalidArgument,
                       "SHARD_EXEC: matrix shape does not match the compiled plan"));
  }
  StatusOr<runtime::BandPlanner> planner_or =
      runtime::BandPlanner::build(*splan, exec.shard_count());
  if (!planner_or.ok()) return fail(planner_or.status());
  const runtime::BandPlanner& planner = planner_or.value();

  util::BufferPool& pool = util::BufferPool::global();
  const std::uint64_t band_elems = bands.band_elements(me);

  std::span<const std::uint32_t> in = exec.band.in_place();
  util::PooledBuffer in_copy;
  if (in.empty()) {
    in_copy = pool.try_acquire(band_elems * sizeof(std::uint32_t));
    if (!in_copy.valid()) {
      return fail(Status(StatusCode::kResourceExhausted,
                         "buffer pool refused the shard input buffer"));
    }
    const std::span<std::uint32_t> copy_span = in_copy.as_span<std::uint32_t>(band_elems);
    exec.band.copy_to(copy_span);
    in = copy_span;
  }

  std::uint64_t max_block = 0;
  for (std::uint32_t dst = 0; dst < bands.shards(); ++dst) {
    max_block = std::max({max_block, bands.block(1, me, dst).elements(),
                          bands.block(2, me, dst).elements()});
  }
  util::PooledBuffer y = pool.try_acquire(band_elems * sizeof(std::uint32_t));
  util::PooledBuffer w =
      pool.try_acquire(bands.transposed_elements(me) * sizeof(std::uint32_t));
  util::PooledBuffer result = pool.try_acquire(band_elems * sizeof(std::uint32_t));
  util::PooledBuffer scratch = pool.try_acquire(max_block * sizeof(std::uint32_t));
  if (!y.valid() || !w.valid() || !result.valid() || !scratch.valid()) {
    return fail(Status(StatusCode::kResourceExhausted,
                       "buffer pool refused the shard pass buffers"));
  }
  const std::span<std::uint32_t> y_span = y.as_span<std::uint32_t>(band_elems);
  const std::span<std::uint32_t> w_span =
      w.as_span<std::uint32_t>(bands.transposed_elements(me));
  const std::span<std::uint32_t> result_span = result.as_span<std::uint32_t>(band_elems);

  util::ThreadPool& workers = util::ThreadPool::global();

  // Pass 1 (row-wise over this band's rows of the rows x cols view).
  const runtime::BandPassView p1 = planner.pass1(me);
  cpu::row_wise_pass<std::uint32_t>(workers, in, y_span, p1.rows, p1.cols, p1.phat, p1.q);

  // Round-1 exchange: one block per peer, each exactly once; the self
  // block scatters locally through the same exactly-once bookkeeping.
  std::vector<PeerLink> links(bands.shards());
  auto run_round = [&](std::uint32_t round,
                       std::span<const std::uint32_t> local) -> Status {
    for (std::uint32_t dst = 0; dst < bands.shards(); ++dst) {
      const std::uint64_t elems = bands.block(round, me, dst).elements();
      const std::span<std::uint32_t> block = scratch.as_span<std::uint32_t>(elems);
      if (round == 1) {
        runtime::extract_block_round1(bands, me, dst, local, block);
      } else {
        runtime::extract_block_round2(bands, me, dst, local, block);
      }
      if (dst == me) {
        const Status local_st = session->accept_block(round, me, block);
        if (!local_st.is_ok()) return local_st;
        continue;
      }
      const Status sent = send_shard_block(links[dst], exec.peers[dst], exec.session_id,
                                           round, me, block, deadline);
      if (!sent.is_ok()) {
        // A dead peer mid-exchange is the canonical distributed
        // failure: surface it transient so the coordinator fails the
        // request typed instead of hanging on this shard.
        if (sent.code() == StatusCode::kInvalidArgument) return sent;
        return Status(StatusCode::kUnavailable,
                      "peer shard " + std::to_string(dst) +
                          " unreachable during exchange: " + sent.message());
      }
    }
    return Status::ok();
  };

  Status round_st = run_round(1, y_span);
  if (!round_st.is_ok()) return fail(round_st);
  round_st = session->wait_round(1, deadline);
  if (!round_st.is_ok()) return fail(round_st);

  // Pass 2 (row-wise over this shard's rows of the transposed view).
  const runtime::BandPassView p2 = planner.pass2(me);
  cpu::row_wise_pass<std::uint32_t>(workers, std::span<const std::uint32_t>(session->z_span()),
                                    w_span, p2.rows, p2.cols, p2.phat, p2.q);

  round_st = run_round(2, w_span);
  if (!round_st.is_ok()) return fail(round_st);
  round_st = session->wait_round(2, deadline);
  if (!round_st.is_ok()) return fail(round_st);

  // Pass 3 (row-wise, back in the rows x cols view): the result is this
  // band's rows of the final array, contiguous.
  const runtime::BandPassView p3 = planner.pass3(me);
  cpu::row_wise_pass<std::uint32_t>(workers, std::span<const std::uint32_t>(session->x_span()),
                                    result_span, p3.rows, p3.cols, p3.phat, p3.q);

  shard_execs_.fetch_add(1, std::memory_order_relaxed);
  return elements_outbound(MsgKind::kShardExecOk, request.request_id, std::move(result),
                           band_elems);
}

OutboundFrame Server::handle_shard_xchg(const FrameView& request) {
  const std::uint64_t max_elements = config_.max_payload_bytes / kElemBytes;
  StatusOr<ShardXchgRequestView> req = ShardXchgRequestView::decode(request.payload, max_elements);
  if (!req.ok()) return error_outbound(request.request_id, req.status());
  const ShardXchgRequestView& xchg = req.value();

  // The block may outrace this shard's own SHARD_EXEC. The fast path —
  // the session already exists — scatters straight through. The slow
  // path parks this handler in `await`, pinning the block's pooled
  // payload bytes for up to the exchange timeout, so it runs under the
  // registry's held-bytes budget: a hostile peer spraying blocks at
  // sessions that never materialize gets RETRY_LATER, not the pool.
  std::shared_ptr<ShardSession> session = shard_sessions_.find(xchg.session_id);
  ShardSessionRegistry::Hold hold;
  if (session == nullptr) {
    StatusOr<ShardSessionRegistry::Hold> hold_or =
        shard_sessions_.try_hold(request.payload.size());
    if (!hold_or.ok()) return error_outbound(request.request_id, hold_or.status());
    hold = std::move(hold_or).value();
    session = shard_sessions_.await(
        xchg.session_id, std::chrono::steady_clock::now() + config_.shard_exchange_timeout);
    if (session == nullptr) {
      return error_outbound(request.request_id,
                            Status(StatusCode::kUnavailable,
                                   "SHARD_XCHG: no such shard session"));
    }
  }

  std::span<const std::uint32_t> block = xchg.block.in_place();
  util::PooledBuffer block_copy;
  if (block.empty()) {
    util::BufferPool& pool = util::BufferPool::global();
    block_copy = pool.try_acquire(xchg.block.count * sizeof(std::uint32_t));
    if (!block_copy.valid()) {
      return error_outbound(request.request_id,
                            Status(StatusCode::kResourceExhausted,
                                   "buffer pool refused the block buffer"));
    }
    const std::span<std::uint32_t> copy_span =
        block_copy.as_span<std::uint32_t>(xchg.block.count);
    xchg.block.copy_to(copy_span);
    block = copy_span;
  }

  const Status accepted = session->accept_block(xchg.round, xchg.src_shard, block);
  if (!accepted.is_ok()) return error_outbound(request.request_id, accepted);
  shard_blocks_.fetch_add(1, std::memory_order_relaxed);
  return to_outbound(make_ok_frame(request.request_id, MsgKind::kShardXchgOk, {}));
}

Frame Server::handle_stats(std::uint64_t request_id) {
  const std::string service_json = service_.metrics().snapshot().to_json();
  // Splice the server-side counters the service layer cannot see
  // (connection admission, framing violations, idle closes) in front of
  // the service fields: {"server":{...},<service fields>}.
  const Counters c = counters();
  std::ostringstream os;
  os << "{\"server\":{"
     << "\"connections_accepted\":" << c.connections_accepted
     << ",\"connections_rejected\":" << c.connections_rejected
     << ",\"requests_ok\":" << c.requests_ok
     << ",\"requests_error\":" << c.requests_error
     << ",\"protocol_errors\":" << c.protocol_errors
     << ",\"plans_registered\":" << c.plans_registered
     << ",\"plans_evicted\":" << c.plans_evicted
     << ",\"idle_closed\":" << c.idle_closed
     << ",\"shard_execs\":" << c.shard_execs
     << ",\"shard_blocks\":" << c.shard_blocks
     << ",\"shard_aborts\":" << c.shard_aborts
     << ",\"shard_sessions\":" << shard_sessions_.size()
     << ",\"shard_hold_bytes\":" << shard_sessions_.held_bytes()
     << ",\"shard_hold_rejections\":" << c.shard_hold_rejections
     << ",\"io_threads\":" << reactors_.size()
     << ",\"plans\":" << plans() << ",\"plan_bytes\":" << plan_bytes() << "}";
  if (service_json.size() > 2 && service_json.front() == '{') {
    os << "," << service_json.substr(1);
  } else {
    os << "}";
  }
  ByteWriter w;
  w.put_string(os.str());
  return make_ok_frame(request_id, MsgKind::kStatsOk, w.take());
}

}  // namespace hmm::net
