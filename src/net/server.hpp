#pragma once
/// \file server.hpp
/// \brief The permd TCP front-end: an epoll reactor server that speaks
///        HMMP and fronts a `RobustPermuteService`.
///
/// Design (readiness-driven, sized for 10k+ connections on one box):
///
///  - **Reactor I/O threads, nonblocking sockets.** A small set of
///    `io_threads` reactors own the connections (each connection
///    belongs to exactly one reactor for its whole life — no cross-
///    thread connection state). Each reactor runs an epoll loop doing
///    resumable frame assembly (`FrameReader`) into pooled buffers and
///    scatter-gather response flushing (`FrameWriter`), so an idle or
///    slow connection costs a map entry, not a blocked thread.
///  - **Bounded handler pool for request execution.** Fully-decoded
///    frames are handed to `handler_threads` workers that run the
///    dispatch (PERMUTE blocks on the executor future there) and post
///    the finished response back to the owning reactor via an
///    eventfd-signaled completion queue. SHARD_EXEC / SHARD_XCHG run on
///    dedicated short-lived threads instead: a shard exec blocks on
///    *peer* exchanges, and letting those fill a bounded pool could
///    deadlock a distributed round across shards.
///  - **Strictly alternating request/response.** While a request is in
///    flight its connection's EPOLLIN interest is paused; reading
///    resumes only after the response has fully reached the wire.
///    Framing violations answer a best-effort ERROR frame then close;
///    transport errors close quietly. Neither is fatal to the process.
///  - **Deadline propagation.** A PERMUTE's relative `deadline_ms`
///    becomes an absolute executor deadline at decode time, so queueing
///    and kernel phases are all charged against the client's budget.
///  - **Typed backpressure, off the accept path.** Admission-control
///    rejections from the executor (`kResourceExhausted`) return as
///    RETRY_LATER error frames. A connection-count cap answers excess
///    connections with the same code — but the rejection frame is
///    flushed by a reactor under a short `reject_write_budget`, so a
///    hostile peer that never reads can no longer stall the accept
///    thread for the full io_timeout (the old head-of-line bug).
///  - **Graceful drain.** `stop()` stops accepting, lets every
///    in-flight request finish and flush its response (bounded by
///    `drain_timeout`), joins the reactors and handler pool, then
///    waits for the executor to go idle.
///
/// Plans are registered once via SUBMIT_PLAN and shared by all
/// connections: the registry maps the mapping's fingerprint to a
/// `runtime::PlanHandle` (the permutation plus that fingerprint, hashed
/// once at SUBMIT_PLAN), and the `RobustPermuteService`'s PlanCache
/// keys compiled plans off the same fingerprint — a hot plan is
/// compiled once, no matter how many connections use it, and no later
/// request re-reads its words to find it.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/frame_io.hpp"
#include "net/protocol.hpp"
#include "net/shard.hpp"
#include "net/socket.hpp"
#include "perm/permutation.hpp"
#include "runtime/service.hpp"
#include "runtime/status.hpp"

namespace hmm::net {

class Server {
 public:
  struct Config {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;  ///< 0 = ephemeral; read back via port()
    std::uint32_t max_payload_bytes = kDefaultMaxPayload;
    /// Byte budget of the plan registry (4 bytes per mapping word).
    /// Past it, the least recently used plans are dropped — a PERMUTE
    /// or SUBMIT_PLAN counts as a use — so a registry cannot pin
    /// unbounded memory; the plan just registered is always kept, even
    /// alone over budget. An evicted plan id answers "unknown plan id"
    /// like any never-registered one: the client re-submits it, and
    /// `Router` does so by itself (push-and-retry).
    std::uint64_t max_plan_bytes = 64ull << 20;
    /// Connection cap; excess connections get a RETRY_LATER error
    /// frame and a close, never a silent drop.
    std::uint32_t max_connections = 256;
    /// Reactor I/O threads. Connections are assigned round-robin at
    /// accept time. Two saturate loopback on most boxes; raise it for
    /// many-NIC or many-core frontends.
    std::uint32_t io_threads = 2;
    /// Request-execution workers (0 = auto: 2 x hardware threads).
    /// This bounds concurrent PERMUTE/PROGRAM dispatches, not
    /// connections — idle connections cost no thread anywhere.
    std::uint32_t handler_threads = 0;
    /// Mid-frame stall budget: a connection that has started a frame
    /// (or has an unflushed response) and makes no progress for this
    /// long is closed. Equivalent role to the old per-direction socket
    /// timeout, enforced from the reactor's clock.
    std::chrono::milliseconds io_timeout{30'000};
    /// Close a connection that has not *started* a frame for this long
    /// (0 = never). A slow-loris peer that opens a connection and sends
    /// nothing holds a slot of the connection cap indefinitely —
    /// `io_timeout` only covers mid-frame stalls. Closed quietly,
    /// counted in `Counters::idle_closed`.
    std::chrono::milliseconds idle_timeout{0};
    /// How long the over-cap RETRY_LATER rejection may spend flushing
    /// before the connection is dropped anyway. Short by design: the
    /// frame is ~64 bytes and the peer is over capacity.
    std::chrono::milliseconds reject_write_budget{50};
    /// How long stop() waits for in-flight requests (and the executor)
    /// to drain.
    std::chrono::milliseconds drain_timeout{10'000};
    /// Reactor tick + accept-poll slice: idle/io timeout scans and the
    /// stop flag are honored at this granularity.
    std::chrono::milliseconds poll_interval{50};
    /// Distributed execution: bound on waiting for peer SHARD_XCHG
    /// blocks (exec side) and for the local SHARD_EXEC to open the
    /// session (xchg side). A shard whose peer dies mid-exchange fails
    /// typed (kUnavailable) and releases its staging after this long.
    std::chrono::milliseconds shard_exchange_timeout{10'000};
    /// Concurrent distributed executions this shard admits; excess
    /// SHARD_EXECs answer RETRY_LATER.
    std::uint32_t max_shard_sessions = 32;
    /// Cap on pooled bytes pinned by early-arrival SHARD_XCHG blocks
    /// waiting for their session to materialize (see
    /// ShardSessionRegistry::Config::max_pending_hold_bytes).
    std::uint64_t max_shard_hold_bytes = 256ull << 20;
  };

  /// Monotonic counters (relaxed; advisory).
  struct Counters {
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_rejected = 0;  ///< over max_connections
    std::uint64_t requests_ok = 0;     ///< success responses actually written
    std::uint64_t requests_error = 0;  ///< ERROR responses actually written
    std::uint64_t protocol_errors = 0;       ///< framing violations received
    std::uint64_t plans_registered = 0;
    std::uint64_t plans_evicted = 0;  ///< dropped from the registry over max_plan_bytes
    std::uint64_t idle_closed = 0;  ///< connections closed by idle_timeout
    std::uint64_t shard_execs = 0;        ///< SHARD_EXEC band executions completed
    std::uint64_t shard_blocks = 0;       ///< SHARD_XCHG blocks accepted
    std::uint64_t shard_aborts = 0;       ///< shard sessions that failed mid-flight
    std::uint64_t shard_hold_rejections = 0;  ///< early-arrival holds over budget

    /// Responses of either kind delivered to a client. (The pre-split
    /// `requests_served` also counted responses whose socket write
    /// failed — these do not.)
    [[nodiscard]] std::uint64_t requests_served() const noexcept {
      return requests_ok + requests_error;
    }
  };

  explicit Server(runtime::RobustPermuteService& service) : Server(service, Config{}) {}
  Server(runtime::RobustPermuteService& service, Config config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + start the reactors, handler pool, and accept
  /// loop. Error if already running or the bind fails.
  runtime::Status start();

  /// Graceful shutdown: stop accepting, drain in-flight requests, join
  /// every thread. Idempotent; also called by the destructor.
  void stop();

  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  /// The bound port (valid after a successful start()).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] Counters counters() const;
  /// Registered plans, and the mapping bytes they hold.
  [[nodiscard]] std::uint64_t plans() const;
  [[nodiscard]] std::uint64_t plan_bytes() const;

 private:
  /// Response-origin tags carried on OutboundFrames so ok/error
  /// counters tick at the moment a response actually reaches the wire.
  static constexpr std::uint8_t kTagNone = 0;  ///< pre-frame rejection: uncounted
  static constexpr std::uint8_t kTagOk = 1;
  static constexpr std::uint8_t kTagError = 2;

  /// Per-connection reactor state. A Conn is owned by exactly one
  /// reactor; handler threads only read the decoded request (stable
  /// while EPOLLIN is paused) and never touch the flags.
  struct Conn {
    Conn(std::uint64_t conn_id, TcpStream s, util::BufferPool& pool,
         std::uint32_t max_payload)
        : id(conn_id), stream(std::move(s)), reader(pool, max_payload) {}

    const std::uint64_t id;
    TcpStream stream;
    FrameReader reader;
    FrameWriter writer;
    std::chrono::steady_clock::time_point last_activity;
    std::chrono::steady_clock::time_point reject_deadline;
    std::uint32_t armed = 0;     ///< epoll interest currently registered
    bool in_flight = false;      ///< a decoded request is being executed
    bool closing = false;        ///< flush the writer, then close
    bool rejected = false;       ///< over-cap: uncounted, short write budget
    bool closed = false;
  };

  /// One reactor: an epoll loop plus the mailbox other threads use to
  /// hand it work (new connections from the accept thread, finished
  /// responses from handlers), with an eventfd as the doorbell.
  struct Reactor {
    Epoll epoll;
    EventFd wakeup;
    std::thread thread;
    std::unordered_map<std::uint64_t, std::shared_ptr<Conn>> conns;

    struct Completion {
      std::shared_ptr<Conn> conn;
      OutboundFrame frame;
    };
    std::mutex inbox_mutex;
    std::vector<std::shared_ptr<Conn>> incoming;
    std::vector<Completion> completions;
  };

  struct Work {
    Reactor* reactor = nullptr;
    std::shared_ptr<Conn> conn;
  };

  struct ShardSlot {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };

  void accept_loop();
  void reactor_loop(Reactor& r);
  void handler_loop();

  /// Move everything in the reactor's mailbox onto the loop: register
  /// incoming connections, apply completions (consume the request,
  /// enqueue + flush the response).
  void drain_inbox(Reactor& r);
  /// Pump the connection's reader until it would block, dispatching at
  /// most one frame (strict alternation pauses EPOLLIN while a request
  /// is in flight).
  void pump_reads(Reactor& r, const std::shared_ptr<Conn>& conn);
  void dispatch(Reactor& r, const std::shared_ptr<Conn>& conn);
  void flush_conn(Reactor& r, const std::shared_ptr<Conn>& conn);
  void update_interest(Reactor& r, Conn& conn);
  void close_conn(Reactor& r, const std::shared_ptr<Conn>& conn);
  /// Periodic scan: idle timeouts, mid-frame/write stalls, reject
  /// budgets.
  void tick(Reactor& r, std::chrono::steady_clock::time_point now);

  /// Handler-side: execute the decoded request sitting in `conn`'s
  /// reader and post the response to the owning reactor.
  void run_request(Reactor& r, std::shared_ptr<Conn> conn);

  /// Dispatch one well-formed frame to a response. Never throws; every
  /// failure becomes a typed ERROR frame.
  OutboundFrame handle_request(Conn& conn);

  /// The PERMUTE hot path: pooled input/output element buffers and a
  /// scatter-gather response (no payload concatenation).
  OutboundFrame handle_permute(const FrameView& request);

  /// EXECUTE_PROGRAM: same pooled/scatter-gather shape as PERMUTE, with
  /// the op chain resolved against the SUBMIT_PLAN registry and handed
  /// to the service's program path (fused unless wire flag bit0 forces
  /// staged).
  OutboundFrame handle_program(const FrameView& request);

  /// SHARD_EXEC: run this shard's row band of a distributed PERMUTE —
  /// pass 1, push round-1 blocks at the peers, wait for theirs, pass 2,
  /// round-2 exchange, pass 3, respond with the band. Every failure
  /// aborts + erases the session (staging released) and answers typed.
  OutboundFrame handle_shard_exec(const FrameView& request);

  /// SHARD_XCHG: rendezvous with the local session (bounded wait under
  /// a held-bytes budget — the block may outrace this shard's own
  /// SHARD_EXEC) and scatter the block into its staging buffer.
  OutboundFrame handle_shard_xchg(const FrameView& request);

  /// The request path shared by PERMUTE and EXECUTE_PROGRAM: stamp the
  /// relative deadline and the trace id onto `opts`, take the input
  /// elements in place (or as one pooled copy), pool the output, call
  /// `submit(in, out, opts)`, await its future and encode the `ok_kind`
  /// [count | elements] response. Handlers keep only their decode and
  /// the service call.
  template <class Options, class Submit>
  OutboundFrame serve_elements(const FrameView& request, MsgKind ok_kind, const WordsView& data,
                               std::uint32_t deadline_ms, Options opts, Submit&& submit);

  Frame handle_submit_plan(const FrameView& request);
  Frame handle_stats(std::uint64_t request_id);

  /// The registered plan for a wire plan id (refreshing its LRU
  /// position); empty when unknown or evicted.
  [[nodiscard]] runtime::PlanHandle find_plan(std::uint64_t plan_id) const;

  /// Build the [u64 count | elements] success response shared by
  /// PERMUTE_OK / PROGRAM_OK / SHARD_EXEC_OK: the count header rides in
  /// the frame's inline prefix, the element bytes leave straight from
  /// the pooled result buffer (byteswapped in place first on a
  /// big-endian host), never concatenated.
  OutboundFrame elements_outbound(MsgKind kind, std::uint64_t request_id,
                                  util::PooledBuffer buf, std::uint64_t count);

  /// Convert an owned Frame into an OutboundFrame, timing the
  /// serialize span (header build + streamed checksum). The tag is
  /// derived from the frame kind unless overridden.
  OutboundFrame to_outbound(Frame frame);
  OutboundFrame to_outbound_tagged(Frame frame, std::uint8_t tag);
  OutboundFrame error_outbound(std::uint64_t request_id, const runtime::Status& why);

  static void on_frame_complete(void* ctx, const OutboundFrame& frame);

  void reap_shard_threads_locked();

  runtime::RobustPermuteService& service_;
  Config config_;
  TcpListener listener_;
  std::uint16_t port_ = 0;

  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::chrono::steady_clock::time_point drain_deadline_{};  ///< written before stop_
  std::thread accept_thread_;
  std::atomic<std::uint64_t> next_conn_id_{1};

  std::vector<std::unique_ptr<Reactor>> reactors_;

  std::vector<std::thread> handler_threads_;
  std::mutex work_mutex_;
  std::condition_variable work_cv_;
  std::deque<Work> work_;
  bool workers_stop_ = false;

  mutable std::mutex shard_thread_mutex_;
  std::list<ShardSlot> shard_threads_;

  std::atomic<std::uint32_t> active_connections_{0};

  /// The SUBMIT_PLAN registry: plan id -> handle, LRU-ordered under a
  /// byte budget (Config::max_plan_bytes).
  struct RegisteredPlan {
    runtime::PlanHandle plan;
    std::list<std::uint64_t>::iterator lru_it;
  };
  mutable std::mutex plans_mutex_;
  std::unordered_map<std::uint64_t, RegisteredPlan> plans_;  // guarded by plans_mutex_
  mutable std::list<std::uint64_t> plans_lru_;  // front = most recently used; plans_mutex_
  std::uint64_t plan_bytes_ = 0;                // guarded by plans_mutex_

  ShardSessionRegistry shard_sessions_;

  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_rejected_{0};
  std::atomic<std::uint64_t> requests_ok_{0};
  std::atomic<std::uint64_t> requests_error_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> plans_registered_{0};
  std::atomic<std::uint64_t> plans_evicted_{0};
  std::atomic<std::uint64_t> idle_closed_{0};
  std::atomic<std::uint64_t> shard_execs_{0};
  std::atomic<std::uint64_t> shard_blocks_{0};
  std::atomic<std::uint64_t> shard_aborts_{0};
};

}  // namespace hmm::net
