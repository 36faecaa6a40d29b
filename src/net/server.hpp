// Binary RPC front end for QueryService — an epoll-based TCP server
// speaking the src/net/wire.hpp frame protocol.
//
// Architecture: one listen socket plus `num_loops` worker event loops,
// each an epoll instance driven by its own thread. Loop 0 owns the
// acceptor; accepted connections are handed round-robin to the loops and
// stay pinned there: a connection's fd is read and closed only by its
// loop, and written, under the connection's mutex, by whichever thread
// has a frame to send. Each connection multiplexes many in-flight
// queries: every kQuery frame is submitted through
// QueryService::submit_async, and the completion callback, on the
// service worker that resolved the query, encodes the response, appends
// it to the connection's outbox and writes what the socket takes; the
// loop finishes a partial write on EPOLLOUT. Responses go back tagged
// with the client's request_id — out of order, as queries finish. Result
// payloads are written with scatter-gather sendmsg straight from the
// engine's fold buffers (EncodedResponse), so a large result is never
// copied into a serialization buffer.
//
// Co-located clients can negotiate the shared-memory fast path
// (net/shm.hpp): after kShmOffer/kShmAccept/kShmAttach, worker callbacks
// write result payloads from the fold buffers straight into the
// connection's ring and queue only a small kShmResult descriptor frame; a
// full ring (client slow to release) or an oversize payload falls back to
// the TCP frame per response. The segment is unlinked the moment the
// client attaches and unmapped on disconnect, so a crashed client leaks
// nothing.
//
// Connection lifecycle: a fresh connection has no session; the client
// sends kOpenSession (at most once) and queries after that. Closing the
// socket — or any protocol error (bad magic, CRC mismatch, version
// mismatch, a payload over the receive cap) — tears the connection down:
// the server closes its session, and responses for its in-flight queries
// are dropped on arrival (counted in ServerStats::responses_dropped).
// Malformed *payloads* and unknown frame types behind a valid header are
// answered with an error frame and the connection stays usable, since
// the stream is still in sync.
//
// Shutdown: shutdown(grace) stops accepting, refuses new queries
// (FailedPrecondition), waits up to `grace` seconds for in-flight
// queries to resolve, then cancels whatever is still queued and waits
// for the (bounded) remainder to drain before closing sessions and
// sockets. Safe against the QueryService-destructor path: by the time
// shutdown() returns, no completion callback can reference the server.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "net/wire.hpp"
#include "service/query_service.hpp"
#include "util/status.hpp"
#include "util/sync.hpp"

namespace mloc::net {

struct ServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; read the choice via port()
  int num_loops = 2;       ///< worker event loops (loop 0 also accepts)
  double drain_grace_s = 5.0;  ///< shutdown(): wait for in-flight queries
  /// Honor kShmOffer handshakes: co-located clients get a per-connection
  /// shared-memory ring and query-result payloads skip the socket. Off =
  /// offers are refused (Unsupported) and clients fall back to TCP.
  bool enable_shm = true;
  /// Clamp on the ring size a client may request (per connection, so 512
  /// greedy clients cannot pin 512 x unbounded tmpfs pages). A value below
  /// kShmMinRingBytes is raised to it.
  std::uint64_t max_shm_ring_bytes = 64ull << 20;
};

/// Monotonic counters, snapshot under one lock via Server::stats().
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t protocol_errors = 0;    ///< connection torn down mid-stream
  std::uint64_t payload_errors = 0;     ///< bad payload, connection kept
  std::uint64_t rejected_draining = 0;  ///< queries refused during shutdown
  std::uint64_t responses_dropped = 0;  ///< owning connection already gone
  std::uint64_t shm_segments = 0;       ///< rings created for kShmOffer
  std::uint64_t shm_attached = 0;       ///< rings confirmed mapped by clients
  std::uint64_t responses_shm = 0;      ///< query results shipped via a ring
  std::uint64_t responses_tcp = 0;      ///< query results shipped as frames
  std::uint64_t shm_fallbacks = 0;      ///< ring full/oversize -> TCP frame
};

class Server {
 public:
  /// `svc` must outlive the server (the server holds a reference and
  /// submits queries to it until shutdown() completes).
  explicit Server(service::QueryService& svc, ServerConfig cfg = {});
  ~Server();  ///< shutdown(cfg.drain_grace_s) if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen, and start the event-loop threads.
  Status start();

  /// The bound port (after a successful start()).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Graceful stop; idempotent. `grace_s < 0` uses cfg.drain_grace_s.
  void shutdown(double grace_s = -1.0)
      MLOC_EXCLUDES(shutdown_mutex_, drain_mutex_, registry_mutex_);

  [[nodiscard]] ServerStats stats() const MLOC_EXCLUDES(stats_mutex_);

 private:
  struct Connection;
  struct Loop;

  void loop_main(Loop& loop);
  static void wake(Loop& loop);
  void accept_ready(Loop& loop);
  /// Loop-thread only: add `conn` to the loop's epoll set and fd map.
  void register_connection(Loop& loop, std::shared_ptr<Connection> conn);
  void handle_readable(Loop& loop, const std::shared_ptr<Connection>& conn);
  /// Parse every complete frame in the connection's read buffer. Returns
  /// false when the stream is unrecoverable (connection must close).
  bool parse_frames(const std::shared_ptr<Connection>& conn);
  void handle_frame(const std::shared_ptr<Connection>& conn,
                    const FrameHeader& h,
                    std::span<const std::uint8_t> payload);
  void handle_query(const std::shared_ptr<Connection>& conn,
                    std::uint64_t request_id,
                    std::span<const std::uint8_t> payload);
  /// Append a frame to the outbox and flush what the socket accepts; any
  /// thread. False when the connection is closed and the frame dropped.
  bool send_frame(const std::shared_ptr<Connection>& conn,
                  EncodedResponse frame);
  /// Drain the outbox with scatter-gather writes; arms/disarms EPOLLOUT.
  /// Any thread: the loop on EPOLLOUT, whoever appended a frame. A failed
  /// send shuts the socket down for the loop to close.
  void flush_writes(const std::shared_ptr<Connection>& conn);
  /// Loop-thread only: closes the fd, the session, and drops the outbox.
  void close_connection(Loop& loop, const std::shared_ptr<Connection>& conn,
                        bool protocol_error);
  void finish_inflight() MLOC_EXCLUDES(drain_mutex_);

  service::QueryService& svc_;
  ServerConfig cfg_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<std::uint64_t> next_loop_{0};

  std::vector<std::unique_ptr<Loop>> loops_;

  /// Queries submitted and not yet resolved through their callback.
  /// (Atomic, paired with drain_cv_: finish_inflight takes drain_mutex_
  /// only to publish the final notify.)
  std::atomic<std::uint64_t> inflight_{0};
  /// Serializes shutdown() callers; always taken before the drain and
  /// registry locks it nests (declared so an inversion cannot compile).
  sync::Mutex shutdown_mutex_ MLOC_ACQUIRED_BEFORE(drain_mutex_,
                                                   registry_mutex_);
  sync::Mutex drain_mutex_;
  sync::CondVar drain_cv_;

  /// Every live connection, so shutdown() can reach in-flight query ids
  /// and pending outboxes without touching loop-thread-only state.
  sync::Mutex registry_mutex_;
  std::vector<std::weak_ptr<Connection>> registry_
      MLOC_GUARDED_BY(registry_mutex_);

  mutable sync::Mutex stats_mutex_;
  ServerStats stats_ MLOC_GUARDED_BY(stats_mutex_);
};

}  // namespace mloc::net
