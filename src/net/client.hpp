// Client side of the wire protocol (src/net/wire.hpp): a blocking TCP
// connection to a Server, with pipelining.
//
// The client is single-threaded by design — one connection, one caller.
// Pipelining works by splitting submission from collection: send_query()
// writes the frame and returns immediately with the request id; wait()
// blocks until that id's response arrives, stashing any other responses
// that land first (the server answers out of order, as queries finish).
// A load generator drives hundreds of in-flight queries per connection
// this way without any client-side threads.
//
// Replies are read through the same FrameReader the server uses: the
// client recv()s into its buffer, a query result is decoded where it lies
// (straight into the answer's vectors), and only a control reply's small
// payload is copied out.
//
// Transport/protocol failures (socket error, corrupt frame, a known reply
// type that does not answer the call) surface as the Result's error Status
// and poison the connection (every later call fails until
// close()/connect()). A reply of a type this protocol version does not
// define fails only the call it answers, with Unsupported, as the
// versioning rules in wire.hpp promise. Server-side outcomes — a rejected
// query, a cancelled query, a closed session — arrive as a normal
// Response whose `status` carries the error; the connection stays usable.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>

#include "net/shm.hpp"
#include "net/wire.hpp"
#include "service/query_service.hpp"
#include "util/status.hpp"

namespace mloc::net {

class Client {
 public:
  Client() = default;
  ~Client() { close(); }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  Status connect(const std::string& host, std::uint16_t port);
  void close();
  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }

  /// Round-trip a kPing frame.
  Status ping();

  /// Open this connection's session (at most one per connection).
  Result<service::SessionId> open_session(std::string_view label = "");
  Status close_session();

  /// Negotiate the shared-memory fast path (kShmOffer/kShmAccept): the
  /// server creates a per-connection ring of `ring_bytes` (it may clamp)
  /// and later query responses arrive through it — transparently, behind
  /// the same query()/wait() API. A server refusal or a local mapping
  /// failure returns its Status and leaves the connection fully usable
  /// over TCP; only protocol corruption poisons the connection.
  Status enable_shm(std::uint64_t ring_bytes = 4ull << 20);
  /// True when responses are arriving through a shared-memory ring.
  [[nodiscard]] bool shm_active() const noexcept { return shm_ != nullptr; }

  /// Blocking query: submit and wait for its response.
  Result<service::Response> query(const service::Request& req);

  /// Pipelined submission: write the frame, return its request id without
  /// waiting. Collect with wait() in any order.
  Result<std::uint64_t> send_query(const service::Request& req);
  Result<service::Response> wait(std::uint64_t request_id);

  /// Ask the server to cancel an in-flight query by its request id. The
  /// returned Status is the server's answer (ok = cancelled; NotFound =
  /// already completed or never seen). A cancelled query still gets a
  /// response — collect it with wait().
  Status cancel(std::uint64_t request_id);

  Result<StatsSnapshot> stats();
  Result<service::SessionStats> session_stats();
  /// The served store's per-variable inventory (name, layout, epoch) —
  /// the remote view of MlocStore::describe_all.
  Result<std::vector<MlocStore::VariableDesc>> list_variables();

 private:
  /// One reply, taken off the stream as it arrived.
  struct Reply {
    FrameType type = FrameType::kPong;  ///< may be a type not defined here
    Bytes payload;                      ///< a control reply's payload
    /// A query result (kQueryResult or kShmResult), decoded on arrival:
    /// from the receive buffer, or from the ring, whose bytes are then
    /// released at once, in descriptor order.
    std::optional<Result<service::Response>> response;
  };

  Status send_all(const Bytes& frame);
  /// Read frames until `request_id`'s arrives; stash the rest.
  Result<Reply> wait_frame(std::uint64_t request_id);
  /// Decode or copy `frame` so it outlives the receive buffer.
  Result<Reply> take(const FrameReader::Frame& frame);
  /// Send a `type` request and return the payload of its `reply` frame. An
  /// Ack is the server's answer in its place: its carried error, or, when
  /// `reply` is kAck itself, success with an empty payload.
  Result<Bytes> call(FrameType type, std::span<const std::uint8_t> payload,
                     FrameType reply, std::string_view what);
  /// A reply that does not answer `what`: Unsupported for a type this
  /// version does not define, else the connection is poisoned.
  Status unexpected(const Reply& r, std::string_view what);
  Status fail(Status st);  ///< poison the connection, pass `st` through

  int fd_ = -1;
  Status broken_;  ///< first transport error; non-ok poisons the client
  std::uint64_t next_id_ = 1;
  FrameReader reader_;
  std::unordered_map<std::uint64_t, Reply> stashed_;
  std::unique_ptr<ShmClientSegment> shm_;  ///< non-null once negotiated
};

}  // namespace mloc::net
