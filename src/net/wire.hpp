// Wire protocol for the MLOC query server — versioned, length-prefixed
// binary frames carrying QueryService requests and responses over a byte
// stream (src/net/server.cpp serves them over TCP; the codec itself is
// transport-agnostic and is what the fuzz/round-trip tests exercise).
//
// Every frame is a fixed 28-byte header followed by `payload_len` payload
// bytes:
//
//   offset  size  field
//        0     4  magic        0x434F4C4D ("MLOC" when read as LE bytes)
//        4     2  version      protocol version (kProtocolVersion)
//        6     2  type         FrameType
//        8     8  request_id   client-chosen; echoed on the response
//       16     4  payload_len  bytes following the header (<= kMaxPayload)
//       20     4  payload_crc  CRC-32 of the payload bytes
//       24     4  header_crc   CRC-32 of header bytes [0, 24)
//
// All integers are little-endian. The header CRC lets a receiver reject a
// corrupt header before trusting payload_len; the payload CRC catches
// damage to the body. Decoding never trusts a length before bounds-checking
// it, and a malformed frame yields a clean Status (CorruptData /
// Unsupported), never UB — the property tests flip/truncate bytes at every
// offset to enforce this.
//
// Receiving: FrameReader is the one place bytes off a stream become
// frames, on the server and on the client. Callers recv() into its free
// tail; next() checks each header (magic, header CRC, version, the
// caller's payload cap) and payload CRC and hands the frame out in place.
// Any failed check ends the stream.
//
// Versioning rules: kProtocolVersion bumps on any layout change to the
// header or an existing payload. Adding a new FrameType is *not* a version
// bump — FrameReader hands an unknown type out like any other frame (its
// header CRC vouched for its length), the receiver answers or fails just
// that request with Unsupported, and the connection stays usable. A
// server never answers a frame whose version it does not speak (the
// connection closes), so mixed-version pipelines fail fast instead of
// misparsing.
//
// Response payloads put the positions/values arrays *last*, as raw
// little-endian element bytes: the server sends them straight from the
// engine's fold buffers with scatter-gather writev (no serialization copy),
// and the CRC is computed incrementally across the pieces.
//
// Shared-memory fast path (net/shm.hpp): a co-located client can offer a
// per-connection shm ring (kShmOffer -> kShmAccept -> kShmAttach). Once
// attached, query-result payloads are written into ring slots and only a
// small kShmResult descriptor travels over TCP; the slot bytes are the
// exact kQueryResult payload, so decode_response parses either transport.
// Ring bytes carry no payload CRC — they cross shared memory, not a
// network — while the descriptor frame keeps the normal frame CRCs. The
// capability is negotiated per connection, never assumed, so non-shm
// peers are unaffected.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "net/shm.hpp"
#include "service/query_service.hpp"
#include "util/bytes.hpp"
#include "util/scratch_array.hpp"
#include "util/status.hpp"

namespace mloc::net {

inline constexpr std::uint32_t kMagic = 0x434F4C4Du;  // "MLOC" as LE bytes
/// v2: response prefix gained the via_shm transport flag and the STATS
/// payload gained per-transport counters (existing-payload layout changes,
/// hence the bump). The shm frames themselves are new types, not a bump.
/// v3: the response prefix carries CacheStats and ExecStats once (with
/// ExecStats::bytes_bridged) and drops the summed modeled time and the
/// result's duplicate byte count; STATS drops its summed modeled time and
/// the transport counters (net::ServerStats keeps those); SESSION_STATS
/// carries counts only.
/// v4: the request payload drops its priority field (the service dispatches
/// in submission order only).
inline constexpr std::uint16_t kProtocolVersion = 4;
inline constexpr std::size_t kHeaderBytes = 28;
/// Upper bound on payload_len: rejects absurd lengths (corrupt or hostile
/// headers) before any allocation. 1 GiB comfortably covers the largest
/// query result the engine can produce on test datasets.
inline constexpr std::uint32_t kMaxPayloadBytes = 1u << 30;

enum class FrameType : std::uint16_t {
  // client -> server
  kOpenSession = 1,   ///< payload: label string  -> kSessionOpened
  kCloseSession = 2,  ///< payload: empty         -> kAck
  kQuery = 3,         ///< payload: Request       -> kQueryResult
  kCancel = 4,        ///< payload: target request_id (u64) -> kAck
  kStats = 5,         ///< payload: empty         -> kStatsResult
  kSessionStats = 6,  ///< payload: empty         -> kSessionStatsResult
  kPing = 7,          ///< payload: empty         -> kPong
  kListVariables = 8, ///< payload: empty         -> kVariableList
  kShmOffer = 9,      ///< payload: ring_bytes    -> kShmAccept | kAck(error)
  kShmAttach = 10,    ///< payload: mapped flag   -> kAck
  // server -> client
  kSessionOpened = 64,      ///< payload: SessionId (u64)
  kQueryResult = 65,        ///< payload: Response
  kStatsResult = 66,        ///< payload: AggregateStats + cache Stats
  kSessionStatsResult = 67, ///< payload: SessionStats
  kAck = 68,                ///< payload: Status
  kPong = 69,               ///< payload: empty
  kVariableList = 70,       ///< payload: per-variable name + layout
  kShmAccept = 71,          ///< payload: segment name + geometry + token
  kShmResult = 72,          ///< payload: ring descriptor (response in shm)
};

/// True for the FrameType values this protocol version defines.
[[nodiscard]] bool frame_type_known(std::uint16_t raw) noexcept;

struct FrameHeader {
  std::uint16_t version = kProtocolVersion;
  FrameType type = FrameType::kPing;
  std::uint64_t request_id = 0;
  std::uint32_t payload_len = 0;
  std::uint32_t payload_crc = 0;
};

/// Serialize `h` into exactly kHeaderBytes at `out` (header CRC included).
void encode_header(const FrameHeader& h, std::uint8_t* out) noexcept;

/// Validate magic, header CRC, version, frame type, and payload bound.
/// `bytes` must hold at least kHeaderBytes. Unknown type yields Unsupported
/// (skippable frame, connection still parseable); everything else
/// CorruptData.
Result<FrameHeader> decode_header(std::span<const std::uint8_t> bytes);

/// Check `payload` against the header's length and CRC.
Status verify_payload(const FrameHeader& h,
                      std::span<const std::uint8_t> payload);

/// Turns a received byte stream into frames (see the file comment). It
/// makes no system call: the owner fills recv_space(), reports the bytes
/// with commit(), then takes frames with next() until it returns nullopt.
/// The buffer grows by doubling, only as bytes arrive (a header announcing
/// a large payload reserves nothing), and is never value-initialized.
class FrameReader {
 public:
  /// One complete frame. `payload` points into the reader's buffer and
  /// stays valid until the next recv_space(). `header.type` may be a type
  /// this version does not define (frame_type_known); such a frame is
  /// intact and can be skipped.
  struct Frame {
    FrameHeader header;
    std::span<const std::uint8_t> payload;
  };

  /// The least free space recv_space() offers.
  static constexpr std::size_t kRecvBytes = 64 * 1024;

  /// The buffer's free tail, at least kRecvBytes long, unwritten. Consumed
  /// frames are dropped from the front first when the tail is short.
  std::span<std::uint8_t> recv_space();
  /// Count `n` bytes written at the front of the last recv_space().
  void commit(std::size_t n) noexcept { buf_.commit(n); }

  /// The next complete frame whose payload is at most `max_payload`
  /// bytes; nullopt when more bytes are needed; or the error that ends the
  /// stream (bad magic or header CRC, another version, a payload over the
  /// cap, a bad payload CRC). An error repeats on every later call.
  Result<std::optional<Frame>> next(std::uint32_t max_payload);

  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    return buf_.capacity_bytes();
  }

 private:
  ScratchArray<std::uint8_t> buf_;
  std::size_t consumed_ = 0;  ///< bytes of buf_ already handed out as frames
};

/// Assemble a complete frame (header + payload) for small messages.
Bytes encode_frame(FrameType type, std::uint64_t request_id,
                   std::span<const std::uint8_t> payload);

// ---------------------------------------------------------------- payloads

Bytes encode_open_session(std::string_view label);
Result<std::string> decode_open_session(std::span<const std::uint8_t> p);

Bytes encode_session_opened(service::SessionId id);
Result<service::SessionId> decode_session_opened(
    std::span<const std::uint8_t> p);

Bytes encode_request(const service::Request& req);
Result<service::Request> decode_request(std::span<const std::uint8_t> p);

Bytes encode_cancel(std::uint64_t target_request_id);
Result<std::uint64_t> decode_cancel(std::span<const std::uint8_t> p);

/// The Status carried by an kAck frame, wrapped so decode failure (outer
/// Result) stays distinguishable from a carried error (inner Status).
struct Ack {
  Status carried;
};

Bytes encode_status(const Status& st);
Result<Ack> decode_status(std::span<const std::uint8_t> p);

/// A response frame split for scatter-gather sending: `head` holds the
/// frame header plus every payload field up to the arrays; the arrays are
/// sent directly from the vectors (zero-copy from the engine's fold
/// buffers). The header's payload_len/payload_crc cover all three pieces.
/// A control frame is `head` alone: `{encode_frame(...)}`.
struct EncodedResponse {
  Bytes head;
  std::vector<std::uint64_t> positions{};
  std::vector<double> values{};

  [[nodiscard]] std::size_t total_bytes() const noexcept {
    return head.size() + positions.size() * sizeof(std::uint64_t) +
           values.size() * sizeof(double);
  }
};

/// Consumes `resp` (moves the result arrays out instead of copying them).
EncodedResponse encode_response_frame(std::uint64_t request_id,
                                      service::Response resp);

/// The kQueryResult payload minus the trailing arrays, for callers that
/// place the payload somewhere other than a TCP frame (the shm ring):
/// prefix bytes followed by the raw position/value element bytes are
/// exactly what decode_response parses.
Bytes encode_response_prefix(const service::Response& resp);

/// Inverse of encode_response_frame's payload (head payload + arrays).
Result<service::Response> decode_response(std::span<const std::uint8_t> p);

/// Service aggregates plus the fragment-cache counters in one frame, so a
/// remote reader gets the same coherent snapshot an in-process caller does.
struct StatsSnapshot {
  service::AggregateStats agg;
  service::FragmentCache::Stats cache;
};

Bytes encode_stats(const StatsSnapshot& s);
Result<StatsSnapshot> decode_stats(std::span<const std::uint8_t> p);

Bytes encode_session_stats(const service::SessionStats& s);
Result<service::SessionStats> decode_session_stats(
    std::span<const std::uint8_t> p);

// ------------------------------------------------- shm transport frames

/// kShmOffer: the ring size the client proposes (the server clamps it).
Bytes encode_shm_offer(std::uint64_t ring_bytes);
Result<std::uint64_t> decode_shm_offer(std::span<const std::uint8_t> p);

/// kShmAccept: the created segment's identity and geometry (net/shm.hpp).
Bytes encode_shm_accept(const ShmInfo& info);
Result<ShmInfo> decode_shm_accept(std::span<const std::uint8_t> p);

/// kShmAttach: whether the client mapped and validated the segment.
/// mapped=false reports a clean fallback — the server tears the segment
/// down and the connection stays on TCP.
Bytes encode_shm_attach(bool mapped);
Result<bool> decode_shm_attach(std::span<const std::uint8_t> p);

/// kShmResult payload: where in the ring the response payload lives.
/// `release` is the producer cursor after the allocation — the value the
/// client stores into `consumed` once it has copied the bytes out.
struct ShmDescriptor {
  std::uint64_t offset = 0;
  std::uint32_t len = 0;
  std::uint64_t release = 0;
};

Bytes encode_shm_result(const ShmDescriptor& d);
Result<ShmDescriptor> decode_shm_result(std::span<const std::uint8_t> p);

/// The store's per-variable inventory (MlocStore::describe_all), so a
/// remote reader can audit a mixed-layout store without filesystem
/// access. Layouts travel in their meta-v3 serialized form.
Bytes encode_variable_list(const std::vector<MlocStore::VariableDesc>& vars);
Result<std::vector<MlocStore::VariableDesc>> decode_variable_list(
    std::span<const std::uint8_t> p);

}  // namespace mloc::net
