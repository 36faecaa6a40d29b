#include "net/wire.hpp"

#include <bit>
#include <concepts>
#include <cstring>
#include <string>
#include <type_traits>

#include "util/assert.hpp"
#include "util/crc32.hpp"

// Response/stats arrays travel as raw element bytes so the server can
// scatter-gather them without a serialization pass; that shortcut is only
// byte-exact on a little-endian host (every platform MLOC targets).
static_assert(std::endian::native == std::endian::little,
              "wire codec requires a little-endian host");

namespace mloc::net {

namespace {

void put_le32(std::uint8_t* out, std::uint32_t v) noexcept {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

void put_le16(std::uint8_t* out, std::uint16_t v) noexcept {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
}

void put_le64(std::uint8_t* out, std::uint64_t v) noexcept {
  put_le32(out, static_cast<std::uint32_t>(v));
  put_le32(out + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint16_t get_le16(const std::uint8_t* in) noexcept {
  return static_cast<std::uint16_t>(in[0] | (in[1] << 8));
}

std::uint32_t get_le32(const std::uint8_t* in) noexcept {
  return static_cast<std::uint32_t>(in[0]) |
         (static_cast<std::uint32_t>(in[1]) << 8) |
         (static_cast<std::uint32_t>(in[2]) << 16) |
         (static_cast<std::uint32_t>(in[3]) << 24);
}

std::uint64_t get_le64(const std::uint8_t* in) noexcept {
  return static_cast<std::uint64_t>(get_le32(in)) |
         (static_cast<std::uint64_t>(get_le32(in + 4)) << 32);
}

std::span<const std::uint8_t> byte_view(const void* data,
                                        std::size_t bytes) noexcept {
  return {static_cast<const std::uint8_t*>(data), bytes};
}

// ------------------------------------------------------------ field lists
//
// A payload is its fields in one fixed order. Scalars have a put/get pair
// below; each struct's layout is the argument list of its `fields`
// overload, written once: the encoder applies put() to every member in
// that order and the decoder applies get() to the same list, so no member
// can travel one way only. A member that has a list of its own nests.

void put(ByteWriter& w, std::uint64_t v) { w.put_u64(v); }
void put(ByteWriter& w, std::uint32_t v) { w.put_u32(v); }
void put(ByteWriter& w, int v) { w.put_i64(v); }
void put(ByteWriter& w, double v) { w.put_f64(v); }
void put(ByteWriter& w, bool v) { w.put_u8(v ? 1 : 0); }
void put(ByteWriter& w, std::string_view v) { w.put_string(v); }
void put(ByteWriter& w, const Status& st) {
  w.put_u16(static_cast<std::uint16_t>(st.code()));
  w.put_string(st.message());
}

/// Stores a read value into *out, or passes its error on.
template <class T, class U>
Status assign(Result<T> got, U* out) {
  if (!got.is_ok()) return got.status();
  *out = static_cast<U>(std::move(got).value());
  return Status::ok();
}

Status get(ByteReader& r, std::uint64_t* v) { return assign(r.get_u64(), v); }
Status get(ByteReader& r, std::uint32_t* v) { return assign(r.get_u32(), v); }
Status get(ByteReader& r, int* v) { return assign(r.get_i64(), v); }
Status get(ByteReader& r, double* v) { return assign(r.get_f64(), v); }
Status get(ByteReader& r, bool* v) {
  std::uint8_t byte = 0;
  MLOC_ASSIGN_OR_RETURN(byte, r.get_u8());
  if (byte > 1) return corrupt_data("boolean field is neither 0 nor 1");
  *v = byte == 1;
  return Status::ok();
}
Status get(ByteReader& r, std::string* v) { return assign(r.get_string(), v); }
/// Decodes a carried Status into *out; the return value is the decode
/// outcome.
Status get(ByteReader& r, Status* out) {
  std::uint16_t raw = 0;
  MLOC_ASSIGN_OR_RETURN(raw, r.get_u16());
  if (raw > static_cast<std::uint16_t>(ErrorCode::kCancelled)) {
    return corrupt_data("status frame carries an unknown error code");
  }
  std::string msg;
  MLOC_ASSIGN_OR_RETURN(msg, r.get_string());
  *out = Status(static_cast<ErrorCode>(raw), std::move(msg));
  return Status::ok();
}

/// `T` is `U` or `const U`: one list serves the encoder and the decoder.
template <class T, class U>
concept Is = std::same_as<std::remove_const_t<T>, U>;

template <Is<ValueConstraint> T, class F>
void fields(T& vc, F&& f) {
  f(vc.lo, vc.hi);
}

template <Is<MlocStore::VarConstraint> T, class F>
void fields(T& p, F&& f) {
  f(p.var, p.vc);
}

template <Is<CacheStats> T, class F>
void fields(T& c, F&& f) {
  f(c.hits, c.partial_hits, c.misses, c.bytes_saved);
}

template <Is<ExecStats> T, class F>
void fields(T& e, F&& f) {
  f(e.bytes_planned, e.bytes_read, e.bytes_from_cache, e.extents_naive,
    e.extents_coalesced, e.modeled_seeks, e.bytes_bridged);
}

template <Is<ComponentTimes> T, class F>
void fields(T& t, F&& f) {
  f(t.io, t.decompress, t.reconstruct);
}

template <Is<service::ServiceStats> T, class F>
void fields(T& s, F&& f) {
  f(s.query_id, s.session, s.queue_wait_s, s.exec_wall_s, s.cache, s.exec,
    s.via_shm);
}

/// The response prefix up to the array lengths. The query's CacheStats
/// and ExecStats travel once, in ServiceStats; decode_response copies them
/// into the result.
template <Is<service::Response> T, class F>
void fields(T& r, F&& f) {
  f(r.status, r.stats, r.result.times, r.result.bins_touched,
    r.result.aligned_bins, r.result.fragments_read,
    r.result.fragments_skipped);
}

template <Is<ingest::IngestStats> T, class F>
void fields(T& i, F&& f) {
  f(i.cells_routed, i.fragments_encoded, i.bins_written, i.bytes_written,
    i.partition_s, i.encode_s, i.fold_s, i.flush_s, i.wall_s, i.threads,
    i.write_behind);
}

template <Is<service::AggregateStats> T, class F>
void fields(T& a, F&& f) {
  f(a.submitted, a.completed, a.failed, a.rejected, a.expired, a.cancelled,
    a.queued, a.executing, a.cache, a.exec, a.total_queue_wait_s,
    a.total_exec_wall_s, a.peak_queue_depth, a.sessions_opened,
    a.sessions_open, a.ingests, a.ingest_failures, a.ingest);
}

template <Is<service::FragmentCache::Stats> T, class F>
void fields(T& c, F&& f) {
  f(c.lookups, c.hits, c.misses, c.insertions, c.upgrades, c.evictions,
    c.bytes_cached, c.entries);
}

template <Is<StatsSnapshot> T, class F>
void fields(T& s, F&& f) {
  f(s.agg, s.cache);
}

template <Is<service::SessionStats> T, class F>
void fields(T& s, F&& f) {
  f(s.label, s.open, s.submitted, s.completed, s.failed, s.rejected);
}

template <Is<Ack> T, class F>
void fields(T& a, F&& f) {
  f(a.carried);
}

template <Is<ShmInfo> T, class F>
void fields(T& i, F&& f) {
  f(i.name, i.ring_bytes, i.token, i.data_offset);
}

template <Is<ShmDescriptor> T, class F>
void fields(T& d, F&& f) {
  f(d.offset, d.len, d.release);
}

template <class T>
concept Listed = requires(T& t) { fields(t, [](auto&...) {}); };

template <Listed T>
void put(ByteWriter& w, const T& s);
template <Listed T>
Status get(ByteReader& r, T* s);

template <class... T>
void put_each(ByteWriter& w, const T&... v) {
  (put(w, v), ...);
}

/// Stops at the first value that fails to decode.
template <class... T>
Status get_each(ByteReader& r, T*... v) {
  Status st;
  (void)((st = get(r, v)).is_ok() && ...);
  return st;
}

template <Listed T>
void put(ByteWriter& w, const T& s) {
  fields(s, [&w](const auto&... v) { put_each(w, v...); });
}

template <Listed T>
Status get(ByteReader& r, T* s) {
  Status st;
  fields(*s, [&](auto&... v) { st = get_each(r, &v...); });
  return st;
}

/// A payload that is one value with a put/get pair, nothing after it.
template <class T>
Bytes encode_payload(const T& v) {
  ByteWriter w;
  put(w, v);
  return std::move(w).take();
}

template <class T>
Result<T> decode_payload(std::span<const std::uint8_t> p, const char* what) {
  ByteReader r(p);
  T v{};
  MLOC_RETURN_IF_ERROR(get(r, &v));
  if (!r.exhausted()) {
    return corrupt_data(std::string(what) + " payload has trailing bytes");
  }
  return v;
}

constexpr std::uint8_t kReqHasVc = 1u << 0;
constexpr std::uint8_t kReqHasSc = 1u << 1;
constexpr std::uint8_t kReqValuesNeeded = 1u << 2;
constexpr std::uint8_t kReqMultivar = 1u << 3;

}  // namespace

bool frame_type_known(std::uint16_t raw) noexcept {
  switch (static_cast<FrameType>(raw)) {
    case FrameType::kOpenSession:
    case FrameType::kCloseSession:
    case FrameType::kQuery:
    case FrameType::kCancel:
    case FrameType::kStats:
    case FrameType::kSessionStats:
    case FrameType::kPing:
    case FrameType::kListVariables:
    case FrameType::kShmOffer:
    case FrameType::kShmAttach:
    case FrameType::kSessionOpened:
    case FrameType::kQueryResult:
    case FrameType::kStatsResult:
    case FrameType::kSessionStatsResult:
    case FrameType::kAck:
    case FrameType::kPong:
    case FrameType::kVariableList:
    case FrameType::kShmAccept:
    case FrameType::kShmResult:
      return true;
  }
  return false;
}

void encode_header(const FrameHeader& h, std::uint8_t* out) noexcept {
  put_le32(out, kMagic);
  put_le16(out + 4, h.version);
  put_le16(out + 6, static_cast<std::uint16_t>(h.type));
  put_le64(out + 8, h.request_id);
  put_le32(out + 16, h.payload_len);
  put_le32(out + 20, h.payload_crc);
  put_le32(out + 24, crc32(byte_view(out, 24)));
}

namespace {

/// Every header check but the type's: kHeaderBytes at `b` with a valid
/// magic, header CRC, version and length. The type is stored as sent
/// (FrameType's fixed underlying type holds any 16-bit value).
Result<FrameHeader> decode_header_any_type(const std::uint8_t* b) {
  if (get_le32(b) != kMagic) {
    return corrupt_data("bad frame magic");
  }
  if (get_le32(b + 24) != crc32(byte_view(b, 24))) {
    return corrupt_data("frame header CRC mismatch");
  }
  FrameHeader h;
  h.version = get_le16(b + 4);
  if (h.version != kProtocolVersion) {
    return unsupported("unsupported wire protocol version " +
                       std::to_string(h.version));
  }
  h.type = static_cast<FrameType>(get_le16(b + 6));
  h.request_id = get_le64(b + 8);
  h.payload_len = get_le32(b + 16);
  h.payload_crc = get_le32(b + 20);
  if (h.payload_len > kMaxPayloadBytes) {
    return corrupt_data("frame payload length exceeds the protocol maximum");
  }
  return h;
}

}  // namespace

Result<FrameHeader> decode_header(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHeaderBytes) {
    return corrupt_data("frame header truncated");
  }
  MLOC_ASSIGN_OR_RETURN(FrameHeader h, decode_header_any_type(bytes.data()));
  const auto raw_type = static_cast<std::uint16_t>(h.type);
  if (!frame_type_known(raw_type)) {
    return unsupported("unknown frame type " + std::to_string(raw_type));
  }
  return h;
}

Status verify_payload(const FrameHeader& h,
                      std::span<const std::uint8_t> payload) {
  if (payload.size() != h.payload_len) {
    return corrupt_data("frame payload length mismatch");
  }
  if (crc32(payload) != h.payload_crc) {
    return corrupt_data("frame payload CRC mismatch");
  }
  return Status::ok();
}

std::span<std::uint8_t> FrameReader::recv_space() {
  if (consumed_ == buf_.size()) {
    buf_.clear();  // every byte was a frame: start again at the front
    consumed_ = 0;
  } else if (consumed_ != 0 &&
             buf_.capacity_bytes() - buf_.size() < kRecvBytes) {
    buf_.drop_front(consumed_);
    consumed_ = 0;
  }
  std::uint8_t* tail = buf_.grow_tail(kRecvBytes);
  return {tail, buf_.capacity_bytes() - buf_.size()};
}

Result<std::optional<FrameReader::Frame>> FrameReader::next(
    std::uint32_t max_payload) {
  const std::size_t avail = buf_.size() - consumed_;
  if (avail < kHeaderBytes) return std::optional<Frame>();
  const std::uint8_t* at = buf_.data() + consumed_;
  MLOC_ASSIGN_OR_RETURN(const FrameHeader h, decode_header_any_type(at));
  if (h.payload_len > max_payload) {
    return corrupt_data("frame payload length exceeds the receive cap");
  }
  if (avail - kHeaderBytes < h.payload_len) return std::optional<Frame>();
  const Frame f{h, {at + kHeaderBytes, h.payload_len}};
  MLOC_RETURN_IF_ERROR(verify_payload(h, f.payload));
  consumed_ += kHeaderBytes + h.payload_len;
  return std::optional<Frame>(f);
}

Bytes encode_frame(FrameType type, std::uint64_t request_id,
                   std::span<const std::uint8_t> payload) {
  MLOC_CHECK(payload.size() <= kMaxPayloadBytes);
  FrameHeader h;
  h.type = type;
  h.request_id = request_id;
  h.payload_len = static_cast<std::uint32_t>(payload.size());
  h.payload_crc = crc32(payload);
  Bytes out(kHeaderBytes + payload.size());
  encode_header(h, out.data());
  if (!payload.empty()) {
    std::memcpy(out.data() + kHeaderBytes, payload.data(), payload.size());
  }
  return out;
}

// --------------------------------------------------------------- payloads

Bytes encode_open_session(std::string_view label) {
  return encode_payload(label);
}

Result<std::string> decode_open_session(std::span<const std::uint8_t> p) {
  return decode_payload<std::string>(p, "open-session");
}

Bytes encode_session_opened(service::SessionId id) {
  return encode_payload(id);
}

Result<service::SessionId> decode_session_opened(
    std::span<const std::uint8_t> p) {
  return decode_payload<service::SessionId>(p, "session-opened");
}

Bytes encode_request(const service::Request& req) {
  ByteWriter w;
  std::uint8_t flags = 0;
  if (req.query.vc.has_value()) flags |= kReqHasVc;
  if (req.query.sc.has_value()) flags |= kReqHasSc;
  if (req.query.values_needed) flags |= kReqValuesNeeded;
  if (req.multivar.has_value()) flags |= kReqMultivar;
  w.put_u8(flags);
  put_each(w, req.var, req.query.plod_level, req.deadline_s, req.num_ranks);
  if (req.query.vc.has_value()) put(w, *req.query.vc);
  if (req.query.sc.has_value()) {
    const Region& sc = *req.query.sc;
    w.put_u8(static_cast<std::uint8_t>(sc.ndims()));
    for (int d = 0; d < sc.ndims(); ++d) put_each(w, sc.lo(d), sc.hi(d));
  }
  if (req.multivar.has_value()) {
    const service::MultivarSpec& mv = *req.multivar;
    w.put_varint(mv.preds.size());
    for (const auto& pred : mv.preds) put(w, pred);
    w.put_u8(static_cast<std::uint8_t>(mv.combine));
    put(w, mv.fetch_var);
  }
  return std::move(w).take();
}

Result<service::Request> decode_request(std::span<const std::uint8_t> p) {
  ByteReader r(p);
  service::Request req;
  std::uint8_t flags = 0;
  MLOC_ASSIGN_OR_RETURN(flags, r.get_u8());
  if ((flags & ~(kReqHasVc | kReqHasSc | kReqValuesNeeded | kReqMultivar)) !=
      0) {
    return corrupt_data("request frame carries unknown flags");
  }
  MLOC_RETURN_IF_ERROR(get_each(r, &req.var, &req.query.plod_level,
                                &req.deadline_s, &req.num_ranks));
  req.query.values_needed = (flags & kReqValuesNeeded) != 0;
  if ((flags & kReqHasVc) != 0) {
    ValueConstraint vc;
    MLOC_RETURN_IF_ERROR(get(r, &vc));
    req.query.vc = vc;
  }
  if ((flags & kReqHasSc) != 0) {
    std::uint8_t ndims = 0;
    MLOC_ASSIGN_OR_RETURN(ndims, r.get_u8());
    if (ndims < 1 || ndims > NDShape::kMaxDims) {
      return corrupt_data("spatial constraint has an invalid dimension count");
    }
    Coord lo{}, hi{};
    for (std::size_t d = 0; d < ndims; ++d) {
      MLOC_RETURN_IF_ERROR(get_each(r, &lo[d], &hi[d]));
      if (lo[d] > hi[d]) return corrupt_data("spatial constraint has lo > hi");
    }
    req.query.sc = Region(ndims, lo, hi);
  }
  if ((flags & kReqMultivar) != 0) {
    std::uint64_t npreds = 0;
    MLOC_ASSIGN_OR_RETURN(npreds, r.get_varint());
    // Each predicate occupies >= 17 payload bytes, so bound by what could
    // actually fit — rejects hostile counts before the reserve below.
    if (npreds > p.size() / 17 + 1) {
      return corrupt_data("multivar predicate count exceeds the payload");
    }
    service::MultivarSpec mv;
    mv.preds.reserve(npreds);
    for (std::uint64_t i = 0; i < npreds; ++i) {
      MlocStore::VarConstraint pred;
      MLOC_RETURN_IF_ERROR(get(r, &pred));
      mv.preds.push_back(std::move(pred));
    }
    std::uint8_t combine = 0;
    MLOC_ASSIGN_OR_RETURN(combine, r.get_u8());
    if (combine > static_cast<std::uint8_t>(MlocStore::Combine::kOr)) {
      return corrupt_data("multivar combine mode is invalid");
    }
    mv.combine = static_cast<MlocStore::Combine>(combine);
    MLOC_ASSIGN_OR_RETURN(mv.fetch_var, r.get_string());
    req.multivar = std::move(mv);
  }
  if (!r.exhausted()) return corrupt_data("request payload has trailing bytes");
  return req;
}

Bytes encode_cancel(std::uint64_t target_request_id) {
  return encode_payload(target_request_id);
}

Result<std::uint64_t> decode_cancel(std::span<const std::uint8_t> p) {
  return decode_payload<std::uint64_t>(p, "cancel");
}

Bytes encode_status(const Status& st) { return encode_payload(Ack{st}); }

Result<Ack> decode_status(std::span<const std::uint8_t> p) {
  return decode_payload<Ack>(p, "status");
}

Bytes encode_response_prefix(const service::Response& resp) {
  ByteWriter w;
  put(w, resp);
  w.put_u64(resp.result.positions.size());
  w.put_u64(resp.result.values.size());
  return std::move(w).take();
}

EncodedResponse encode_response_frame(std::uint64_t request_id,
                                      service::Response resp) {
  const Bytes prefix = encode_response_prefix(resp);

  EncodedResponse out;
  out.positions = std::move(resp.result.positions);
  out.values = std::move(resp.result.values);

  const std::span<const std::uint8_t> pos_bytes =
      byte_view(out.positions.data(),
                out.positions.size() * sizeof(std::uint64_t));
  const std::span<const std::uint8_t> val_bytes =
      byte_view(out.values.data(), out.values.size() * sizeof(double));

  FrameHeader h;
  h.type = FrameType::kQueryResult;
  h.request_id = request_id;
  const std::size_t payload_len =
      prefix.size() + pos_bytes.size() + val_bytes.size();
  MLOC_CHECK(payload_len <= kMaxPayloadBytes);
  h.payload_len = static_cast<std::uint32_t>(payload_len);
  h.payload_crc = crc32(val_bytes, crc32(pos_bytes, crc32(prefix)));

  out.head.resize(kHeaderBytes + prefix.size());
  encode_header(h, out.head.data());
  std::memcpy(out.head.data() + kHeaderBytes, prefix.data(), prefix.size());
  return out;
}

Result<service::Response> decode_response(std::span<const std::uint8_t> p) {
  ByteReader r(p);
  service::Response resp;
  MLOC_RETURN_IF_ERROR(get(r, &resp));
  QueryResult& res = resp.result;
  res.cache = resp.stats.cache;
  res.exec = resp.stats.exec;
  std::uint64_t npos = 0, nval = 0;
  MLOC_ASSIGN_OR_RETURN(npos, r.get_u64());
  MLOC_ASSIGN_OR_RETURN(nval, r.get_u64());
  const std::uint64_t array_bytes = npos * 8 + nval * 8;
  if (npos > kMaxPayloadBytes / 8 || nval > kMaxPayloadBytes / 8 ||
      array_bytes != r.remaining()) {
    return corrupt_data("response array lengths do not match the payload");
  }
  std::span<const std::uint8_t> pos_bytes;
  MLOC_ASSIGN_OR_RETURN(pos_bytes, r.get_bytes(npos * 8));
  res.positions.resize(npos);
  if (!pos_bytes.empty()) {
    std::memcpy(res.positions.data(), pos_bytes.data(), pos_bytes.size());
  }
  std::span<const std::uint8_t> val_bytes;
  MLOC_ASSIGN_OR_RETURN(val_bytes, r.get_bytes(nval * 8));
  res.values.resize(nval);
  if (!val_bytes.empty()) {
    std::memcpy(res.values.data(), val_bytes.data(), val_bytes.size());
  }
  return resp;
}

Bytes encode_stats(const StatsSnapshot& s) { return encode_payload(s); }

Result<StatsSnapshot> decode_stats(std::span<const std::uint8_t> p) {
  return decode_payload<StatsSnapshot>(p, "stats");
}

Bytes encode_session_stats(const service::SessionStats& s) {
  return encode_payload(s);
}

Result<service::SessionStats> decode_session_stats(
    std::span<const std::uint8_t> p) {
  return decode_payload<service::SessionStats>(p, "session-stats");
}

Bytes encode_shm_offer(std::uint64_t ring_bytes) {
  return encode_payload(ring_bytes);
}

Result<std::uint64_t> decode_shm_offer(std::span<const std::uint8_t> p) {
  return decode_payload<std::uint64_t>(p, "shm-offer");
}

Bytes encode_shm_accept(const ShmInfo& info) { return encode_payload(info); }

Result<ShmInfo> decode_shm_accept(std::span<const std::uint8_t> p) {
  MLOC_ASSIGN_OR_RETURN(ShmInfo info, decode_payload<ShmInfo>(p, "shm-accept"));
  if (info.name.empty() || info.name.front() != '/') {
    return corrupt_data("shm-accept segment name is not absolute");
  }
  return info;
}

Bytes encode_shm_attach(bool mapped) { return encode_payload(mapped); }

Result<bool> decode_shm_attach(std::span<const std::uint8_t> p) {
  return decode_payload<bool>(p, "shm-attach");
}

Bytes encode_shm_result(const ShmDescriptor& d) { return encode_payload(d); }

Result<ShmDescriptor> decode_shm_result(std::span<const std::uint8_t> p) {
  return decode_payload<ShmDescriptor>(p, "shm-result");
}

Bytes encode_variable_list(const std::vector<MlocStore::VariableDesc>& vars) {
  ByteWriter w;
  w.put_varint(vars.size());
  for (const MlocStore::VariableDesc& v : vars) {
    w.put_string(v.name);
    v.layout.serialize(w);
    w.put_u64(v.epoch);
    w.put_u8(v.plod_capable ? 1 : 0);
    w.put_varint(static_cast<std::uint64_t>(v.num_groups));
  }
  return std::move(w).take();
}

Result<std::vector<MlocStore::VariableDesc>> decode_variable_list(
    std::span<const std::uint8_t> p) {
  ByteReader r(p);
  std::uint64_t count = 0;
  MLOC_ASSIGN_OR_RETURN(count, r.get_varint());
  if (count > 1u << 20) {
    return corrupt_data("variable list claims an implausible count");
  }
  std::vector<MlocStore::VariableDesc> vars;
  vars.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    MlocStore::VariableDesc v;
    MLOC_ASSIGN_OR_RETURN(v.name, r.get_string());
    MLOC_ASSIGN_OR_RETURN(v.layout, VariableLayout::deserialize(r));
    MLOC_ASSIGN_OR_RETURN(v.epoch, r.get_u64());
    std::uint8_t plod = 0;
    MLOC_ASSIGN_OR_RETURN(plod, r.get_u8());
    v.plod_capable = plod != 0;
    std::uint64_t groups = 0;
    MLOC_ASSIGN_OR_RETURN(groups, r.get_varint());
    v.num_groups = static_cast<int>(groups);
    vars.push_back(std::move(v));
  }
  if (!r.exhausted()) {
    return corrupt_data("variable-list payload has trailing bytes");
  }
  return vars;
}

}  // namespace mloc::net
