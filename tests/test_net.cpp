// Wire-protocol tests: frame codec round-trip identity for every frame
// type, deterministic fuzz (truncation + byte flips at every offset must
// yield a clean Status, never UB), the FrameReader fed whole or split at
// every byte, and server/client integration — served results
// bit-identical to in-process execution, pipelined out-of-order
// collection, cancel/deadline/session edge cases, protocol-error
// handling, unknown frame types both ways, a reset mid-burst, and
// shutdown under load (the TSan hammer).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "datagen/datagen.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "service/query_service.hpp"
#include "util/assert.hpp"
#include "util/crc32.hpp"

namespace mloc {
namespace {

using namespace mloc::net;
using service::QueryService;
using service::Request;
using service::Response;
using service::ServiceConfig;
using service::SessionId;

// ------------------------------------------------------------ header codec

Bytes make_header_bytes(FrameHeader h) {
  Bytes out(kHeaderBytes);
  encode_header(h, out.data());
  return out;
}

TEST(WireHeader, RoundTripIdentity) {
  FrameHeader h;
  h.type = FrameType::kQuery;
  h.request_id = 0xDEADBEEFCAFEBABEull;
  h.payload_len = 12345;
  h.payload_crc = 0x8BADF00D;
  const Bytes bytes = make_header_bytes(h);

  auto back = decode_header(bytes);
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(back.value().version, kProtocolVersion);
  EXPECT_EQ(back.value().type, FrameType::kQuery);
  EXPECT_EQ(back.value().request_id, h.request_id);
  EXPECT_EQ(back.value().payload_len, h.payload_len);
  EXPECT_EQ(back.value().payload_crc, h.payload_crc);
}

TEST(WireHeader, RejectsEveryTruncation) {
  const Bytes bytes = make_header_bytes(FrameHeader{});
  for (std::size_t len = 0; len < kHeaderBytes; ++len) {
    auto r = decode_header({bytes.data(), len});
    EXPECT_FALSE(r.is_ok()) << "length " << len;
  }
}

TEST(WireHeader, RejectsEveryByteFlip) {
  // The header CRC covers bytes [0, 24) and is itself stored in [24, 28),
  // so any single-byte corruption must be detected.
  FrameHeader h;
  h.type = FrameType::kQuery;
  h.request_id = 7;
  h.payload_len = 99;
  h.payload_crc = 0x12345678;
  const Bytes clean = make_header_bytes(h);
  for (std::size_t i = 0; i < kHeaderBytes; ++i) {
    Bytes bad = clean;
    bad[i] ^= 0x40;
    auto r = decode_header(bad);
    EXPECT_FALSE(r.is_ok()) << "flip at offset " << i;
  }
}

TEST(WireHeader, RejectsWrongVersionAsUnsupported) {
  FrameHeader h;
  h.version = kProtocolVersion + 1;
  auto r = decode_header(make_header_bytes(h));
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kUnsupported);
}

TEST(WireHeader, RejectsUnknownTypeAsUnsupported) {
  FrameHeader h;
  h.type = static_cast<FrameType>(900);
  auto r = decode_header(make_header_bytes(h));
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kUnsupported);
  EXPECT_FALSE(frame_type_known(900));
  EXPECT_TRUE(frame_type_known(static_cast<std::uint16_t>(FrameType::kPong)));
}

TEST(WireHeader, RejectsOversizedPayloadLength) {
  FrameHeader h;
  h.payload_len = kMaxPayloadBytes + 1;
  auto r = decode_header(make_header_bytes(h));
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kCorruptData);
}

TEST(WireFrame, EncodeFrameVerifies) {
  const Bytes payload = encode_open_session("alice");
  const Bytes frame = encode_frame(FrameType::kOpenSession, 42, payload);
  ASSERT_EQ(frame.size(), kHeaderBytes + payload.size());

  auto h = decode_header(frame);
  ASSERT_TRUE(h.is_ok());
  std::span<const std::uint8_t> body(frame.data() + kHeaderBytes,
                                     frame.size() - kHeaderBytes);
  EXPECT_TRUE(verify_payload(h.value(), body).is_ok());

  Bytes tampered = frame;
  tampered[kHeaderBytes] ^= 0x01;
  std::span<const std::uint8_t> bad(tampered.data() + kHeaderBytes,
                                    tampered.size() - kHeaderBytes);
  EXPECT_FALSE(verify_payload(h.value(), bad).is_ok());
}

// ----------------------------------------------------------- payload codec

Request full_request() {
  Request req;
  req.var = "phi";
  req.query.vc = ValueConstraint{-1.25, 3.5};
  Coord lo{}, hi{};
  lo[0] = 4;
  hi[0] = 40;
  lo[1] = 8;
  hi[1] = 48;
  req.query.sc = Region(2, lo, hi);
  req.query.plod_level = 3;
  req.query.values_needed = true;
  req.deadline_s = 1.5;
  req.num_ranks = 9;
  service::MultivarSpec mv;
  mv.preds.push_back({"phi", ValueConstraint{0.0, 0.5}});
  mv.preds.push_back({"rho", ValueConstraint{-2.0, -1.0}});
  mv.combine = MlocStore::Combine::kOr;
  mv.fetch_var = "phi";
  req.multivar = std::move(mv);
  return req;
}

void expect_request_eq(const Request& a, const Request& b) {
  EXPECT_EQ(a.var, b.var);
  EXPECT_EQ(a.query.plod_level, b.query.plod_level);
  EXPECT_EQ(a.query.values_needed, b.query.values_needed);
  EXPECT_EQ(a.deadline_s, b.deadline_s);
  EXPECT_EQ(a.num_ranks, b.num_ranks);
  ASSERT_EQ(a.query.vc.has_value(), b.query.vc.has_value());
  if (a.query.vc.has_value()) {
    EXPECT_EQ(a.query.vc->lo, b.query.vc->lo);
    EXPECT_EQ(a.query.vc->hi, b.query.vc->hi);
  }
  ASSERT_EQ(a.query.sc.has_value(), b.query.sc.has_value());
  if (a.query.sc.has_value()) {
    ASSERT_EQ(a.query.sc->ndims(), b.query.sc->ndims());
    for (int d = 0; d < a.query.sc->ndims(); ++d) {
      EXPECT_EQ(a.query.sc->lo(d), b.query.sc->lo(d));
      EXPECT_EQ(a.query.sc->hi(d), b.query.sc->hi(d));
    }
  }
  ASSERT_EQ(a.multivar.has_value(), b.multivar.has_value());
  if (a.multivar.has_value()) {
    ASSERT_EQ(a.multivar->preds.size(), b.multivar->preds.size());
    for (std::size_t i = 0; i < a.multivar->preds.size(); ++i) {
      EXPECT_EQ(a.multivar->preds[i].var, b.multivar->preds[i].var);
      EXPECT_EQ(a.multivar->preds[i].vc.lo, b.multivar->preds[i].vc.lo);
      EXPECT_EQ(a.multivar->preds[i].vc.hi, b.multivar->preds[i].vc.hi);
    }
    EXPECT_EQ(a.multivar->combine, b.multivar->combine);
    EXPECT_EQ(a.multivar->fetch_var, b.multivar->fetch_var);
  }
}

TEST(WireRequest, RoundTripAllVariants) {
  std::vector<Request> variants;
  variants.push_back(Request{});  // defaults only
  {
    Request r;
    r.var = "v";
    r.query.vc = ValueConstraint{0.5, 1.0};
    r.query.values_needed = false;
    variants.push_back(r);
  }
  {
    Request r;
    r.var = "with spaces and \xE2\x98\x83";
    Coord lo{}, hi{};
    hi[0] = 10;
    hi[1] = 20;
    hi[2] = 30;
    r.query.sc = Region(3, lo, hi);
    variants.push_back(r);
  }
  variants.push_back(full_request());

  for (const Request& req : variants) {
    auto back = decode_request(encode_request(req));
    ASSERT_TRUE(back.is_ok()) << back.status().to_string();
    expect_request_eq(req, back.value());
  }
}

TEST(WireRequest, RejectsEveryTruncation) {
  const Bytes p = encode_request(full_request());
  for (std::size_t len = 0; len < p.size(); ++len) {
    auto r = decode_request({p.data(), len});
    EXPECT_FALSE(r.is_ok()) << "length " << len;
  }
}

TEST(WireRequest, ByteFlipFuzzNeverCrashes) {
  // A flipped byte may still decode (e.g. inside a float), but it must
  // never abort, leak, or read out of bounds — ASan/UBSan enforce that.
  const Bytes clean = encode_request(full_request());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    for (std::uint8_t mask : {0x01, 0x80, 0xFF}) {
      Bytes bad = clean;
      bad[i] ^= mask;
      (void)decode_request(bad);
    }
  }
}

TEST(WireRequest, RejectsUnknownFlags) {
  Bytes p = encode_request(Request{});
  p[0] |= 0x80;
  auto r = decode_request(p);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kCorruptData);
}

TEST(WireRequest, RejectsTrailingBytes) {
  Bytes p = encode_request(Request{});
  p.push_back(0);
  EXPECT_FALSE(decode_request(p).is_ok());
}

TEST(WireRequest, RejectsInvalidRegionWithoutAborting) {
  // Region's constructor MLOC_CHECKs lo <= hi; the decoder must catch the
  // invalid payload before constructing one.
  Request req;
  req.var = "v";
  Coord lo{}, hi{};
  lo[0] = 0;
  hi[0] = 10;
  req.query.sc = Region(1, lo, hi);
  Bytes p = encode_request(req);
  // Payload layout: flags u8, var (varint len + bytes), plod i64,
  // deadline f64, ranks i64, then sc: ndims u8, lo u32, hi u32. Overwrite
  // hi with a value below lo.
  const std::size_t sc_off = 1 + 2 + 8 + 8 + 8;
  ASSERT_EQ(p.size(), sc_off + 1 + 4 + 4);
  p[sc_off] = 9;  // ndims out of range
  EXPECT_FALSE(decode_request(p).is_ok());
  p[sc_off] = 1;
  std::memset(p.data() + sc_off + 1, 0xFF, 4);  // lo = UINT32_MAX > hi
  // Re-encoding is not possible here (the payload CRC lives in the frame
  // header, not the payload), so decode_request sees the tampered bytes.
  auto r = decode_request(p);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kCorruptData);
}

TEST(WireAck, StatusRoundTrip) {
  for (const Status& st :
       {Status::ok(), not_found("no such thing"),
        deadline_exceeded("too slow"), cancelled("")}) {
    auto back = decode_status(encode_status(st));
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(back.value().carried.code(), st.code());
    EXPECT_EQ(back.value().carried.message(), st.message());
  }
}

TEST(WireAck, RejectsUnknownErrorCode) {
  Bytes p = encode_status(not_found("x"));
  p[0] = 0xFF;
  p[1] = 0xFF;
  EXPECT_FALSE(decode_status(p).is_ok());
}

TEST(WireSession, OpenAndOpenedRoundTrip) {
  for (const std::string& label : {std::string{}, std::string{"viz-client"},
                                   std::string(300, 'x')}) {
    auto back = decode_open_session(encode_open_session(label));
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(back.value(), label);
  }
  auto id = decode_session_opened(encode_session_opened(0x1122334455667788ull));
  ASSERT_TRUE(id.is_ok());
  EXPECT_EQ(id.value(), 0x1122334455667788ull);
}

TEST(WireCancel, RoundTripAndTruncation) {
  auto back = decode_cancel(encode_cancel(77));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), 77u);
  const Bytes p = encode_cancel(77);
  for (std::size_t len = 0; len < p.size(); ++len) {
    EXPECT_FALSE(decode_cancel({p.data(), len}).is_ok());
  }
}

TEST(WireShm, OfferRoundTripAndTruncation) {
  auto back = decode_shm_offer(encode_shm_offer(4ull << 20));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), 4ull << 20);
  const Bytes p = encode_shm_offer(1);
  for (std::size_t len = 0; len < p.size(); ++len) {
    EXPECT_FALSE(decode_shm_offer({p.data(), len}).is_ok());
  }
}

TEST(WireShm, AcceptRoundTripAndValidation) {
  ShmInfo info;
  info.name = "/mloc-1234-deadbeef";
  info.ring_bytes = 8ull << 20;
  info.token = 0xFEEDFACECAFED00Dull;
  info.data_offset = kShmControlBytes;
  auto back = decode_shm_accept(encode_shm_accept(info));
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(back.value().name, info.name);
  EXPECT_EQ(back.value().ring_bytes, info.ring_bytes);
  EXPECT_EQ(back.value().token, info.token);
  EXPECT_EQ(back.value().data_offset, info.data_offset);

  const Bytes p = encode_shm_accept(info);
  for (std::size_t len = 0; len < p.size(); ++len) {
    EXPECT_FALSE(decode_shm_accept({p.data(), len}).is_ok());
  }
  // A name without the leading '/' cannot come from a well-behaved peer.
  ShmInfo bad = info;
  bad.name = "no-slash";
  EXPECT_FALSE(decode_shm_accept(encode_shm_accept(bad)).is_ok());
}

TEST(WireShm, AttachRoundTripAndTruncation) {
  for (bool mapped : {true, false}) {
    auto back = decode_shm_attach(encode_shm_attach(mapped));
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(back.value(), mapped);
  }
  EXPECT_FALSE(decode_shm_attach({}).is_ok());
  const Bytes junk = {7};  // only 0/1 are valid mapped flags
  EXPECT_FALSE(decode_shm_attach(junk).is_ok());
}

TEST(WireShm, ResultDescriptorRoundTripAndTruncation) {
  ShmDescriptor d;
  d.offset = 0x123456789ull;
  d.len = 0xABCDEF0u;
  d.release = 0x9876543210ull;
  auto back = decode_shm_result(encode_shm_result(d));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().offset, d.offset);
  EXPECT_EQ(back.value().len, d.len);
  EXPECT_EQ(back.value().release, d.release);
  const Bytes p = encode_shm_result(d);
  for (std::size_t len = 0; len < p.size(); ++len) {
    EXPECT_FALSE(decode_shm_result({p.data(), len}).is_ok());
  }
}

/// Every field set, each to a distinct non-default value. The result's
/// CacheStats and ExecStats equal the service's copies: the wire carries
/// them once.
service::Response full_response() {
  service::Response resp;
  resp.status = Status::ok();
  resp.stats.query_id = 31;
  resp.stats.session = 5;
  resp.stats.queue_wait_s = 0.25;
  resp.stats.exec_wall_s = 1.5;
  resp.stats.via_shm = true;
  resp.stats.cache = {101, 102, 103, 104};
  resp.stats.exec = {201, 202, 203, 204, 205, 206, 207};
  resp.result.times.io = 0.125;
  resp.result.times.decompress = 0.5;
  resp.result.times.reconstruct = 0.0625;
  resp.result.bins_touched = 6;
  resp.result.aligned_bins = 2;
  resp.result.fragments_read = 12;
  resp.result.fragments_skipped = 3;
  resp.result.cache = resp.stats.cache;
  resp.result.exec = resp.stats.exec;
  for (std::uint64_t i = 0; i < 100; ++i) {
    resp.result.positions.push_back(i * 17);
    resp.result.values.push_back(static_cast<double>(i) * 0.5 - 10.0);
  }
  return resp;
}

Bytes assemble(const EncodedResponse& er) {
  Bytes frame = er.head;
  const auto* pos = reinterpret_cast<const std::uint8_t*>(er.positions.data());
  frame.insert(frame.end(), pos, pos + er.positions.size() * 8);
  const auto* val = reinterpret_cast<const std::uint8_t*>(er.values.data());
  frame.insert(frame.end(), val, val + er.values.size() * 8);
  return frame;
}

TEST(WireResponse, ScatterGatherRoundTrip) {
  const service::Response resp = full_response();
  const auto expect_positions = resp.result.positions;
  const auto expect_values = resp.result.values;
  EncodedResponse er = encode_response_frame(902, full_response());
  EXPECT_EQ(er.positions, expect_positions);
  EXPECT_EQ(er.values, expect_values);

  // Reassemble the three scatter-gather pieces into one frame and decode
  // it the way a client does: header, payload CRC across all pieces,
  // payload.
  const Bytes frame = assemble(er);
  EXPECT_EQ(frame.size(), er.total_bytes());
  auto h = decode_header(frame);
  ASSERT_TRUE(h.is_ok()) << h.status().to_string();
  EXPECT_EQ(h.value().type, FrameType::kQueryResult);
  EXPECT_EQ(h.value().request_id, 902u);
  std::span<const std::uint8_t> payload(frame.data() + kHeaderBytes,
                                        frame.size() - kHeaderBytes);
  ASSERT_TRUE(verify_payload(h.value(), payload).is_ok());

  auto back = decode_response(payload);
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  const service::Response& b = back.value();
  EXPECT_TRUE(b.status.is_ok());
  EXPECT_EQ(b.stats, resp.stats);
  EXPECT_EQ(b.result, resp.result);
}

TEST(WireResponse, ErrorResponseCarriesStatusWithEmptyArrays) {
  service::Response resp;
  resp.status = deadline_exceeded("expired in queue");
  EncodedResponse er = encode_response_frame(3, std::move(resp));
  EXPECT_TRUE(er.positions.empty());
  EXPECT_TRUE(er.values.empty());
  const Bytes frame = assemble(er);
  auto h = decode_header(frame);
  ASSERT_TRUE(h.is_ok());
  auto back = decode_response(
      {frame.data() + kHeaderBytes, frame.size() - kHeaderBytes});
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().status.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(back.value().status.message(), "expired in queue");
}

TEST(WireResponse, RejectsEveryTruncation) {
  const Bytes frame = assemble(encode_response_frame(1, full_response()));
  const std::size_t payload_size = frame.size() - kHeaderBytes;
  for (std::size_t len = 0; len < payload_size; ++len) {
    auto r = decode_response({frame.data() + kHeaderBytes, len});
    EXPECT_FALSE(r.is_ok()) << "length " << len;
  }
}

TEST(WireStats, RoundTripEveryField) {
  StatsSnapshot s;
  std::uint64_t n = 1;
  s.agg.submitted = n++;
  s.agg.completed = n++;
  s.agg.failed = n++;
  s.agg.rejected = n++;
  s.agg.expired = n++;
  s.agg.cancelled = n++;
  s.agg.queued = n++;
  s.agg.executing = n++;
  s.agg.cache = {n++, n++, n++, n++};
  s.agg.exec = {n++, n++, n++, n++, n++, n++, n++};
  s.agg.total_queue_wait_s = 1.5;
  s.agg.total_exec_wall_s = 2.5;
  s.agg.peak_queue_depth = n++;
  s.agg.sessions_opened = n++;
  s.agg.sessions_open = n++;
  s.agg.ingests = n++;
  s.agg.ingest_failures = n++;
  s.agg.ingest.cells_routed = n++;
  s.agg.ingest.fragments_encoded = n++;
  s.agg.ingest.bins_written = n++;
  s.agg.ingest.bytes_written = n++;
  s.agg.ingest.partition_s = 0.1;
  s.agg.ingest.encode_s = 0.2;
  s.agg.ingest.fold_s = 0.3;
  s.agg.ingest.flush_s = 0.4;
  s.agg.ingest.wall_s = 0.5;
  s.agg.ingest.threads = 777;
  s.agg.ingest.write_behind = true;
  s.cache = {n++, n++, n++, n++, n++, n++, n++, n++};

  auto back = decode_stats(encode_stats(s));
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(back.value().agg, s.agg);
  EXPECT_EQ(back.value().cache, s.cache);

  const Bytes p = encode_stats(s);
  for (std::size_t len = 0; len < p.size(); ++len) {
    EXPECT_FALSE(decode_stats({p.data(), len}).is_ok());
  }
}

TEST(WireSessionStats, RoundTrip) {
  service::SessionStats s;
  s.label = "viz";
  s.open = true;
  s.submitted = 4;
  s.completed = 3;
  s.failed = 1;
  s.rejected = 2;
  auto back = decode_session_stats(encode_session_stats(s));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), s);
}

TEST(WireVariableList, RoundTripMixedLayouts) {
  std::vector<MlocStore::VariableDesc> vars(2);
  vars[0].name = "temp";
  vars[0].layout.chunk_shape = NDShape{16, 16};
  vars[0].epoch = 3;
  vars[0].plod_capable = true;
  vars[0].num_groups = 7;
  vars[1].name = "salinity";
  vars[1].layout.chunk_shape = NDShape{8, 8};
  vars[1].layout.num_bins = 9;
  vars[1].layout.order = LevelOrder::kVSM;
  vars[1].layout.curve = sfc::CurveKind::kGeneralizedMorton;
  vars[1].layout.interleave = "yyyxxx";
  vars[1].layout.codec = "isobar";
  vars[1].epoch = 1;
  vars[1].plod_capable = false;
  vars[1].num_groups = 1;

  auto back = decode_variable_list(encode_variable_list(vars));
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  ASSERT_EQ(back.value().size(), 2u);
  for (std::size_t i = 0; i < vars.size(); ++i) {
    EXPECT_EQ(back.value()[i].name, vars[i].name);
    EXPECT_EQ(back.value()[i].layout, vars[i].layout);
    EXPECT_EQ(back.value()[i].epoch, vars[i].epoch);
    EXPECT_EQ(back.value()[i].plod_capable, vars[i].plod_capable);
    EXPECT_EQ(back.value()[i].num_groups, vars[i].num_groups);
  }

  // Truncations never decode.
  const Bytes full = encode_variable_list(vars);
  for (std::size_t n = 0; n < full.size(); ++n) {
    EXPECT_FALSE(
        decode_variable_list(std::span(full.data(), n)).is_ok());
  }
}

// ------------------------------------------------------------ frame reader

/// A frame of a type this protocol version does not define, with an
/// intact header and payload.
Bytes unknown_type_frame(std::uint64_t request_id) {
  const Bytes payload = {1, 2, 3};
  FrameHeader h;
  h.type = static_cast<FrameType>(907);
  h.request_id = request_id;
  h.payload_len = static_cast<std::uint32_t>(payload.size());
  h.payload_crc = crc32(payload);
  Bytes frame(kHeaderBytes);
  encode_header(h, frame.data());
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

void append(Bytes* out, std::span<const std::uint8_t> bytes) {
  out->insert(out->end(), bytes.begin(), bytes.end());
}

/// The five frames the reader tests use, back to back: a control reply, a
/// query result with both arrays, an shm descriptor, a type this version
/// does not define, and an empty payload. Request ids run 1..5.
Bytes five_frame_stream() {
  Bytes out;
  append(&out, encode_frame(FrameType::kAck, 1,
                            encode_status(not_found("no such query"))));
  Response resp;
  resp.result.positions = {3, 17, 400};
  resp.result.values = {0.5, -1.25, 9.0};
  const EncodedResponse er = encode_response_frame(2, std::move(resp));
  append(&out, er.head);
  append(&out, {reinterpret_cast<const std::uint8_t*>(er.positions.data()),
                er.positions.size() * sizeof(std::uint64_t)});
  append(&out, {reinterpret_cast<const std::uint8_t*>(er.values.data()),
                er.values.size() * sizeof(double)});
  append(&out, encode_frame(FrameType::kShmResult, 3,
                            encode_shm_result(ShmDescriptor{64, 100, 164})));
  append(&out, unknown_type_frame(4));
  append(&out, encode_frame(FrameType::kPong, 5, {}));
  return out;
}

struct TakenFrame {
  FrameType type;
  std::uint64_t request_id;
  Bytes payload;
  bool operator==(const TakenFrame&) const = default;
};

/// What a receiver takes from `stream` when its bytes arrive in pieces
/// ending at each of `cuts` (ascending) and then the rest: every frame,
/// and in *end the error that ended the stream, if one did.
std::vector<TakenFrame> take_all(const Bytes& stream,
                                 std::vector<std::size_t> cuts, Status* end,
                                 std::uint32_t max_payload = kMaxPayloadBytes) {
  cuts.push_back(stream.size());
  FrameReader reader;
  std::vector<TakenFrame> taken;
  *end = Status::ok();
  std::size_t fed = 0;
  for (const std::size_t cut : cuts) {
    while (fed < cut) {
      const std::span<std::uint8_t> space = reader.recv_space();
      EXPECT_GE(space.size(), FrameReader::kRecvBytes);
      const std::size_t n = std::min(space.size(), cut - fed);
      std::memcpy(space.data(), stream.data() + fed, n);
      reader.commit(n);
      fed += n;
    }
    for (;;) {
      auto frame = reader.next(max_payload);
      if (!frame.is_ok()) {
        *end = frame.status();
        // The error ends the stream: it repeats, and nothing follows it.
        EXPECT_EQ(reader.next(max_payload).status().code(), end->code());
        return taken;
      }
      if (!frame.value().has_value()) break;
      const FrameReader::Frame& f = *frame.value();
      taken.push_back({f.header.type, f.header.request_id,
                       Bytes(f.payload.begin(), f.payload.end())});
    }
  }
  return taken;
}

TEST(FrameReader, WholeOrSplitAtEveryByteYieldsTheSameFrames) {
  const Bytes stream = five_frame_stream();
  Status end;
  const std::vector<TakenFrame> whole = take_all(stream, {}, &end);
  ASSERT_TRUE(end.is_ok()) << end.to_string();
  ASSERT_EQ(whole.size(), 5u);
  const FrameType types[] = {FrameType::kAck, FrameType::kQueryResult,
                             FrameType::kShmResult, static_cast<FrameType>(907),
                             FrameType::kPong};
  for (std::size_t i = 0; i < whole.size(); ++i) {
    EXPECT_EQ(whole[i].type, types[i]) << "frame " << i;
    EXPECT_EQ(whole[i].request_id, i + 1);
  }
  auto ack = decode_status(whole[0].payload);
  ASSERT_TRUE(ack.is_ok());
  EXPECT_EQ(ack.value().carried.code(), ErrorCode::kNotFound);
  auto resp = decode_response(whole[1].payload);
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  EXPECT_EQ(resp.value().result.positions,
            (std::vector<std::uint64_t>{3, 17, 400}));
  EXPECT_EQ(resp.value().result.values,
            (std::vector<double>{0.5, -1.25, 9.0}));
  auto desc = decode_shm_result(whole[2].payload);
  ASSERT_TRUE(desc.is_ok());
  EXPECT_EQ(desc.value().len, 100u);
  EXPECT_FALSE(frame_type_known(static_cast<std::uint16_t>(whole[3].type)));
  EXPECT_EQ(whole[3].payload, (Bytes{1, 2, 3}));
  EXPECT_TRUE(whole[4].payload.empty());

  for (std::size_t cut = 1; cut < stream.size(); ++cut) {
    EXPECT_EQ(take_all(stream, {cut}, &end), whole) << "split at " << cut;
    EXPECT_TRUE(end.is_ok());
  }
  std::vector<std::size_t> every_byte(stream.size());
  for (std::size_t i = 0; i < every_byte.size(); ++i) every_byte[i] = i + 1;
  EXPECT_EQ(take_all(stream, every_byte, &end), whole);
  EXPECT_TRUE(end.is_ok());
}

TEST(FrameReader, EachBadFrameEndsTheStream) {
  // A good ping, the bad frame, and a good ping that must never be taken.
  const Bytes good = encode_frame(FrameType::kPing, 1, {});
  const Bytes open = encode_frame(FrameType::kOpenSession, 2,
                                  encode_open_session("reader"));
  Bytes other_version(kHeaderBytes);
  FrameHeader h;
  h.version = kProtocolVersion + 1;
  h.request_id = 2;
  encode_header(h, other_version.data());
  struct Case {
    const char* name;
    Bytes bad;
    ErrorCode code;
    std::uint32_t max_payload;
  };
  std::vector<Case> cases;
  cases.push_back({"bad magic", open, ErrorCode::kCorruptData,
                   kMaxPayloadBytes});
  cases.back().bad[0] ^= 0x01;
  cases.push_back({"bad header CRC", open, ErrorCode::kCorruptData,
                   kMaxPayloadBytes});
  cases.back().bad[25] ^= 0x01;
  cases.push_back({"another version", other_version, ErrorCode::kUnsupported,
                   kMaxPayloadBytes});
  cases.push_back({"bad payload CRC", open, ErrorCode::kCorruptData,
                   kMaxPayloadBytes});
  cases.back().bad.back() ^= 0x01;
  cases.push_back({"payload over the cap", open, ErrorCode::kCorruptData,
                   static_cast<std::uint32_t>(open.size() - kHeaderBytes - 1)});
  for (const Case& c : cases) {
    Bytes stream = good;
    append(&stream, c.bad);
    append(&stream, encode_frame(FrameType::kPing, 3, {}));
    for (std::size_t cut : {std::size_t{0}, good.size() + 3}) {
      Status end;
      std::vector<std::size_t> cuts;
      if (cut != 0) cuts.push_back(cut);
      const auto taken = take_all(stream, cuts, &end, c.max_payload);
      ASSERT_EQ(taken.size(), 1u) << c.name;
      EXPECT_EQ(taken[0].request_id, 1u) << c.name;
      EXPECT_EQ(end.code(), c.code) << c.name << ": " << end.to_string();
    }
  }
}

TEST(FrameReader, LargeAnnouncedPayloadGrowsOnlyWithArrivingBytes) {
  // A header that announces a payload just under a 64 MiB cap reserves
  // nothing: the buffer doubles only as payload bytes arrive.
  constexpr std::uint32_t kCap = 64u << 20;
  FrameHeader h;
  h.type = FrameType::kQueryResult;
  h.payload_len = kCap - 1;
  Bytes head(kHeaderBytes);
  encode_header(h, head.data());

  FrameReader reader;
  std::span<std::uint8_t> space = reader.recv_space();
  std::memcpy(space.data(), head.data(), head.size());
  reader.commit(head.size());
  auto frame = reader.next(kCap);
  ASSERT_TRUE(frame.is_ok());
  EXPECT_FALSE(frame.value().has_value());
  EXPECT_EQ(reader.capacity_bytes(), FrameReader::kRecvBytes);

  std::size_t fed = head.size();
  const Bytes chunk(16 * 1024, 0xAB);
  while (fed < (std::size_t{1} << 20)) {
    space = reader.recv_space();
    std::memcpy(space.data(), chunk.data(), chunk.size());
    reader.commit(chunk.size());
    fed += chunk.size();
    frame = reader.next(kCap);
    ASSERT_TRUE(frame.is_ok());
    EXPECT_FALSE(frame.value().has_value());
    EXPECT_LE(reader.capacity_bytes(), 2 * (fed + FrameReader::kRecvBytes))
        << "after " << fed << " bytes";
  }
}

// --------------------------------------------------------- server fixture

MlocConfig small_config(const NDShape& shape, const NDShape& chunk) {
  MlocConfig cfg;
  cfg.shape = shape;
  cfg.layout.chunk_shape = chunk;
  cfg.layout.num_bins = 16;
  cfg.layout.codec = "mzip";
  cfg.layout.sample_stride = 7;
  return cfg;
}

Result<MlocStore> make_store(pfs::PfsStorage* fs) {
  Grid grid = datagen::gts_like(64, 42);
  auto store = MlocStore::create(
      fs, "net", small_config(grid.shape(), NDShape{16, 16}));
  if (!store.is_ok()) return store;
  MLOC_RETURN_IF_ERROR(store.value().write_variable("phi", grid));
  Grid rho = datagen::gts_like(64, 1234);
  MLOC_RETURN_IF_ERROR(store.value().write_variable("rho", rho));
  return store;
}

Request vc_request(double lo, double hi, bool values = true) {
  Request req;
  req.var = "phi";
  req.query.vc = ValueConstraint{lo, hi};
  req.query.values_needed = values;
  return req;
}

struct ServedStore {
  pfs::PfsStorage fs;
  std::unique_ptr<QueryService> svc;
  std::unique_ptr<Server> server;

  explicit ServedStore(ServiceConfig cfg = {}, ServerConfig srv_cfg = {}) {
    auto store = make_store(&fs);
    MLOC_CHECK(store.is_ok());
    svc = std::make_unique<QueryService>(std::move(store).value(), cfg);
    server = std::make_unique<Server>(*svc, srv_cfg);
    MLOC_CHECK(server->start().is_ok());
  }

  // Client is deliberately non-movable, so connect one in place.
  void connect(net::Client* c) const {
    MLOC_CHECK(c->connect("127.0.0.1", server->port()).is_ok());
  }
};

TEST(NetServer, ServedResultsMatchInProcessExecution) {
  // Cold expected results, computed before the store moves into the
  // service (same pattern as the service hammer test).
  pfs::PfsStorage expected_fs;
  auto expected_store = make_store(&expected_fs);
  ASSERT_TRUE(expected_store.is_ok());
  const Request vc = vc_request(0.25, 0.75);
  auto expect_vc = expected_store.value().execute("phi", vc.query, 1);
  ASSERT_TRUE(expect_vc.is_ok());

  Request mv;
  mv.var = "phi";
  service::MultivarSpec spec;
  spec.preds.push_back({"phi", ValueConstraint{0.2, 0.8}});
  spec.preds.push_back({"rho", ValueConstraint{0.3, 0.9}});
  spec.combine = MlocStore::Combine::kAnd;
  spec.fetch_var = "phi";
  mv.multivar = spec;
  auto expect_mv = expected_store.value().multivar_select(
      spec.preds, spec.combine, spec.fetch_var, 7, 1);
  ASSERT_TRUE(expect_mv.is_ok());

  ServedStore served;
  net::Client c;
  served.connect(&c);
  ASSERT_TRUE(c.open_session("match-test").is_ok());

  auto got_vc = c.query(vc);
  ASSERT_TRUE(got_vc.is_ok()) << got_vc.status().to_string();
  ASSERT_TRUE(got_vc.value().status.is_ok())
      << got_vc.value().status.to_string();
  EXPECT_EQ(got_vc.value().result.positions, expect_vc.value().positions);
  EXPECT_EQ(got_vc.value().result.values, expect_vc.value().values);

  auto got_mv = c.query(mv);
  ASSERT_TRUE(got_mv.is_ok()) << got_mv.status().to_string();
  ASSERT_TRUE(got_mv.value().status.is_ok())
      << got_mv.value().status.to_string();
  EXPECT_EQ(got_mv.value().result.positions, expect_mv.value().positions);
  EXPECT_EQ(got_mv.value().result.values, expect_mv.value().values);
}

TEST(NetServer, PipelinedQueriesCollectOutOfOrder) {
  ServedStore served;
  net::Client c;
  served.connect(&c);
  ASSERT_TRUE(c.open_session().is_ok());

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    auto id = c.send_query(
        vc_request(0.1 * i, 0.1 * i + 0.2, /*values=*/i % 2 == 0));
    ASSERT_TRUE(id.is_ok());
    ids.push_back(id.value());
  }
  // Collect newest-first: responses arrive in completion order, the
  // client stashes whatever lands before the id it wants.
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
    auto resp = c.wait(*it);
    ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
    EXPECT_TRUE(resp.value().status.is_ok());
  }
}

TEST(NetServer, SessionLifecycleOverWire) {
  ServedStore served;
  net::Client c;
  served.connect(&c);
  EXPECT_TRUE(c.ping().is_ok());

  // Query without a session: a clean error response, connection usable.
  auto no_session = c.query(vc_request(0.0, 1.0));
  ASSERT_TRUE(no_session.is_ok());
  EXPECT_EQ(no_session.value().status.code(), ErrorCode::kFailedPrecondition);

  auto sid = c.open_session("lifecycle");
  ASSERT_TRUE(sid.is_ok());
  EXPECT_NE(sid.value(), 0u);
  // Second open on the same connection is refused.
  EXPECT_EQ(c.open_session("again").status().code(),
            ErrorCode::kFailedPrecondition);

  auto resp = c.query(vc_request(0.4, 0.6));
  ASSERT_TRUE(resp.is_ok());
  EXPECT_TRUE(resp.value().status.is_ok());
  EXPECT_EQ(resp.value().stats.session, sid.value());

  auto stats = c.session_stats();
  ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
  EXPECT_EQ(stats.value().label, "lifecycle");
  EXPECT_TRUE(stats.value().open);
  EXPECT_EQ(stats.value().submitted, 1u);
  EXPECT_EQ(stats.value().completed, 1u);

  EXPECT_TRUE(c.close_session().is_ok());
  EXPECT_EQ(c.close_session().code(), ErrorCode::kFailedPrecondition);
  EXPECT_TRUE(c.ping().is_ok());
}

TEST(NetServer, StatsSnapshotOverWireIsConsistent) {
  ServedStore served;
  net::Client c;
  served.connect(&c);
  ASSERT_TRUE(c.open_session().is_ok());
  for (int i = 0; i < 3; ++i) {
    auto resp = c.query(vc_request(0.3, 0.7));
    ASSERT_TRUE(resp.is_ok());
    EXPECT_TRUE(resp.value().status.is_ok());
  }
  auto snap = c.stats();
  ASSERT_TRUE(snap.is_ok()) << snap.status().to_string();
  const service::AggregateStats& a = snap.value().agg;
  EXPECT_EQ(a.submitted, a.completed + a.failed + a.expired + a.cancelled +
                             a.queued + a.executing);
  EXPECT_EQ(a.submitted, 3u);
  EXPECT_EQ(a.completed, 3u);
  EXPECT_GT(snap.value().cache.lookups, 0u);
}

TEST(NetServer, VariableListOverWireMatchesDescribeAll) {
  ServedStore served;
  net::Client c;
  served.connect(&c);
  auto vars = c.list_variables();
  ASSERT_TRUE(vars.is_ok()) << vars.status().to_string();

  const auto local = served.svc->store().describe_all();
  ASSERT_EQ(vars.value().size(), local.size());
  for (std::size_t i = 0; i < local.size(); ++i) {
    EXPECT_EQ(vars.value()[i].name, local[i].name);
    EXPECT_EQ(vars.value()[i].layout, local[i].layout);
    EXPECT_EQ(vars.value()[i].epoch, local[i].epoch);
    EXPECT_EQ(vars.value()[i].plod_capable, local[i].plod_capable);
    EXPECT_EQ(vars.value()[i].num_groups, local[i].num_groups);
  }
}

TEST(NetServer, CancelQueuedQueryAndCancelCompletedQuery) {
  ServiceConfig cfg;
  cfg.num_workers = 1;
  cfg.start_paused = true;
  ServedStore served(cfg);
  net::Client c;
  served.connect(&c);
  ASSERT_TRUE(c.open_session().is_ok());

  // Queued (service paused): cancel succeeds; the Cancelled response is
  // produced at dispatch time, so it arrives once dispatch resumes.
  auto id = c.send_query(vc_request(0.0, 1.0));
  ASSERT_TRUE(id.is_ok());
  EXPECT_TRUE(c.cancel(id.value()).is_ok());
  served.svc->resume();
  auto resp = c.wait(id.value());
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  EXPECT_EQ(resp.value().status.code(), ErrorCode::kCancelled);

  // Completed: the request id is no longer in flight, so the server
  // answers NotFound without touching the service.
  auto done = c.query(vc_request(0.2, 0.4));
  ASSERT_TRUE(done.is_ok());
  ASSERT_TRUE(done.value().status.is_ok());
  EXPECT_EQ(c.cancel(2).code(), ErrorCode::kNotFound);
  // Unknown id: same NotFound, connection still fine.
  EXPECT_EQ(c.cancel(999999).code(), ErrorCode::kNotFound);
  EXPECT_TRUE(c.ping().is_ok());
}

TEST(NetServer, DeadlineExpiryDeliveredToSlowReader) {
  ServiceConfig cfg;
  cfg.num_workers = 1;
  cfg.start_paused = true;
  ServedStore served(cfg);
  net::Client c;
  served.connect(&c);
  ASSERT_TRUE(c.open_session().is_ok());

  Request req = vc_request(0.0, 1.0);
  req.deadline_s = 0.02;
  auto id = c.send_query(req);
  ASSERT_TRUE(id.is_ok());
  // The deadline expires while the query is queued; the client is not
  // reading yet (slow connection) so the response sits in the outbox
  // until we collect it.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  served.svc->resume();
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  auto resp = c.wait(id.value());
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  EXPECT_EQ(resp.value().status.code(), ErrorCode::kDeadlineExceeded);
}

TEST(NetServer, SessionCloseWithInFlightQueries) {
  ServiceConfig cfg;
  cfg.num_workers = 1;
  cfg.start_paused = true;
  ServedStore served(cfg);
  net::Client c;
  served.connect(&c);
  ASSERT_TRUE(c.open_session().is_ok());

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 3; ++i) {
    auto id = c.send_query(vc_request(0.1, 0.9));
    ASSERT_TRUE(id.is_ok());
    ids.push_back(id.value());
  }
  // Close the session while all three are queued: the close succeeds and
  // the in-flight queries still resolve normally.
  EXPECT_TRUE(c.close_session().is_ok());
  served.svc->resume();
  for (std::uint64_t id : ids) {
    auto resp = c.wait(id);
    ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
    EXPECT_TRUE(resp.value().status.is_ok())
        << resp.value().status.to_string();
  }
  // New queries on the closed session are rejected by the service.
  auto rejected = c.query(vc_request(0.1, 0.9));
  ASSERT_TRUE(rejected.is_ok());
  EXPECT_EQ(rejected.value().status.code(), ErrorCode::kFailedPrecondition);
}

// -------------------------------------------------- raw-socket edge cases

int raw_connect(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  MLOC_CHECK(fd >= 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  MLOC_CHECK(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                       sizeof addr) == 0);
  return fd;
}

void raw_send(int fd, std::span<const std::uint8_t> bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    MLOC_CHECK(n > 0);
    off += static_cast<std::size_t>(n);
  }
}

/// Read one whole frame (header + payload); returns false on EOF.
bool raw_read_frame(int fd, FrameHeader* h, Bytes* payload) {
  Bytes head(kHeaderBytes);
  std::size_t off = 0;
  while (off < head.size()) {
    ssize_t n = ::recv(fd, head.data() + off, head.size() - off, 0);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  auto decoded = decode_header(head);
  MLOC_CHECK(decoded.is_ok());
  *h = decoded.value();
  payload->resize(h->payload_len);
  off = 0;
  while (off < payload->size()) {
    ssize_t n = ::recv(fd, payload->data() + off, payload->size() - off, 0);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

TEST(NetClient, UnknownReplyTypeFailsOnlyTheCallItAnswers) {
  // A scripted peer answers a ping and a query with a type this version
  // does not define, then a second ping with a Pong.
  const int lfd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::listen(lfd, 1), 0);
  socklen_t alen = sizeof addr;
  ::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen);

  std::thread peer([lfd] {
    const int fd = ::accept(lfd, nullptr, nullptr);
    MLOC_CHECK(fd >= 0);
    FrameHeader h;
    Bytes payload;
    for (int i = 0; i < 2 && raw_read_frame(fd, &h, &payload); ++i) {
      raw_send(fd, unknown_type_frame(h.request_id));
    }
    if (raw_read_frame(fd, &h, &payload)) {
      raw_send(fd, encode_frame(FrameType::kPong, h.request_id, {}));
    }
    ::close(fd);
  });

  net::Client c;
  ASSERT_TRUE(c.connect("127.0.0.1", ntohs(addr.sin_port)).is_ok());
  EXPECT_EQ(c.ping().code(), ErrorCode::kUnsupported);
  EXPECT_TRUE(c.connected());
  auto resp = c.query(vc_request(0.0, 1.0));
  ASSERT_FALSE(resp.is_ok());
  EXPECT_EQ(resp.status().code(), ErrorCode::kUnsupported);
  EXPECT_TRUE(c.ping().is_ok());
  c.close();
  peer.join();
  ::close(lfd);
}

TEST(NetServer, UnknownFrameTypeIsSkippedNotFatal) {
  ServedStore served;
  const int fd = raw_connect(served.server->port());

  // Same version, unknown type: the server must answer Unsupported and
  // keep the connection parseable (versioning rule in wire.hpp).
  raw_send(fd, unknown_type_frame(5));

  FrameHeader reply;
  Bytes reply_payload;
  ASSERT_TRUE(raw_read_frame(fd, &reply, &reply_payload));
  EXPECT_EQ(reply.type, FrameType::kAck);
  EXPECT_EQ(reply.request_id, 5u);
  auto ack = decode_status(reply_payload);
  ASSERT_TRUE(ack.is_ok());
  EXPECT_EQ(ack.value().carried.code(), ErrorCode::kUnsupported);

  // Connection still usable afterwards.
  raw_send(fd, encode_frame(FrameType::kPing, 6, {}));
  ASSERT_TRUE(raw_read_frame(fd, &reply, &reply_payload));
  EXPECT_EQ(reply.type, FrameType::kPong);
  EXPECT_EQ(reply.request_id, 6u);
  ::close(fd);
}

TEST(NetServer, CorruptStreamClosesConnection) {
  ServedStore served;
  for (int variant = 0; variant < 3; ++variant) {
    const int fd = raw_connect(served.server->port());
    Bytes bad;
    if (variant == 0) {  // garbage magic
      bad.assign(kHeaderBytes, 0x5A);
    } else if (variant == 1) {  // wrong protocol version
      FrameHeader h;
      h.version = kProtocolVersion + 7;
      bad.resize(kHeaderBytes);
      encode_header(h, bad.data());
    } else {  // valid header, corrupt payload CRC
      bad = encode_frame(FrameType::kPing, 1, {});
      Bytes payload = {9, 9};
      bad = encode_frame(FrameType::kOpenSession, 1, payload);
      bad[bad.size() - 1] ^= 0xFF;
    }
    raw_send(fd, bad);
    FrameHeader reply;
    Bytes reply_payload;
    EXPECT_FALSE(raw_read_frame(fd, &reply, &reply_payload))
        << "variant " << variant;
    ::close(fd);
  }
  // Give the stats a moment to settle, then check the teardown counted.
  for (int i = 0; i < 100 && served.server->stats().protocol_errors < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(served.server->stats().protocol_errors, 3u);
}

TEST(NetServer, ConnectionDropWithInFlightQueriesClosesSession) {
  ServiceConfig cfg;
  cfg.num_workers = 1;
  cfg.start_paused = true;
  ServedStore served(cfg);
  {
    net::Client c;
    served.connect(&c);
    ASSERT_TRUE(c.open_session("dropped").is_ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(c.send_query(vc_request(0.1, 0.9)).is_ok());
    }
    // Client destructor closes the socket with three queries in flight.
  }
  // The server notices the EOF, closes the session, and drops the three
  // responses when they resolve.
  for (int i = 0; i < 200 && served.svc->aggregate().sessions_open != 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(served.svc->aggregate().sessions_open, 0u);
  served.svc->resume();
  for (int i = 0; i < 200 && served.server->stats().responses_dropped < 3;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(served.server->stats().responses_dropped, 3u);
  const service::AggregateStats agg = served.svc->aggregate();
  EXPECT_EQ(agg.submitted, agg.completed + agg.failed + agg.expired +
                               agg.cancelled + agg.queued + agg.executing);
}

TEST(NetServer, ResetMidBurstClosesOnlyThatConnection) {
  // Connection A pipelines a burst of whole-grid answers, more than the
  // socket buffers hold behind its small receive window, reads one, and
  // resets (SO_LINGER 0) while workers are still writing the rest. The
  // loop closes A and its session; B, on the same server, gets every
  // answer.
  pfs::PfsStorage expected_fs;
  auto expected_store = make_store(&expected_fs);
  ASSERT_TRUE(expected_store.is_ok());
  const Request probe = vc_request(-1e9, 1e9);
  auto expected = expected_store.value().execute("phi", probe.query, 1);
  ASSERT_TRUE(expected.is_ok());

  ServiceConfig cfg;
  cfg.num_workers = 2;
  cfg.start_paused = true;
  ServedStore served(cfg);

  constexpr int kBurst = 128;
  constexpr int kOther = 8;
  const int a = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(a, 0);
  const int rcvbuf = 4096;
  ::setsockopt(a, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(served.server->port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(a, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  raw_send(a, encode_frame(FrameType::kOpenSession, 1,
                           encode_open_session("reset")));
  FrameHeader h;
  Bytes payload;
  ASSERT_TRUE(raw_read_frame(a, &h, &payload));
  ASSERT_EQ(h.type, FrameType::kSessionOpened);
  for (int i = 0; i < kBurst; ++i) {
    raw_send(a, encode_frame(FrameType::kQuery, 100 + i,
                             encode_request(probe)));
  }

  net::Client b;
  served.connect(&b);
  ASSERT_TRUE(b.open_session("steady").is_ok());
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < kOther; ++i) {
    auto id = b.send_query(probe);
    ASSERT_TRUE(id.is_ok());
    ids.push_back(id.value());
  }
  for (int i = 0; i < 400 && served.svc->aggregate().queued <
                                 static_cast<std::uint64_t>(kBurst + kOther);
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(served.svc->aggregate().queued,
            static_cast<std::uint64_t>(kBurst + kOther));
  served.svc->resume();

  // Take one answer, let a few more queue, then reset mid-burst.
  ASSERT_TRUE(raw_read_frame(a, &h, &payload));
  EXPECT_EQ(h.type, FrameType::kQueryResult);
  for (int i = 0; i < 400 && served.server->stats().responses_tcp < 8; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const linger reset{1, 0};
  ::setsockopt(a, SOL_SOCKET, SO_LINGER, &reset, sizeof reset);
  ::close(a);

  for (std::uint64_t id : ids) {
    auto resp = b.wait(id);
    ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
    ASSERT_TRUE(resp.value().status.is_ok());
    EXPECT_EQ(resp.value().result.positions, expected.value().positions);
    EXPECT_EQ(resp.value().result.values, expected.value().values);
  }
  EXPECT_TRUE(b.ping().is_ok());

  auto settled = [&] {
    const service::AggregateStats agg = served.svc->aggregate();
    const ServerStats st = served.server->stats();
    return agg.sessions_open == 1 && st.connections_closed == 1 &&
           agg.queued == 0 && agg.executing == 0 &&
           st.responses_tcp + st.responses_dropped ==
               static_cast<std::uint64_t>(kBurst + kOther);
  };
  for (int i = 0; i < 400 && !settled(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const service::AggregateStats agg = served.svc->aggregate();
  const ServerStats st = served.server->stats();
  EXPECT_EQ(agg.sessions_open, 1u);  // B's
  EXPECT_EQ(st.connections_closed, 1u);
  EXPECT_EQ(st.protocol_errors, 0u);
  EXPECT_EQ(st.responses_tcp + st.responses_dropped,
            static_cast<std::uint64_t>(kBurst + kOther));
  EXPECT_EQ(agg.completed, static_cast<std::uint64_t>(kBurst + kOther));
}

// ------------------------------------------------------- shutdown / hammer

TEST(NetServer, GracefulShutdownDrainsInFlight) {
  ServiceConfig cfg;
  cfg.num_workers = 2;
  ServedStore served(cfg);
  net::Client c;
  served.connect(&c);
  ASSERT_TRUE(c.open_session().is_ok());

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 16; ++i) {
    auto id = c.send_query(vc_request(0.05 * i, 0.05 * i + 0.3));
    ASSERT_TRUE(id.is_ok());
    ids.push_back(id.value());
  }
  // Frames on one connection are handled in order, so a pong proves every
  // query above was admitted before the drain begins.
  ASSERT_TRUE(c.ping().is_ok());
  std::thread stopper([&] { served.server->shutdown(5.0); });
  // Every submitted query must produce a wire response before the server
  // tears the connection down.
  for (std::uint64_t id : ids) {
    auto resp = c.wait(id);
    ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
    EXPECT_TRUE(resp.value().status.is_ok());
  }
  stopper.join();
  EXPECT_EQ(served.server->stats().responses_dropped, 0u);
  // New connections are refused after shutdown.
  net::Client late;
  Status st = late.connect("127.0.0.1", served.server->port());
  if (st.is_ok()) {
    EXPECT_FALSE(late.ping().is_ok());
  }
}

TEST(NetServer, HammerManyClientsManyInFlight) {
  // The TSan workhorse: several client threads, each with its own
  // connection, pipelining batches and checking every response against
  // the cold baseline.
  pfs::PfsStorage expected_fs;
  auto expected_store = make_store(&expected_fs);
  ASSERT_TRUE(expected_store.is_ok());
  const Request probe = vc_request(0.25, 0.75);
  auto expected = expected_store.value().execute("phi", probe.query, 1);
  ASSERT_TRUE(expected.is_ok());

  ServiceConfig cfg;
  cfg.num_workers = 4;
  ServerConfig srv_cfg;
  srv_cfg.num_loops = 2;
  ServedStore served(cfg, srv_cfg);

  constexpr int kThreads = 4;
  constexpr int kBatches = 3;
  constexpr int kPipelined = 8;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      net::Client c;
      if (!c.connect("127.0.0.1", served.server->port()).is_ok() ||
          !c.open_session("hammer").is_ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int b = 0; b < kBatches; ++b) {
        std::vector<std::uint64_t> ids;
        for (int i = 0; i < kPipelined; ++i) {
          auto id = c.send_query(probe);
          if (!id.is_ok()) {
            failures.fetch_add(1);
            return;
          }
          ids.push_back(id.value());
        }
        for (std::uint64_t id : ids) {
          auto resp = c.wait(id);
          if (!resp.is_ok() || !resp.value().status.is_ok()) {
            failures.fetch_add(1);
            return;
          }
          if (resp.value().result.positions != expected.value().positions ||
              resp.value().result.values != expected.value().values) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  const service::AggregateStats agg = served.svc->aggregate();
  EXPECT_EQ(agg.completed,
            static_cast<std::uint64_t>(kThreads * kBatches * kPipelined));
  EXPECT_EQ(agg.submitted, agg.completed + agg.failed + agg.expired +
                               agg.cancelled + agg.queued + agg.executing);
}

TEST(NetServer, ShutdownUnderLoadNeverHangsOrCrashes) {
  ServiceConfig cfg;
  cfg.num_workers = 2;
  ServedStore served(cfg);

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      while (!stop.load()) {
        net::Client c;
        if (!c.connect("127.0.0.1", served.server->port()).is_ok()) return;
        if (!c.open_session("load").is_ok()) return;
        std::vector<std::uint64_t> ids;
        for (int i = 0; i < 4; ++i) {
          auto id = c.send_query(vc_request(0.2, 0.8));
          if (!id.is_ok()) return;
          ids.push_back(id.value());
        }
        for (std::uint64_t id : ids) {
          // Transport errors are expected once shutdown begins; response
          // payloads must still decode when they do arrive.
          auto resp = c.wait(id);
          if (!resp.is_ok()) return;
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  served.server->shutdown(2.0);
  stop.store(true);
  for (auto& th : threads) th.join();

  // Shutdown left nothing in flight and the service ledger balances.
  const service::AggregateStats agg = served.svc->aggregate();
  EXPECT_EQ(agg.queued, 0u);
  EXPECT_EQ(agg.executing, 0u);
  EXPECT_EQ(agg.submitted, agg.completed + agg.failed + agg.expired +
                               agg.cancelled);
}

}  // namespace
}  // namespace mloc
