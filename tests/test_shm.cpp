// Shared-memory transport tests: the ring segment itself (cursor
// protocol, wraparound, exhaustion, validation against corrupt or
// mismatched segments), the kShmOffer/kShmAccept/kShmAttach negotiation
// with every fallback path degrading cleanly to TCP, crash reclamation
// (no leaked /dev/shm entries), byte identity of shm-served responses
// against in-process execution, and a multi-client pipelining hammer
// (the TSan workhorse for the ring's produced/consumed protocol).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "datagen/datagen.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/shm.hpp"
#include "net/wire.hpp"
#include "service/query_service.hpp"
#include "util/assert.hpp"

namespace mloc {
namespace {

using namespace mloc::net;
using service::QueryService;
using service::Request;
using service::ServiceConfig;

// ------------------------------------------------------------- ring unit

Bytes pattern_bytes(std::size_t n, std::uint8_t seed) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>(seed + i * 7);
  }
  return b;
}

TEST(ShmRing, CreateOpenPublishViewRoundTrip) {
  auto seg = ShmServerSegment::create(kShmMinRingBytes);
  ASSERT_TRUE(seg.is_ok()) << seg.status().to_string();
  auto cli = ShmClientSegment::open(seg.value()->info());
  ASSERT_TRUE(cli.is_ok()) << cli.status().to_string();

  const Bytes payload = pattern_bytes(1000, 3);
  auto slot = seg.value()->try_alloc(payload.size());
  ASSERT_TRUE(slot.has_value());
  std::memcpy(slot->data, payload.data(), payload.size());
  seg.value()->publish(*slot);

  auto view = cli.value()->view(slot->offset,
                                static_cast<std::uint32_t>(payload.size()),
                                slot->release);
  ASSERT_TRUE(view.is_ok()) << view.status().to_string();
  ASSERT_EQ(view.value().size(), payload.size());
  EXPECT_EQ(std::memcmp(view.value().data(), payload.data(), payload.size()),
            0);
  cli.value()->release(slot->release);
}

TEST(ShmRing, WraparoundNeverSplitsAPayload) {
  // 1000-byte payloads in a 4096-byte ring: the allocator must skip the
  // tail rather than split, and the skip is accounted in the cursors so
  // producer and consumer agree across dozens of wraps.
  auto seg = ShmServerSegment::create(kShmMinRingBytes);
  ASSERT_TRUE(seg.is_ok());
  auto cli = ShmClientSegment::open(seg.value()->info());
  ASSERT_TRUE(cli.is_ok());

  for (int i = 0; i < 64; ++i) {
    const Bytes payload =
        pattern_bytes(1000, static_cast<std::uint8_t>(i * 13 + 1));
    auto slot = seg.value()->try_alloc(payload.size());
    ASSERT_TRUE(slot.has_value()) << "iteration " << i;
    // The payload must be contiguous inside the data area.
    ASSERT_LE(slot->offset + payload.size(), kShmMinRingBytes);
    std::memcpy(slot->data, payload.data(), payload.size());
    seg.value()->publish(*slot);

    auto view = cli.value()->view(
        slot->offset, static_cast<std::uint32_t>(payload.size()),
        slot->release);
    ASSERT_TRUE(view.is_ok()) << "iteration " << i << ": "
                              << view.status().to_string();
    EXPECT_EQ(
        std::memcmp(view.value().data(), payload.data(), payload.size()), 0)
        << "iteration " << i;
    cli.value()->release(slot->release);
  }
}

TEST(ShmRing, FullRingRefusesUntilConsumerReleases) {
  auto seg = ShmServerSegment::create(kShmMinRingBytes);
  ASSERT_TRUE(seg.is_ok());
  auto cli = ShmClientSegment::open(seg.value()->info());
  ASSERT_TRUE(cli.is_ok());

  std::vector<ShmSlot> slots;
  for (int i = 0; i < 3; ++i) {
    auto slot = seg.value()->try_alloc(1200);
    ASSERT_TRUE(slot.has_value()) << "slot " << i;
    seg.value()->publish(*slot);
    slots.push_back(*slot);
  }
  // 3 x 1200 = 3600 live plus the 496-byte tail skip: no room left.
  EXPECT_FALSE(seg.value()->try_alloc(1200).has_value());

  // Releasing the oldest slot makes exactly that much room again.
  cli.value()->release(slots[0].release);
  auto freed = seg.value()->try_alloc(1200);
  ASSERT_TRUE(freed.has_value());
  EXPECT_EQ(freed->offset, 0u);  // wrapped into the reclaimed space
}

TEST(ShmRing, OversizePayloadNeverFits) {
  auto seg = ShmServerSegment::create(kShmMinRingBytes);
  ASSERT_TRUE(seg.is_ok());
  EXPECT_FALSE(seg.value()->try_alloc(kShmMinRingBytes + 1).has_value());
}

TEST(ShmRing, OpenRejectsMissingOrMismatchedSegments) {
  // Nonexistent name.
  {
    ShmInfo info;
    info.name = "/mloc-test-definitely-missing";
    info.ring_bytes = kShmMinRingBytes;
    info.data_offset = kShmControlBytes;
    info.token = 1;
    EXPECT_FALSE(ShmClientSegment::open(info).is_ok());
  }
  auto seg = ShmServerSegment::create(kShmMinRingBytes);
  ASSERT_TRUE(seg.is_ok());
  // Token mismatch: a stale or spoofed accept frame must not attach.
  {
    ShmInfo info = seg.value()->info();
    info.token ^= 1;
    auto r = ShmClientSegment::open(info);
    ASSERT_FALSE(r.is_ok());
    EXPECT_EQ(r.status().code(), ErrorCode::kCorruptData);
  }
  // Geometry mismatch against the mapped control block.
  {
    ShmInfo info = seg.value()->info();
    info.ring_bytes *= 2;
    EXPECT_FALSE(ShmClientSegment::open(info).is_ok());
  }
}

TEST(ShmRing, ViewRejectsCorruptDescriptors) {
  auto seg = ShmServerSegment::create(kShmMinRingBytes);
  ASSERT_TRUE(seg.is_ok());
  auto cli = ShmClientSegment::open(seg.value()->info());
  ASSERT_TRUE(cli.is_ok());

  auto slot = seg.value()->try_alloc(100);
  ASSERT_TRUE(slot.has_value());
  seg.value()->publish(*slot);

  // Structurally inconsistent descriptors (offset/len/release disagree).
  EXPECT_FALSE(cli.value()->view(slot->offset, 100, slot->release + 100)
                   .is_ok());
  EXPECT_FALSE(cli.value()->view(slot->offset, 50, slot->release).is_ok());
  // Descriptor for bytes the producer has not published yet.
  EXPECT_FALSE(cli.value()->view(100, 100, slot->release + 200).is_ok());
  // The genuine descriptor still works after the rejections.
  EXPECT_TRUE(
      cli.value()->view(slot->offset, 100, slot->release).is_ok());
}

// ------------------------------------------------------- served fixture

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

  void connect(net::Client* c) const {
    MLOC_CHECK(c->connect("127.0.0.1", server->port()).is_ok());
  }
};

/// /dev/shm entries created by this process ("/mloc-<pid>-..."): the
/// segment name only exists during the handshake window, so a clean
/// server leaves zero behind.
int count_own_shm_entries() {
  const std::string prefix = "mloc-" + std::to_string(::getpid()) + "-";
  DIR* d = ::opendir("/dev/shm");
  if (d == nullptr) return 0;
  int n = 0;
  while (dirent* e = ::readdir(d)) {
    if (std::strncmp(e->d_name, prefix.c_str(), prefix.size()) == 0) ++n;
  }
  ::closedir(d);
  return n;
}

// ---------------------------------------------------------- negotiation

TEST(ShmNegotiation, DisabledServerRefusesAndTcpStillServes) {
  ServerConfig srv_cfg;
  srv_cfg.enable_shm = false;
  ServedStore served({}, srv_cfg);
  net::Client c;
  served.connect(&c);

  Status st = c.enable_shm();
  ASSERT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), ErrorCode::kUnsupported);
  EXPECT_FALSE(c.shm_active());

  ASSERT_TRUE(c.open_session("tcp-only").is_ok());
  auto resp = c.query(vc_request(0.25, 0.75));
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  ASSERT_TRUE(resp.value().status.is_ok());
  EXPECT_FALSE(resp.value().stats.via_shm);
  EXPECT_EQ(served.server->stats().shm_segments, 0u);
  EXPECT_EQ(count_own_shm_entries(), 0);
}

TEST(ShmNegotiation, ServesByteIdenticalResponsesViaRing) {
  // Cold expected results, computed before the store moves into the
  // service.
  pfs::PfsStorage expected_fs;
  auto expected_store = make_store(&expected_fs);
  ASSERT_TRUE(expected_store.is_ok());
  const Request probe = vc_request(0.25, 0.75);
  auto expected = expected_store.value().execute("phi", probe.query, 1);
  ASSERT_TRUE(expected.is_ok());

  ServedStore served;
  net::Client c;
  served.connect(&c);
  ASSERT_TRUE(c.enable_shm().is_ok());
  EXPECT_TRUE(c.shm_active());
  ASSERT_TRUE(c.open_session("shm").is_ok());

  for (int i = 0; i < 4; ++i) {
    auto resp = c.query(probe);
    ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
    ASSERT_TRUE(resp.value().status.is_ok());
    EXPECT_TRUE(resp.value().stats.via_shm);
    EXPECT_EQ(resp.value().result.positions, expected.value().positions);
    EXPECT_EQ(resp.value().result.values, expected.value().values);
  }

  // Counters land just after the response is enqueued; let them settle.
  ServerStats st = served.server->stats();
  for (int i = 0; i < 200 && st.responses_shm < 4; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    st = served.server->stats();
  }
  EXPECT_EQ(st.shm_segments, 1u);
  EXPECT_EQ(st.shm_attached, 1u);
  EXPECT_EQ(st.responses_shm, 4u);
  // Every completed query was delivered, through exactly one transport.
  EXPECT_EQ(st.responses_tcp, 0u);
  EXPECT_EQ(st.responses_shm + st.responses_tcp,
            served.svc->aggregate().completed);
  // The segment name was unlinked the moment the client attached.
  EXPECT_EQ(count_own_shm_entries(), 0);
}

TEST(ShmNegotiation, SecondOfferOnSameConnectionIsRefused) {
  ServedStore served;
  net::Client c;
  served.connect(&c);
  ASSERT_TRUE(c.enable_shm().is_ok());
  EXPECT_FALSE(c.enable_shm().is_ok());
  EXPECT_TRUE(c.shm_active());  // the first ring is untouched

  ASSERT_TRUE(c.open_session().is_ok());
  auto resp = c.query(vc_request(0.3, 0.6));
  ASSERT_TRUE(resp.is_ok());
  EXPECT_TRUE(resp.value().stats.via_shm);
}

// Raw-socket helpers for handshake sequences the Client cannot produce.

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

TEST(ShmNegotiation, UnmappableSegmentFallsBackToTcp) {
  // A client that accepts the offer but cannot map the segment (here:
  // the name vanishes before it attaches — same shape as a container
  // boundary) reports mapped=false; the server tears the ring down and
  // the connection keeps serving over TCP.
  ServedStore served;
  const int fd = raw_connect(served.server->port());

  raw_send(fd, encode_frame(FrameType::kShmOffer, 1,
                            encode_shm_offer(kShmMinRingBytes)));
  FrameHeader h;
  Bytes payload;
  ASSERT_TRUE(raw_read_frame(fd, &h, &payload));
  ASSERT_EQ(h.type, FrameType::kShmAccept);
  auto info = decode_shm_accept(payload);
  ASSERT_TRUE(info.is_ok()) << info.status().to_string();
  // Make the segment unmappable for this "client".
  ASSERT_EQ(::shm_unlink(info.value().name.c_str()), 0);

  raw_send(fd,
           encode_frame(FrameType::kShmAttach, 2, encode_shm_attach(false)));
  ASSERT_TRUE(raw_read_frame(fd, &h, &payload));
  ASSERT_EQ(h.type, FrameType::kAck);
  auto ack = decode_status(payload);
  ASSERT_TRUE(ack.is_ok());
  EXPECT_TRUE(ack.value().carried.is_ok());

  // The connection still serves queries — over TCP.
  raw_send(fd, encode_frame(FrameType::kOpenSession, 3,
                            encode_open_session("raw-fallback")));
  ASSERT_TRUE(raw_read_frame(fd, &h, &payload));
  ASSERT_EQ(h.type, FrameType::kSessionOpened);
  raw_send(fd, encode_frame(FrameType::kQuery, 4,
                            encode_request(vc_request(0.25, 0.75))));
  ASSERT_TRUE(raw_read_frame(fd, &h, &payload));
  ASSERT_EQ(h.type, FrameType::kQueryResult);
  auto resp = decode_response(payload);
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  EXPECT_TRUE(resp.value().status.is_ok());
  EXPECT_FALSE(resp.value().stats.via_shm);
  EXPECT_FALSE(resp.value().result.positions.empty());
  ::close(fd);

  EXPECT_EQ(count_own_shm_entries(), 0);
}

TEST(ShmNegotiation, NeverAttachedSegmentIsReclaimedOnDisconnect) {
  // Offer accepted, then the client dies without ever attaching: the
  // segment must not outlive the connection.
  ServedStore served;
  const int fd = raw_connect(served.server->port());
  raw_send(fd, encode_frame(FrameType::kShmOffer, 1,
                            encode_shm_offer(kShmMinRingBytes)));
  FrameHeader h;
  Bytes payload;
  ASSERT_TRUE(raw_read_frame(fd, &h, &payload));
  ASSERT_EQ(h.type, FrameType::kShmAccept);
  EXPECT_EQ(count_own_shm_entries(), 1);  // handshake window: name exists
  ::close(fd);

  for (int i = 0; i < 200 && count_own_shm_entries() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(count_own_shm_entries(), 0);
}

// ----------------------------------------------- backpressure / fallback

TEST(ShmBackpressure, FullRingFallsBackPerResponseAndStaysIdentical) {
  pfs::PfsStorage expected_fs;
  auto expected_store = make_store(&expected_fs);
  ASSERT_TRUE(expected_store.is_ok());
  const Request probe = vc_request(0.48, 0.52, /*values=*/false);
  auto expected = expected_store.value().execute("phi", probe.query, 1);
  ASSERT_TRUE(expected.is_ok());

  // Clamp the ring to the minimum 4 KiB: a handful of responses fit, the
  // rest of a 32-deep pipeline must fall back to TCP frames.
  ServerConfig srv_cfg;
  srv_cfg.max_shm_ring_bytes = kShmMinRingBytes;
  ServedStore served({}, srv_cfg);
  net::Client c;
  served.connect(&c);
  ASSERT_TRUE(c.enable_shm(1 << 20).is_ok());  // request is clamped down
  ASSERT_TRUE(c.open_session("pipeline").is_ok());

  constexpr int kPipelined = 32;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < kPipelined; ++i) {
    auto id = c.send_query(probe);
    ASSERT_TRUE(id.is_ok());
    ids.push_back(id.value());
  }
  // Let the server publish every response before the client drains any
  // slot, so the ring demonstrably fills.
  for (int i = 0; i < 1000; ++i) {
    const ServerStats st = served.server->stats();
    if (st.responses_shm + st.responses_tcp >= kPipelined) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  int via_shm = 0, via_tcp = 0;
  for (std::uint64_t id : ids) {
    auto resp = c.wait(id);
    ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
    ASSERT_TRUE(resp.value().status.is_ok());
    EXPECT_EQ(resp.value().result.positions, expected.value().positions);
    EXPECT_EQ(resp.value().result.values, expected.value().values);
    (resp.value().stats.via_shm ? via_shm : via_tcp)++;
  }
  EXPECT_EQ(via_shm + via_tcp, kPipelined);
  EXPECT_GT(via_shm, 0) << "ring served nothing";
  EXPECT_GT(via_tcp, 0) << "ring never filled";
  ServerStats st = served.server->stats();
  for (int i = 0;
       i < 200 && st.responses_shm + st.responses_tcp <
                      static_cast<std::uint64_t>(kPipelined);
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    st = served.server->stats();
  }
  EXPECT_EQ(st.responses_shm, static_cast<std::uint64_t>(via_shm));
  EXPECT_EQ(st.responses_tcp, static_cast<std::uint64_t>(via_tcp));
  EXPECT_GT(st.shm_fallbacks, 0u);

  // The connection recovers: with the ring drained, shm serves again.
  auto resp = c.query(probe);
  ASSERT_TRUE(resp.is_ok());
  EXPECT_TRUE(resp.value().stats.via_shm);
}

// A ring cap below the minimum is raised to it, as num_loops < 1 is raised
// to 1: the server grants a kShmMinRingBytes ring whatever the client
// asks for, and answers through it match cold execution.
TEST(ShmNegotiation, CapBelowMinimumGrantsMinimumRing) {
  pfs::PfsStorage expected_fs;
  auto expected_store = make_store(&expected_fs);
  ASSERT_TRUE(expected_store.is_ok());
  const Request probe = vc_request(0.48, 0.52, /*values=*/false);
  auto expected = expected_store.value().execute("phi", probe.query, 1);
  ASSERT_TRUE(expected.is_ok());

  ServerConfig srv_cfg;
  srv_cfg.max_shm_ring_bytes = 0;
  ServedStore served({}, srv_cfg);
  const int fd = raw_connect(served.server->port());
  raw_send(fd, encode_frame(FrameType::kShmOffer, 1,
                            encode_shm_offer(1 << 20)));
  FrameHeader h;
  Bytes payload;
  ASSERT_TRUE(raw_read_frame(fd, &h, &payload));
  ASSERT_EQ(h.type, FrameType::kShmAccept);
  auto info = decode_shm_accept(payload);
  ASSERT_TRUE(info.is_ok()) << info.status().to_string();
  EXPECT_EQ(info.value().ring_bytes, kShmMinRingBytes);
  ::close(fd);

  net::Client c;
  served.connect(&c);
  ASSERT_TRUE(c.enable_shm(1 << 20).is_ok());
  ASSERT_TRUE(c.open_session("min-ring").is_ok());
  for (int i = 0; i < 3; ++i) {
    auto resp = c.query(probe);
    ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
    ASSERT_TRUE(resp.value().status.is_ok());
    EXPECT_TRUE(resp.value().stats.via_shm);
    EXPECT_EQ(resp.value().result.positions, expected.value().positions);
    EXPECT_EQ(resp.value().result.values, expected.value().values);
  }
}

// ------------------------------------------------------ crash reclamation

TEST(ShmReclaim, ClientCrashMidStreamLeaksNothing) {
  ServiceConfig cfg;
  cfg.num_workers = 1;
  cfg.start_paused = true;
  ServedStore served(cfg);
  {
    net::Client c;
    served.connect(&c);
    ASSERT_TRUE(c.enable_shm().is_ok());
    ASSERT_TRUE(c.open_session("doomed").is_ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(c.send_query(vc_request(0.1, 0.9)).is_ok());
    }
    // Destructor closes the socket with three queries in flight and
    // published-but-unread slots about to be produced.
  }
  served.svc->resume();
  for (int i = 0; i < 200 && served.svc->aggregate().sessions_open != 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(served.svc->aggregate().sessions_open, 0u);
  // The segment was unlinked at attach; the server unmapped its side on
  // disconnect, so nothing remains in /dev/shm.
  EXPECT_EQ(count_own_shm_entries(), 0);

  // A fresh client negotiates and serves via shm — nothing was poisoned.
  net::Client again;
  served.connect(&again);
  ASSERT_TRUE(again.enable_shm().is_ok());
  ASSERT_TRUE(again.open_session("fresh").is_ok());
  auto resp = again.query(vc_request(0.25, 0.75));
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  ASSERT_TRUE(resp.value().status.is_ok());
  EXPECT_TRUE(resp.value().stats.via_shm);
  EXPECT_EQ(served.server->stats().shm_attached, 2u);
}

// ----------------------------------------------------------- TSan hammer

TEST(ShmHammer, ManyClientsPipeliningViaRings) {
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
  // Small rings so the hammer also exercises the fallback path under
  // contention, not just the happy path.
  srv_cfg.max_shm_ring_bytes = 64 << 10;
  ServedStore served(cfg, srv_cfg);

  constexpr int kThreads = 4;
  constexpr int kBatches = 3;
  constexpr int kPipelined = 8;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::atomic<int> via_shm{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      net::Client c;
      if (!c.connect("127.0.0.1", served.server->port()).is_ok() ||
          !c.enable_shm(64 << 10).is_ok() ||
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
          if (resp.value().stats.via_shm) via_shm.fetch_add(1);
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
  EXPECT_GT(via_shm.load(), 0);
  EXPECT_EQ(count_own_shm_entries(), 0);

  // Transport counters land after the response is enqueued for delivery,
  // so a client can observe its response a moment before the counter —
  // wait for the ledger to settle.
  const service::AggregateStats agg = served.svc->aggregate();
  ServerStats st = served.server->stats();
  for (int i = 0;
       i < 200 && st.responses_shm + st.responses_tcp != agg.completed;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    st = served.server->stats();
  }
  EXPECT_EQ(agg.completed,
            static_cast<std::uint64_t>(kThreads * kBatches * kPipelined));
  EXPECT_EQ(st.responses_shm + st.responses_tcp, agg.completed);
}

}  // namespace
}  // namespace mloc
