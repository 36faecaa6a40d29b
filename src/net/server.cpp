#include "net/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <unordered_map>
#include <utility>

#include "net/shm.hpp"

namespace mloc::net {

namespace {

/// Per-frame payload cap enforced on receive, well below the protocol's
/// kMaxPayloadBytes so a hostile header cannot make the server buffer
/// gigabytes.
constexpr std::uint32_t kMaxReceivePayloadBytes = 64u << 20;

}  // namespace

// A connection is pinned to one loop. Its fd is read and closed only by
// that loop, and written under `mutex` by whichever thread has a frame to
// send: the loop for control replies, the service worker that resolved a
// query for its response. `reader` and `session` are loop-thread state.
// `mutex` guards the cross-thread pieces: the outbox and the EPOLLOUT arm
// state, the request-id map (callbacks erase, kCancel looks up,
// shutdown() harvests), and the closed flag. A writer that sees `closed`
// false under `mutex` knows the fd is still this connection's; if its
// send fails it shuts the socket down, and the loop closes the connection
// on the hang-up.
struct Server::Connection {
  int fd = -1;
  Loop* loop = nullptr;
  FrameReader reader;

  sync::Mutex mutex;
  std::deque<EncodedResponse> outbox MLOC_GUARDED_BY(mutex);
  /// bytes of outbox.front() already on the wire
  std::size_t front_sent MLOC_GUARDED_BY(mutex) = 0;
  /// EPOLLOUT currently armed
  bool want_write MLOC_GUARDED_BY(mutex) = false;
  bool closed MLOC_GUARDED_BY(mutex) = false;
  /// Loop-thread only (set by kOpenSession, consumed at close), so not
  /// capability-guarded; teardown paths also clear it under `mutex` purely
  /// for ordering with `closed`.
  service::SessionId session = 0;
  /// request_id -> QueryId for queries submitted and not yet resolved.
  /// A query still inside submit_async maps to 0 (visible to kCancel for
  /// one scheduling instant; treated as not-cancellable).
  std::unordered_map<std::uint64_t, service::QueryId> inflight
      MLOC_GUARDED_BY(mutex);
  /// Shared-memory ring, created on kShmOffer. Ring cursor state (the
  /// producer side of try_alloc/publish) is single-writer *because* every
  /// access happens under `mutex` — the same lock that already serializes
  /// this connection's outbox, so slot publication order always matches
  /// descriptor frame order.
  std::unique_ptr<ShmServerSegment> shm MLOC_GUARDED_BY(mutex)
      MLOC_PT_GUARDED_BY(mutex);
  /// True once the client confirmed its mapping (kShmAttach); only then do
  /// responses take the ring path.
  bool shm_active MLOC_GUARDED_BY(mutex) = false;
};

struct Server::Loop {
  int epfd = -1;
  int wakefd = -1;
  std::thread thread;
  std::atomic<bool> stop{false};

  sync::Mutex mutex;
  std::vector<std::shared_ptr<Connection>> incoming MLOC_GUARDED_BY(mutex);

  /// fd -> connection; loop-thread only.
  std::unordered_map<int, std::shared_ptr<Connection>> conns;
};

Server::Server(service::QueryService& svc, ServerConfig cfg)
    : svc_(svc), cfg_(std::move(cfg)) {
  if (cfg_.num_loops < 1) cfg_.num_loops = 1;
  // std::clamp in the kShmOffer handler needs max >= min.
  cfg_.max_shm_ring_bytes =
      std::max(cfg_.max_shm_ring_bytes, kShmMinRingBytes);
}

Server::~Server() { shutdown(); }

void Server::wake(Loop& loop) {
  std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(loop.wakefd, &one, sizeof one);
}

Status Server::start() {
  if (started_.load()) return failed_precondition("server already started");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return io_error("socket: " + std::string(strerror(errno)));
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg_.port);
  if (::inet_pton(AF_INET, cfg_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return invalid_argument("bad listen host: " + cfg_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    Status st = io_error("bind " + cfg_.host + ":" + std::to_string(cfg_.port) +
                         ": " + std::string(strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, 512) != 0) {
    Status st = io_error("listen: " + std::string(strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  socklen_t alen = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &alen);
  port_ = ntohs(addr.sin_port);

  loops_.clear();
  for (int i = 0; i < cfg_.num_loops; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->epfd = ::epoll_create1(EPOLL_CLOEXEC);
    loop->wakefd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (loop->epfd < 0 || loop->wakefd < 0) {
      if (loop->epfd >= 0) ::close(loop->epfd);
      if (loop->wakefd >= 0) ::close(loop->wakefd);
      for (auto& l : loops_) {
        ::close(l->epfd);
        ::close(l->wakefd);
      }
      loops_.clear();
      ::close(listen_fd_);
      listen_fd_ = -1;
      return io_error("epoll/eventfd setup failed");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = loop->wakefd;
    ::epoll_ctl(loop->epfd, EPOLL_CTL_ADD, loop->wakefd, &ev);
    if (i == 0) {
      ev.data.fd = listen_fd_;
      ::epoll_ctl(loop->epfd, EPOLL_CTL_ADD, listen_fd_, &ev);
    }
    loops_.push_back(std::move(loop));
  }

  started_.store(true);
  stopped_.store(false);
  for (auto& loop : loops_) {
    Loop* l = loop.get();
    l->thread = std::thread([this, l] { loop_main(*l); });
  }
  return Status::ok();
}

void Server::loop_main(Loop& loop) {
  std::array<epoll_event, 64> events;
  while (!loop.stop.load(std::memory_order_acquire)) {
    int n = ::epoll_wait(loop.epfd, events.data(),
                         static_cast<int>(events.size()), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const std::uint32_t ev = events[i].events;
      if (fd == loop.wakefd) {
        std::uint64_t junk;
        while (::read(loop.wakefd, &junk, sizeof junk) > 0) {
        }
        std::vector<std::shared_ptr<Connection>> incoming;
        {
          sync::MutexLock lock(loop.mutex);
          incoming.swap(loop.incoming);
        }
        for (auto& c : incoming) register_connection(loop, std::move(c));
        continue;
      }
      if (fd == listen_fd_) {
        accept_ready(loop);
        continue;
      }
      auto it = loop.conns.find(fd);
      if (it == loop.conns.end()) continue;
      std::shared_ptr<Connection> conn = it->second;
      if ((ev & (EPOLLHUP | EPOLLERR)) != 0) {
        close_connection(loop, conn, /*protocol_error=*/false);
        continue;
      }
      if ((ev & EPOLLIN) != 0) handle_readable(loop, conn);
      if ((ev & EPOLLOUT) != 0 && loop.conns.count(fd) != 0) flush_writes(conn);
    }
  }
  // Teardown: shutdown() has already drained in-flight queries, so no
  // callback will enqueue into these connections after this point, and it
  // stopped the acceptor first, so a connection handed over after this
  // loop's last wake-up is in `incoming` now.
  {
    sync::MutexLock lock(loop.mutex);
    for (auto& c : loop.incoming) loop.conns.emplace(c->fd, std::move(c));
    loop.incoming.clear();
  }
  for (auto& entry : loop.conns) {
    Connection& conn = *entry.second;
    service::SessionId session = 0;
    std::unique_ptr<ShmServerSegment> shm;
    {
      sync::MutexLock lock(conn.mutex);
      conn.closed = true;
      conn.outbox.clear();
      session = std::exchange(conn.session, 0);
      conn.inflight.clear();
      shm = std::move(conn.shm);
      conn.shm_active = false;
    }
    shm.reset();
    ::close(entry.first);
    if (session != 0) (void)svc_.close_session(session);
    sync::MutexLock lock(stats_mutex_);
    ++stats_.connections_closed;
  }
  loop.conns.clear();
}

void Server::register_connection(Loop& loop, std::shared_ptr<Connection> conn) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = conn->fd;
  if (::epoll_ctl(loop.epfd, EPOLL_CTL_ADD, conn->fd, &ev) != 0) {
    ::close(conn->fd);
    sync::MutexLock lock(conn->mutex);
    conn->closed = true;
    return;
  }
  loop.conns.emplace(conn->fd, std::move(conn));
}

void Server::accept_ready(Loop& loop) {
  for (;;) {
    int cfd = ::accept4(listen_fd_, nullptr, nullptr,
                        SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (cfd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN, or transient accept failure; epoll will re-arm
    }
    if (draining_.load()) {
      ::close(cfd);
      continue;
    }
    int one = 1;
    ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

    auto conn = std::make_shared<Connection>();
    conn->fd = cfd;
    Loop& target =
        *loops_[next_loop_.fetch_add(1, std::memory_order_relaxed) %
                loops_.size()];
    conn->loop = &target;
    {
      sync::MutexLock lock(registry_mutex_);
      // Lazily compact tombstones so the registry tracks live connections,
      // not every connection ever accepted.
      if (registry_.size() >= 1024) {
        std::erase_if(registry_, [](const std::weak_ptr<Connection>& w) {
          return w.expired();
        });
      }
      registry_.push_back(conn);
    }
    {
      sync::MutexLock lock(stats_mutex_);
      ++stats_.connections_accepted;
    }
    if (&target == &loop) {
      register_connection(loop, std::move(conn));
    } else {
      {
        sync::MutexLock lock(target.mutex);
        target.incoming.push_back(std::move(conn));
      }
      wake(target);
    }
  }
}

void Server::handle_readable(Loop& loop,
                             const std::shared_ptr<Connection>& conn) {
  std::uint64_t received = 0;
  bool stream_ok = true;
  bool hung_up = false;
  while (stream_ok) {
    const std::span<std::uint8_t> space = conn->reader.recv_space();
    const ssize_t n = ::recv(conn->fd, space.data(), space.size(), 0);
    if (n > 0) {
      conn->reader.commit(static_cast<std::size_t>(n));
      received += static_cast<std::uint64_t>(n);
      stream_ok = parse_frames(conn);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    hung_up = n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
    break;
  }
  if (received != 0) {
    sync::MutexLock lock(stats_mutex_);
    stats_.bytes_received += received;
  }
  if (!stream_ok || hung_up) {
    close_connection(loop, conn, /*protocol_error=*/!stream_ok);
  }
}

bool Server::parse_frames(const std::shared_ptr<Connection>& conn) {
  bool stream_ok = true;
  std::uint64_t frames = 0;
  for (;;) {
    auto next = conn->reader.next(kMaxReceivePayloadBytes);
    if (!next.is_ok()) {
      stream_ok = false;
      break;
    }
    const std::optional<FrameReader::Frame>& frame = next.value();
    if (!frame.has_value()) break;
    ++frames;
    handle_frame(conn, frame->header, frame->payload);
  }
  if (frames != 0) {
    sync::MutexLock lock(stats_mutex_);
    stats_.frames_received += frames;
  }
  return stream_ok;
}

void Server::handle_frame(const std::shared_ptr<Connection>& conn,
                          const FrameHeader& h,
                          std::span<const std::uint8_t> payload) {
  auto ack = [&](std::uint64_t request_id, const Status& st) {
    send_frame(conn,
               {encode_frame(FrameType::kAck, request_id, encode_status(st))});
  };
  auto payload_error = [&](std::uint64_t request_id, const Status& st) {
    {
      sync::MutexLock lock(stats_mutex_);
      ++stats_.payload_errors;
    }
    ack(request_id, st);
  };

  switch (h.type) {
    case FrameType::kPing:
      send_frame(conn, {encode_frame(FrameType::kPong, h.request_id, {})});
      return;

    case FrameType::kOpenSession: {
      auto label = decode_open_session(payload);
      if (!label.is_ok()) return payload_error(h.request_id, label.status());
      if (conn->session != 0) {
        return ack(h.request_id,
                   failed_precondition("connection already has a session"));
      }
      auto sid = svc_.open_session(std::move(label.value()));
      if (!sid.is_ok()) return ack(h.request_id, sid.status());
      conn->session = sid.value();
      send_frame(conn, {encode_frame(FrameType::kSessionOpened, h.request_id,
                                     encode_session_opened(sid.value()))});
      return;
    }

    case FrameType::kCloseSession: {
      if (conn->session == 0) {
        return ack(h.request_id,
                   failed_precondition("no session open on this connection"));
      }
      Status st = svc_.close_session(std::exchange(conn->session, 0));
      return ack(h.request_id, st);
    }

    case FrameType::kQuery:
      handle_query(conn, h.request_id, payload);
      return;

    case FrameType::kCancel: {
      auto target = decode_cancel(payload);
      if (!target.is_ok()) return payload_error(h.request_id, target.status());
      service::QueryId qid = 0;
      {
        sync::MutexLock lock(conn->mutex);
        auto it = conn->inflight.find(target.value());
        if (it != conn->inflight.end()) qid = it->second;
      }
      Status st = qid != 0
                      ? svc_.cancel(qid)
                      : not_found("request not in flight (unknown id, or "
                                  "already completed)");
      return ack(h.request_id, st);
    }

    case FrameType::kStats: {
      StatsSnapshot snap{svc_.aggregate(), svc_.cache_stats()};
      send_frame(conn, {encode_frame(FrameType::kStatsResult, h.request_id,
                                     encode_stats(snap))});
      return;
    }

    case FrameType::kListVariables: {
      send_frame(conn, {encode_frame(
                           FrameType::kVariableList, h.request_id,
                           encode_variable_list(svc_.store().describe_all()))});
      return;
    }

    case FrameType::kShmOffer: {
      auto ring = decode_shm_offer(payload);
      if (!ring.is_ok()) return payload_error(h.request_id, ring.status());
      if (!cfg_.enable_shm) {
        return ack(h.request_id,
                   unsupported("shm transport disabled on this server"));
      }
      bool already = false;
      {
        sync::MutexLock lock(conn->mutex);
        already = conn->shm != nullptr;
      }
      if (already) {
        return ack(h.request_id,
                   failed_precondition("connection already negotiated shm"));
      }
      const std::uint64_t ring_bytes = std::clamp(
          ring.value(), kShmMinRingBytes, cfg_.max_shm_ring_bytes);
      auto seg = ShmServerSegment::create(ring_bytes);
      // Creation failure (tmpfs full, mmap refused) is a per-connection
      // refusal, not an error: the client stays on TCP.
      if (!seg.is_ok()) return ack(h.request_id, seg.status());
      Bytes accept = encode_frame(FrameType::kShmAccept, h.request_id,
                                  encode_shm_accept(seg.value()->info()));
      {
        sync::MutexLock lock(conn->mutex);
        conn->shm = std::move(seg).value();
      }
      {
        sync::MutexLock lock(stats_mutex_);
        ++stats_.shm_segments;
      }
      send_frame(conn, {std::move(accept)});
      return;
    }

    case FrameType::kShmAttach: {
      auto mapped = decode_shm_attach(payload);
      if (!mapped.is_ok()) return payload_error(h.request_id, mapped.status());
      std::unique_ptr<ShmServerSegment> discarded;
      Status st;
      bool attached = false;
      {
        sync::MutexLock lock(conn->mutex);
        if (conn->shm == nullptr) {
          st = failed_precondition("no shm segment offered on this connection");
        } else if (conn->shm_active) {
          st = failed_precondition("shm segment already attached");
        } else if (mapped.value()) {
          // Both sides hold mappings now; the name has served its purpose.
          // From here the segment lives exactly as long as the mappings.
          conn->shm->unlink();
          conn->shm_active = true;
          attached = true;
        } else {
          // Client could not map or validate the segment: tear it down
          // (unmap + unlink) and stay on TCP.
          discarded = std::move(conn->shm);
        }
      }
      if (attached) {
        sync::MutexLock lock(stats_mutex_);
        ++stats_.shm_attached;
      }
      return ack(h.request_id, st);
    }

    case FrameType::kSessionStats: {
      if (conn->session == 0) {
        return ack(h.request_id,
                   failed_precondition("no session open on this connection"));
      }
      auto st = svc_.session_stats(conn->session);
      if (!st.is_ok()) return ack(h.request_id, st.status());
      send_frame(conn,
                 {encode_frame(FrameType::kSessionStatsResult, h.request_id,
                               encode_session_stats(st.value()))});
      return;
    }

    default:
      // A type this version does not define, or a server->client type
      // arriving here. The stream is still framed correctly (the header
      // CRC vouched for the length), so answer and carry on.
      return payload_error(
          h.request_id,
          frame_type_known(static_cast<std::uint16_t>(h.type))
              ? invalid_argument("frame type not valid in this direction")
              : unsupported("unknown frame type"));
  }
}

void Server::handle_query(const std::shared_ptr<Connection>& conn,
                          std::uint64_t request_id,
                          std::span<const std::uint8_t> payload) {
  auto error_response = [&](Status st) {
    service::Response resp;
    resp.status = std::move(st);
    send_frame(conn, encode_response_frame(request_id, std::move(resp)));
  };

  auto req = decode_request(payload);
  if (!req.is_ok()) {
    {
      sync::MutexLock lock(stats_mutex_);
      ++stats_.payload_errors;
    }
    return error_response(req.status());
  }
  if (draining_.load()) {
    {
      sync::MutexLock lock(stats_mutex_);
      ++stats_.rejected_draining;
    }
    return error_response(failed_precondition("server draining"));
  }
  if (conn->session == 0) {
    return error_response(
        failed_precondition("no session open on this connection"));
  }

  bool duplicate = false;
  {
    sync::MutexLock lock(conn->mutex);
    if (conn->closed) return;
    // Reserve the id before submitting: the map entry holds 0 until
    // submit_async returns the QueryId (kCancel treats 0 as
    // not-yet-cancellable), and the completion callback erases it.
    duplicate = !conn->inflight.emplace(request_id, 0).second;
  }
  if (duplicate) {
    // Duplicate ids would make responses ambiguous; refuse.
    return error_response(
        invalid_argument("request id already in flight on this connection"));
  }

  inflight_.fetch_add(1, std::memory_order_acq_rel);
  std::weak_ptr<Connection> wc = conn;
  const service::QueryId qid = svc_.submit_async(
      conn->session, std::move(req.value()),
      [this, wc, request_id](service::Response resp) {
        // The worker that resolved the query writes its response.
        auto c = wc.lock();
        bool enqueued = false;
        bool via_shm = false;
        bool fell_back = false;
        if (c) {
          // Shm fast path first. The ring allocate-write-publish and the
          // descriptor's place in the outbox must be one critical section
          // per connection (see Connection::shm), and it is the
          // fold-into-slot hook: the payload is serialized from the
          // engine's buffers straight into the ring, so the TCP path's
          // payload CRC pass and two socket copies never happen.
          {
            sync::MutexLock lock(c->mutex);
            c->inflight.erase(request_id);
            if (!c->closed && c->shm_active && c->shm != nullptr) {
              resp.stats.via_shm = true;
              const Bytes prefix = encode_response_prefix(resp);
              const std::uint64_t pos_bytes =
                  resp.result.positions.size() * sizeof(std::uint64_t);
              const std::uint64_t val_bytes =
                  resp.result.values.size() * sizeof(double);
              const std::uint64_t total = prefix.size() + pos_bytes + val_bytes;
              if (auto slot = c->shm->try_alloc(total)) {
                std::uint8_t* out = slot->data;
                std::memcpy(out, prefix.data(), prefix.size());
                out += prefix.size();
                if (pos_bytes != 0) {
                  std::memcpy(out, resp.result.positions.data(), pos_bytes);
                  out += pos_bytes;
                }
                if (val_bytes != 0) {
                  std::memcpy(out, resp.result.values.data(), val_bytes);
                }
                c->shm->publish(*slot);
                ShmDescriptor d;
                d.offset = slot->offset;
                d.len = slot->len;
                d.release = slot->release;
                c->outbox.push_back({encode_frame(FrameType::kShmResult,
                                                  request_id,
                                                  encode_shm_result(d))});
                enqueued = via_shm = true;
              } else {
                fell_back = true;  // ring full or oversize: frame it below
              }
            }
          }
          if (via_shm) {
            flush_writes(c);
          } else {
            resp.stats.via_shm = false;
            enqueued = send_frame(
                c, encode_response_frame(request_id, std::move(resp)));
          }
        }
        if (enqueued) {
          sync::MutexLock lock(stats_mutex_);
          via_shm ? ++stats_.responses_shm : ++stats_.responses_tcp;
          if (fell_back) ++stats_.shm_fallbacks;
        } else {
          sync::MutexLock lock(stats_mutex_);
          ++stats_.responses_dropped;
        }
        finish_inflight();
      });
  if (qid != 0) {
    sync::MutexLock lock(conn->mutex);
    auto it = conn->inflight.find(request_id);
    // Entry gone means the callback already resolved the query.
    if (it != conn->inflight.end() && it->second == 0) it->second = qid;
  }
}

bool Server::send_frame(const std::shared_ptr<Connection>& conn,
                        EncodedResponse frame) {
  {
    sync::MutexLock lock(conn->mutex);
    if (conn->closed) return false;
    conn->outbox.push_back(std::move(frame));
  }
  flush_writes(conn);
  return true;
}

void Server::flush_writes(const std::shared_ptr<Connection>& conn) {
  std::uint64_t sent_bytes = 0;
  std::uint64_t sent_frames = 0;
  bool fatal = false;
  {
    sync::MutexLock lock(conn->mutex);
    if (conn->closed) return;
    while (!conn->outbox.empty()) {
      EncodedResponse& f = conn->outbox.front();
      std::array<iovec, 3> iov;
      int niov = 0;
      std::size_t skip = conn->front_sent;
      auto add = [&](const void* base, std::size_t len) {
        if (len == 0) return;
        if (skip >= len) {
          skip -= len;
          return;
        }
        iov[static_cast<std::size_t>(niov)].iov_base = const_cast<char*>(
            static_cast<const char*>(base) + skip);
        iov[static_cast<std::size_t>(niov)].iov_len = len - skip;
        skip = 0;
        ++niov;
      };
      add(f.head.data(), f.head.size());
      add(f.positions.data(), f.positions.size() * sizeof(std::uint64_t));
      add(f.values.data(), f.values.size() * sizeof(double));
      if (niov == 0) {
        conn->outbox.pop_front();
        conn->front_sent = 0;
        ++sent_frames;
        continue;
      }
      msghdr msg{};
      msg.msg_iov = iov.data();
      msg.msg_iovlen = static_cast<std::size_t>(niov);
      ssize_t n = ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) fatal = true;
        break;
      }
      conn->front_sent += static_cast<std::size_t>(n);
      sent_bytes += static_cast<std::uint64_t>(n);
      if (conn->front_sent >= f.total_bytes()) {
        conn->outbox.pop_front();
        conn->front_sent = 0;
        ++sent_frames;
      }
    }
    // `closed` is false under this lock, so the fd is still this
    // connection's; only its loop closes it, on the hang-up.
    if (fatal) ::shutdown(conn->fd, SHUT_RDWR);
    const bool need_write = !conn->outbox.empty() && !fatal;
    if (need_write != conn->want_write) {
      conn->want_write = need_write;
      epoll_event ev{};
      ev.events = EPOLLIN | (need_write ? EPOLLOUT : 0u);
      ev.data.fd = conn->fd;
      ::epoll_ctl(conn->loop->epfd, EPOLL_CTL_MOD, conn->fd, &ev);
    }
  }
  if (sent_bytes != 0 || sent_frames != 0) {
    sync::MutexLock lock(stats_mutex_);
    stats_.bytes_sent += sent_bytes;
    stats_.frames_sent += sent_frames;
  }
}

void Server::close_connection(Loop& loop,
                              const std::shared_ptr<Connection>& conn,
                              bool protocol_error) {
  service::SessionId session = 0;
  // Reclaims the shm segment outside the lock: unmapping drops the
  // server's reference, and since the name was unlinked at attach, a
  // crashed client's pages are freed by the kernel the moment its own
  // mapping dies — no per-slot bookkeeping to repair.
  std::unique_ptr<ShmServerSegment> shm;
  {
    sync::MutexLock lock(conn->mutex);
    if (conn->closed) return;
    conn->closed = true;
    conn->outbox.clear();
    conn->front_sent = 0;
    session = std::exchange(conn->session, 0);
    conn->inflight.clear();
    shm = std::move(conn->shm);
    conn->shm_active = false;
  }
  ::epoll_ctl(loop.epfd, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  loop.conns.erase(conn->fd);
  if (session != 0) (void)svc_.close_session(session);
  {
    sync::MutexLock lock(stats_mutex_);
    ++stats_.connections_closed;
    if (protocol_error) ++stats_.protocol_errors;
  }
}

void Server::finish_inflight() {
  if (inflight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    sync::MutexLock lock(drain_mutex_);
    drain_cv_.notify_all();
  }
}

void Server::shutdown(double grace_s) {
  sync::MutexLock shutdown_lock(shutdown_mutex_);
  if (!started_.load() || stopped_.load()) return;
  if (grace_s < 0) grace_s = cfg_.drain_grace_s;
  draining_.store(true);

  // Phase 1: wait up to the grace period for in-flight queries to resolve
  // on their own (new queries are already being refused).
  {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(grace_s));
    sync::MutexLock lock(drain_mutex_);
    while (inflight_.load() != 0) {
      if (drain_cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
        break;
      }
    }
  }

  // Phase 2: grace expired — cancel whatever is still queued. Executing
  // queries cannot be interrupted, but they are bounded by one query's
  // runtime, so the follow-up wait terminates.
  if (inflight_.load() != 0) {
    std::vector<service::QueryId> qids;
    {
      sync::MutexLock lock(registry_mutex_);
      for (auto& weak : registry_) {
        auto conn = weak.lock();
        if (!conn) continue;
        sync::MutexLock conn_lock(conn->mutex);
        for (auto& entry : conn->inflight) {
          if (entry.second != 0) qids.push_back(entry.second);
        }
      }
    }
    for (service::QueryId qid : qids) (void)svc_.cancel(qid);
    sync::MutexLock lock(drain_mutex_);
    while (inflight_.load() != 0) drain_cv_.wait(lock);
  }

  // Phase 3: give the loops a moment to flush queued responses to clients
  // that are still reading, so a graceful stop delivers what it promised.
  const auto flush_deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
  for (;;) {
    bool all_empty = true;
    {
      sync::MutexLock lock(registry_mutex_);
      for (auto& weak : registry_) {
        auto conn = weak.lock();
        if (!conn) continue;
        sync::MutexLock conn_lock(conn->mutex);
        if (!conn->closed && !conn->outbox.empty()) {
          all_empty = false;
          break;
        }
      }
    }
    if (all_empty || std::chrono::steady_clock::now() >= flush_deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // Phase 4: stop the loops; their teardown closes sockets and sessions.
  // Loop 0, the acceptor, goes first: a connection it accepted just
  // before draining began may still be on its way to another loop.
  for (auto& loop : loops_) {
    loop->stop.store(true, std::memory_order_release);
    wake(*loop);
    if (loop->thread.joinable()) loop->thread.join();
  }
  for (auto& loop : loops_) {
    ::close(loop->wakefd);
    ::close(loop->epfd);
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  stopped_.store(true);
}

ServerStats Server::stats() const {
  sync::MutexLock lock(stats_mutex_);
  return stats_;
}

}  // namespace mloc::net
