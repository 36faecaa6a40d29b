#include "net/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace mloc::net {

Status Client::connect(const std::string& host, std::uint16_t port) {
  if (fd_ >= 0) return failed_precondition("client already connected");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return invalid_argument("bad server host: " + host);
  }
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return io_error("socket: " + std::string(strerror(errno)));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    Status st = io_error("connect " + host + ":" + std::to_string(port) +
                         ": " + std::string(strerror(errno)));
    ::close(fd);
    return st;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  fd_ = fd;
  broken_ = Status::ok();
  next_id_ = 1;
  reader_ = FrameReader{};
  stashed_.clear();
  return Status::ok();
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  reader_ = FrameReader{};
  stashed_.clear();
  shm_.reset();
}

Status Client::fail(Status st) {
  broken_ = st;
  close();
  return st;
}

Status Client::send_all(const Bytes& frame) {
  if (fd_ < 0) {
    return broken_.is_ok() ? failed_precondition("client not connected")
                           : broken_;
  }
  std::size_t off = 0;
  while (off < frame.size()) {
    ssize_t n =
        ::send(fd_, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return fail(io_error("send: " + std::string(strerror(errno))));
    }
    off += static_cast<std::size_t>(n);
  }
  return Status::ok();
}

Result<Client::Reply> Client::wait_frame(std::uint64_t request_id) {
  if (auto it = stashed_.find(request_id); it != stashed_.end()) {
    Reply r = std::move(it->second);
    stashed_.erase(it);
    return r;
  }
  for (;;) {
    if (fd_ < 0) {
      return broken_.is_ok() ? failed_precondition("client not connected")
                             : broken_;
    }
    // Take every complete frame already buffered before reading more.
    auto next = reader_.next(kMaxPayloadBytes);
    if (!next.is_ok()) return fail(next.status());
    if (const std::optional<FrameReader::Frame>& frame = next.value();
        frame.has_value()) {
      MLOC_ASSIGN_OR_RETURN(Reply r, take(*frame));
      if (frame->header.request_id == request_id) return r;
      stashed_.emplace(frame->header.request_id, std::move(r));
      continue;
    }
    const std::span<std::uint8_t> space = reader_.recv_space();
    const ssize_t n = ::recv(fd_, space.data(), space.size(), 0);
    if (n == 0) return fail(io_error("server closed the connection"));
    if (n < 0) {
      if (errno == EINTR) continue;
      return fail(io_error("recv: " + std::string(strerror(errno))));
    }
    reader_.commit(static_cast<std::size_t>(n));
  }
}

Result<Client::Reply> Client::take(const FrameReader::Frame& frame) {
  Reply r;
  r.type = frame.header.type;
  if (r.type == FrameType::kQueryResult) {
    r.response = decode_response(frame.payload);
  } else if (r.type == FrameType::kShmResult) {
    // Decode straight out of the ring, then release the bytes right
    // away: descriptors arrive in cursor order, so prompt release is what
    // keeps the producer from backpressuring into TCP.
    if (shm_ == nullptr) {
      return fail(corrupt_data("shm result without an attached segment"));
    }
    auto d = decode_shm_result(frame.payload);
    if (!d.is_ok()) return fail(d.status());
    auto view = shm_->view(d.value().offset, d.value().len, d.value().release);
    if (!view.is_ok()) return fail(view.status());
    auto resp = decode_response(view.value());
    shm_->release(d.value().release);
    if (!resp.is_ok()) return fail(resp.status());
    r.response = std::move(resp);
  } else {
    r.payload.assign(frame.payload.begin(), frame.payload.end());
  }
  return r;
}

Status Client::unexpected(const Reply& r, std::string_view what) {
  if (!frame_type_known(static_cast<std::uint16_t>(r.type))) {
    return unsupported("unknown reply type " +
                       std::to_string(static_cast<std::uint16_t>(r.type)) +
                       " to " + std::string(what));
  }
  return fail(corrupt_data("unexpected reply to " + std::string(what)));
}

Result<Bytes> Client::call(FrameType type,
                           std::span<const std::uint8_t> payload,
                           FrameType reply, std::string_view what) {
  const std::uint64_t id = next_id_++;
  MLOC_RETURN_IF_ERROR(send_all(encode_frame(type, id, payload)));
  MLOC_ASSIGN_OR_RETURN(Reply r, wait_frame(id));
  if (r.type == FrameType::kAck) {
    MLOC_ASSIGN_OR_RETURN(Ack ack, decode_status(r.payload));
    if (!ack.carried.is_ok()) return ack.carried;
    if (reply == FrameType::kAck) return Bytes{};
    return internal_error(std::string(what) + " refused without a reason");
  }
  if (r.type != reply) return unexpected(r, what);
  return std::move(r.payload);
}

Status Client::ping() {
  return call(FrameType::kPing, {}, FrameType::kPong, "ping").status();
}

Result<service::SessionId> Client::open_session(std::string_view label) {
  MLOC_ASSIGN_OR_RETURN(const Bytes p,
                        call(FrameType::kOpenSession,
                             encode_open_session(label),
                             FrameType::kSessionOpened, "open_session"));
  return decode_session_opened(p);
}

Status Client::close_session() {
  return call(FrameType::kCloseSession, {}, FrameType::kAck, "close_session")
      .status();
}

Status Client::enable_shm(std::uint64_t ring_bytes) {
  if (fd_ < 0) {
    return broken_.is_ok() ? failed_precondition("client not connected")
                           : broken_;
  }
  if (shm_ != nullptr) return failed_precondition("shm already active");

  // A refusal (disabled, no segment room) is the server's Ack: stay on TCP.
  MLOC_ASSIGN_OR_RETURN(const Bytes accept,
                        call(FrameType::kShmOffer, encode_shm_offer(ring_bytes),
                             FrameType::kShmAccept, "shm offer"));
  auto info = decode_shm_accept(accept);
  if (!info.is_ok()) return fail(info.status());

  auto seg = ShmClientSegment::open(info.value());
  // Report the mapping outcome either way; mapped=false tells the server
  // to tear the segment down while this connection stays on TCP.
  // On success the segment must be installed *before* waiting for the
  // ack: the server starts using the ring the moment it processes the
  // attach, so a response can precede the ack in the stream.
  if (seg.is_ok()) shm_ = std::move(seg).value();
  const Status acked = call(FrameType::kShmAttach,
                            encode_shm_attach(shm_ != nullptr),
                            FrameType::kAck, "shm attach")
                           .status();
  if (!acked.is_ok()) {
    shm_.reset();
    return acked;
  }
  if (shm_ == nullptr) return seg.status();  // mapping failed; TCP continues
  return Status::ok();
}

Result<std::uint64_t> Client::send_query(const service::Request& req) {
  const std::uint64_t id = next_id_++;
  MLOC_RETURN_IF_ERROR(
      send_all(encode_frame(FrameType::kQuery, id, encode_request(req))));
  return id;
}

Result<service::Response> Client::wait(std::uint64_t request_id) {
  MLOC_ASSIGN_OR_RETURN(Reply r, wait_frame(request_id));
  if (!r.response.has_value()) return unexpected(r, "query");
  return std::move(*r.response);
}

Result<service::Response> Client::query(const service::Request& req) {
  MLOC_ASSIGN_OR_RETURN(std::uint64_t id, send_query(req));
  return wait(id);
}

Status Client::cancel(std::uint64_t request_id) {
  return call(FrameType::kCancel, encode_cancel(request_id), FrameType::kAck,
              "cancel")
      .status();
}

Result<StatsSnapshot> Client::stats() {
  MLOC_ASSIGN_OR_RETURN(
      const Bytes p,
      call(FrameType::kStats, {}, FrameType::kStatsResult, "stats"));
  return decode_stats(p);
}

Result<std::vector<MlocStore::VariableDesc>> Client::list_variables() {
  MLOC_ASSIGN_OR_RETURN(const Bytes p,
                        call(FrameType::kListVariables, {},
                             FrameType::kVariableList, "list_variables"));
  return decode_variable_list(p);
}

Result<service::SessionStats> Client::session_stats() {
  MLOC_ASSIGN_OR_RETURN(const Bytes p,
                        call(FrameType::kSessionStats, {},
                             FrameType::kSessionStatsResult, "session_stats"));
  return decode_session_stats(p);
}

}  // namespace mloc::net
