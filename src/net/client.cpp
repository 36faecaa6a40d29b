#include "net/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
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
  rbuf_.clear();
  stashed_.clear();
  return Status::ok();
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  rbuf_.clear();
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

Result<Client::Stash> Client::wait_frame(std::uint64_t request_id) {
  for (;;) {
    if (auto it = stashed_.find(request_id); it != stashed_.end()) {
      Stash s = std::move(it->second);
      stashed_.erase(it);
      return s;
    }
    if (fd_ < 0) {
      return broken_.is_ok() ? failed_precondition("client not connected")
                             : broken_;
    }

    // Parse every complete frame already buffered before reading more.
    bool parsed = false;
    while (rbuf_.size() >= kHeaderBytes) {
      auto h = decode_header({rbuf_.data(), kHeaderBytes});
      if (!h.is_ok()) return fail(h.status());
      const std::size_t need = kHeaderBytes + h.value().payload_len;
      if (rbuf_.size() < need) break;
      std::span<const std::uint8_t> payload(rbuf_.data() + kHeaderBytes,
                                            h.value().payload_len);
      if (Status vst = verify_payload(h.value(), payload); !vst.is_ok()) {
        return fail(std::move(vst));
      }
      if (h.value().type == FrameType::kShmResult) {
        // Decode straight out of the ring, then release the bytes right
        // away: descriptors arrive in cursor order, so prompt release is
        // what keeps the producer from backpressuring into TCP.
        if (shm_ == nullptr) {
          return fail(corrupt_data("shm result without an attached segment"));
        }
        auto d = decode_shm_result(payload);
        if (!d.is_ok()) return fail(d.status());
        auto view =
            shm_->view(d.value().offset, d.value().len, d.value().release);
        if (!view.is_ok()) return fail(view.status());
        auto resp = decode_response(view.value());
        shm_->release(d.value().release);
        if (!resp.is_ok()) return fail(resp.status());
        Stash s;
        s.type = FrameType::kQueryResult;
        s.decoded = std::move(resp).value();
        stashed_.emplace(h.value().request_id, std::move(s));
      } else {
        stashed_.emplace(
            h.value().request_id,
            Stash{h.value().type, Bytes(payload.begin(), payload.end()), {}});
      }
      rbuf_.erase(rbuf_.begin(),
                  rbuf_.begin() + static_cast<std::ptrdiff_t>(need));
      parsed = true;
    }
    if (parsed) continue;

    std::array<std::uint8_t, 64 * 1024> buf;
    ssize_t n = ::recv(fd_, buf.data(), buf.size(), 0);
    if (n == 0) return fail(io_error("server closed the connection"));
    if (n < 0) {
      if (errno == EINTR) continue;
      return fail(io_error("recv: " + std::string(strerror(errno))));
    }
    rbuf_.insert(rbuf_.end(), buf.data(), buf.data() + n);
  }
}

Result<Bytes> Client::call(FrameType type,
                           std::span<const std::uint8_t> payload,
                           FrameType reply, std::string_view what) {
  const std::uint64_t id = next_id_++;
  MLOC_RETURN_IF_ERROR(send_all(encode_frame(type, id, payload)));
  MLOC_ASSIGN_OR_RETURN(Stash s, wait_frame(id));
  if (s.type == FrameType::kAck) {
    MLOC_ASSIGN_OR_RETURN(Ack ack, decode_status(s.payload));
    return ack.carried.is_ok()
               ? internal_error(std::string(what) +
                                " refused without a reason")
               : ack.carried;
  }
  if (s.type != reply) {
    return fail(corrupt_data("unexpected reply to " + std::string(what)));
  }
  return std::move(s.payload);
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
  const std::uint64_t id = next_id_++;
  MLOC_RETURN_IF_ERROR(
      send_all(encode_frame(FrameType::kCloseSession, id, {})));
  MLOC_ASSIGN_OR_RETURN(Stash s, wait_frame(id));
  if (s.type != FrameType::kAck) {
    return fail(corrupt_data("unexpected reply to close_session"));
  }
  MLOC_ASSIGN_OR_RETURN(Ack ack, decode_status(s.payload));
  return ack.carried;
}

Status Client::enable_shm(std::uint64_t ring_bytes) {
  if (fd_ < 0) {
    return broken_.is_ok() ? failed_precondition("client not connected")
                           : broken_;
  }
  if (shm_ != nullptr) return failed_precondition("shm already active");

  const std::uint64_t offer_id = next_id_++;
  MLOC_RETURN_IF_ERROR(send_all(encode_frame(FrameType::kShmOffer, offer_id,
                                             encode_shm_offer(ring_bytes))));
  MLOC_ASSIGN_OR_RETURN(Stash s, wait_frame(offer_id));
  if (s.type == FrameType::kAck) {
    // Server refused (disabled, no segment room): stay on TCP.
    MLOC_ASSIGN_OR_RETURN(Ack ack, decode_status(s.payload));
    return ack.carried.is_ok()
               ? internal_error("shm offer refused without a reason")
               : ack.carried;
  }
  if (s.type != FrameType::kShmAccept) {
    return fail(corrupt_data("unexpected reply to shm offer"));
  }
  auto info = decode_shm_accept(s.payload);
  if (!info.is_ok()) return fail(info.status());

  auto seg = ShmClientSegment::open(info.value());
  // Report the mapping outcome either way; mapped=false tells the server
  // to tear the segment down while this connection stays on TCP.
  // On success the segment must be installed *before* waiting for the
  // ack: the server starts using the ring the moment it processes the
  // attach, so a response can precede the ack in the stream.
  if (seg.is_ok()) shm_ = std::move(seg).value();
  const std::uint64_t attach_id = next_id_++;
  Status sent = send_all(encode_frame(FrameType::kShmAttach, attach_id,
                                      encode_shm_attach(shm_ != nullptr)));
  if (!sent.is_ok()) {
    shm_.reset();
    return sent;
  }
  auto a = wait_frame(attach_id);
  if (!a.is_ok()) {
    shm_.reset();
    return a.status();
  }
  if (a.value().type != FrameType::kAck) {
    shm_.reset();
    return fail(corrupt_data("unexpected reply to shm attach"));
  }
  auto ack = decode_status(a.value().payload);
  if (!ack.is_ok()) {
    shm_.reset();
    return ack.status();
  }
  if (shm_ == nullptr) return seg.status();  // mapping failed; TCP continues
  if (!ack.value().carried.is_ok()) {
    shm_.reset();
    return ack.value().carried;
  }
  return Status::ok();
}

Result<std::uint64_t> Client::send_query(const service::Request& req) {
  const std::uint64_t id = next_id_++;
  MLOC_RETURN_IF_ERROR(
      send_all(encode_frame(FrameType::kQuery, id, encode_request(req))));
  return id;
}

Result<service::Response> Client::wait(std::uint64_t request_id) {
  MLOC_ASSIGN_OR_RETURN(Stash s, wait_frame(request_id));
  if (s.type != FrameType::kQueryResult) {
    return fail(corrupt_data("unexpected reply to query"));
  }
  if (s.decoded.has_value()) return std::move(*s.decoded);
  return decode_response(s.payload);
}

Result<service::Response> Client::query(const service::Request& req) {
  MLOC_ASSIGN_OR_RETURN(std::uint64_t id, send_query(req));
  return wait(id);
}

Status Client::cancel(std::uint64_t request_id) {
  const std::uint64_t id = next_id_++;
  MLOC_RETURN_IF_ERROR(
      send_all(encode_frame(FrameType::kCancel, id, encode_cancel(request_id))));
  MLOC_ASSIGN_OR_RETURN(Stash s, wait_frame(id));
  if (s.type != FrameType::kAck) {
    return fail(corrupt_data("unexpected reply to cancel"));
  }
  MLOC_ASSIGN_OR_RETURN(Ack ack, decode_status(s.payload));
  return ack.carried;
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
