// libFuzzer harness for the wire-protocol decoders (src/net/wire.hpp).
//
// The contract under test is the one the module header states: decoding
// never trusts a length before bounds-checking it, and a malformed frame
// yields a clean Status — never a crash, never UB. The harness drives the
// same surface a hostile peer reaches: the FrameReader that server and
// client both receive through, fed the input in chunks whose sizes come
// from the input, and every payload decoder, each over attacker-controlled
// bytes. Run with UBSan linked so "clean" means no silent overflow either.
// Every input is also a CRC-32 oracle case: the folded crc32 must equal the
// byte-at-a-time reference at whatever length and alignment the fuzzer
// picks.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

#include "net/wire.hpp"
#include "util/crc32.hpp"

namespace {

// First input byte steers which payload decoder sees the rest, so corpus
// entries stay small and the fuzzer can target one decoder at a time.
void fuzz_payload_decoders(std::span<const std::uint8_t> data) {
  if (data.empty()) return;
  const std::uint8_t selector = data[0];
  const auto payload = data.subspan(1);
  switch (selector % 12) {
    case 0: (void)mloc::net::decode_open_session(payload); break;
    case 1: (void)mloc::net::decode_session_opened(payload); break;
    case 2: (void)mloc::net::decode_request(payload); break;
    case 3: (void)mloc::net::decode_cancel(payload); break;
    case 4: (void)mloc::net::decode_status(payload); break;
    case 5: (void)mloc::net::decode_response(payload); break;
    case 6: (void)mloc::net::decode_stats(payload); break;
    case 7: (void)mloc::net::decode_session_stats(payload); break;
    case 8: (void)mloc::net::decode_shm_offer(payload); break;
    case 9: (void)mloc::net::decode_shm_accept(payload); break;
    case 10: (void)mloc::net::decode_shm_attach(payload); break;
    case 11: (void)mloc::net::decode_shm_result(payload); break;
  }
}

// The receive path: the input arrives in chunks of 1 to 256 bytes, sized
// by the input's bytes read from the back, and each chunk is followed by
// every frame it completes, as the server and the client take them. A
// query result is decoded where it lies, as the client does.
void fuzz_frame_reader(std::span<const std::uint8_t> data) {
  mloc::net::FrameReader reader;
  std::size_t fed = 0;
  for (std::size_t k = 0; fed < data.size(); ++k) {
    const std::size_t want = 1 + data[data.size() - 1 - k % data.size()];
    const std::span<std::uint8_t> space = reader.recv_space();
    const std::size_t n = std::min({want, space.size(), data.size() - fed});
    std::memcpy(space.data(), data.data() + fed, n);
    reader.commit(n);
    fed += n;
    for (;;) {
      auto next = reader.next(mloc::net::kMaxPayloadBytes);
      if (!next.is_ok()) return;  // the stream ends here
      const auto& frame = next.value();
      if (!frame.has_value()) break;
      if (frame->header.type == mloc::net::FrameType::kQueryResult) {
        (void)mloc::net::decode_response(frame->payload);
      }
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::uint8_t> bytes(data, size);
  if (mloc::crc32(bytes) != mloc::detail::scalar::crc32(bytes)) {
    __builtin_trap();
  }

  // Frame path: exactly what the server and the client do with bytes off
  // the socket.
  fuzz_frame_reader(bytes);

  // Payload path: decoders see the body only after CRC checks in real use,
  // but they must hold up against arbitrary bytes regardless.
  fuzz_payload_decoders(bytes);
  return 0;
}
