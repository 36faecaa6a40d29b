// Seed-corpus generator for the fuzz harnesses.
//
//   make_seeds <out_dir>
//
// Writes <out_dir>/wire/* and <out_dir>/mzip/* — valid artefacts produced
// by the real encoders, so the fuzzers start from deep inside the accepting
// states (CRC-correct frames, well-formed Huffman streams) instead of
// spending their budget rediscovering the magic number. Wire seeds come in
// both shapes the harness consumes: whole frames (header path) and
// selector-prefixed payloads (decoder dispatch path); mzip seeds cover
// both stream forms, dynamic and stored, plus malformed stored headers.
// Mirrors the corpora the round-trip unit tests exercise; regenerate
// whenever the wire format or mzip bitstream changes.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "compress/mzip.hpp"
#include "net/wire.hpp"

namespace {

void write_seed(const std::filesystem::path& dir, const std::string& name,
                std::span<const std::uint8_t> bytes) {
  std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::cerr << "make_seeds: failed writing " << (dir / name) << "\n";
    std::exit(1);
  }
}

mloc::Bytes with_selector(std::uint8_t selector,
                          std::span<const std::uint8_t> payload) {
  mloc::Bytes out;
  out.reserve(payload.size() + 1);
  out.push_back(selector);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

void make_wire_seeds(const std::filesystem::path& dir) {
  using namespace mloc::net;

  const mloc::Bytes open = encode_open_session("fuzz-session");
  const mloc::Bytes cancel = encode_cancel(42);
  const mloc::Bytes ok_status = encode_status(mloc::Status::ok());
  const mloc::Bytes err_status =
      encode_status(mloc::corrupt_data("seed: carried error"));

  mloc::service::Request req;
  req.var = "temperature";
  req.deadline_s = 0.5;
  const mloc::Bytes request = encode_request(req);

  const mloc::Bytes stats = encode_stats(StatsSnapshot{});
  const mloc::Bytes session_stats =
      encode_session_stats(mloc::service::SessionStats{});

  mloc::service::Response resp;
  resp.result.positions = {1, 5, 9};
  resp.result.values = {1.5, -2.25, 8.0};
  EncodedResponse enc = encode_response_frame(7, std::move(resp));
  mloc::Bytes response_frame = enc.head;
  const auto* pos_bytes =
      reinterpret_cast<const std::uint8_t*>(enc.positions.data());
  response_frame.insert(
      response_frame.end(), pos_bytes,
      pos_bytes + enc.positions.size() * sizeof(std::uint64_t));
  const auto* val_bytes =
      reinterpret_cast<const std::uint8_t*>(enc.values.data());
  response_frame.insert(response_frame.end(), val_bytes,
                        val_bytes + enc.values.size() * sizeof(double));

  // Whole frames — exercise the header + payload-CRC path.
  write_seed(dir, "frame_ping", encode_frame(FrameType::kPing, 1, {}));
  write_seed(dir, "frame_open", encode_frame(FrameType::kOpenSession, 2, open));
  write_seed(dir, "frame_query", encode_frame(FrameType::kQuery, 3, request));
  write_seed(dir, "frame_cancel", encode_frame(FrameType::kCancel, 4, cancel));
  write_seed(dir, "frame_ack", encode_frame(FrameType::kAck, 5, ok_status));
  write_seed(dir, "frame_response", response_frame);

  // Selector-prefixed payloads — exercise each payload decoder directly
  // (selector values match fuzz_wire.cpp's dispatch table).
  write_seed(dir, "payload_open", with_selector(0, open));
  write_seed(dir, "payload_session_opened",
             with_selector(1, encode_session_opened(99)));
  write_seed(dir, "payload_request", with_selector(2, request));
  write_seed(dir, "payload_cancel", with_selector(3, cancel));
  write_seed(dir, "payload_status", with_selector(4, err_status));
  // Strip the frame header so selector 5 sees the response *payload*.
  write_seed(dir, "payload_response",
             with_selector(5, std::span<const std::uint8_t>(response_frame)
                                  .subspan(kHeaderBytes)));
  write_seed(dir, "payload_stats", with_selector(6, stats));
  write_seed(dir, "payload_session_stats", with_selector(7, session_stats));
}

void make_mzip_seeds(const std::filesystem::path& dir) {
  const mloc::MzipCodec codec;
  const auto emit = [&](const std::string& name, const mloc::Bytes& raw) {
    auto encoded = codec.encode(raw);
    if (!encoded.is_ok()) {
      std::cerr << "make_seeds: mzip encode failed for " << name << "\n";
      std::exit(1);
    }
    write_seed(dir, name, encoded.value());
  };

  emit("empty", {});

  mloc::Bytes text;
  const std::string phrase = "multi-level layout optimization ";
  for (int i = 0; i < 32; ++i) text.insert(text.end(), phrase.begin(), phrase.end());
  emit("text", text);

  mloc::Bytes runs(4096, 0x00);
  for (std::size_t i = 1024; i < 2048; ++i) runs[i] = 0xFF;
  emit("runs", runs);

  // Byte-plane-like data: low entropy with a short period, the shape PLoD
  // byte groups actually hand the codec.
  mloc::Bytes planes(8192);
  std::uint32_t state = 0x9E3779B9u;
  for (auto& b : planes) {
    state = state * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>((state >> 24) & 0x0F);
  }
  emit("planes", planes);

  // Mantissa-noise bytes, which code stored (0x00, varint(n), the n raw
  // bytes), and three malformed stored streams around that form: n = 0,
  // n past the end, and a byte after the last one.
  mloc::Bytes noise(2048);
  for (auto& b : noise) {
    state = state * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(state >> 24);
  }
  auto stored = codec.encode(noise);
  if (!stored.is_ok() || stored.value().empty() || stored.value()[0] != 0) {
    std::cerr << "make_seeds: noise did not code stored\n";
    std::exit(1);
  }
  write_seed(dir, "stored", stored.value());
  write_seed(dir, "stored_empty", mloc::Bytes{0x00, 0x00});
  write_seed(dir, "stored_short", mloc::Bytes{0x00, 0x10, 0x01, 0x02, 0x03});
  mloc::Bytes trailing = stored.value();
  trailing.push_back(0xFF);
  write_seed(dir, "stored_trailing", trailing);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: make_seeds <out_dir>\n";
    return 1;
  }
  const std::filesystem::path root(argv[1]);
  std::error_code ec;
  std::filesystem::create_directories(root / "wire", ec);
  std::filesystem::create_directories(root / "mzip", ec);
  if (ec) {
    std::cerr << "make_seeds: cannot create " << root << ": " << ec.message()
              << "\n";
    return 1;
  }
  make_wire_seeds(root / "wire");
  make_mzip_seeds(root / "mzip");
  std::cout << "seed corpora written under " << root << "\n";
  return 0;
}
