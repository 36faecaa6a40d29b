// libFuzzer harness for the mzip decoder (src/compress/mzip.hpp).
//
// mzip streams come off the PFS, where the threat model is corruption
// rather than hostility — but the decoder's contract is the same either
// way: arbitrary bytes produce either a valid decode or a clean error
// Status, never a crash or UB (Huffman tables, match distances, and output
// lengths are all attacker-influenced). Every input also runs through the
// retained reference decoder, detail::scalar::mzip_decode: the verdict,
// the ErrorCode and the decoded bytes must match. When a mutated stream
// does decode, the harness additionally checks the codec's round-trip
// property: re-encoding the decoded bytes must reproduce them exactly.
#include <cstddef>
#include <cstdint>
#include <span>

#include "compress/mzip.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const mloc::MzipCodec codec;
  auto decoded = codec.decode({data, size});
  const auto reference = mloc::detail::scalar::mzip_decode({data, size});
  if (decoded.is_ok() != reference.is_ok()) __builtin_trap();
  if (!decoded.is_ok()) {
    if (decoded.status().code() != reference.status().code()) __builtin_trap();
    return 0;
  }
  if (decoded.value() != reference.value()) __builtin_trap();

  // The fuzzer found (or mutated its way back to) a valid stream: the
  // decoded plaintext must survive a fresh encode/decode cycle bit-exactly.
  auto reencoded = codec.encode(decoded.value());
  if (!reencoded.is_ok()) __builtin_trap();
  auto redecoded = codec.decode(reencoded.value());
  if (!redecoded.is_ok()) __builtin_trap();
  if (redecoded.value() != decoded.value()) __builtin_trap();
  return 0;
}
