// mzip: a from-scratch DEFLATE-style general-purpose compressor.
//
// MLOC-COL compresses PLoD byte-columns with "standard Zlib compression"
// (paper §III-B-4); this reproduction has no external zlib dependency, so
// mzip supplies the same mechanism: greedy LZ77 over a 32 KiB window with
// hash-chain match search, followed by canonical-Huffman entropy coding of
// a combined literal/length alphabet and a distance alphabet (DEFLATE's
// code tables). One dynamically-coded block per buffer.
#pragma once

#include "compress/codec.hpp"

namespace mloc {

class MzipCodec final : public ByteCodec {
 public:
  /// `max_chain` bounds the hash-chain walk per position: higher = better
  /// ratio, slower encode (zlib's compression-level analogue).
  explicit MzipCodec(int max_chain = 64) : max_chain_(max_chain) {
    MLOC_CHECK(max_chain >= 1);
  }

  [[nodiscard]] std::string_view name() const noexcept override {
    return "mzip";
  }

  [[nodiscard]] Result<Bytes> encode(
      std::span<const std::uint8_t> raw) const override;

  [[nodiscard]] Result<Bytes> decode(
      std::span<const std::uint8_t> stream) const override;

 private:
  int max_chain_;
};

namespace detail::scalar {

/// Retained byte-at-a-time encoder implementing the same tokenizer
/// contract as MzipCodec::encode (hash-chain walk order, greedy match
/// selection, incompressible-stretch skip-ahead) without the word-level
/// fast paths. Output is byte-identical to MzipCodec::encode with the same
/// max_chain; kept for differential tests and bench_kernels A/B runs.
Result<Bytes> mzip_encode(std::span<const std::uint8_t> raw, int max_chain);

/// Retained decoder that MzipCodec::decode replaced: HuffmanCode tables
/// rebuilt per stream, a bytewise BitReader and push_back output. Reads
/// the same stream format; MzipCodec::decode returns identical bytes when
/// this succeeds and the same ErrorCode when it fails. Kept for
/// differential tests, the fuzz harness and bench_kernels A/B runs.
Result<Bytes> mzip_decode(std::span<const std::uint8_t> stream);

}  // namespace detail::scalar

}  // namespace mloc
