// mzip: a from-scratch DEFLATE-style general-purpose compressor.
//
// MLOC-COL compresses PLoD byte-columns with "standard Zlib compression"
// (paper §III-B-4); this reproduction has no external zlib dependency, so
// mzip supplies the same mechanism: greedy LZ77 over a 32 KiB window with
// hash-chain match search, followed by canonical-Huffman entropy coding of
// a combined literal/length alphabet and a distance alphabet (DEFLATE's
// code tables).
//
// Each buffer becomes one of two streams, as zlib writes a block either
// dynamically coded or stored:
//   dynamic: varint(n), 158 nibble-packed code-length bytes, the Huffman
//            payload ending in the end-of-block code;
//   stored:  0x00, varint(n), the n raw bytes (n >= 1).
// The encoder writes the stored form whenever it is no larger than the
// dynamic stream would be. An empty buffer is the single byte 0x00.
//
// MzipCodec::encode decides "stored" before it builds a code wherever
// that is provable (DESIGN.md §11): a buffer of at most 158 bytes, whose
// dynamic stream the code-length tables alone make larger, is stored
// without tokenizing, and otherwise a floor on the payload bits (the
// symbol streams' entropy plus the exact extra bits) that already reaches
// the stored size settles it. The rest build both codes and compare
// exactly. Each thread that encodes reuses its tokenizer buffers from
// call to call (DESIGN.md §10).
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

namespace detail {

/// MzipCodec(max_chain)'s dynamic stream for a non-empty `raw`, written
/// even where encode() stores the bytes instead, with the size encode()
/// predicted for it (from code lengths and symbol frequencies) in
/// `predicted`. Tests pin the prediction to the emitted size, since a
/// wrong one would flip the stored-or-dynamic choice silently.
Result<Bytes> mzip_encode_dynamic(std::span<const std::uint8_t> raw,
                                  int max_chain, std::size_t& predicted);

}  // namespace detail

namespace detail::scalar {

/// Retained byte-at-a-time encoder implementing the same tokenizer
/// contract as MzipCodec::encode (hash-chain walk order, greedy match
/// selection, incompressible-stretch skip-ahead) without the word-level
/// fast paths, and the exhaustive choice of form: every buffer is
/// tokenized with fresh buffers, both codes are built and the sizes
/// compared exactly. Output is byte-identical to MzipCodec::encode with
/// the same max_chain; kept for differential tests, fuzz_mzip and
/// bench_kernels A/B runs.
Result<Bytes> mzip_encode(std::span<const std::uint8_t> raw, int max_chain);

/// Retained decoder that MzipCodec::decode replaced: HuffmanCode tables
/// rebuilt per stream, a bytewise BitReader and push_back output. Reads
/// both stream forms (the stored one through the same bounds-checked copy
/// as MzipCodec::decode); MzipCodec::decode returns identical bytes when
/// this succeeds and the same ErrorCode when it fails. Kept for
/// differential tests, the fuzz harness and bench_kernels A/B runs.
Result<Bytes> mzip_decode(std::span<const std::uint8_t> stream);

}  // namespace detail::scalar

}  // namespace mloc
