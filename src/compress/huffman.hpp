// Canonical Huffman coding over small alphabets (<= 512 symbols).
//
// The entropy-coding stage of the mzip (DEFLATE-style) encoder, which the
// ISOBAR-like byte-plane compressor reaches through mzip. Code lengths are
// limited to kMaxCodeLen via the standard overflow-rebalancing step, and
// only the length table is transmitted (canonical assignment is
// reproducible). HuffmanCode drives encode and the retained reference
// decoder (detail::scalar::mzip_decode) only: MzipCodec::decode builds its
// own decode tables on the stack for each stream (src/compress/mzip.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "compress/bitstream.hpp"
#include "util/status.hpp"

namespace mloc {

class HuffmanCode {
 public:
  static constexpr int kMaxCodeLen = 15;

  /// Build an encoder's code from symbol frequencies (size = alphabet
  /// size, <= 512). Symbols with zero frequency get no code. At least one
  /// symbol must have nonzero frequency. Builds no decode table: decode
  /// through from_lengths(lengths()).
  static HuffmanCode from_frequencies(std::span<const std::uint64_t> freqs);

  /// Rebuild a decoder's code from transmitted code lengths, decode table
  /// included. Fails on over-subscribed or invalid length tables (the
  /// Kraft sum must not exceed 1).
  static Result<HuffmanCode> from_lengths(std::span<const std::uint8_t> lengths);

  /// Per-symbol code lengths (0 = symbol unused) — what gets transmitted.
  [[nodiscard]] const std::vector<std::uint8_t>& lengths() const noexcept {
    return len_;
  }

  void encode_symbol(BitWriter& w, int symbol) const {
    MLOC_DCHECK(symbol >= 0 && static_cast<std::size_t>(symbol) < len_.size());
    MLOC_DCHECK(len_[symbol] > 0);
    w.put_bits(code_[symbol], len_[symbol]);
  }

  /// Raw code bits / length for a symbol, for callers that fuse several
  /// fields into one put_bits call. LSB-first, same as encode_symbol emits.
  [[nodiscard]] std::uint32_t code_bits(int symbol) const noexcept {
    MLOC_DCHECK(symbol >= 0 && static_cast<std::size_t>(symbol) < len_.size());
    return code_[symbol];
  }
  [[nodiscard]] int code_length(int symbol) const noexcept {
    MLOC_DCHECK(symbol >= 0 && static_cast<std::size_t>(symbol) < len_.size());
    return len_[symbol];
  }

  /// Decode one symbol; -1 on invalid/corrupt bit pattern. Only a code
  /// built by from_lengths has the table this reads.
  [[nodiscard]] int decode_symbol(BitReader& r) const {
    MLOC_DCHECK(!decode_table_.empty());
    const auto window = static_cast<std::uint32_t>(r.peek_bits(max_len_));
    const std::int16_t sym = decode_table_[window];
    if (sym < 0) return -1;
    r.skip_bits(len_[sym]);
    return sym;
  }

  /// Serialize the length table compactly (RLE of zero runs).
  void serialize_lengths(ByteWriter& w) const;
  static Result<std::vector<std::uint8_t>> deserialize_lengths(
      ByteReader& r, std::size_t alphabet_size);

 private:
  void assign_canonical_codes();
  void build_decode_table();

  std::vector<std::uint8_t> len_;     // per-symbol code length
  std::vector<std::uint32_t> code_;   // per-symbol code bits (LSB-first order)
  std::vector<std::int16_t> decode_table_;  // from_lengths: window -> symbol
  int max_len_ = 0;
};

}  // namespace mloc
