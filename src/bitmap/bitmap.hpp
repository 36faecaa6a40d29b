// Plain and WAH-compressed bitmaps.
//
// MLOC represents spatial index results as bitmaps to minimize memory
// footprint and inter-rank communication (paper §III-D-4): a region-only
// query over variable A yields a bitmap of qualifying positions that is
// broadcast and reused to drive value-retrieval on variable B. The
// FastBit-like baseline builds its whole per-bin index out of these.
//
// WahBitmap is the Word-Aligned Hybrid encoding (Wu et al., the scheme
// FastBit uses): a sequence of 32-bit words, each either a literal holding
// 31 payload bits (MSB=0) or a fill (MSB=1, bit30 = fill value, low 30 bits
// = run length in 31-bit groups). Logical AND/OR run directly on the
// compressed form.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "util/assert.hpp"
#include "util/bytes.hpp"
#include "util/status.hpp"

namespace mloc {

class Bitmap;
class WahBitmap;

namespace detail::scalar {
/// Retained bit-at-a-time / group-at-a-time references for differential
/// tests and bench_kernels A/B runs against the word-level fast paths.
std::uint64_t bitmap_count(const Bitmap& bm);
/// Group at a time: each run's 31-bit payload popcount times its length.
std::uint64_t wah_count(const WahBitmap& bm);
std::uint64_t bitmap_collect_set(const Bitmap& bm,
                                 std::vector<std::uint64_t>& out);
WahBitmap wah_logical_and(const WahBitmap& a, const WahBitmap& b);
WahBitmap wah_logical_or(const WahBitmap& a, const WahBitmap& b);
}  // namespace detail::scalar

/// Uncompressed dynamic bitset.
class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(std::uint64_t nbits) : nbits_(nbits), words_((nbits + 63) / 64, 0) {}

  [[nodiscard]] std::uint64_t size() const noexcept { return nbits_; }

  void set(std::uint64_t i, bool v = true) noexcept {
    MLOC_DCHECK(i < nbits_);
    if (v) {
      words_[i >> 6] |= (1ull << (i & 63));
    } else {
      words_[i >> 6] &= ~(1ull << (i & 63));
    }
  }
  [[nodiscard]] bool get(std::uint64_t i) const noexcept {
    MLOC_DCHECK(i < nbits_);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  /// Number of set bits: an 8-way unrolled word popcount, with the POPCNT
  /// instruction where the CPU has it (DESIGN.md §11).
  [[nodiscard]] std::uint64_t count() const noexcept;

  /// True when a bit in [begin, end) is set (false for an empty range).
  /// Word-level: masks the first and last word, tests whole words between.
  /// Precondition: begin <= end <= size().
  [[nodiscard]] bool any(std::uint64_t begin, std::uint64_t end) const noexcept {
    MLOC_DCHECK(begin <= end && end <= nbits_);
    if (begin >= end) return false;
    const std::uint64_t first = begin >> 6;
    const std::uint64_t last = (end - 1) >> 6;
    const std::uint64_t head = ~0ull << (begin & 63);
    const std::uint64_t tail = ~0ull >> (63 - ((end - 1) & 63));
    if (first == last) return (words_[first] & head & tail) != 0;
    if ((words_[first] & head) != 0) return true;
    for (std::uint64_t w = first + 1; w < last; ++w) {
      if (words_[w] != 0) return true;
    }
    return (words_[last] & tail) != 0;
  }

  /// In-place logical ops. Preconditions: equal sizes.
  Bitmap& operator&=(const Bitmap& o) noexcept;
  Bitmap& operator|=(const Bitmap& o) noexcept;
  /// Flip all bits (trailing padding stays clear).
  void flip() noexcept;

  [[nodiscard]] bool operator==(const Bitmap& o) const noexcept {
    return nbits_ == o.nbits_ && words_ == o.words_;
  }

  /// Invoke fn(index) for every set bit, ascending. Word-level: zero words
  /// (the common case in sparse filter results) cost one load + compare;
  /// set bits are extracted via ctz + clear-lowest, never per-bit get().
  template <typename Fn>
  void for_each_set(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        const int bit = std::countr_zero(word);
        fn(static_cast<std::uint64_t>(w) * 64 + static_cast<unsigned>(bit));
        word &= word - 1;
      }
    }
  }

  /// Heap bytes used by the raw representation (for Table I accounting).
  [[nodiscard]] std::uint64_t byte_size() const noexcept {
    return words_.size() * sizeof(std::uint64_t);
  }

 private:
  friend class WahBitmap;
  std::uint64_t nbits_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Word-Aligned Hybrid compressed bitmap.
class WahBitmap {
 public:
  WahBitmap() = default;

  static WahBitmap compress(const Bitmap& plain);
  /// The one WAH → plain decoder: `Bitmap out(size_bits()); or_into(out);`.
  [[nodiscard]] Bitmap decompress() const;
  /// OR this bitmap into `dst` word by word: a literal's 31 bits land with
  /// one shift (two words when it straddles a 64-bit boundary), a 1-fill
  /// sets whole words, a 0-fill is skipped. Precondition: dst.size() ==
  /// size_bits().
  void or_into(Bitmap& dst) const;

  [[nodiscard]] std::uint64_t size_bits() const noexcept { return nbits_; }
  /// Compressed storage footprint in bytes (words + length field).
  [[nodiscard]] std::uint64_t byte_size() const noexcept {
    return words_.size() * sizeof(std::uint32_t) + sizeof(std::uint64_t);
  }

  /// Population count straight off the compressed words, with the POPCNT
  /// instruction where the CPU has it (DESIGN.md §11).
  [[nodiscard]] std::uint64_t count() const noexcept;

  /// Compressed-domain logical ops. Preconditions: equal size_bits().
  /// Runs of the op's annihilator fill (zero fills for AND, one fills for
  /// OR) are skipped whole — the other operand's groups are never decoded
  /// across them. Output is canonical and byte-identical to the retained
  /// group-at-a-time reference (detail::scalar::wah_logical_*).
  static WahBitmap logical_and(const WahBitmap& a, const WahBitmap& b);
  static WahBitmap logical_or(const WahBitmap& a, const WahBitmap& b);

  void serialize(ByteWriter& w) const;
  /// Rejects (CorruptData) zero-length fills, a group count that does not
  /// match the bit count, and a final group with a bit set at or past
  /// size_bits() — so count() and or_into never see padding bits.
  static Result<WahBitmap> deserialize(ByteReader& r);

  [[nodiscard]] bool operator==(const WahBitmap& o) const noexcept {
    return nbits_ == o.nbits_ && words_ == o.words_;
  }

 private:
  friend std::uint64_t detail::scalar::wah_count(const WahBitmap& bm);
  friend WahBitmap detail::scalar::wah_logical_and(const WahBitmap& a,
                                                   const WahBitmap& b);
  friend WahBitmap detail::scalar::wah_logical_or(const WahBitmap& a,
                                                  const WahBitmap& b);

  /// Fast merge: `ann` is the op's annihilating fill value (false for AND,
  /// true for OR); runs of it pass through without decoding the other side.
  template <typename Op>
  static WahBitmap binary_op(const WahBitmap& a, const WahBitmap& b, Op op,
                             bool ann);
  /// Retained group-at-a-time merge (no annihilator skipping), reachable
  /// via detail::scalar::wah_logical_* for A/B runs.
  template <typename Op>
  static WahBitmap binary_op_reference(const WahBitmap& a, const WahBitmap& b,
                                       Op op);

  void append_group(std::uint32_t group31);  // with run coalescing
  void append_fill(bool bit, std::uint32_t ngroups);

  std::uint64_t nbits_ = 0;
  std::vector<std::uint32_t> words_;
};

}  // namespace mloc
