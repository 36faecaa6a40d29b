#include "bitmap/bitmap.hpp"

#include <bit>

#include "util/cpu.hpp"

namespace mloc {
namespace {

constexpr std::uint32_t kFillFlag = 0x80000000u;
constexpr std::uint32_t kFillBit = 0x40000000u;
constexpr std::uint32_t kLenMask = 0x3FFFFFFFu;
constexpr std::uint32_t kPayloadMask = 0x7FFFFFFFu;

bool is_fill(std::uint32_t w) noexcept { return (w & kFillFlag) != 0; }
bool fill_value(std::uint32_t w) noexcept { return (w & kFillBit) != 0; }
std::uint32_t fill_len(std::uint32_t w) noexcept { return w & kLenMask; }

/// Streams a WAH word vector as a sequence of 31-bit groups, exposing runs.
class GroupCursor {
 public:
  explicit GroupCursor(const std::vector<std::uint32_t>& words)
      : words_(words) {
    advance_word();
  }

  [[nodiscard]] bool done() const noexcept { return done_; }

  /// Current group payload (31 bits).
  [[nodiscard]] std::uint32_t payload() const noexcept {
    return in_fill_ ? (fill_value_ ? kPayloadMask : 0u) : literal_;
  }

  /// Number of identical groups available at the current position
  /// (>=1 while not done; >1 only inside a fill run).
  [[nodiscard]] std::uint32_t run_remaining() const noexcept {
    return in_fill_ ? fill_remaining_ : 1;
  }
  [[nodiscard]] bool run_is_fill() const noexcept { return in_fill_; }
  [[nodiscard]] bool run_fill_value() const noexcept { return fill_value_; }

  /// Consume n groups (n <= run_remaining()).
  void consume(std::uint32_t n) noexcept {
    if (in_fill_) {
      MLOC_DCHECK(n <= fill_remaining_);
      fill_remaining_ -= n;
      if (fill_remaining_ == 0) advance_word();
    } else {
      MLOC_DCHECK(n == 1);
      advance_word();
    }
  }

  /// Consume n groups across run boundaries without exposing payloads —
  /// used to stream past the other operand's annihilator fills.
  void skip(std::uint32_t n) noexcept {
    while (n > 0 && !done_) {
      const std::uint32_t step = std::min(n, run_remaining());
      consume(step);
      n -= step;
    }
    MLOC_DCHECK(n == 0);
  }

 private:
  void advance_word() noexcept {
    if (pos_ >= words_.size()) {
      done_ = true;
      return;
    }
    const std::uint32_t w = words_[pos_++];
    if (is_fill(w)) {
      in_fill_ = true;
      fill_value_ = fill_value(w);
      fill_remaining_ = fill_len(w);
      MLOC_DCHECK(fill_remaining_ > 0);
    } else {
      in_fill_ = false;
      literal_ = w & kPayloadMask;
    }
  }

  const std::vector<std::uint32_t>& words_;
  std::size_t pos_ = 0;
  bool done_ = false;
  bool in_fill_ = false;
  bool fill_value_ = false;
  std::uint32_t fill_remaining_ = 0;
  std::uint32_t literal_ = 0;
};

/// Set bits in w[0, nw): 8-way unrolled with 4 accumulators, which breaks
/// the add dependency chain so the popcounts pipeline (DESIGN.md §11).
[[gnu::always_inline]] inline std::uint64_t count_words(
    const std::uint64_t* w, std::size_t nw) noexcept {
  std::uint64_t c0 = 0;
  std::uint64_t c1 = 0;
  std::uint64_t c2 = 0;
  std::uint64_t c3 = 0;
  std::size_t i = 0;
  for (; i + 8 <= nw; i += 8) {
    c0 += static_cast<std::uint64_t>(std::popcount(w[i + 0])) +
          static_cast<std::uint64_t>(std::popcount(w[i + 4]));
    c1 += static_cast<std::uint64_t>(std::popcount(w[i + 1])) +
          static_cast<std::uint64_t>(std::popcount(w[i + 5]));
    c2 += static_cast<std::uint64_t>(std::popcount(w[i + 2])) +
          static_cast<std::uint64_t>(std::popcount(w[i + 6]));
    c3 += static_cast<std::uint64_t>(std::popcount(w[i + 3])) +
          static_cast<std::uint64_t>(std::popcount(w[i + 7]));
  }
  for (; i < nw; ++i) {
    c0 += static_cast<std::uint64_t>(std::popcount(w[i]));
  }
  return c0 + c1 + c2 + c3;
}

MLOC_TARGET_POPCNT std::uint64_t count_words_popcnt(const std::uint64_t* w,
                                                    std::size_t nw) noexcept {
  return count_words(w, nw);
}

/// Set bits of a WAH word stream, straight off the compressed words. The
/// final group's padding bits are never set: compress() only writes bits
/// below the bit count and deserialize() rejects streams that set one.
[[gnu::always_inline]] inline std::uint64_t count_wah(
    const std::uint32_t* words, std::size_t n) noexcept {
  std::uint64_t c = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t w = words[i];
    if (is_fill(w)) {
      if (fill_value(w)) c += 31ull * fill_len(w);
    } else {
      c += static_cast<std::uint64_t>(std::popcount(w & kPayloadMask));
    }
  }
  return c;
}

MLOC_TARGET_POPCNT std::uint64_t count_wah_popcnt(const std::uint32_t* words,
                                                  std::size_t n) noexcept {
  return count_wah(words, n);
}

}  // namespace

std::uint64_t Bitmap::count() const noexcept {
  return cpu::has_popcnt() ? count_words_popcnt(words_.data(), words_.size())
                           : count_words(words_.data(), words_.size());
}

Bitmap& Bitmap::operator&=(const Bitmap& o) noexcept {
  MLOC_CHECK(nbits_ == o.nbits_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= o.words_[i];
  return *this;
}

Bitmap& Bitmap::operator|=(const Bitmap& o) noexcept {
  MLOC_CHECK(nbits_ == o.nbits_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= o.words_[i];
  return *this;
}

void Bitmap::flip() noexcept {
  for (auto& w : words_) w = ~w;
  // Clear padding bits past nbits_ so count()/== stay meaningful.
  const std::uint64_t tail = nbits_ & 63;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (1ull << tail) - 1;
  }
}

void WahBitmap::append_fill(bool bit, std::uint32_t ngroups) {
  if (ngroups == 0) return;
  // Coalesce with a preceding fill of the same value.
  if (!words_.empty() && is_fill(words_.back()) &&
      fill_value(words_.back()) == bit &&
      fill_len(words_.back()) + static_cast<std::uint64_t>(ngroups) <= kLenMask) {
    words_.back() += ngroups;
    return;
  }
  while (ngroups > 0) {
    const std::uint32_t n = std::min(ngroups, kLenMask);
    words_.push_back(kFillFlag | (bit ? kFillBit : 0u) | n);
    ngroups -= n;
  }
}

void WahBitmap::append_group(std::uint32_t group31) {
  if (group31 == 0) {
    append_fill(false, 1);
  } else if (group31 == kPayloadMask) {
    append_fill(true, 1);
  } else {
    words_.push_back(group31);
  }
}

WahBitmap WahBitmap::compress(const Bitmap& plain) {
  WahBitmap out;
  out.nbits_ = plain.size();
  const std::uint64_t ngroups = (plain.size() + 30) / 31;
  const auto& words = plain.words_;
  for (std::uint64_t g = 0; g < ngroups; ++g) {
    // Extract the 31-bit group straight from the 64-bit word array; padding
    // bits past size() are always clear in Bitmap's representation.
    const std::uint64_t bitpos = g * 31;
    const std::size_t w = bitpos >> 6;
    const int shift = static_cast<int>(bitpos & 63);
    std::uint64_t window = words[w] >> shift;
    if (shift > 33 && w + 1 < words.size()) {
      window |= words[w + 1] << (64 - shift);
    }
    out.append_group(static_cast<std::uint32_t>(window & kPayloadMask));
  }
  return out;
}

Bitmap WahBitmap::decompress() const {
  Bitmap out(nbits_);
  or_into(out);
  return out;
}

void WahBitmap::or_into(Bitmap& dst) const {
  MLOC_CHECK(dst.nbits_ == nbits_);
  std::uint64_t* const out = dst.words_.data();
  const std::size_t nw = dst.words_.size();
  std::uint64_t bitpos = 0;
  for (const std::uint32_t w : words_) {
    if (!is_fill(w)) {
      const std::uint64_t payload = w & kPayloadMask;
      const std::size_t i = bitpos >> 6;
      const unsigned shift = bitpos & 63;
      out[i] |= payload << shift;
      // The group straddles two words once shift + 31 > 64. Where word
      // i + 1 does not exist its share is padding, which deserialize()
      // rejects.
      if (shift > 33 && i + 1 < nw) out[i + 1] |= payload >> (64 - shift);
      bitpos += 31;
      continue;
    }
    const std::uint64_t end = bitpos + 31ull * fill_len(w);
    if (fill_value(w)) {
      MLOC_DCHECK(end <= nbits_);  // a 1-fill never covers padding bits
      const std::size_t first = bitpos >> 6;
      const std::size_t last = (end - 1) >> 6;
      const std::uint64_t head = ~0ull << (bitpos & 63);
      const std::uint64_t tail = ~0ull >> (63 - ((end - 1) & 63));
      if (first == last) {
        out[first] |= head & tail;
      } else {
        out[first] |= head;
        for (std::size_t k = first + 1; k < last; ++k) out[k] = ~0ull;
        out[last] |= tail;
      }
    }
    bitpos = end;
  }
}

std::uint64_t WahBitmap::count() const noexcept {
  return cpu::has_popcnt() ? count_wah_popcnt(words_.data(), words_.size())
                           : count_wah(words_.data(), words_.size());
}

template <typename Op>
WahBitmap WahBitmap::binary_op(const WahBitmap& a, const WahBitmap& b, Op op,
                               bool ann) {
  MLOC_CHECK(a.nbits_ == b.nbits_);
  WahBitmap out;
  out.nbits_ = a.nbits_;
  GroupCursor ca(a.words_);
  GroupCursor cb(b.words_);
  while (!ca.done() && !cb.done()) {
    // Annihilator fast path: a fill of the op's absorbing value (0-fill for
    // AND, 1-fill for OR) forces the result for its whole run, so the other
    // operand's groups are skipped wholesale, never decoded. append_fill's
    // coalescing makes the output identical to the group-at-a-time
    // reference below.
    if (ca.run_is_fill() && ca.run_fill_value() == ann) {
      const std::uint32_t n = ca.run_remaining();
      out.append_fill(ann, n);
      ca.consume(n);
      cb.skip(n);
    } else if (cb.run_is_fill() && cb.run_fill_value() == ann) {
      const std::uint32_t n = cb.run_remaining();
      out.append_fill(ann, n);
      cb.consume(n);
      ca.skip(n);
    } else if (ca.run_is_fill() && cb.run_is_fill()) {
      // Both identity fills: op(!ann, !ann) for the overlapping run.
      const std::uint32_t n = std::min(ca.run_remaining(), cb.run_remaining());
      const bool v = op(ca.run_fill_value(), cb.run_fill_value());
      out.append_fill(v, n);
      ca.consume(n);
      cb.consume(n);
    } else if (ca.run_is_fill()) {
      // a is an identity fill, b a literal: the result is b's group.
      out.append_group(cb.payload());
      ca.consume(1);
      cb.consume(1);
    } else if (cb.run_is_fill()) {
      out.append_group(ca.payload());
      ca.consume(1);
      cb.consume(1);
    } else {
      const std::uint32_t merged = op(ca.payload(), cb.payload()) & kPayloadMask;
      out.append_group(merged);
      ca.consume(1);
      cb.consume(1);
    }
  }
  MLOC_CHECK(ca.done() == cb.done());  // equal sizes → streams end together
  return out;
}

template <typename Op>
WahBitmap WahBitmap::binary_op_reference(const WahBitmap& a, const WahBitmap& b,
                                         Op op) {
  MLOC_CHECK(a.nbits_ == b.nbits_);
  WahBitmap out;
  out.nbits_ = a.nbits_;
  GroupCursor ca(a.words_);
  GroupCursor cb(b.words_);
  while (!ca.done() && !cb.done()) {
    if (ca.run_is_fill() && cb.run_is_fill()) {
      const std::uint32_t n = std::min(ca.run_remaining(), cb.run_remaining());
      const bool v = op(ca.run_fill_value(), cb.run_fill_value());
      out.append_fill(v, n);
      ca.consume(n);
      cb.consume(n);
    } else {
      const std::uint32_t merged = op(ca.payload(), cb.payload()) & kPayloadMask;
      out.append_group(merged);
      ca.consume(1);
      cb.consume(1);
    }
  }
  MLOC_CHECK(ca.done() == cb.done());  // equal sizes → streams end together
  return out;
}

WahBitmap WahBitmap::logical_and(const WahBitmap& a, const WahBitmap& b) {
  return binary_op(
      a, b, [](auto x, auto y) { return x & y; }, /*ann=*/false);
}

WahBitmap WahBitmap::logical_or(const WahBitmap& a, const WahBitmap& b) {
  return binary_op(
      a, b, [](auto x, auto y) { return x | y; }, /*ann=*/true);
}

void WahBitmap::serialize(ByteWriter& w) const {
  w.put_varint(nbits_);
  w.put_varint(words_.size());
  for (auto word : words_) w.put_u32(word);
}

Result<WahBitmap> WahBitmap::deserialize(ByteReader& r) {
  WahBitmap out;
  MLOC_ASSIGN_OR_RETURN(out.nbits_, r.get_varint());
  MLOC_ASSIGN_OR_RETURN(std::uint64_t nwords, r.get_varint());
  if (nwords > r.remaining() / sizeof(std::uint32_t)) {
    return corrupt_data("WAH word count exceeds stream");
  }
  out.words_.reserve(nwords);
  for (std::uint64_t i = 0; i < nwords; ++i) {
    MLOC_ASSIGN_OR_RETURN(std::uint32_t word, r.get_u32());
    if (is_fill(word) && fill_len(word) == 0) {
      return corrupt_data("WAH fill word with zero length");
    }
    out.words_.push_back(word);
  }
  // Validate total group count against nbits_.
  std::uint64_t groups = 0;
  for (auto word : out.words_) groups += is_fill(word) ? fill_len(word) : 1;
  if (groups != (out.nbits_ + 30) / 31) {
    return corrupt_data("WAH group count mismatches bit count");
  }
  // Bits of the final group at or past nbits_ are padding. count() would
  // include one and or_into would carry it past the grid volume.
  if (!out.words_.empty()) {
    const std::uint32_t last = out.words_.back();
    const std::uint32_t payload =
        is_fill(last) ? (fill_value(last) ? kPayloadMask : 0u)
                      : last & kPayloadMask;
    const std::uint64_t valid = out.nbits_ - 31 * (groups - 1);  // 1..31
    if (valid < 31 && (payload >> valid) != 0) {
      return corrupt_data(
          "WAH final group sets padding bits past the bit count");
    }
  }
  return out;
}

namespace detail::scalar {

std::uint64_t bitmap_count(const Bitmap& bm) {
  std::uint64_t c = 0;
  for (std::uint64_t i = 0; i < bm.size(); ++i) {
    c += bm.get(i) ? 1 : 0;
  }
  return c;
}

std::uint64_t wah_count(const WahBitmap& bm) {
  std::uint64_t c = 0;
  for (GroupCursor cur(bm.words_); !cur.done();) {
    const std::uint32_t run = cur.run_remaining();
    c += static_cast<std::uint64_t>(std::popcount(cur.payload())) * run;
    cur.consume(run);
  }
  return c;
}

std::uint64_t bitmap_collect_set(const Bitmap& bm,
                                 std::vector<std::uint64_t>& out) {
  for (std::uint64_t i = 0; i < bm.size(); ++i) {
    if (bm.get(i)) out.push_back(i);
  }
  return out.size();
}

WahBitmap wah_logical_and(const WahBitmap& a, const WahBitmap& b) {
  return WahBitmap::binary_op_reference(
      a, b, [](auto x, auto y) { return x & y; });
}

WahBitmap wah_logical_or(const WahBitmap& a, const WahBitmap& b) {
  return WahBitmap::binary_op_reference(
      a, b, [](auto x, auto y) { return x | y; });
}

}  // namespace detail::scalar

}  // namespace mloc
