#include "compress/mzip.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <memory>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "compress/huffman.hpp"

namespace mloc {
namespace {

constexpr int kMinMatch = 3;
constexpr int kMaxMatch = 258;
constexpr int kWindowSize = 32768;
constexpr int kHashBits = 15;
constexpr int kHashSize = 1 << kHashBits;
constexpr int kEndOfBlock = 256;
constexpr int kNumLitLen = 286;  // 0..255 literals, 256 EOB, 257..285 lengths
constexpr int kNumDist = 30;

// DEFLATE length codes: symbol 257+i covers lengths [base, base+2^extra).
constexpr std::array<int, 29> kLenBase = {
    3,  4,  5,  6,  7,  8,  9,  10, 11,  13,  15,  17,  19,  23, 27,
    31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258};
constexpr std::array<int, 29> kLenExtra = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1,
                                           1, 1, 2, 2, 2, 2, 3, 3, 3, 3,
                                           4, 4, 4, 4, 5, 5, 5, 5, 0};

// DEFLATE distance codes: symbol i covers distances [base, base+2^extra).
constexpr std::array<int, 30> kDistBase = {
    1,    2,    3,    4,    5,    7,     9,     13,    17,    25,
    33,   49,   65,   97,   129,  193,   257,   385,   513,   769,
    1025, 1537, 2049, 3073, 4097, 6145,  8193,  12289, 16385, 24577};
constexpr std::array<int, 30> kDistExtra = {0, 0, 0,  0,  1,  1,  2,  2,  3, 3,
                                            4, 4, 5,  5,  6,  6,  7,  7,  8, 8,
                                            9, 9, 10, 10, 11, 11, 12, 12, 13, 13};

// len -> length-symbol lookup, indexed by len - kMinMatch. Replaces a
// 29-entry linear scan that ran worst-case for the most common (short)
// lengths — this is on the shared emission path, twice per match.
constexpr std::array<std::uint16_t, kMaxMatch - kMinMatch + 1> kLenSym = [] {
  std::array<std::uint16_t, kMaxMatch - kMinMatch + 1> t{};
  for (int len = kMinMatch; len <= kMaxMatch; ++len) {
    int sym = 0;
    for (int i = 28; i >= 0; --i) {
      if (len >= kLenBase[i]) {
        sym = 257 + i;
        break;
      }
    }
    t[static_cast<std::size_t>(len - kMinMatch)] =
        static_cast<std::uint16_t>(sym);
  }
  return t;
}();

int length_symbol(int len) {
  MLOC_DCHECK(len >= kMinMatch && len <= kMaxMatch);
  return kLenSym[static_cast<std::size_t>(len - kMinMatch)];
}

int distance_symbol(int dist) {
  MLOC_DCHECK(dist >= 1 && dist <= kWindowSize);
  // Distance codes pair up by power of two: symbols 2b-2 and 2b-1 split
  // [2^(b-1)+1, 2^b] in half, so the symbol falls out of the bit width of
  // dist - 1 plus its next-to-top bit. Matches the kDistBase table scan.
  const unsigned d = static_cast<unsigned>(dist) - 1;
  if (d < 4) return static_cast<int>(d);
  const int b = std::bit_width(d);
  return 2 * (b - 1) + static_cast<int>((d >> (b - 2)) & 1u);
}

std::uint32_t hash3(const std::uint8_t* p) {
  // Multiplicative hash of a 3-byte prefix.
  const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                          (static_cast<std::uint32_t>(p[1]) << 8) |
                          (static_cast<std::uint32_t>(p[2]) << 16);
  return (v * 0x9E3779B1u) >> (32 - kHashBits);
}

/// hash3 via one 4-byte load (top byte masked off) when alignment-free
/// word access matches the byte order; falls back to byte loads otherwise
/// or near the buffer end. Same value as hash3 in all cases.
std::uint32_t hash3_fast(const std::uint8_t* p, std::size_t avail) {
  if constexpr (std::endian::native == std::endian::little) {
    if (avail >= 4) {
      std::uint32_t v;
      std::memcpy(&v, p, sizeof v);
      return ((v & 0x00FFFFFFu) * 0x9E3779B1u) >> (32 - kHashBits);
    }
  }
  return hash3(p);
}

int match_length_ref(const std::uint8_t* a, const std::uint8_t* b,
                     int max_len) {
  int len = 0;
  while (len < max_len && a[len] == b[len]) ++len;
  return len;
}

/// Byte-identical to match_length_ref: compares 8 bytes per step via
/// XOR + ctz (first differing byte = trailing-zero count / 8 on
/// little-endian), with an optional 32-byte AVX2 round on top.
int match_length_fast(const std::uint8_t* a, const std::uint8_t* b,
                      int max_len) {
  if constexpr (std::endian::native != std::endian::little) {
    return match_length_ref(a, b, max_len);
  }
  int len = 0;
#if defined(__AVX2__)
  while (len + 32 <= max_len) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + len));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + len));
    const auto eq = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(va, vb)));
    if (eq != 0xFFFFFFFFu) return len + std::countr_zero(~eq);
    len += 32;
  }
#endif
  while (len + 8 <= max_len) {
    std::uint64_t wa;
    std::uint64_t wb;
    std::memcpy(&wa, a + len, sizeof wa);
    std::memcpy(&wb, b + len, sizeof wb);
    const std::uint64_t x = wa ^ wb;
    if (x != 0) return len + (std::countr_zero(x) >> 3);
    len += 8;
  }
  while (len < max_len && a[len] == b[len]) ++len;
  return len;
}

struct Token {
  // literal: dist == 0, len = byte value. match: dist >= 1, len >= kMinMatch.
  std::uint32_t len;
  std::uint32_t dist;
};

// Skip-ahead on incompressible stretches (zlib/LZ4-style): after miss_run
// consecutive match misses, each miss emits 1 + min(miss_run/32, 31)
// literals, searching and chain-indexing only the first. Part of the
// tokenizer contract — both instantiations below must apply it identically.
constexpr std::uint32_t kSkipShift = 5;
constexpr std::size_t kMaxSkipStep = 32;

/// LZ77 tokenizer. The token stream depends only on the contract (chain
/// walk order and budget, first-strictly-longest match, post-walk chain
/// insertion, interior-match indexing, skip-ahead) — never on kFast. The
/// kFast=true instantiation swaps in word-level hash/compare kernels and a
/// prefilter that skips candidates which disagree at offset best_len (such
/// candidates can't produce a strictly longer match, so skipping their
/// length computation is output-neutral). kFast=false is the retained
/// byte-at-a-time reference.
template <bool kFast>
void tokenize(std::span<const std::uint8_t> raw, int max_chain,
              std::vector<Token>& tokens) {
  const std::size_t n = raw.size();
  // Every token consumes at least one input byte, so n bounds the token
  // count; reserving it up front avoids a multi-MB realloc+copy mid-stream.
  // Untouched reserved pages are never faulted in, so the bound is free.
  tokens.reserve(n);
  std::vector<std::int32_t> head(kHashSize, -1);
  // prev is written before it is read on every path (a candidate index only
  // ever comes from a chain it was inserted into), so skip the O(n) fill.
  const auto prev = std::make_unique_for_overwrite<std::int32_t[]>(n);

  std::size_t pos = 0;
  std::uint32_t miss_run = 0;
  while (pos < n) {
    int best_len = 0;
    int best_dist = 0;
    if (pos + kMinMatch <= n) {
      const std::uint8_t* a = raw.data() + pos;
      const std::uint32_t h =
          kFast ? hash3_fast(a, n - pos) : hash3(a);
      std::int32_t cand = head[h];
      int chain = max_chain;
      const int max_len =
          static_cast<int>(std::min<std::size_t>(kMaxMatch, n - pos));
      while (cand >= 0 && chain-- > 0 &&
             pos - static_cast<std::size_t>(cand) <= kWindowSize) {
        const std::uint8_t* b = raw.data() + cand;
        if constexpr (kFast) {
          // A strictly longer match needs bytes [best_len-1, best_len] to
          // agree (16-bit probe) and, once best_len >= 3, the candidate's
          // first four bytes to equal a's (one 32-bit compare that also
          // rejects hash collisions). Both reads stay in bounds because
          // best_len < max_len here (the walk breaks at max_len), and both
          // are equality tests, so byte order does not matter. Skipped
          // candidates cannot beat best_len, so the token stream is
          // unchanged.
          if (best_len > 0) {
            std::uint16_t wa;
            std::uint16_t wb;
            std::memcpy(&wa, a + best_len - 1, sizeof wa);
            std::memcpy(&wb, b + best_len - 1, sizeof wb);
            if (wa != wb) {
              cand = prev[cand];
              continue;
            }
            if (best_len >= 3) {
              std::uint32_t da;
              std::uint32_t db;
              std::memcpy(&da, a, sizeof da);
              std::memcpy(&db, b, sizeof db);
              if (da != db) {
                cand = prev[cand];
                continue;
              }
            }
          }
        }
        const int len = kFast ? match_length_fast(a, b, max_len)
                              : match_length_ref(a, b, max_len);
        if (len > best_len) {
          best_len = len;
          best_dist = static_cast<int>(pos - static_cast<std::size_t>(cand));
          if (len >= max_len) break;
        }
        cand = prev[cand];
      }
      // Insert current position into the chain.
      prev[pos] = head[h];
      head[h] = static_cast<std::int32_t>(pos);
    }

    if (best_len >= kMinMatch) {
      miss_run = 0;
      tokens.push_back({static_cast<std::uint32_t>(best_len),
                        static_cast<std::uint32_t>(best_dist)});
      // Index the skipped positions so later matches can reference them.
      const std::size_t end =
          std::min(pos + static_cast<std::size_t>(best_len), n);
      for (std::size_t p = pos + 1; p + kMinMatch <= n && p < end; ++p) {
        const std::uint32_t h =
            kFast ? hash3_fast(raw.data() + p, n - p) : hash3(raw.data() + p);
        prev[p] = head[h];
        head[h] = static_cast<std::int32_t>(p);
      }
      pos = end;
    } else {
      ++miss_run;
      const std::size_t step =
          1 + std::min<std::size_t>(miss_run >> kSkipShift, kMaxSkipStep - 1);
      const std::size_t lits = std::min(step, n - pos);
      for (std::size_t k = 0; k < lits; ++k) {
        tokens.push_back({raw[pos + k], 0});
      }
      pos += lits;
    }
  }
}

/// Frequency + canonical-Huffman emission shared by both encoders.
Result<Bytes> encode_tokens(std::size_t raw_size,
                            const std::vector<Token>& tokens) {
  ByteWriter out;
  out.put_varint(raw_size);
  if (raw_size == 0) return std::move(out).take();

  std::vector<std::uint64_t> lit_freq(kNumLitLen, 0);
  std::vector<std::uint64_t> dist_freq(kNumDist, 0);
  for (const Token& t : tokens) {
    if (t.dist == 0) {
      ++lit_freq[t.len];
    } else {
      ++lit_freq[length_symbol(static_cast<int>(t.len))];
      ++dist_freq[distance_symbol(static_cast<int>(t.dist))];
    }
  }
  ++lit_freq[kEndOfBlock];
  if (std::all_of(dist_freq.begin(), dist_freq.end(),
                  [](std::uint64_t f) { return f == 0; })) {
    dist_freq[0] = 1;  // keep the distance table well-formed
  }

  const HuffmanCode lit_code = HuffmanCode::from_frequencies(lit_freq);
  const HuffmanCode dist_code = HuffmanCode::from_frequencies(dist_freq);
  lit_code.serialize_lengths(out);
  dist_code.serialize_lengths(out);

  BitWriter bits;
  const Token* t_it = tokens.data();
  const Token* const t_end = t_it + tokens.size();
  while (t_it != t_end) {
    const Token& t = *t_it++;
    if (t.dist == 0) {
      // Pack a run of literal codes into one put_bits call while they fit
      // in the 57-bit budget. LSB-first concatenation is associative, so
      // the stream is identical to one call per symbol.
      std::uint64_t w = lit_code.code_bits(static_cast<int>(t.len));
      int nb = lit_code.code_length(static_cast<int>(t.len));
      while (t_it != t_end && t_it->dist == 0) {
        const int sym = static_cast<int>(t_it->len);
        const int l = lit_code.code_length(sym);
        if (nb + l > 57) break;
        w |= static_cast<std::uint64_t>(lit_code.code_bits(sym)) << nb;
        nb += l;
        ++t_it;
      }
      bits.put_bits(w, nb);
    } else {
      // Fuse the four match fields (length code, length extra bits,
      // distance code, distance extra bits) into one put_bits call.
      // LSB-first concatenation is associative, so the stream is identical;
      // worst case 15 + 5 + 15 + 13 = 48 bits, within the 57-bit limit.
      const int ls = length_symbol(static_cast<int>(t.len));
      const int ds = distance_symbol(static_cast<int>(t.dist));
      std::uint64_t w = lit_code.code_bits(ls);
      int nb = lit_code.code_length(ls);
      w |= static_cast<std::uint64_t>(
               t.len - static_cast<std::uint32_t>(kLenBase[ls - 257]))
           << nb;
      nb += kLenExtra[ls - 257];
      w |= static_cast<std::uint64_t>(dist_code.code_bits(ds)) << nb;
      nb += dist_code.code_length(ds);
      w |= static_cast<std::uint64_t>(
               t.dist - static_cast<std::uint32_t>(kDistBase[ds]))
           << nb;
      nb += kDistExtra[ds];
      bits.put_bits(w, nb);
    }
  }
  lit_code.encode_symbol(bits, kEndOfBlock);
  bits.finish();
  out.put_bytes(bits.bytes());
  return std::move(out).take();
}

// ------------------------------------------------------------------ inflate

// Code lengths travel nibble-packed, two per byte (serialize_lengths).
constexpr std::size_t kLitLenBytes = (kNumLitLen + 1) / 2;
constexpr std::size_t kDistLenBytes = (kNumDist + 1) / 2;
constexpr int kRootBits = 10;

template <std::size_t N>
void unpack_lengths(std::span<const std::uint8_t> packed,
                    std::array<std::uint8_t, N>& lens) {
  static_assert(N % 2 == 0);
  for (std::size_t i = 0; i < N / 2; ++i) {
    lens[2 * i] = packed[i] & 0x0F;
    lens[2 * i + 1] = packed[i] >> 4;
  }
}

/// Canonical-Huffman decoder for one alphabet of one block, built on the
/// stack from the transmitted lengths under HuffmanCode::from_lengths'
/// rules and messages. Codes up to kRootBits long resolve with one lookup
/// in `root_`; longer ones walk the per-length counts in canonical order,
/// as puff does.
template <std::size_t kSyms>
class InflateTable {
 public:
  Status build(const std::array<std::uint8_t, kSyms>& lens) {
    constexpr int kMaxLen = HuffmanCode::kMaxCodeLen;
    for (const std::uint8_t l : lens) ++count_[l];
    if (count_[0] == kSyms) {
      return corrupt_data("Huffman table has no symbols");
    }
    std::int64_t kraft = 0;
    for (int l = 1; l <= kMaxLen; ++l) {
      kraft += static_cast<std::int64_t>(count_[l]) << (kMaxLen - l);
      if (count_[l] != 0) max_len_ = l;
    }
    if (kraft > (1ll << kMaxLen)) {
      return corrupt_data("Huffman lengths over-subscribed");
    }

    // Counting sort by (length, symbol): canonical order.
    std::array<std::uint16_t, kMaxLen + 1> next{};
    for (int l = 1; l < kMaxLen; ++l) {
      next[l + 1] = static_cast<std::uint16_t>(next[l] + count_[l]);
    }
    for (std::size_t s = 0; s < kSyms; ++s) {
      if (lens[s] != 0) {
        sorted_[next[lens[s]]++] = static_cast<std::uint16_t>(s);
      }
    }

    // Fill the root table one length at a time. Entries [0, end) are final
    // for every code of length <= len; doubling that prefix before the next
    // length replicates them into the wider window, so each entry is written
    // about once. The codeword is kept bit-reversed (the stream is
    // LSB-first), where appending zeros for a longer code is a no-op.
    // Unassigned patterns of an incomplete code stay 0: "no code".
    root_bits_ = std::min(max_len_, kRootBits);
    const std::size_t codes = kSyms - count_[0];
    std::size_t end = 2;
    root_[0] = 0;
    root_[1] = 0;
    std::uint32_t code = 0;
    std::size_t next_sym = 0;
    for (int len = 1; len <= root_bits_; ++len) {
      if (len > 1) {
        std::memcpy(&root_[end], &root_[0], end * sizeof root_[0]);
        end *= 2;
      }
      for (int c = 0; c < count_[len]; ++c) {
        root_[code] =
            static_cast<std::uint16_t>(sorted_[next_sym] << 4 | len);
        if (++next_sym == codes) break;
        // Canonical +1, bit-reversed: set the highest clear bit below len,
        // clear the ones above it. Not all-ones: a code follows this one.
        const auto mask = static_cast<std::uint32_t>(end - 1);
        const std::uint32_t bit = 1u << (31 - std::countl_zero(code ^ mask));
        code = (code & (bit - 1)) | bit;
      }
    }
    return Status::ok();
  }

  /// Symbol whose code prefixes `bits` (LSB-first), with its length in
  /// `len`; -1 when none does.
  int decode(std::uint64_t bits, int& len) const {
    const std::uint16_t e = root_[bits & ((1u << root_bits_) - 1)];
    if (e != 0) {
      len = e & 0xF;
      return e >> 4;
    }
    // Longer than the root, or no code: the codes of each length are
    // consecutive integers from `first`, MSB-first.
    std::uint32_t code = 0;
    std::uint32_t first = 0;
    std::uint32_t index = 0;
    for (int l = 1; l <= max_len_; ++l) {
      code |= static_cast<std::uint32_t>(bits >> (l - 1)) & 1u;
      const std::uint32_t n = count_[l];
      if (code - first < n) {
        len = l;
        return sorted_[index + code - first];
      }
      index += n;
      first = (first + n) << 1;
      code <<= 1;
    }
    return -1;
  }

 private:
  // Left uninitialized: zeroing them would add ~2.6 KB of stores per
  // table to every stream. build() writes root_[0, 2^root_bits_) and
  // sorted_[0, symbols with a code), the only entries decode() reads.
  std::array<std::uint16_t, 1u << kRootBits> root_;  // sym << 4 | len; 0: none
  std::array<std::uint16_t, kSyms> sorted_;  // symbols in canonical order
  std::array<std::uint16_t, HuffmanCode::kMaxCodeLen + 1> count_{};
  int root_bits_ = 0;
  int max_len_ = 0;
};

std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof v);
  } else {
    for (int k = 7; k >= 0; --k) v = (v << 8) | p[k];
  }
  return v;
}

/// LSB-first 64-bit bit buffer over the payload. refill() tops it up to at
/// least 56 bits: one 8-byte load while 8 payload bytes remain, then byte
/// by byte, then zero padding. Padding is counted, so overrun() reports
/// whether any of it was consumed, like BitReader::overrun().
class BitIn {
 public:
  explicit BitIn(std::span<const std::uint8_t> data) noexcept
      : p_(data.data()), end_(data.data() + data.size()) {}

  void refill() noexcept {
    if (end_ - p_ >= 8) {
      // Bits loaded past n_ | 56 belong to the byte at the new p_; the next
      // refill ORs the same bits in again.
      buf_ |= load_le64(p_) << n_;
      p_ += (63 - n_) >> 3;
      n_ |= 56;
      return;
    }
    while (n_ < 56) {
      if (p_ != end_) {
        buf_ |= static_cast<std::uint64_t>(*p_++) << n_;
      } else {
        pad_ += 8;
      }
      n_ += 8;
    }
  }

  [[nodiscard]] std::uint64_t bits() const noexcept { return buf_; }

  void consume(int count) noexcept {
    buf_ >>= count;
    n_ -= static_cast<unsigned>(count);
  }

  std::uint32_t take(int count) noexcept {
    const auto v = static_cast<std::uint32_t>(buf_ & ((1ull << count) - 1));
    consume(count);
    return v;
  }

  [[nodiscard]] bool overrun() const noexcept { return pad_ > n_; }

 private:
  const std::uint8_t* p_;
  const std::uint8_t* end_;
  std::uint64_t buf_ = 0;
  unsigned n_ = 0;    // valid bits in buf_, padding included
  unsigned pad_ = 0;  // zero bits appended past the payload
};

}  // namespace

Result<Bytes> MzipCodec::encode(std::span<const std::uint8_t> raw) const {
  std::vector<Token> tokens;
  tokenize<true>(raw, max_chain_, tokens);
  return encode_tokens(raw.size(), tokens);
}

Result<Bytes> MzipCodec::decode(std::span<const std::uint8_t> stream) const {
  ByteReader r(stream);
  MLOC_ASSIGN_OR_RETURN(std::uint64_t raw_size, r.get_varint());
  if (raw_size == 0) {
    if (!r.exhausted()) return corrupt_data("mzip: trailing bytes after empty stream");
    return Bytes{};
  }
  if (raw_size > (1ull << 28)) {
    return corrupt_data("mzip: implausible raw size");
  }

  MLOC_ASSIGN_OR_RETURN(auto packed, r.get_bytes(kLitLenBytes + kDistLenBytes));
  std::array<std::uint8_t, kNumLitLen> lit_lens;
  std::array<std::uint8_t, kNumDist> dist_lens;
  unpack_lengths(packed.first(kLitLenBytes), lit_lens);
  unpack_lengths(packed.subspan(kLitLenBytes), dist_lens);
  InflateTable<kNumLitLen> lit;
  MLOC_RETURN_IF_ERROR(lit.build(lit_lens));
  InflateTable<kNumDist> dist;
  MLOC_RETURN_IF_ERROR(dist.build(dist_lens));

  const std::span<const std::uint8_t> payload = stream.subspan(r.position());
  // Every symbol costs at least one payload bit and emits at most kMaxMatch
  // bytes, so a larger header is rejected before the output is sized.
  if (raw_size > static_cast<std::uint64_t>(payload.size()) * 8 * kMaxMatch) {
    return corrupt_data("mzip: raw size exceeds what the payload can encode");
  }

  Bytes out(raw_size);
  std::uint8_t* const begin = out.data();
  std::uint8_t* const end = begin + raw_size;
  std::uint8_t* op = begin;
  BitIn in(payload);
  while (true) {
    // One refill covers a whole match: symbol, length extra, distance
    // symbol and distance extra take at most 15 + 5 + 15 + 13 = 48 bits.
    in.refill();
    int code_len = 0;
    const int sym = lit.decode(in.bits(), code_len);
    if (sym < 0) return corrupt_data("mzip: bad symbol");
    in.consume(code_len);
    if (in.overrun()) return corrupt_data("mzip: bad symbol");
    if (sym == kEndOfBlock) break;
    if (sym < 256) {
      if (op == end) return corrupt_data("mzip: output exceeds header size");
      *op++ = static_cast<std::uint8_t>(sym);
      continue;
    }
    const int li = sym - 257;
    if (li >= 29) return corrupt_data("mzip: bad length symbol");
    const std::size_t len =
        static_cast<std::size_t>(kLenBase[li]) + in.take(kLenExtra[li]);
    const int ds = dist.decode(in.bits(), code_len);
    if (ds < 0 || ds >= kNumDist) {
      return corrupt_data("mzip: bad distance symbol");
    }
    in.consume(code_len);
    const std::size_t d =
        static_cast<std::size_t>(kDistBase[ds]) + in.take(kDistExtra[ds]);
    if (d > static_cast<std::size_t>(op - begin)) {
      return corrupt_data("mzip: distance reaches before stream start");
    }
    if (len > static_cast<std::size_t>(end - op)) {
      return corrupt_data("mzip: output exceeds header size");
    }
    const std::uint8_t* from = op - d;
    if (d >= len) {
      std::memcpy(op, from, len);
    } else {
      // Overlapping match (d < len): a forward byte copy replicates the
      // last d bytes, as DEFLATE defines it.
      for (std::size_t k = 0; k < len; ++k) op[k] = from[k];
    }
    op += len;
  }
  if (op != end) {
    return corrupt_data("mzip: output size mismatches header");
  }
  return out;
}

namespace detail::scalar {

Result<Bytes> mzip_encode(std::span<const std::uint8_t> raw, int max_chain) {
  MLOC_CHECK(max_chain >= 1);
  std::vector<Token> tokens;
  tokenize<false>(raw, max_chain, tokens);
  return encode_tokens(raw.size(), tokens);
}

Result<Bytes> mzip_decode(std::span<const std::uint8_t> stream) {
  ByteReader r(stream);
  MLOC_ASSIGN_OR_RETURN(std::uint64_t raw_size, r.get_varint());
  if (raw_size == 0) {
    if (!r.exhausted()) return corrupt_data("mzip: trailing bytes after empty stream");
    return Bytes{};
  }
  if (raw_size > (1ull << 28)) {
    return corrupt_data("mzip: implausible raw size");
  }

  MLOC_ASSIGN_OR_RETURN(auto lit_lens,
                        HuffmanCode::deserialize_lengths(r, kNumLitLen));
  MLOC_ASSIGN_OR_RETURN(auto dist_lens,
                        HuffmanCode::deserialize_lengths(r, kNumDist));
  MLOC_ASSIGN_OR_RETURN(HuffmanCode lit_code, HuffmanCode::from_lengths(lit_lens));
  MLOC_ASSIGN_OR_RETURN(HuffmanCode dist_code,
                        HuffmanCode::from_lengths(dist_lens));

  MLOC_ASSIGN_OR_RETURN(auto payload, r.get_bytes(r.remaining()));
  BitReader bits(payload);

  Bytes out;
  // Bound the speculative reservation: raw_size is untrusted input.
  out.reserve(std::min<std::uint64_t>(raw_size, 1 << 20));
  while (true) {
    const int sym = lit_code.decode_symbol(bits);
    if (sym < 0 || bits.overrun()) return corrupt_data("mzip: bad symbol");
    if (sym == kEndOfBlock) break;
    if (sym < 256) {
      out.push_back(static_cast<std::uint8_t>(sym));
    } else {
      const int li = sym - 257;
      if (li >= 29) return corrupt_data("mzip: bad length symbol");
      const int len = kLenBase[li] +
                      static_cast<int>(bits.get_bits(kLenExtra[li]));
      const int ds = dist_code.decode_symbol(bits);
      if (ds < 0 || ds >= kNumDist) return corrupt_data("mzip: bad distance symbol");
      const int dist = kDistBase[ds] +
                       static_cast<int>(bits.get_bits(kDistExtra[ds]));
      if (static_cast<std::size_t>(dist) > out.size()) {
        return corrupt_data("mzip: distance reaches before stream start");
      }
      // Byte-by-byte copy: overlapping matches (dist < len) replicate.
      std::size_t from = out.size() - static_cast<std::size_t>(dist);
      for (int i = 0; i < len; ++i) out.push_back(out[from + i]);
    }
    if (out.size() > raw_size) return corrupt_data("mzip: output exceeds header size");
  }
  if (out.size() != raw_size) {
    return corrupt_data("mzip: output size mismatches header");
  }
  return out;
}

}  // namespace detail::scalar

}  // namespace mloc
