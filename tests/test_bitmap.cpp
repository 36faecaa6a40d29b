// Tests for src/bitmap: plain bitset semantics, WAH round-trips (property
// sweeps over densities), the word-level WAH → plain decoder against a
// bit-by-bit one, compressed-domain ops vs naive reference, and
// corrupt-stream rejection.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "bitmap/bitmap.hpp"
#include "util/rng.hpp"

namespace mloc {
namespace {

Bitmap random_bitmap(std::uint64_t nbits, double density, std::uint64_t seed) {
  Bitmap b(nbits);
  Rng rng(seed);
  for (std::uint64_t i = 0; i < nbits; ++i) {
    if (rng.next_double() < density) b.set(i);
  }
  return b;
}

// ---------------------------------------------------------------- Bitmap

TEST(Bitmap, SetGetClear) {
  Bitmap b(100);
  EXPECT_FALSE(b.get(42));
  b.set(42);
  EXPECT_TRUE(b.get(42));
  b.set(42, false);
  EXPECT_FALSE(b.get(42));
  EXPECT_EQ(b.count(), 0u);
}

TEST(Bitmap, CountAcrossWordBoundaries) {
  Bitmap b(130);
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(129);
  EXPECT_EQ(b.count(), 4u);
}

TEST(Bitmap, AndOrSemantics) {
  Bitmap a(10), b(10);
  a.set(1);
  a.set(2);
  b.set(2);
  b.set(3);
  Bitmap both = a;
  both &= b;
  EXPECT_EQ(both.count(), 1u);
  EXPECT_TRUE(both.get(2));
  Bitmap any = a;
  any |= b;
  EXPECT_EQ(any.count(), 3u);
}

TEST(Bitmap, FlipClearsPadding) {
  Bitmap b(70);  // 64 + 6 bits; padding in second word must stay clear
  b.flip();
  EXPECT_EQ(b.count(), 70u);
  b.flip();
  EXPECT_EQ(b.count(), 0u);
}

TEST(Bitmap, ForEachSetAscending) {
  Bitmap b(200);
  const std::vector<std::uint64_t> positions = {0, 31, 63, 64, 100, 199};
  for (auto p : positions) b.set(p);
  std::vector<std::uint64_t> seen;
  b.for_each_set([&](std::uint64_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, positions);
}

TEST(Bitmap, AnyMatchesBitLoop) {
  const auto bit_loop = [](const Bitmap& b, std::uint64_t begin,
                           std::uint64_t end) {
    for (std::uint64_t i = begin; i < end; ++i) {
      if (b.get(i)) return true;
    }
    return false;
  };
  for (const std::uint64_t nbits : {std::uint64_t{192}, std::uint64_t{200}}) {
    const std::vector<std::uint64_t> edges = {0,   1,   63,        64,   65,
                                              127, 128, nbits - 1, nbits};
    // One bitmap per edge bit set alone (an off-by-one at either end of
    // the range flips the answer), plus a dense and a sparse random one.
    std::vector<Bitmap> maps;
    for (const std::uint64_t e : edges) {
      if (e == nbits) continue;
      Bitmap b(nbits);
      b.set(e);
      maps.push_back(b);
    }
    maps.push_back(Bitmap(nbits));
    maps.push_back(random_bitmap(nbits, 0.5, nbits));
    maps.push_back(random_bitmap(nbits, 0.02, nbits + 1));
    for (const Bitmap& b : maps) {
      for (const std::uint64_t begin : edges) {
        for (const std::uint64_t end : edges) {
          if (begin > end) continue;  // begin == end: the empty range
          EXPECT_EQ(b.any(begin, end), bit_loop(b, begin, end))
              << "nbits " << nbits << " [" << begin << ", " << end << ")";
        }
      }
    }
  }
}

// ------------------------------------------------------------------- WAH

class WahRoundTrip
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(WahRoundTrip, CompressDecompressIsIdentity) {
  const auto [nbits, density] = GetParam();
  Bitmap plain = random_bitmap(nbits, density, nbits * 31 + 7);
  WahBitmap wah = WahBitmap::compress(plain);
  EXPECT_EQ(wah.size_bits(), nbits);
  EXPECT_EQ(wah.decompress(), plain);
  EXPECT_EQ(wah.count(), plain.count());
}

TEST_P(WahRoundTrip, SerializeDeserializeIsIdentity) {
  const auto [nbits, density] = GetParam();
  Bitmap plain = random_bitmap(nbits, density, nbits + 17);
  WahBitmap wah = WahBitmap::compress(plain);
  ByteWriter w;
  wah.serialize(w);
  ByteReader r(w.bytes());
  auto back = WahBitmap::deserialize(r);
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(back.value(), wah);
  EXPECT_TRUE(r.exhausted());
}

INSTANTIATE_TEST_SUITE_P(
    DensitySweep, WahRoundTrip,
    ::testing::Values(std::tuple{0ull, 0.0}, std::tuple{1ull, 1.0},
                      std::tuple{31ull, 0.5}, std::tuple{32ull, 0.5},
                      std::tuple{62ull, 0.01}, std::tuple{1000ull, 0.0},
                      std::tuple{1000ull, 1.0}, std::tuple{1000ull, 0.001},
                      std::tuple{1000ull, 0.05}, std::tuple{1000ull, 0.5},
                      std::tuple{1000ull, 0.95}, std::tuple{100000ull, 0.01},
                      std::tuple{100000ull, 0.5}));

/// Bit i of a WAH word stream, set group by group (the decoder or_into
/// replaced): the reference for the hand-built streams below.
Bitmap decode_bit_by_bit(std::uint64_t nbits,
                         const std::vector<std::uint32_t>& words) {
  Bitmap out(nbits);
  std::uint64_t bitpos = 0;
  for (const std::uint32_t w : words) {
    const bool fill = (w >> 31) != 0;
    const std::uint64_t groups = fill ? (w & 0x3FFFFFFFu) : 1;
    for (std::uint64_t g = 0; g < groups; ++g, bitpos += 31) {
      const std::uint32_t payload =
          fill ? (((w >> 30) & 1u) != 0 ? 0x7FFFFFFFu : 0u) : w;
      for (int b = 0; b < 31; ++b) {
        if (((payload >> b) & 1u) != 0) out.set(bitpos + b);
      }
    }
  }
  return out;
}

TEST(Wah, OrIntoMatchesRoundTrip) {
  // Compressed plain bitmaps: decompress is the identity, and or_into a
  // non-empty destination equals the plain OR.
  for (const std::uint64_t nbits :
       {0ull, 1ull, 31ull, 63ull, 64ull, 65ull, 1000ull, 4097ull, 100003ull}) {
    Bitmap clustered(nbits);
    for (std::uint64_t i = 0; i < nbits; ++i) {
      if ((i / 97) % 3 == 1) clustered.set(i);
    }
    for (const Bitmap& b : {random_bitmap(nbits, 0.3, nbits + 5),
                            random_bitmap(nbits, 0.002, nbits + 6),
                            clustered}) {
      const WahBitmap wah = WahBitmap::compress(b);
      EXPECT_EQ(wah.decompress(), b) << "nbits " << nbits;
      Bitmap d = random_bitmap(nbits, 0.1, nbits + 7);
      Bitmap expect = d;
      expect |= b;
      wah.or_into(d);
      EXPECT_EQ(d, expect) << "nbits " << nbits;
    }
  }

  // Hand-built streams (group g covers bits [31g, 31g + 31)).
  struct Case {
    const char* what;
    std::uint64_t nbits;
    std::vector<std::uint32_t> words;
  };
  const std::vector<Case> cases = {
      // Bits 31..92: starts mid-word 0, ends mid-word 1.
      {"1-fill across a 64-bit boundary", 310,
       {0x1u, 0xC0000002u, 0x80000007u}},
      // Bits 31..61: inside word 0.
      {"1-fill inside one word", 310, {0x80000001u, 0xC0000001u, 0x80000008u}},
      // Bits 31..154, nbits % 31 == 0: the fill ends the stream in the final
      // (partial) 64-bit word.
      {"1-fill into the final partial word", 155, {0x40000001u, 0xC0000004u}},
      // Groups 1..3 zero, up to the end of a 100-bit grid.
      {"0-fill into the final partial group", 100, {0x7FFFFFFFu, 0x80000003u}},
      // Group 2 (bits 62..92) and group 4 (bits 124..154) straddle words;
      // the final group (bits 186..199) is partial.
      {"literal straddling two words", 200,
       {0x80000002u, 0x7FFFFFFDu, 0x1u, 0x55555555u, 0x80000002u}},
      // Group 6 (bits 186..216) straddles words 2 and 3, final group partial.
      {"straddle next to a 1-fill", 217,
       {0xC0000006u, 0x7FFFFFFFu >> 1}},
  };
  for (const Case& c : cases) {
    ByteWriter w;
    w.put_varint(c.nbits);
    w.put_varint(c.words.size());
    for (const std::uint32_t word : c.words) w.put_u32(word);
    ByteReader r(w.bytes());
    auto wah = WahBitmap::deserialize(r);
    ASSERT_TRUE(wah.is_ok()) << c.what << ": " << wah.status().to_string();
    const Bitmap expect = decode_bit_by_bit(c.nbits, c.words);
    EXPECT_EQ(wah.value().decompress(), expect) << c.what;
    EXPECT_EQ(wah.value().count(), expect.count()) << c.what;
    Bitmap d(c.nbits);
    d.set(c.nbits - 1);
    Bitmap expect_or = expect;
    expect_or.set(c.nbits - 1);
    wah.value().or_into(d);
    EXPECT_EQ(d, expect_or) << c.what;
  }
}

TEST(Wah, SparseBitmapCompressesWell) {
  // 1M bits with 0.1% density: WAH should be far below the 125 KB raw size.
  Bitmap plain = random_bitmap(1 << 20, 0.001, 5);
  WahBitmap wah = WahBitmap::compress(plain);
  EXPECT_LT(wah.byte_size(), plain.byte_size() / 5);
}

TEST(Wah, UniformFillIsTiny) {
  Bitmap zeros(1 << 20);
  EXPECT_LT(WahBitmap::compress(zeros).byte_size(), 64u);
  Bitmap ones(1 << 20);
  ones.flip();
  EXPECT_LT(WahBitmap::compress(ones).byte_size(), 64u);
}

TEST(Wah, DenseRandomDoesNotBlowUp) {
  // Incompressible input: WAH costs at most ~32/31 of raw + constant.
  Bitmap plain = random_bitmap(1 << 16, 0.5, 6);
  WahBitmap wah = WahBitmap::compress(plain);
  EXPECT_LT(wah.byte_size(), plain.byte_size() * 110 / 100 + 64);
}

class WahBinaryOps
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(WahBinaryOps, CompressedAndOrMatchNaive) {
  const auto [da, db] = GetParam();
  const std::uint64_t n = 50000;
  Bitmap pa = random_bitmap(n, da, 11);
  Bitmap pb = random_bitmap(n, db, 22);
  WahBitmap wa = WahBitmap::compress(pa);
  WahBitmap wb = WahBitmap::compress(pb);

  Bitmap expect_and = pa;
  expect_and &= pb;
  Bitmap expect_or = pa;
  expect_or |= pb;

  EXPECT_EQ(WahBitmap::logical_and(wa, wb).decompress(), expect_and);
  EXPECT_EQ(WahBitmap::logical_or(wa, wb).decompress(), expect_or);
}

INSTANTIATE_TEST_SUITE_P(
    DensityPairs, WahBinaryOps,
    ::testing::Values(std::tuple{0.0, 0.0}, std::tuple{0.0, 1.0},
                      std::tuple{1.0, 1.0}, std::tuple{0.001, 0.001},
                      std::tuple{0.001, 0.5}, std::tuple{0.5, 0.5},
                      std::tuple{0.9, 0.1}));

TEST(Wah, BinaryOpResultStaysCanonical) {
  // AND of two sparse maps is sparser; result must re-coalesce into fills,
  // not degenerate into literals.
  Bitmap pa = random_bitmap(1 << 18, 0.01, 31);
  Bitmap pb = random_bitmap(1 << 18, 0.01, 32);
  WahBitmap out = WahBitmap::logical_and(WahBitmap::compress(pa),
                                         WahBitmap::compress(pb));
  EXPECT_LT(out.byte_size(), 1u << 13);
}

TEST(Wah, CountOnCompressedEqualsDecompressed) {
  for (double d : {0.0, 0.003, 0.2, 0.97, 1.0}) {
    Bitmap plain = random_bitmap(12345, d, static_cast<std::uint64_t>(d * 100) + 1);
    WahBitmap wah = WahBitmap::compress(plain);
    EXPECT_EQ(wah.count(), plain.count());
  }
}

// Alternating maximal 1-fill / 0-fill runs, with run lengths chosen so every
// transition lands exactly on a 31-bit group boundary (the WAH word unit).
// The merge loops must consume partial fills from both sides without losing
// or duplicating a group when the two operands' runs are out of phase.
Bitmap alternating_fills(std::uint64_t groups_per_run, std::uint64_t runs,
                         bool start_set, std::uint64_t tail_bits) {
  Bitmap b(groups_per_run * 31 * runs + tail_bits);
  bool value = start_set;
  std::uint64_t pos = 0;
  for (std::uint64_t r = 0; r < runs; ++r) {
    for (std::uint64_t i = 0; i < groups_per_run * 31; ++i, ++pos) {
      if (value) b.set(pos);
    }
    value = !value;
  }
  for (std::uint64_t i = 0; i < tail_bits; ++i, ++pos) {
    if (i % 2 == 0) b.set(pos);  // literal tail straddling the last boundary
  }
  return b;
}

TEST(Wah, AlternatingFillPhasesMergeAtWordBoundaries) {
  for (std::uint64_t ga : {1ull, 2ull, 5ull}) {
    for (std::uint64_t gb : {1ull, 3ull, 7ull}) {
      for (std::uint64_t tail : {0ull, 1ull, 30ull}) {
        // Equal total widths, different run phases on the two sides.
        const std::uint64_t lcm_groups = ga * gb * 6;
        Bitmap pa = alternating_fills(ga, lcm_groups / ga, true, tail);
        Bitmap pb = alternating_fills(gb, lcm_groups / gb, false, tail);
        ASSERT_EQ(pa.size(), pb.size());
        WahBitmap wa = WahBitmap::compress(pa);
        WahBitmap wb = WahBitmap::compress(pb);

        Bitmap expect_and = pa;
        expect_and &= pb;
        Bitmap expect_or = pa;
        expect_or |= pb;
        EXPECT_EQ(WahBitmap::logical_and(wa, wb).decompress(), expect_and);
        EXPECT_EQ(WahBitmap::logical_or(wa, wb).decompress(), expect_or);
        // Canonical outputs round-trip through compress of the plain result.
        EXPECT_EQ(WahBitmap::logical_and(wa, wb),
                  WahBitmap::compress(expect_and));
        EXPECT_EQ(WahBitmap::logical_or(wa, wb),
                  WahBitmap::compress(expect_or));
      }
    }
  }
}

TEST(Wah, EmptyBitmapIdentities) {
  // Zero-width operands: AND/OR of two empties is empty and canonical.
  const WahBitmap none = WahBitmap::compress(Bitmap(0));
  EXPECT_EQ(WahBitmap::logical_and(none, none).size_bits(), 0u);
  EXPECT_EQ(WahBitmap::logical_or(none, none).size_bits(), 0u);
  EXPECT_EQ(WahBitmap::logical_and(none, none).count(), 0u);
  EXPECT_EQ(WahBitmap::logical_or(none, none), none);

  // All-zero operand of matching width: AND annihilates, OR is identity.
  for (std::uint64_t n : {31ull, 62ull, 1000ull}) {
    const WahBitmap zeros = WahBitmap::compress(Bitmap(n));
    const WahBitmap x = WahBitmap::compress(random_bitmap(n, 0.4, n + 3));
    EXPECT_EQ(WahBitmap::logical_and(x, zeros), zeros);
    EXPECT_EQ(WahBitmap::logical_and(zeros, x), zeros);
    EXPECT_EQ(WahBitmap::logical_or(x, zeros), x);
    EXPECT_EQ(WahBitmap::logical_or(zeros, x), x);
  }
}

// Differential check of the hierarchical engine's combine order: a
// per-variable selection assembled as an OR of disjoint per-level pieces,
// then ANDed across variables level-wise, must equal the flat wah_and of the
// complete per-variable bitmaps. Pieces model hbx tree levels: each level
// owns a random subset of disjoint bin spans, rasterized at full width.
TEST(Wah, TreeLevelAndMatchesFlatAndOverRandomPredicates) {
  const std::uint64_t n = 4096;
  const std::uint64_t bins = 64;
  const std::uint64_t bin_w = n / bins;
  Rng rng(91);
  for (int trial = 0; trial < 20; ++trial) {
    // Two "variables": random predicate satisfaction per bin per variable.
    std::vector<Bitmap> full;
    std::vector<std::vector<WahBitmap>> levels;  // [var][level]
    for (int v = 0; v < 2; ++v) {
      Bitmap whole(n);
      std::vector<Bitmap> lv(3, Bitmap(n));
      for (std::uint64_t b = 0; b < bins; ++b) {
        if (rng.next_double() < 0.5) continue;  // bin excluded by predicate
        const std::uint64_t level = rng.next_below(3);  // which tree level
        for (std::uint64_t i = b * bin_w; i < (b + 1) * bin_w; ++i) {
          if (rng.next_double() < 0.7) {
            whole.set(i);
            lv[level].set(i);
          }
        }
      }
      full.push_back(whole);
      std::vector<WahBitmap> wl;
      for (const Bitmap& piece : lv) wl.push_back(WahBitmap::compress(piece));
      levels.push_back(std::move(wl));
    }

    // Flat path: AND the complete per-variable bitmaps.
    const WahBitmap flat = WahBitmap::logical_and(
        WahBitmap::compress(full[0]), WahBitmap::compress(full[1]));

    // Tree path: reassemble each variable by OR over levels, AND across
    // variables (the order the engine folds partial results).
    WahBitmap acc;
    for (int v = 0; v < 2; ++v) {
      WahBitmap per_var;
      for (const WahBitmap& piece : levels[v]) {
        per_var = per_var.size_bits() == 0
                      ? piece
                      : WahBitmap::logical_or(per_var, piece);
      }
      acc = v == 0 ? per_var : WahBitmap::logical_and(acc, per_var);
    }
    EXPECT_EQ(acc, flat);
    EXPECT_EQ(acc.decompress(), flat.decompress());
  }
}

// --------------------------------------------------- failure injection

TEST(Wah, DeserializeRejectsTruncatedStream) {
  Bitmap plain = random_bitmap(1000, 0.3, 3);
  ByteWriter w;
  WahBitmap::compress(plain).serialize(w);
  Bytes truncated(w.bytes().begin(), w.bytes().end() - 5);
  ByteReader r(truncated);
  EXPECT_FALSE(WahBitmap::deserialize(r).is_ok());
}

TEST(Wah, DeserializeRejectsGroupCountMismatch) {
  ByteWriter w;
  w.put_varint(1000);  // claims 1000 bits (33 groups)
  w.put_varint(1);     // but provides a single 2-group fill
  w.put_u32(0x80000000u | 0x40000000u | 2u);
  ByteReader r(w.bytes());
  auto res = WahBitmap::deserialize(r);
  ASSERT_FALSE(res.is_ok());
  EXPECT_EQ(res.status().code(), ErrorCode::kCorruptData);
}

TEST(Wah, DeserializeRejectsZeroLengthFill) {
  ByteWriter w;
  w.put_varint(31);
  w.put_varint(1);
  w.put_u32(0x80000000u);  // fill of length 0
  ByteReader r(w.bytes());
  EXPECT_FALSE(WahBitmap::deserialize(r).is_ok());
}

TEST(Wah, DeserializeRejectsAbsurdWordCount) {
  ByteWriter w;
  w.put_varint(31);
  w.put_varint(1ull << 40);  // claims a trillion words
  ByteReader r(w.bytes());
  EXPECT_FALSE(WahBitmap::deserialize(r).is_ok());
}

TEST(Wah, DeserializeRejectsPaddingBitsPastSize) {
  // 40 bits = 2 groups; the final group holds bits 31..61, so its payload
  // bits 9 and up are padding.
  const auto stream = [](std::vector<std::uint32_t> words) {
    ByteWriter w;
    w.put_varint(40);
    w.put_varint(words.size());
    for (const std::uint32_t word : words) w.put_u32(word);
    return std::move(w).take();
  };
  for (const std::vector<std::uint32_t>& words :
       {std::vector<std::uint32_t>{0x1u, 1u << 20},       // bit 51
        std::vector<std::uint32_t>{0x1u, 1u << 9},        // bit 40
        std::vector<std::uint32_t>{0x1u, 0xC0000001u}}) {  // 1-fill
    const Bytes bytes = stream(words);
    ByteReader r(bytes);
    auto res = WahBitmap::deserialize(r);
    ASSERT_FALSE(res.is_ok()) << "final word " << words.back();
    EXPECT_EQ(res.status().code(), ErrorCode::kCorruptData);
    EXPECT_NE(res.status().to_string().find("padding"), std::string::npos)
        << res.status().to_string();
  }
  // Bit 39, the last real bit, is accepted.
  const Bytes last_bit = stream({0x1u, 1u << 8});
  ByteReader r(last_bit);
  auto ok = WahBitmap::deserialize(r);
  ASSERT_TRUE(ok.is_ok()) << ok.status().to_string();
  EXPECT_EQ(ok.value().count(), 2u);
  EXPECT_EQ(ok.value().decompress().count(), 2u);
}

// ---------------------------------------------------------------------------
// Differential tests: the word-level count/for_each_set fast paths and the
// fill-skipping WAH merges must match the retained bit-at-a-time /
// group-at-a-time references exactly (equal counts, equal index lists,
// word-identical compressed results) across sizes that straddle word and
// 31-bit-group boundaries and densities from empty to full.

class BitmapDifferential
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(BitmapDifferential, CountAndForEachMatchScalarReference) {
  const auto [nbits, density] = GetParam();
  const Bitmap bm = random_bitmap(nbits, density, 17 + nbits);

  EXPECT_EQ(bm.count(), detail::scalar::bitmap_count(bm));

  std::vector<std::uint64_t> fast;
  bm.for_each_set([&](std::uint64_t i) { fast.push_back(i); });
  std::vector<std::uint64_t> ref;
  const std::uint64_t ref_count = detail::scalar::bitmap_collect_set(bm, ref);
  EXPECT_EQ(ref_count, ref.size());
  EXPECT_EQ(fast, ref);
}

TEST_P(BitmapDifferential, WahMergesMatchScalarReference) {
  const auto [nbits, density] = GetParam();
  const WahBitmap wa =
      WahBitmap::compress(random_bitmap(nbits, density, 23 + nbits));
  const WahBitmap wb =
      WahBitmap::compress(random_bitmap(nbits, 1.0 - density, 29 + nbits));

  EXPECT_EQ(WahBitmap::logical_and(wa, wb),
            detail::scalar::wah_logical_and(wa, wb));
  EXPECT_EQ(WahBitmap::logical_or(wa, wb),
            detail::scalar::wah_logical_or(wa, wb));
  // Self-merge: maximal fill runs on both sides at once.
  EXPECT_EQ(WahBitmap::logical_and(wa, wa),
            detail::scalar::wah_logical_and(wa, wa));
  EXPECT_EQ(WahBitmap::logical_or(wa, wa),
            detail::scalar::wah_logical_or(wa, wa));
}

INSTANTIATE_TEST_SUITE_P(
    SizeDensitySweep, BitmapDifferential,
    ::testing::Values(std::tuple{0ull, 0.0}, std::tuple{1ull, 1.0},
                      std::tuple{31ull, 0.5}, std::tuple{32ull, 0.5},
                      std::tuple{63ull, 0.5}, std::tuple{64ull, 0.5},
                      std::tuple{65ull, 0.02}, std::tuple{1000ull, 0.0},
                      std::tuple{1000ull, 1.0}, std::tuple{1000ull, 0.001},
                      std::tuple{50000ull, 0.01}, std::tuple{50000ull, 0.5},
                      std::tuple{50000ull, 0.99}));

}  // namespace
}  // namespace mloc
