// Tests for src/compress: bit I/O, Huffman, mzip, ISOBAR-like, B-spline
// fitting, ISABELA-like (error-bound property sweeps), registry, and
// corrupt-stream failure injection for every codec.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "compress/bitstream.hpp"
#include "compress/bspline.hpp"
#include "compress/huffman.hpp"
#include "compress/isabela.hpp"
#include "compress/isobar.hpp"
#include "compress/mzip.hpp"
#include "compress/registry.hpp"
#include "datagen/datagen.hpp"
#include "plod/plod.hpp"
#include "util/rng.hpp"

namespace mloc {
namespace {

Bytes random_bytes(std::size_t n, std::uint64_t seed, int alphabet = 256) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng.next_below(alphabet));
  }
  return out;
}

std::vector<double> smooth_field(std::size_t n, std::uint64_t seed) {
  // Sum of sinusoids + small noise: the value profile of simulation data.
  Rng rng(seed);
  std::vector<double> out(n);
  const double f1 = rng.next_double(0.5, 3.0);
  const double f2 = rng.next_double(5.0, 20.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i) / n;
    out[i] = 100.0 + 40.0 * std::sin(f1 * 6.28 * x) +
             5.0 * std::sin(f2 * 6.28 * x) + 0.1 * rng.next_gaussian();
  }
  return out;
}

// ------------------------------------------------------------- bitstream

TEST(BitStream, RoundTripMixedWidths) {
  BitWriter w;
  w.put_bits(0b101, 3);
  w.put_bits(0xFFFF, 16);
  w.put_bits(0, 1);
  w.put_bits(0x123456789ABCDull, 50);
  w.finish();
  BitReader r(w.bytes());
  EXPECT_EQ(r.get_bits(3), 0b101u);
  EXPECT_EQ(r.get_bits(16), 0xFFFFu);
  EXPECT_EQ(r.get_bits(1), 0u);
  EXPECT_EQ(r.get_bits(50), 0x123456789ABCDull);
  EXPECT_FALSE(r.overrun());
}

TEST(BitStream, OverrunReadsZeroAndFlags) {
  BitWriter w;
  w.put_bits(1, 1);
  w.finish();
  BitReader r(w.bytes());
  r.get_bits(8);  // consumes the only byte
  EXPECT_EQ(r.get_bits(16), 0u);
  EXPECT_TRUE(r.overrun());
}

TEST(BitStream, PeekDoesNotConsume) {
  BitWriter w;
  w.put_bits(0b1011, 4);
  w.finish();
  BitReader r(w.bytes());
  EXPECT_EQ(r.peek_bits(4), 0b1011u);
  EXPECT_EQ(r.get_bits(4), 0b1011u);
}

// --------------------------------------------------------------- Huffman

TEST(Huffman, RoundTripSkewedDistribution) {
  std::vector<std::uint64_t> freqs(256, 0);
  freqs['a'] = 1000;
  freqs['b'] = 300;
  freqs['c'] = 50;
  freqs['z'] = 1;
  const HuffmanCode code = HuffmanCode::from_frequencies(freqs);
  EXPECT_LE(code.lengths()['a'], code.lengths()['z']);

  BitWriter w;
  const std::string msg = "abacabadzcabbaab";
  // 'd' has zero frequency — give it one so it is encodable.
  std::vector<std::uint64_t> freqs2 = freqs;
  freqs2['d'] = 1;
  const HuffmanCode code2 = HuffmanCode::from_frequencies(freqs2);
  for (char ch : msg) code2.encode_symbol(w, static_cast<unsigned char>(ch));
  w.finish();

  // The encoder's code has no decode table; a decoder rebuilds the code
  // from the transmitted lengths.
  const HuffmanCode decoder =
      HuffmanCode::from_lengths(code2.lengths()).value();
  BitReader r(w.bytes());
  std::string back;
  for (std::size_t i = 0; i < msg.size(); ++i) {
    const int sym = decoder.decode_symbol(r);
    ASSERT_GE(sym, 0);
    back.push_back(static_cast<char>(sym));
  }
  EXPECT_EQ(back, msg);
}

TEST(Huffman, SingleSymbolAlphabet) {
  std::vector<std::uint64_t> freqs(256, 0);
  freqs[42] = 7;
  const HuffmanCode code = HuffmanCode::from_frequencies(freqs);
  EXPECT_EQ(code.lengths()[42], 1);
  BitWriter w;
  for (int i = 0; i < 5; ++i) code.encode_symbol(w, 42);
  w.finish();
  const HuffmanCode decoder = HuffmanCode::from_lengths(code.lengths()).value();
  BitReader r(w.bytes());
  for (int i = 0; i < 5; ++i) EXPECT_EQ(decoder.decode_symbol(r), 42);
}

TEST(Huffman, UniformDistributionNearLog2N) {
  std::vector<std::uint64_t> freqs(256, 10);
  const HuffmanCode code = HuffmanCode::from_frequencies(freqs);
  for (int s = 0; s < 256; ++s) EXPECT_EQ(code.lengths()[s], 8);
}

TEST(Huffman, LengthsRespectLimit) {
  // Fibonacci-like frequencies force very deep unbalanced trees; lengths
  // must still be capped at kMaxCodeLen and remain decodable.
  std::vector<std::uint64_t> freqs(40, 0);
  std::uint64_t a = 1, b = 1;
  for (int i = 0; i < 40; ++i) {
    freqs[i] = a;
    const std::uint64_t next = a + b;
    a = b;
    b = next;
  }
  const HuffmanCode code = HuffmanCode::from_frequencies(freqs);
  for (auto l : code.lengths()) EXPECT_LE(l, HuffmanCode::kMaxCodeLen);

  BitWriter w;
  for (int s = 0; s < 40; ++s) code.encode_symbol(w, s);
  w.finish();
  const HuffmanCode decoder = HuffmanCode::from_lengths(code.lengths()).value();
  BitReader r(w.bytes());
  for (int s = 0; s < 40; ++s) EXPECT_EQ(decoder.decode_symbol(r), s);
}

TEST(Huffman, LengthTableSerializationRoundTrip) {
  std::vector<std::uint64_t> freqs(300, 0);
  for (int i = 0; i < 300; i += 3) freqs[i] = i + 1;
  const HuffmanCode code = HuffmanCode::from_frequencies(freqs);
  ByteWriter w;
  code.serialize_lengths(w);
  ByteReader r(w.bytes());
  auto lens = HuffmanCode::deserialize_lengths(r, 300);
  ASSERT_TRUE(lens.is_ok());
  EXPECT_EQ(lens.value(), code.lengths());
}

TEST(Huffman, FromLengthsRejectsOversubscribed) {
  std::vector<std::uint8_t> lens = {1, 1, 1};  // Kraft sum 1.5 > 1
  EXPECT_FALSE(HuffmanCode::from_lengths(lens).is_ok());
}

TEST(Huffman, FromLengthsRejectsEmpty) {
  std::vector<std::uint8_t> lens(16, 0);
  EXPECT_FALSE(HuffmanCode::from_lengths(lens).is_ok());
}

// ------------------------------------------------------------------ mzip

class MzipRoundTrip : public ::testing::TestWithParam<int> {};

Bytes adversarial_buffer(int which) {
  Bytes raw;
  switch (which) {
    case 0: raw = {}; break;
    case 1: raw = {0x42}; break;
    case 2: raw = Bytes(100000, 0xAA); break;                 // constant
    case 3: raw = random_bytes(65536, 1); break;              // incompressible
    case 4: raw = random_bytes(65536, 2, 4); break;           // small alphabet
    case 5: {                                                 // periodic
      for (int i = 0; i < 50000; ++i) raw.push_back("abcdefg"[i % 7]);
      break;
    }
    case 6: {  // long-range self-similarity (window stress)
      raw = random_bytes(1000, 3);
      Bytes block = raw;
      for (int rep = 0; rep < 64; ++rep) {
        raw.insert(raw.end(), block.begin(), block.end());
      }
      break;
    }
    case 7: {  // overlapping-match pattern (dist < len)
      raw = Bytes(3, 'x');
      for (int i = 0; i < 1000; ++i) raw.push_back(raw[i]);
      break;
    }
    case 8: {  // real-ish doubles image
      auto field = smooth_field(8192, 4);
      raw = doubles_to_bytes(field);
      break;
    }
    default: break;
  }
  return raw;
}

TEST_P(MzipRoundTrip, AdversarialBuffers) {
  const Bytes raw = adversarial_buffer(GetParam());
  const MzipCodec codec;
  auto enc = codec.encode(raw);
  ASSERT_TRUE(enc.is_ok());
  auto dec = codec.decode(enc.value());
  ASSERT_TRUE(dec.is_ok()) << dec.status().to_string();
  EXPECT_EQ(dec.value(), raw);
}

INSTANTIATE_TEST_SUITE_P(Buffers, MzipRoundTrip, ::testing::Range(0, 9));

// The word-level fast encoder must emit the exact byte stream of the
// retained byte-at-a-time reference on every adversarial buffer and at
// several chain depths (the prefilter/skip-ahead interplay depends on
// max_chain). Byte identity is the whole contract — see DESIGN.md §11.
class MzipDifferential : public ::testing::TestWithParam<int> {};

TEST_P(MzipDifferential, FastEncoderMatchesScalarReference) {
  const Bytes raw = adversarial_buffer(GetParam());
  for (const int max_chain : {1, 8, 64}) {
    const MzipCodec codec(max_chain);
    const auto fast = codec.encode(raw);
    const auto ref = detail::scalar::mzip_encode(raw, max_chain);
    ASSERT_TRUE(fast.is_ok());
    ASSERT_TRUE(ref.is_ok());
    EXPECT_EQ(fast.value(), ref.value()) << "max_chain=" << max_chain;
  }
}

// Fragment-sized PLoD planes: `count` values of a smooth field shredded
// into the 7 byte planes that the engine decodes one mzip stream at a time.
std::vector<Bytes> plod_planes(std::size_t count, std::uint64_t seed) {
  const plod::Shredded shredded = plod::shred(smooth_field(count, seed));
  return {shredded.groups.begin(), shredded.groups.end()};
}

// Empty when MzipCodec::decode and the retained reference agree on
// `stream`: the same verdict and ErrorCode, and the same bytes when both
// succeed. Otherwise says how they differ. `accepted` receives the
// reference's verdict.
std::string verdict_diff(std::span<const std::uint8_t> stream,
                         bool* accepted = nullptr) {
  const auto fast = MzipCodec().decode(stream);
  const auto ref = detail::scalar::mzip_decode(stream);
  if (accepted != nullptr) *accepted = ref.is_ok();
  if (fast.is_ok() && ref.is_ok()) {
    return fast.value() == ref.value() ? "" : "decoded bytes differ";
  }
  if (fast.is_ok() == ref.is_ok() &&
      fast.status().code() == ref.status().code()) {
    return "";
  }
  return "fast " + fast.status().to_string() + " vs reference " +
         ref.status().to_string();
}

// The table-driven decoder must return the reference's bytes on every
// adversarial buffer at several chain depths, and on fragment-sized PLoD
// planes (the streams a cold query decodes).
TEST_P(MzipDifferential, FastDecoderMatchesScalarReference) {
  std::vector<Bytes> raws = plod_planes(1024, 40 + GetParam());
  raws.push_back(adversarial_buffer(GetParam()));
  for (const int max_chain : {1, 8, 64}) {
    for (const Bytes& raw : raws) {
      const Bytes enc = MzipCodec(max_chain).encode(raw).value();
      const auto fast = MzipCodec().decode(enc);
      const auto ref = detail::scalar::mzip_decode(enc);
      ASSERT_TRUE(fast.is_ok()) << fast.status().to_string();
      ASSERT_TRUE(ref.is_ok()) << ref.status().to_string();
      EXPECT_EQ(fast.value(), ref.value()) << "max_chain=" << max_chain;
      EXPECT_EQ(fast.value(), raw) << "max_chain=" << max_chain;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Buffers, MzipDifferential, ::testing::Range(0, 9));

TEST(Mzip, CompressesRepetitiveData) {
  Bytes raw(200000, 0);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    raw[i] = static_cast<std::uint8_t>((i / 100) % 7);
  }
  const MzipCodec codec;
  auto enc = codec.encode(raw);
  ASSERT_TRUE(enc.is_ok());
  EXPECT_LT(enc.value().size(), raw.size() / 20);
  EXPECT_NE(enc.value()[0], 0);  // dynamic: varint(n) leads, n > 0
  EXPECT_EQ(codec.decode(enc.value()).value(), raw);
}

TEST(Mzip, RandomDataExpandsOnlySlightly) {
  Bytes raw = random_bytes(100000, 9);
  const MzipCodec codec;
  auto enc = codec.encode(raw);
  ASSERT_TRUE(enc.is_ok());
  // Stored: the zero byte and the 3-byte varint of 100,000 before the raw
  // bytes.
  EXPECT_EQ(enc.value().size(), raw.size() + 1 + 3);
  EXPECT_EQ(codec.decode(enc.value()).value(), raw);
}

// ------------------------------------------------- stored or dynamic

// A stored stream: 0x00 (raw size 0), varint(n), then the n raw bytes.
bool is_stored(const Bytes& stream) {
  return stream.size() > 1 && stream[0] == 0;
}

std::size_t varint_size(std::uint64_t v) {
  ByteWriter w;
  w.put_varint(v);
  return w.size();
}

Bytes stored_stream(std::span<const std::uint8_t> raw) {
  ByteWriter w;
  w.put_varint(0);
  w.put_varint(raw.size());
  w.put_bytes(raw);
  return std::move(w).take();
}

TEST(MzipStored, RandomBuffersCodeStoredAtRawPlusHeader) {
  std::vector<std::size_t> sizes = {1, 2, 3, 127, 128, 129, 4999, 5000};
  for (std::size_t n = 5; n < 5000; n += 97) sizes.push_back(n);
  for (const std::size_t n : sizes) {
    const Bytes raw = random_bytes(n, 1000 + n);
    const Bytes enc = MzipCodec().encode(raw).value();
    ASSERT_TRUE(is_stored(enc)) << "n=" << n;
    EXPECT_EQ(enc.size(), n + 1 + varint_size(n)) << "n=" << n;
    EXPECT_EQ(enc, stored_stream(raw)) << "n=" << n;
    EXPECT_EQ(MzipCodec().decode(enc).value(), raw) << "n=" << n;
    EXPECT_EQ(verdict_diff(enc), "") << "n=" << n;
  }
}

// The encoder chooses from the dynamic size it predicts before emitting a
// bit; the prediction must be the size the dynamic stream then has, and
// the choice must follow from it.
TEST(MzipStored, PredictedDynamicSizeIsTheEmittedSize) {
  std::vector<Bytes> raws;
  for (int which = 1; which < 9; ++which) {  // 0 is the empty buffer
    raws.push_back(adversarial_buffer(which));
  }
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    for (Bytes& plane : plod_planes(1024, 60 + seed)) {
      raws.push_back(std::move(plane));
    }
  }
  int stored = 0;
  int dynamic = 0;
  for (const int max_chain : {1, 8, 64}) {
    for (const Bytes& raw : raws) {
      std::size_t predicted = 0;
      const Bytes dyn =
          detail::mzip_encode_dynamic(raw, max_chain, predicted).value();
      EXPECT_EQ(dyn.size(), predicted)
          << raw.size() << " bytes, max_chain=" << max_chain;
      EXPECT_EQ(MzipCodec().decode(dyn).value(), raw);
      EXPECT_EQ(verdict_diff(dyn), "");

      const Bytes enc = MzipCodec(max_chain).encode(raw).value();
      if (raw.size() + 1 + varint_size(raw.size()) <= predicted) {
        EXPECT_EQ(enc, stored_stream(raw));
        ++stored;
      } else {
        EXPECT_EQ(enc, dyn);
        ++dynamic;
      }
    }
  }
  // Both choices are exercised.
  EXPECT_GT(stored, 0);
  EXPECT_GT(dynamic, 0);
}

// A fragment of a GTS-like field (one 32x32 chunk): the sign, exponent and
// top mantissa bits of group 0 compress, the mantissa bytes of groups 1-6
// are noise and code stored.
TEST(MzipStored, GtsFragmentPlaneZeroDynamicOthersStored) {
  const Grid grid = datagen::gts_like(256, 1);
  std::vector<double> fragment;
  for (std::uint32_t y = 64; y < 96; ++y) {
    for (std::uint32_t x = 32; x < 64; ++x) {
      fragment.push_back(grid.at(Coord{y, x}));
    }
  }
  const plod::Shredded planes = plod::shred(fragment);
  for (int g = 0; g < plod::kNumGroups; ++g) {
    const Bytes enc = MzipCodec().encode(planes.groups[g]).value();
    EXPECT_EQ(is_stored(enc), g > 0) << "group " << g;
    if (g == 0) {
      EXPECT_LT(enc.size(), planes.groups[g].size());
    }
    EXPECT_EQ(MzipCodec().decode(enc).value(), planes.groups[g]);
  }
}

// ------------------------------------- fast encoder against the reference

// MzipCodec::encode settles most stored planes from an entropy bound and
// the shortest buffers without tokenizing; the reference always builds
// both codes and compares exactly. Their bytes must agree everywhere,
// near the 158-byte table size and near the stored/dynamic tie above all.
std::string encode_diff(std::span<const std::uint8_t> raw,
                        int max_chain = 64) {
  const auto fast = MzipCodec(max_chain).encode(raw);
  const auto ref = detail::scalar::mzip_encode(raw, max_chain);
  if (!fast.is_ok() || !ref.is_ok()) return "encode failed";
  if (fast.value() != ref.value()) {
    return std::string(is_stored(fast.value()) ? "stored" : "dynamic") +
           " fast vs " + (is_stored(ref.value()) ? "stored" : "dynamic") +
           " reference";
  }
  if (MzipCodec().decode(fast.value()).value() !=
      Bytes(raw.begin(), raw.end())) {
    return "round trip differs";
  }
  return "";
}

TEST(MzipEncodeDifferential, RandomBuffersUpTo5000Bytes) {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 320; ++n) sizes.push_back(n);  // 157-160
  for (std::size_t n = 321; n <= 5000; n += 37) sizes.push_back(n);
  sizes.push_back(5000);
  for (const std::size_t n : sizes) {
    for (const int alphabet : {256, 16, 2}) {
      const Bytes raw = random_bytes(n, 7000 + n, alphabet);
      ASSERT_EQ(encode_diff(raw), "") << n << " bytes, alphabet " << alphabet;
    }
  }
  for (const int max_chain : {1, 8}) {
    for (const std::size_t n : {157u, 158u, 159u, 160u, 1000u, 4096u}) {
      const Bytes raw = random_bytes(n, 8000 + n, 16);
      EXPECT_EQ(encode_diff(raw, max_chain), "")
          << n << " bytes, max_chain " << max_chain;
    }
  }
}

TEST(MzipEncodeDifferential, NoChainHeadOutlivesItsBuffer) {
  // Each thread's tokenizer keeps its chain heads from buffer to buffer:
  // it resets the slots a buffer wrote, or, past its retention ceiling (4
  // MiB of links and tokens, 12 bytes a position), gives the whole scratch
  // back. A head left over would point a later buffer's search at one of
  // its own positions that it never inserted: deep in an incompressible
  // stretch the tokenizer searches about one position in 20, so `later`
  // repeats noise it mostly skipped, and `earlier` inserts that noise at
  // the same positions. The fast encoder must still match the reference,
  // after an earlier buffer on each side of the ceiling.
  const Bytes noise = random_bytes(8'000, 4242, 256);
  for (std::size_t q = 6'000; q < 6'008; ++q) {
    Bytes later = noise;
    std::copy_n(noise.begin() + static_cast<std::ptrdiff_t>(q), 40,
                later.begin() + 7'000);
    for (const std::size_t tail : {1'000u, 400'000u}) {
      Bytes earlier(q + 40 + tail, 0);
      std::copy_n(noise.begin() + static_cast<std::ptrdiff_t>(q), 40,
                  earlier.begin() + static_cast<std::ptrdiff_t>(q));
      ASSERT_EQ(encode_diff(earlier), "") << "earlier, q " << q;
      ASSERT_EQ(encode_diff(later), "") << "q " << q << ", tail " << tail;
    }
  }
}

TEST(MzipEncodeDifferential, RunsAndEveryByteValue) {
  // A run codes stored up to 158 bytes and dynamic from 160 on.
  for (std::size_t n = 1; n <= 600; ++n) {
    ASSERT_EQ(encode_diff(Bytes(n, 0x5A)), "") << "run of " << n;
  }
  EXPECT_TRUE(is_stored(MzipCodec().encode(Bytes(158, 0x5A)).value()));
  EXPECT_FALSE(is_stored(MzipCodec().encode(Bytes(160, 0x5A)).value()));

  Bytes every(256);
  std::iota(every.begin(), every.end(), std::uint8_t{0});
  EXPECT_EQ(encode_diff(every), "");
  Bytes twice = every;
  twice.insert(twice.end(), every.begin(), every.end());
  EXPECT_EQ(encode_diff(twice), "");
}

TEST(MzipEncodeDifferential, PlodAndIsobarPlanesOfSimulatedFields) {
  // Fragment-sized runs of GTS-like and S3D-like fields, as PLoD shreds
  // them (7 groups) and as ISOBAR splits them (8 byte planes).
  const Grid gts = datagen::gts_like(128, 3);
  const Grid s3d = datagen::s3d_like(32, 3);
  int stored = 0;
  int dynamic = 0;
  for (const Grid* grid : {&gts, &s3d}) {
    const std::span<const double> all = grid->values();
    for (const std::size_t count : {64u, 300u, 1024u, 4096u}) {
      for (std::size_t at = 0; at + count <= all.size(); at += 5 * count) {
        const std::span<const double> values = all.subspan(at, count);
        const plod::Shredded planes = plod::shred(values);
        for (const Bytes& plane : planes.groups) {
          ASSERT_EQ(encode_diff(plane), "") << count << " values at " << at;
          ++(is_stored(MzipCodec().encode(plane).value()) ? stored : dynamic);
        }
        const Bytes bytes = doubles_to_bytes(values);
        for (std::size_t p = 0; p < sizeof(double); ++p) {
          Bytes plane(count);
          for (std::size_t i = 0; i < count; ++i) {
            plane[i] = bytes[i * sizeof(double) + p];
          }
          ASSERT_EQ(encode_diff(plane), "")
              << "isobar plane " << p << ", " << count << " values";
        }
      }
    }
  }
  EXPECT_GT(stored, 0);
  EXPECT_GT(dynamic, 0);
}

TEST(MzipEncodeDifferential, NearTiesBetweenStoredAndDynamic) {
  // Uniform bytes over 2^b symbols cost about b bits each dynamic, so
  // around n = 8 * 157 / (8 - b) the dynamic and stored sizes meet. Scan
  // seeds for buffers whose predicted dynamic size is within 8 bytes of
  // the stored size: the entropy bound must leave them all to the exact
  // comparison.
  constexpr std::size_t kCentre[] = {419, 628, 1256};  // b = 5, 6, 7
  int ties = 0;
  int stored = 0;
  for (std::uint64_t seed = 0; seed < 3000 && ties < 60; ++seed) {
    const std::size_t b = 5 + seed % 3;
    const std::size_t n = kCentre[seed % 3] - 40 + (seed / 3) % 80;
    const Bytes raw = random_bytes(n, 90000 + seed, 1 << b);
    std::size_t predicted = 0;
    ASSERT_TRUE(detail::mzip_encode_dynamic(raw, 64, predicted).is_ok());
    const std::size_t stored_size = 1 + varint_size(n) + n;
    const std::size_t gap = predicted > stored_size ? predicted - stored_size
                                                    : stored_size - predicted;
    if (gap > 8) continue;
    ++ties;
    ASSERT_EQ(encode_diff(raw), "") << "seed " << seed << ", " << n
                                    << " bytes, gap " << gap;
    if (stored_size <= predicted) ++stored;
  }
  EXPECT_GE(ties, 50);
  // Both sides of the tie are exercised.
  EXPECT_GT(stored, 0);
  EXPECT_LT(stored, ties);
}

TEST(Mzip, HigherChainImprovesOrMatchesRatio) {
  Bytes raw;
  Rng rng(12);
  // Mildly repetitive text-like data where search depth matters.
  const char* words[] = {"temperature", "pressure", "velocity", "entropy"};
  for (int i = 0; i < 20000; ++i) {
    const char* word = words[rng.next_below(4)];
    raw.insert(raw.end(), word, word + std::strlen(word));
  }
  auto quick = MzipCodec(4).encode(raw);
  auto deep = MzipCodec(256).encode(raw);
  ASSERT_TRUE(quick.is_ok() && deep.is_ok());
  EXPECT_LE(deep.value().size(), quick.value().size());
  EXPECT_EQ(MzipCodec().decode(deep.value()).value(), raw);
}

TEST(Mzip, DecodeRejectsCorruptStreams) {
  const MzipCodec codec;
  Bytes raw = random_bytes(5000, 5);
  Bytes enc = codec.encode(raw).value();

  Bytes truncated(enc.begin(), enc.begin() + enc.size() / 2);
  EXPECT_FALSE(codec.decode(truncated).is_ok());

  Bytes flipped = enc;
  flipped[flipped.size() / 2] ^= 0xFF;
  auto res = codec.decode(flipped);
  // Either detected as corrupt, or (rarely) decodes to wrong bytes of the
  // right length — in which case the content must differ from raw, proving
  // the header-size check ran. Accept only detected-corrupt or mismatch.
  if (res.is_ok()) {
    EXPECT_NE(res.value(), raw);
  }

  Bytes empty_claims_trailing = {0x00, 0x01};
  EXPECT_FALSE(codec.decode(empty_claims_trailing).is_ok());
}

// Seeded mutations of PLoD-plane streams: bit flips, byte sets,
// truncations and appends. Both decoders must reach the same verdict.
TEST(Mzip, DecodeVerdictMatchesReference) {
  const MzipCodec codec;
  std::vector<Bytes> bases;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    for (const Bytes& plane : plod_planes(1024, 100 + seed)) {
      bases.push_back(codec.encode(plane).value());
    }
  }
  Rng rng(20121018);
  constexpr int kCases = 100000;
  int accepted = 0;
  for (int i = 0; i < kCases; ++i) {
    Bytes s = bases[rng.next_below(bases.size())];
    const std::size_t pos = rng.next_below(s.size());
    const int kind = static_cast<int>(rng.next_below(4));
    switch (kind) {
      case 0:
        s[pos] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
        break;
      case 1:
        s[pos] = static_cast<std::uint8_t>(rng.next_below(256));
        break;
      case 2:
        s.resize(pos);
        break;
      default:
        for (std::uint64_t k = 1 + rng.next_below(16); k > 0; --k) {
          s.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
        }
        break;
    }
    bool ok = false;
    const std::string diff = verdict_diff(s, &ok);
    ASSERT_TRUE(diff.empty())
        << "case " << i << " (mutation " << kind << " at " << pos
        << "): " << diff;
    accepted += ok ? 1 : 0;
  }
  // Both verdicts must be exercised.
  EXPECT_GT(accepted, kCases / 10);
  EXPECT_LT(accepted, kCases * 9 / 10);
}

// A hand-built mzip stream: explicit code lengths, then symbols written
// with the canonical codes those lengths define.
struct HandStream {
  std::vector<std::uint8_t> lit_lens = std::vector<std::uint8_t>(286, 0);
  std::vector<std::uint8_t> dist_lens = std::vector<std::uint8_t>(30, 0);
  BitWriter bits;

  void literal(int sym) { put(lit_lens, sym); }
  // Lengths 3..10 and distances 1..4 carry no extra bits.
  void match(int len, int dist) {
    put(lit_lens, 254 + len);
    put(dist_lens, dist - 1);
  }
  // Any length 3..258 and distance 1..32768, extra bits included (the
  // DEFLATE tables, RFC 1951 §3.2.5).
  void match_with_extra(int len, int dist) {
    static constexpr int kLenBase[29] = {
        3,  4,  5,  6,  7,  8,  9,  10, 11,  13,  15,  17,  19,  23, 27,
        31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258};
    static constexpr int kLenExtra[29] = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1,
                                          1, 1, 2, 2, 2, 2, 3, 3, 3, 3,
                                          4, 4, 4, 4, 5, 5, 5, 5, 0};
    static constexpr int kDistBase[30] = {
        1,    2,    3,    4,    5,    7,    9,    13,    17,    25,
        33,   49,   65,   97,   129,  193,  257,  385,   513,   769,
        1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577};
    static constexpr int kDistExtra[30] = {0, 0, 0, 0, 1, 1, 2, 2,  3,  3,
                                           4, 4, 5, 5, 6, 6, 7, 7,  8,  8,
                                           9, 9, 10, 10, 11, 11, 12, 12, 13, 13};
    int ls = 28;
    while (kLenBase[ls] > len) --ls;
    put(lit_lens, 257 + ls);
    bits.put_bits(static_cast<std::uint64_t>(len - kLenBase[ls]),
                  kLenExtra[ls]);
    int ds = 29;
    while (kDistBase[ds] > dist) --ds;
    put(dist_lens, ds);
    bits.put_bits(static_cast<std::uint64_t>(dist - kDistBase[ds]),
                  kDistExtra[ds]);
  }
  // An `n`-bit pattern given MSB-first, as canonical codes are written.
  void pattern(std::uint32_t msb_first, int n) {
    std::uint32_t v = 0;
    for (int i = 0; i < n; ++i) v |= ((msb_first >> (n - 1 - i)) & 1u) << i;
    bits.put_bits(v, n);
  }
  Bytes finish(std::uint64_t raw_size) {
    ByteWriter w;
    w.put_varint(raw_size);
    HuffmanCode::from_lengths(lit_lens).value().serialize_lengths(w);
    HuffmanCode::from_lengths(dist_lens).value().serialize_lengths(w);
    bits.finish();
    w.put_bytes(bits.bytes());
    return std::move(w).take();
  }

 private:
  void put(const std::vector<std::uint8_t>& lens, int sym) {
    const HuffmanCode code = HuffmanCode::from_lengths(lens).value();
    bits.put_bits(code.code_bits(sym), code.code_length(sym));
  }
};

Bytes bytes_of(const std::string& s) { return Bytes(s.begin(), s.end()); }

// The decode must fail, with the reference's message.
void expect_rejected_as(const Bytes& stream, const std::string& message) {
  const auto fast = MzipCodec().decode(stream);
  const auto ref = detail::scalar::mzip_decode(stream);
  ASSERT_FALSE(fast.is_ok());
  ASSERT_FALSE(ref.is_ok());
  EXPECT_EQ(fast.status().code(), ErrorCode::kCorruptData);
  EXPECT_EQ(fast.status().message(), message);
  EXPECT_EQ(ref.status().message(), message);
}

// A skewed byte distribution gives the rare literals codes longer than the
// decoder's 10-bit root table, so they decode through the canonical walk.
TEST(Mzip, DecodesLiteralCodesLongerThanRootTable) {
  Rng rng(31);
  Bytes raw(1 << 16);
  for (auto& b : raw) {
    int k = 0;
    while (k < 255 && rng.next_below(2) == 0) ++k;
    b = static_cast<std::uint8_t>(k);
  }
  const Bytes enc = MzipCodec().encode(raw).value();
  ByteReader r{std::span<const std::uint8_t>(enc)};
  ASSERT_TRUE(r.get_varint().is_ok());
  const auto lens = HuffmanCode::deserialize_lengths(r, 286).value();
  EXPECT_GT(*std::max_element(lens.begin(), lens.begin() + 256), 10);

  const auto fast = MzipCodec().decode(enc);
  ASSERT_TRUE(fast.is_ok()) << fast.status().to_string();
  EXPECT_EQ(fast.value(), raw);
  EXPECT_EQ(verdict_diff(enc), "");
}

// A literal table with one code (one bit, 0). With only 'A', the unused
// pattern 1 is no symbol, and a block with no end-of-block code runs past
// its header size. With only end-of-block, the block ends empty.
TEST(Mzip, SingleSymbolLiteralTable) {
  HandStream overlong;
  overlong.lit_lens['A'] = 1;
  overlong.dist_lens[0] = 1;
  for (int i = 0; i < 3; ++i) overlong.literal('A');
  expect_rejected_as(overlong.finish(3), "mzip: output exceeds header size");

  HandStream unassigned;
  unassigned.lit_lens['A'] = 1;
  unassigned.dist_lens[0] = 1;
  unassigned.literal('A');
  unassigned.pattern(1, 1);
  expect_rejected_as(unassigned.finish(2), "mzip: bad symbol");

  HandStream eob_only;
  eob_only.lit_lens[256] = 1;
  eob_only.dist_lens[0] = 1;
  eob_only.literal(256);
  expect_rejected_as(eob_only.finish(1),
                     "mzip: output size mismatches header");
}

// Incomplete codes leave patterns unassigned, both inside the root table
// and past it; either must decode as "bad symbol".
TEST(Mzip, IncompleteCodeUnassignedPatternIsBadSymbol) {
  // 'A' = 00, end-of-block = 01: 1x is unassigned.
  HandStream short_code;
  short_code.lit_lens['A'] = 2;
  short_code.lit_lens[256] = 2;
  short_code.dist_lens[0] = 1;
  short_code.literal('A');
  short_code.pattern(0b11, 2);
  expect_rejected_as(short_code.finish(2), "mzip: bad symbol");

  // 'A' = 0, end-of-block = 100000000000 (12 bits, past the root table):
  // every other 12-bit pattern under 1 is unassigned.
  HandStream long_code;
  long_code.lit_lens['A'] = 1;
  long_code.lit_lens[256] = 12;
  long_code.dist_lens[0] = 1;
  HandStream valid = long_code;
  long_code.literal('A');
  long_code.pattern(0b100000000001, 12);
  expect_rejected_as(long_code.finish(2), "mzip: bad symbol");

  valid.literal('A');
  valid.literal('A');
  valid.literal(256);
  const Bytes stream = valid.finish(2);
  const auto fast = MzipCodec().decode(stream);
  ASSERT_TRUE(fast.is_ok()) << fast.status().to_string();
  EXPECT_EQ(fast.value(), bytes_of("AA"));
  EXPECT_EQ(verdict_diff(stream), "");
}

// dist = 1 and dist < len copy from bytes the match itself writes; a
// match with dist >= len does not overlap.
TEST(Mzip, OverlappingMatchesReplicate) {
  HandStream s;
  for (const int sym : {int{'a'}, int{'b'}, int{'c'}, 256, 254 + 10, 254 + 7,
                        254 + 4}) {
    s.lit_lens[sym] = 3;
  }
  for (int dist : {1, 3, 4}) s.dist_lens[dist - 1] = 2;
  s.literal('a');
  s.match(10, 1);
  s.literal('b');
  s.literal('c');
  s.match(7, 3);
  s.match(4, 4);
  s.literal(256);
  const Bytes stream = s.finish(24);
  const auto fast = MzipCodec().decode(stream);
  ASSERT_TRUE(fast.is_ok()) << fast.status().to_string();
  EXPECT_EQ(fast.value(), bytes_of("aaaaaaaaaaabcabcabcaabca"));
  EXPECT_EQ(verdict_diff(stream), "");

  // Every distance 1 to 9 (the run, the byte loop, and the 8-byte steps
  // with and without a tail) at every length 3 to 258, each behind as many
  // distinct literals as its distance.
  for (int dist = 1; dist <= 9; ++dist) {
    for (int len = 3; len <= 258; ++len) {
      HandStream h;
      for (int c = 0; c < 9; ++c) h.lit_lens['a' + c] = 6;
      for (int sym = 256; sym <= 285; ++sym) h.lit_lens[sym] = 6;
      for (int code = 0; code <= 6; ++code) h.dist_lens[code] = 3;
      std::string want;
      for (int c = 0; c < dist; ++c) {
        h.literal('a' + c);
        want.push_back(static_cast<char>('a' + c));
      }
      h.match_with_extra(len, dist);
      for (int k = 0; k < len; ++k) want.push_back(want[want.size() - dist]);
      h.literal(256);
      const Bytes hand = h.finish(want.size());
      const auto got = MzipCodec().decode(hand);
      ASSERT_TRUE(got.is_ok())
          << "dist " << dist << " len " << len << ": "
          << got.status().to_string();
      ASSERT_EQ(got.value(), bytes_of(want))
          << "dist " << dist << " len " << len;
      ASSERT_EQ(verdict_diff(hand), "") << "dist " << dist << " len " << len;
    }
  }
}

// One payload byte carries at most 8 symbols of at most 258 bytes each, so
// a header claiming more is rejected before the output is sized.
TEST(Mzip, RawSizeAbovePayloadBoundRejectedBeforeDecoding) {
  HandStream s;
  s.lit_lens['A'] = 1;
  s.lit_lens[256] = 1;
  s.dist_lens[0] = 1;
  s.literal('A');
  s.literal(256);
  const std::string bound =
      "mzip: raw size exceeds what the payload can encode";
  for (const std::uint64_t raw_size : {2065ull, 1ull << 28}) {
    HandStream copy = s;
    const Bytes stream = copy.finish(raw_size);
    const auto fast = MzipCodec().decode(stream);
    ASSERT_FALSE(fast.is_ok());
    EXPECT_EQ(fast.status().message(), bound);
    EXPECT_EQ(verdict_diff(stream), "");
  }
  HandStream at_bound = s;
  expect_rejected_as(at_bound.finish(2064),
                     "mzip: output size mismatches header");
  HandStream exact = s;
  const auto fast = MzipCodec().decode(exact.finish(1));
  ASSERT_TRUE(fast.is_ok()) << fast.status().to_string();
  EXPECT_EQ(fast.value(), bytes_of("A"));
}

// Bytes after the end-of-block symbol are not read, and do not fail the
// stream. Plane 0 codes dynamic (the mantissa planes code stored, whose
// length is exact: see MzipStored.MalformedHeadersRejected).
TEST(Mzip, PayloadBytesAfterEndOfBlockAccepted) {
  const Bytes raw = plod_planes(1024, 7)[0];
  Bytes enc = MzipCodec().encode(raw).value();
  ASSERT_FALSE(is_stored(enc));
  for (int i = 0; i < 12; ++i) enc.push_back(static_cast<std::uint8_t>(i * 37));
  const auto fast = MzipCodec().decode(enc);
  ASSERT_TRUE(fast.is_ok()) << fast.status().to_string();
  EXPECT_EQ(fast.value(), raw);
  EXPECT_EQ(verdict_diff(enc), "");
}

// End-of-block = 0, 'A' = 10, 'B' = 11. Four literals fill the one payload
// byte, so the end-of-block the decoder reads next comes from the zero
// padding past the payload: that is an overrun, not the end of the block.
TEST(Mzip, EndOfBlockReadFromPaddingIsRejected) {
  HandStream s;
  s.lit_lens[256] = 1;
  s.lit_lens['A'] = 2;
  s.lit_lens['B'] = 2;
  s.dist_lens[0] = 1;
  for (const char sym : {'A', 'B', 'A', 'B'}) s.literal(sym);
  HandStream terminated = s;
  expect_rejected_as(s.finish(4), "mzip: bad symbol");

  terminated.literal(256);
  const auto fast = MzipCodec().decode(terminated.finish(4));
  ASSERT_TRUE(fast.is_ok()) << fast.status().to_string();
  EXPECT_EQ(fast.value(), bytes_of("ABAB"));
}

// A stored stream's length is exact: no bytes may be missing or follow
// it, and it holds at least one byte (the empty buffer is the lone 0x00).
TEST(MzipStored, MalformedHeadersRejected) {
  const Bytes raw = random_bytes(300, 77);
  const Bytes valid = stored_stream(raw);
  ASSERT_EQ(MzipCodec().decode(valid).value(), raw);
  ASSERT_EQ(verdict_diff(valid), "");

  expect_rejected_as({0x00, 0x00}, "mzip: empty stored stream");
  expect_rejected_as({0x00, 0x00, 0x41}, "mzip: empty stored stream");
  expect_rejected_as({0x00, 0x05, 'a', 'b', 'c'},
                     "mzip: stored size mismatches stream");
  expect_rejected_as(Bytes(valid.begin(), valid.end() - 1),
                     "mzip: stored size mismatches stream");
  Bytes trailing = valid;
  trailing.push_back(0);
  expect_rejected_as(trailing, "mzip: stored size mismatches stream");

  ByteWriter huge;
  huge.put_varint(0);
  huge.put_varint((1ull << 28) + 1);
  huge.put_bytes(raw);
  expect_rejected_as(std::move(huge).take(), "mzip: implausible raw size");

  expect_rejected_as({0x00, 0x80}, "varint truncated");
}

// ---------------------------------------------------------------- ISOBAR

TEST(Isobar, ByteEntropyBounds) {
  EXPECT_DOUBLE_EQ(IsobarCodec::byte_entropy({}), 0.0);
  Bytes constant(1000, 42);
  EXPECT_DOUBLE_EQ(IsobarCodec::byte_entropy(constant), 0.0);
  Bytes uniform = random_bytes(1 << 16, 77);
  EXPECT_GT(IsobarCodec::byte_entropy(uniform), 7.9);
  EXPECT_LE(IsobarCodec::byte_entropy(uniform), 8.0);
}

TEST(Isobar, LosslessRoundTripSmoothField) {
  const IsobarCodec codec;
  auto field = smooth_field(10000, 21);
  auto enc = codec.encode(field);
  ASSERT_TRUE(enc.is_ok());
  auto dec = codec.decode(enc.value());
  ASSERT_TRUE(dec.is_ok());
  EXPECT_EQ(dec.value(), field);
}

TEST(Isobar, LosslessRoundTripSpecialValues) {
  const IsobarCodec codec;
  std::vector<double> vals = {0.0,
                              -0.0,
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::denorm_min(),
                              std::numeric_limits<double>::max(),
                              1.0};
  auto dec = codec.decode(codec.encode(vals).value());
  ASSERT_TRUE(dec.is_ok());
  ASSERT_EQ(dec.value().size(), vals.size());
  for (std::size_t i = 0; i < vals.size(); ++i) {
    // Bit-exact comparison (NaN != NaN under operator==).
    std::uint64_t a, b;
    std::memcpy(&a, &vals[i], 8);
    std::memcpy(&b, &dec.value()[i], 8);
    EXPECT_EQ(a, b) << "at " << i;
  }
}

TEST(Isobar, CompressesSmoothDataBeatsRawSize) {
  const IsobarCodec codec;
  auto field = smooth_field(50000, 31);
  auto enc = codec.encode(field);
  ASSERT_TRUE(enc.is_ok());
  EXPECT_LT(enc.value().size(), field.size() * 8);
}

TEST(Isobar, EmptyInput) {
  const IsobarCodec codec;
  auto enc = codec.encode({});
  ASSERT_TRUE(enc.is_ok());
  EXPECT_TRUE(codec.decode(enc.value()).value().empty());
}

TEST(Isobar, DecodeRejectsBadPlaneFlag) {
  const IsobarCodec codec;
  auto field = smooth_field(100, 5);
  Bytes enc = codec.encode(field).value();
  // First plane flag comes right after the count varint; corrupt it.
  ByteReader probe(enc);
  (void)probe.get_varint();
  const std::size_t flag_pos = probe.position();
  enc[flag_pos] = 99;
  EXPECT_FALSE(codec.decode(enc).is_ok());
}

TEST(Isobar, DecodeRejectsTruncation) {
  const IsobarCodec codec;
  auto field = smooth_field(1000, 6);
  Bytes enc = codec.encode(field).value();
  Bytes truncated(enc.begin(), enc.begin() + enc.size() * 2 / 3);
  EXPECT_FALSE(codec.decode(truncated).is_ok());
}

// --------------------------------------------------------------- BSpline

TEST(BSpline, PartitionOfUnity) {
  const CubicBSpline s(std::vector<double>(12, 1.0));
  for (double u = 0.0; u <= 1.0; u += 0.01) {
    EXPECT_NEAR(s.evaluate(u), 1.0, 1e-12) << "u=" << u;
  }
  EXPECT_NEAR(s.evaluate(0.0), 1.0, 1e-12);
  EXPECT_NEAR(s.evaluate(1.0), 1.0, 1e-12);
}

TEST(BSpline, FitsLineExactly) {
  std::vector<double> y(100);
  for (int i = 0; i < 100; ++i) y[i] = 2.0 * i + 5.0;
  const CubicBSpline s = CubicBSpline::fit(y, 8);
  for (int i = 0; i < 100; ++i) {
    const double u = i / 99.0;
    EXPECT_NEAR(s.evaluate(u), y[i], 1e-6);
  }
}

TEST(BSpline, FitsSmoothMonotoneCurveClosely) {
  // The ISABELA use case: a sorted (monotone) sample of a smooth field.
  auto field = smooth_field(1024, 41);
  std::sort(field.begin(), field.end());
  const CubicBSpline s = CubicBSpline::fit(field, 30);
  double max_err = 0;
  for (int i = 0; i < 1024; ++i) {
    const double u = i / 1023.0;
    max_err = std::max(max_err, std::abs(s.evaluate(u) - field[i]));
  }
  const double range = field.back() - field.front();
  EXPECT_LT(max_err, 0.05 * range);
}

TEST(BSpline, HandlesTinyInputs) {
  for (int n : {1, 2, 3, 4, 7}) {
    std::vector<double> y(n, 3.5);
    const CubicBSpline s = CubicBSpline::fit(y, 4);
    EXPECT_NEAR(s.evaluate(0.0), 3.5, 1e-6) << n;
    if (n > 1) {
      EXPECT_NEAR(s.evaluate(1.0), 3.5, 1e-6) << n;
    }
  }
}

// --------------------------------------------------------------- ISABELA

class IsabelaErrorBound : public ::testing::TestWithParam<double> {};

TEST_P(IsabelaErrorBound, PointwiseRelativeErrorGuaranteed) {
  const double eps = GetParam();
  IsabelaCodec codec({.error_bound = eps, .window = 512, .coefficients = 24});
  auto field = smooth_field(5000, 51);
  auto enc = codec.encode(field);
  ASSERT_TRUE(enc.is_ok());
  auto dec = codec.decode(enc.value());
  ASSERT_TRUE(dec.is_ok()) << dec.status().to_string();
  ASSERT_EQ(dec.value().size(), field.size());
  for (std::size_t i = 0; i < field.size(); ++i) {
    const double err = std::abs(dec.value()[i] - field[i]);
    // Tiny tolerance on top of the bound absorbs final rounding.
    ASSERT_LE(err, eps * std::abs(field[i]) * (1 + 1e-12) + 1e-300)
        << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, IsabelaErrorBound,
                         ::testing::Values(0.1, 0.01, 0.001, 0.0001));

TEST(Isabela, AchievesStrongCompressionOnSmoothData) {
  IsabelaCodec codec({.error_bound = 0.01, .window = 1024, .coefficients = 30});
  auto field = smooth_field(100000, 61);
  auto enc = codec.encode(field);
  ASSERT_TRUE(enc.is_ok());
  // Paper Table I: ISABELA reaches ~20% of raw (1.6 GB of 8 GB).
  EXPECT_LT(enc.value().size(), field.size() * 8 / 3);
}

TEST(Isabela, HandlesSpecialValuesViaExceptions) {
  IsabelaCodec codec({.error_bound = 0.01, .window = 64, .coefficients = 8});
  std::vector<double> vals(200, 1.0);
  vals[3] = 0.0;
  vals[10] = -5.0;   // sign flip vs the mostly-positive fit
  vals[50] = std::numeric_limits<double>::infinity();
  vals[77] = std::numeric_limits<double>::quiet_NaN();
  vals[120] = 1e-308;
  auto dec = codec.decode(codec.encode(vals).value());
  ASSERT_TRUE(dec.is_ok());
  EXPECT_EQ(dec.value()[3], 0.0);
  EXPECT_NEAR(dec.value()[10], -5.0, 0.05);
  EXPECT_TRUE(std::isinf(dec.value()[50]));
  EXPECT_TRUE(std::isnan(dec.value()[77]));
  for (std::size_t i = 0; i < vals.size(); ++i) {
    if (i == 3 || i == 50 || i == 77 || i == 120 || i == 10) continue;
    EXPECT_NEAR(dec.value()[i], 1.0, 0.011);
  }
}

TEST(Isabela, EmptyAndSingleValue) {
  IsabelaCodec codec;
  EXPECT_TRUE(codec.decode(codec.encode({}).value()).value().empty());
  std::vector<double> one = {42.0};
  auto dec = codec.decode(codec.encode(one).value());
  ASSERT_TRUE(dec.is_ok());
  EXPECT_NEAR(dec.value()[0], 42.0, 0.5);
}

TEST(Isabela, WindowNotMultipleOfInput) {
  IsabelaCodec codec({.error_bound = 0.01, .window = 100, .coefficients = 8});
  auto field = smooth_field(257, 71);  // 2 full windows + remainder of 57
  auto dec = codec.decode(codec.encode(field).value());
  ASSERT_TRUE(dec.is_ok());
  for (std::size_t i = 0; i < field.size(); ++i) {
    EXPECT_NEAR(dec.value()[i], field[i], 0.011 * std::abs(field[i]));
  }
}

TEST(Isabela, DecodeRejectsCorruption) {
  IsabelaCodec codec;
  auto field = smooth_field(3000, 81);
  Bytes enc = codec.encode(field).value();

  Bytes truncated(enc.begin(), enc.begin() + enc.size() / 2);
  EXPECT_FALSE(codec.decode(truncated).is_ok());

  Bytes tiny = {0x05};  // claims 5 values then ends
  EXPECT_FALSE(codec.decode(tiny).is_ok());
}

// -------------------------------------------------------------- registry

TEST(Registry, NamesThePaperCodecsOnly) {
  // raw and mzip are the byte codecs (MLOC-COL), isobar and isabela the
  // whole-value ones (MLOC-ISO, MLOC-ISA); nothing else is registered.
  EXPECT_EQ(registered_codec_names(),
            (std::vector<std::string>{"raw", "mzip", "isobar", "isabela"}));
  for (const char* name : {"raw", "mzip"}) {
    EXPECT_TRUE(is_byte_codec(name)) << name;
    EXPECT_TRUE(make_byte_codec(name).is_ok()) << name;
  }
  for (const char* name : {"isobar", "isabela"}) {
    EXPECT_FALSE(is_byte_codec(name)) << name;
    EXPECT_EQ(make_byte_codec(name).status().code(), ErrorCode::kNotFound)
        << name;
  }
  for (const char* name : {"rle", "xor-delta", ""}) {
    EXPECT_FALSE(is_byte_codec(name)) << name;
    EXPECT_EQ(make_double_codec(name).status().code(), ErrorCode::kNotFound)
        << name;
  }
}

TEST(Registry, ConstructsEveryRegisteredCodec) {
  for (const auto& name : registered_codec_names()) {
    auto codec = make_double_codec(name);
    ASSERT_TRUE(codec.is_ok()) << name;
    EXPECT_EQ(codec.value()->name(), name);
  }
}

TEST(Registry, EveryCodecRoundTripsWithinItsErrorBound) {
  auto field = smooth_field(4096, 99);
  for (const auto& name : registered_codec_names()) {
    auto codec = make_double_codec(name).value();
    auto enc = codec->encode(field);
    ASSERT_TRUE(enc.is_ok()) << name;
    auto dec = codec->decode(enc.value());
    ASSERT_TRUE(dec.is_ok()) << name;
    ASSERT_EQ(dec.value().size(), field.size()) << name;
    for (std::size_t i = 0; i < field.size(); ++i) {
      if (codec->lossless()) {
        ASSERT_EQ(dec.value()[i], field[i]) << name << " at " << i;
      } else {
        ASSERT_LE(std::abs(dec.value()[i] - field[i]),
                  codec->max_relative_error() * std::abs(field[i]) + 1e-300)
            << name << " at " << i;
      }
    }
  }
}

TEST(Registry, IsabelaParameterSuffix) {
  auto codec = make_double_codec("isabela:0.001");
  ASSERT_TRUE(codec.is_ok());
  EXPECT_DOUBLE_EQ(codec.value()->max_relative_error(), 0.001);
  EXPECT_FALSE(make_double_codec("isabela:2.0").is_ok());
  EXPECT_FALSE(make_double_codec("isabela:-1").is_ok());
}

TEST(Registry, UnknownNameFails) {
  auto res = make_double_codec("gzip");
  ASSERT_FALSE(res.is_ok());
  EXPECT_EQ(res.status().code(), ErrorCode::kNotFound);
}

}  // namespace
}  // namespace mloc
