// mloc_fsck / LayoutVerifier tests: a clean store passes every check under
// all layout configurations, and one injected corruption per invariant
// family (bin boundaries, positional index, PLoD planes, Hilbert order,
// checksums) is detected and attributed to the right check. Checksums are
// re-sealed and flipped under the variable's own kind (CRC-32 in every
// store these tests write).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "array/chunking.hpp"
#include "core/layout.hpp"
#include "core/store.hpp"
#include "datagen/datagen.hpp"
#include "index/hbx.hpp"
#include "tools/fsck.hpp"

namespace mloc {
namespace {

MlocConfig small_config(const NDShape& shape, const NDShape& chunk,
                        const std::string& codec,
                        LevelOrder order = LevelOrder::kVMS) {
  MlocConfig cfg;
  cfg.shape = shape;
  cfg.layout.chunk_shape = chunk;
  cfg.layout.num_bins = 16;
  cfg.layout.codec = codec;
  cfg.layout.order = order;
  cfg.layout.sample_stride = 7;
  return cfg;
}

/// Build a one-variable store named "s" on `fs`.
void build_store(pfs::PfsStorage& fs, const std::string& codec,
                 LevelOrder order = LevelOrder::kVMS) {
  Grid grid = datagen::gts_like(64, 42);
  auto store = MlocStore::create(
      &fs, "s", small_config(grid.shape(), NDShape{16, 16}, codec, order));
  ASSERT_TRUE(store.is_ok()) << store.status().to_string();
  ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());
}

/// Mutate the payload of subfile `name` and re-seal it with a fresh CRC
/// footer, so the tampering exercises the *semantic* checks rather than
/// tripping the footer first.
void tamper_resealed(pfs::PfsStorage& fs, const std::string& name,
                     const std::function<void(Bytes&)>& mutate) {
  auto id = fs.open(name);
  ASSERT_TRUE(id.is_ok()) << name;
  auto size = fs.file_size(id.value());
  ASSERT_TRUE(size.is_ok());
  Bytes content = fs.read(id.value(), 0, size.value()).value();
  auto payload_len = verify_subfile_footer(content);
  ASSERT_TRUE(payload_len.is_ok()) << name;
  content.resize(payload_len.value());
  mutate(content);
  append_subfile_footer(content);
  ASSERT_TRUE(fs.set_contents(id.value(), std::move(content)).is_ok());
}

/// The checksum kind of variable "phi" of store "s", from its meta.
ChecksumKind checksum_kind(pfs::PfsStorage& fs) {
  auto store = MlocStore::open(&fs, "s");
  EXPECT_TRUE(store.is_ok()) << store.status().to_string();
  return store.value().variable("phi").value()->checksum;
}

/// First file name with the given suffix.
std::string file_named(const pfs::PfsStorage& fs, const std::string& suffix) {
  for (const auto& [name, size] : fs.listing()) {
    if (name.ends_with(suffix) && size > 2 * kSubfileFooterSize) return name;
  }
  ADD_FAILURE() << "no file matching " << suffix;
  return {};
}

bool has_check(const fsck::Report& r, const std::string& check) {
  return std::any_of(r.issues.begin(), r.issues.end(),
                     [&](const fsck::Issue& i) { return i.check == check; });
}

std::string checks_of(const fsck::Report& r) {
  std::string out;
  for (const auto& i : r.issues) {
    out += "[" + i.check + "] " + i.object + ": " + i.detail + "\n";
  }
  return out;
}

// --------------------------------------------------------- clean datasets

TEST(Fsck, CleanStorePassesEveryConfig) {
  struct Case {
    std::string codec;
    LevelOrder order;
  };
  const std::vector<Case> cases = {
      {"mzip", LevelOrder::kVMS},       // PLoD byte columns, groups outer
      {"mzip", LevelOrder::kVSM},       // PLoD byte columns, fragments outer
      {"raw", LevelOrder::kVMS},        // byte columns stored as-is
      {"isobar", LevelOrder::kVMS},     // whole-value lossless
      {"isabela:0.01", LevelOrder::kVMS},  // whole-value lossy
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.codec);
    pfs::PfsStorage fs;
    build_store(fs, c.codec, c.order);
    fsck::LayoutVerifier verifier(&fs);
    const fsck::Report report = verifier.verify_store("s");
    EXPECT_TRUE(report.ok()) << checks_of(report);
    EXPECT_EQ(report.variables_checked, 1u);
    EXPECT_GT(report.fragments_checked, 0u);
    EXPECT_GT(report.bytes_verified, 0u);
  }
}

TEST(Fsck, DiscoverStoresFindsEveryMetaFile) {
  pfs::PfsStorage fs;
  build_store(fs, "mzip");
  fsck::LayoutVerifier verifier(&fs);
  EXPECT_EQ(verifier.discover_stores(), std::vector<std::string>{"s"});
}

TEST(Fsck, JsonReportIsWellFormedOnCleanStore) {
  pfs::PfsStorage fs;
  build_store(fs, "mzip");
  fsck::LayoutVerifier verifier(&fs);
  const std::string json = verifier.verify_store("s").json();
  EXPECT_NE(json.find("\"store\":\"s\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ok\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"issues\":[]"), std::string::npos) << json;
  // Each variable's segment checksum kind.
  EXPECT_NE(json.find("\"checksum\":\"crc32\""), std::string::npos) << json;
}

// --------------------------------------- one injection per invariant class

// checksum: a byte flip with no footer re-seal must be caught by the
// whole-file CRC — even in bytes no query would ever read.
TEST(Fsck, FooterCatchesUnresealedByteFlip) {
  pfs::PfsStorage fs;
  build_store(fs, "mzip");
  const std::string dat = file_named(fs, ".dat");
  auto id = fs.open(dat).value();
  auto size = fs.file_size(id).value();
  Bytes content = fs.read(id, 0, size).value();
  content[size / 2] ^= 0x01;
  ASSERT_TRUE(fs.set_contents(id, std::move(content)).is_ok());

  fsck::LayoutVerifier verifier(&fs);
  const fsck::Report report = verifier.verify_store("s");
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_check(report, "footer")) << checks_of(report);
}

// bins: making two interior boundaries equal breaks strict monotonicity;
// the metadata decode path must reject the scheme.
TEST(Fsck, NonMonotoneBinBoundariesDetected) {
  pfs::PfsStorage fs;
  build_store(fs, "mzip");
  auto store = MlocStore::open(&fs, "s");
  ASSERT_TRUE(store.is_ok());
  const BinningScheme* scheme = &store.value().variable("phi").value()->scheme;
  const double b3 = scheme->upper(3);
  const double b4 = scheme->upper(4);
  ASSERT_LT(b3, b4);

  tamper_resealed(fs, "s.meta", [&](Bytes& payload) {
    // Overwrite boundary 4's byte image with boundary 3's, duplicating it.
    std::uint8_t from[8];
    std::uint8_t to[8];
    std::memcpy(from, &b4, 8);
    std::memcpy(to, &b3, 8);
    auto it = std::search(payload.begin(), payload.end(),
                          std::begin(from), std::end(from));
    ASSERT_NE(it, payload.end());
    std::copy(std::begin(to), std::end(to), it);
  });

  fsck::LayoutVerifier verifier(&fs);
  const fsck::Report report = verifier.verify_store("s");
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_check(report, "meta")) << checks_of(report);
}

// index: a flipped byte inside a positional-index blob (footer re-sealed)
// must be caught by the blob's checksum.
TEST(Fsck, CorruptPositionBlobDetected) {
  pfs::PfsStorage fs;
  build_store(fs, "mzip");
  tamper_resealed(fs, file_named(fs, ".idx"), [](Bytes& payload) {
    payload.back() ^= 0xFF;  // last blob byte (blobs sit after the table)
  });

  fsck::LayoutVerifier verifier(&fs);
  const fsck::Report report = verifier.verify_store("s");
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_check(report, "positions")) << checks_of(report);
}

/// Replace the blob that ends the positional-index blob section of the
/// first .idx subfile with make(fragment, decoded offsets). The blob's
/// fragment-table checksum is recomputed under the variable's kind and the
/// footer re-sealed, so only the semantic checks can catch the change. The
/// last blob is the one chosen because re-encoding it at a new length
/// moves no other blob.
void replace_last_position_blob(
    pfs::PfsStorage& fs,
    const std::function<Bytes(const FragmentInfo&,
                              const std::vector<std::uint32_t>&)>& make) {
  const ChecksumKind kind = checksum_kind(fs);
  tamper_resealed(fs, file_named(fs, ".idx"), [&](Bytes& payload) {
    ByteReader r{std::span<const std::uint8_t>(payload)};
    auto layout = BinLayout::deserialize(r);
    ASSERT_TRUE(layout.is_ok());
    const std::size_t header_len = r.position();
    auto& frags = layout.value().fragments;
    auto victim = std::max_element(
        frags.begin(), frags.end(), [](const auto& a, const auto& b) {
          return a.positions.offset < b.positions.offset;
        });
    ASSERT_NE(victim, frags.end());
    const std::size_t blob_at = header_len + victim->positions.offset;
    ASSERT_EQ(blob_at + victim->positions.length, payload.size());
    auto offsets = decode_positions(
        std::span<const std::uint8_t>(payload).subspan(
            blob_at, victim->positions.length),
        victim->count);
    ASSERT_TRUE(offsets.is_ok());
    const Bytes blob = make(*victim, offsets.value());
    victim->positions.length = blob.size();
    victim->positions.checksum = segment_checksum(kind, blob);
    ByteWriter w;
    layout.value().serialize(w);
    const Bytes header = std::move(w).take();
    ASSERT_EQ(header.size(), header_len);
    payload.resize(blob_at);
    std::copy(header.begin(), header.end(), payload.begin());
    payload.insert(payload.end(), blob.begin(), blob.end());
  });
}

/// A full fetch decodes every fragment's blob: the engine must refuse the
/// tampered one with CorruptData, and fsck must attribute it to the
/// positional index.
void expect_positions_rejected(pfs::PfsStorage& fs) {
  auto reopened = MlocStore::open(&fs, "s");
  ASSERT_TRUE(reopened.is_ok());
  Query q;
  q.values_needed = true;
  auto res = reopened.value().execute("phi", q);
  ASSERT_FALSE(res.is_ok());
  EXPECT_EQ(res.status().code(), ErrorCode::kCorruptData)
      << res.status().to_string();

  fsck::LayoutVerifier verifier(&fs);
  const fsck::Report report = verifier.verify_store("s");
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_check(report, "positions")) << checks_of(report);
}

// positions: a blob whose last offset lies one past its chunk, so only a
// range check can catch it. The engine must refuse it on first decode
// (before any filter or bitmap lookup sees the offset).
TEST(Fsck, PositionPastChunkVolumeRejected) {
  pfs::PfsStorage fs;
  build_store(fs, "mzip");
  const ChunkGrid chunks(NDShape{64, 64}, NDShape{16, 16});
  replace_last_position_blob(
      fs, [&](const FragmentInfo& frag, std::vector<std::uint32_t> offsets) {
        offsets.back() = static_cast<std::uint32_t>(
            chunks.chunk_region(frag.chunk).volume());
        return encode_positions(offsets);
      });
  expect_positions_rejected(fs);
}

// positions: a blob whose last delta is 2^64 - 1, so a 64-bit prev + delta
// wraps to one below the previous offset: in range, but not ascending.
TEST(Fsck, WrappedPositionDeltaRejected) {
  pfs::PfsStorage fs;
  build_store(fs, "mzip");
  replace_last_position_blob(
      fs, [](const FragmentInfo&, const std::vector<std::uint32_t>& offsets) {
        // Three offsets keep the one before the last above zero.
        EXPECT_GE(offsets.size(), 3u);
        ByteWriter w;
        w.put_varint(offsets[0]);
        for (std::size_t i = 1; i + 1 < offsets.size(); ++i) {
          w.put_varint(offsets[i] - offsets[i - 1]);
        }
        w.put_varint(~0ull);
        return std::move(w).take();
      });
  expect_positions_rejected(fs);
}

TEST(PositionBlob, RoundTripsAscendingOffsets) {
  const std::vector<std::uint32_t> offsets = {0, 1, 7, 300, 0xFFFFFFFFu};
  auto decoded = decode_positions(encode_positions(offsets), offsets.size());
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value(), offsets);
}

TEST(PositionBlob, WrappedDeltaRejected) {
  ByteWriter w;
  w.put_varint(5);
  w.put_varint(~0ull - 2);  // 5 + 2^64 - 3 wraps to 2 in 64 bits
  auto decoded = decode_positions(std::move(w).take(), 2);
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().code(), ErrorCode::kCorruptData);

  ByteWriter past;  // no wrap, but past 32 bits
  past.put_varint(0xFFFFFFFFull);
  past.put_varint(1);
  EXPECT_FALSE(decode_positions(std::move(past).take(), 2).is_ok());
}

TEST(PositionBlob, CountAboveBlobSizeRejected) {
  const Bytes blob = encode_positions(std::vector<std::uint32_t>{1, 2, 3});
  ASSERT_EQ(blob.size(), 3u);
  EXPECT_TRUE(decode_positions(blob, 3).is_ok());
  // A count no blob of this size can hold fails before anything is
  // reserved for it.
  auto decoded = decode_positions(blob, ~0ull);
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().code(), ErrorCode::kCorruptData);
  EXPECT_FALSE(decode_positions(blob, 4).is_ok());
}

/// decode_positions as it was written over ByteReader::get_varint: the
/// reference the inline varint decode must agree with, verdict for verdict.
Result<std::vector<std::uint32_t>> reference_decode_positions(
    std::span<const std::uint8_t> blob, std::uint64_t count) {
  if (count > blob.size()) {
    return corrupt_data("position count exceeds blob size");
  }
  ByteReader r(blob);
  std::vector<std::uint32_t> out;
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    MLOC_ASSIGN_OR_RETURN(std::uint64_t delta, r.get_varint());
    if (i != 0 && delta == 0) {
      return corrupt_data("position index not strictly ascending");
    }
    if (delta > 0xFFFFFFFFull - prev) {
      return corrupt_data("position index exceeds 32 bits");
    }
    prev += delta;
    out.push_back(static_cast<std::uint32_t>(prev));
  }
  if (!r.exhausted()) return corrupt_data("position blob has trailing bytes");
  return out;
}

/// Append `v` as a varint of exactly `nbytes` bytes (zero continuation
/// groups pad it past its canonical length; ByteReader accepts those).
void put_varint_bytes(Bytes& out, std::uint64_t v, int nbytes) {
  for (int k = 0; k < nbytes; ++k) {
    const auto group = static_cast<std::uint8_t>(v & 0x7f);
    v >>= 7;
    out.push_back(k + 1 < nbytes ? static_cast<std::uint8_t>(group | 0x80)
                                 : group);
  }
}

// The inline 1- and 2-byte varint decode gives the same offsets, or the
// same ErrorCode and message, as the ByteReader loop: deltas of 1, 2, 3, 5
// and 10 bytes, every truncation of each blob, and each error case.
TEST(PositionBlob, InlineVarintsMatchByteReaderReference) {
  struct Blob {
    std::string what;
    Bytes bytes;
    std::uint64_t count;
  };
  std::vector<Blob> blobs;
  const auto blob_of = [](std::initializer_list<std::pair<std::uint64_t, int>>
                              deltas) {
    Bytes b;
    for (const auto& [v, n] : deltas) put_varint_bytes(b, v, n);
    return b;
  };
  // Valid: each delta length, canonical and padded, first offset 0 or not.
  blobs.push_back({"1-byte", blob_of({{0, 1}, {1, 1}, {127, 1}}), 3});
  blobs.push_back({"2-byte", blob_of({{128, 2}, {16383, 2}, {5, 1}}), 3});
  blobs.push_back({"3-byte", blob_of({{16384, 3}, {2097151, 3}}), 2});
  blobs.push_back({"5-byte", blob_of({{0x10000000, 5}, {0xEFFFFFFF, 5}}), 2});
  blobs.push_back({"10-byte", blob_of({{7, 10}, {1, 1}, {300, 10}}), 3});
  blobs.push_back({"padded 2-byte", blob_of({{3, 2}, {4, 2}}), 2});
  blobs.push_back({"max offset", blob_of({{0xFFFFFFFF, 5}}), 1});
  // Errors.
  Bytes over_long(10, 0x80);
  over_long.push_back(0x01);  // 11 bytes: shift reaches 64
  blobs.push_back({"11-byte varint", over_long, 1});
  Bytes high_bits(9, 0xFF);
  high_bits.push_back(0x02);  // 10th byte sets bit 64
  blobs.push_back({"10-byte past 64 bits", high_bits, 1});
  blobs.push_back({"zero delta", blob_of({{4, 1}, {0, 1}}), 2});
  blobs.push_back({"padded zero delta", blob_of({{4, 1}, {0, 2}}), 2});
  blobs.push_back({"past 32 bits", blob_of({{0xFFFFFFFF, 5}, {1, 1}}), 2});
  blobs.push_back({"one delta past 32 bits", blob_of({{1ull << 32, 5}}), 1});
  blobs.push_back({"trailing byte", blob_of({{1, 1}, {2, 1}, {3, 1}}), 2});
  blobs.push_back({"count above size", blob_of({{1, 1}, {2, 1}}), 3});
  blobs.push_back({"empty", {}, 0});

  const auto expect_same = [](std::span<const std::uint8_t> bytes,
                              std::uint64_t count, const std::string& what) {
    const auto want = reference_decode_positions(bytes, count);
    const auto got = decode_positions(bytes, count);
    ASSERT_EQ(got.is_ok(), want.is_ok())
        << what << ": " << got.status().to_string() << " vs "
        << want.status().to_string();
    if (want.is_ok()) {
      EXPECT_EQ(got.value(), want.value()) << what;
    } else {
      EXPECT_EQ(got.status().code(), want.status().code()) << what;
      EXPECT_EQ(got.status().message(), want.status().message()) << what;
    }
  };
  int valid = 0;
  for (const Blob& b : blobs) {
    expect_same(b.bytes, b.count, b.what);
    if (reference_decode_positions(b.bytes, b.count).is_ok()) ++valid;
    for (std::size_t cut = 0; cut < b.bytes.size(); ++cut) {
      expect_same(std::span<const std::uint8_t>(b.bytes).first(cut), b.count,
                  b.what + " cut at " + std::to_string(cut));
    }
  }
  EXPECT_EQ(valid, 8);  // the seven valid blobs and the empty one
}

// planes: a flipped byte inside a compressed payload segment (footer
// re-sealed) must be caught by the segment checksum before plane decode.
TEST(Fsck, CorruptPayloadSegmentDetected) {
  pfs::PfsStorage fs;
  build_store(fs, "mzip");
  tamper_resealed(fs, file_named(fs, ".dat"), [](Bytes& payload) {
    payload[payload.size() / 2] ^= 0xFF;
  });

  fsck::LayoutVerifier verifier(&fs);
  const fsck::Report report = verifier.verify_store("s");
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_check(report, "planes")) << checks_of(report);
}

// Hilbert order: swapping two fragment-table entries reorders fragments
// out of curve order. Re-serializing the swapped table yields the same
// header length (same entries, different order), so the table still
// decodes — the order invariant is what must catch it.
TEST(Fsck, FragmentsOutOfCurveOrderDetected) {
  pfs::PfsStorage fs;
  build_store(fs, "mzip");

  // Find a bin whose table has at least two fragments.
  std::string victim;
  for (const auto& [name, size] : fs.listing()) {
    if (!name.ends_with(".idx") || size <= 2 * kSubfileFooterSize) continue;
    auto id = fs.open(name).value();
    Bytes content = fs.read(id, 0, size).value();
    const std::uint64_t payload = verify_subfile_footer(content).value();
    ByteReader r(std::span<const std::uint8_t>(content).first(payload));
    auto layout = BinLayout::deserialize(r);
    if (layout.is_ok() && layout.value().fragments.size() >= 2) {
      victim = name;
      break;
    }
  }
  ASSERT_FALSE(victim.empty()) << "no bin with >= 2 fragments";

  tamper_resealed(fs, victim, [](Bytes& payload) {
    ByteReader r{std::span<const std::uint8_t>(payload)};
    auto layout = BinLayout::deserialize(r);
    ASSERT_TRUE(layout.is_ok());
    const std::size_t header_len = r.position();
    std::swap(layout.value().fragments[0], layout.value().fragments[1]);
    ByteWriter w;
    layout.value().serialize(w);
    Bytes swapped = std::move(w).take();
    ASSERT_EQ(swapped.size(), header_len);  // same entries, same encoding
    std::copy(swapped.begin(), swapped.end(), payload.begin());
  });

  fsck::LayoutVerifier verifier(&fs);
  const fsck::Report report = verifier.verify_store("s");
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_check(report, "order")) << checks_of(report);
}

// The store's own read path must also reject tampered subfiles on first
// cache-miss access after reopen (lazy footer verification), for every
// kind of subfile a query reads: .dat and .idx under a value query, and
// .hbx under a region-only VC over aligned bins of an indexed variable.
TEST(Fsck, StoreQueryRejectsUnresealedTamperingAfterReopen) {
  for (const std::string suffix : {".dat", ".idx", ".hbx"}) {
    SCOPED_TRACE(suffix);
    pfs::PfsStorage fs;
    const Grid grid = datagen::gts_like(64, 42);
    MlocConfig cfg = small_config(grid.shape(), NDShape{16, 16}, "mzip");
    cfg.layout.index_fanout = 4;
    {
      auto store = MlocStore::create(&fs, "s", cfg);
      ASSERT_TRUE(store.is_ok()) << store.status().to_string();
      ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());
    }
    auto id = fs.open(file_named(fs, suffix)).value();
    auto size = fs.file_size(id).value();
    Bytes content = fs.read(id, 0, size).value();
    content[size - 1] ^= 0xFF;  // footer magic byte: no query reads it
    ASSERT_TRUE(fs.set_contents(id, std::move(content)).is_ok());

    auto reopened = MlocStore::open(&fs, "s");
    ASSERT_TRUE(reopened.is_ok());
    Query q;
    if (suffix == ".hbx") {
      const BinningScheme& scheme =
          reopened.value().variable("phi").value()->scheme;
      q.vc = ValueConstraint{scheme.lower(1),
                             scheme.upper(scheme.num_bins() - 2)};
      q.values_needed = false;
      // The flat path reads no .hbx byte, so only the index can fail.
      exec::ExecOptions flat;
      flat.use_hbx = false;
      ASSERT_TRUE(reopened.value().execute("phi", q, 1, flat).is_ok());
    } else {
      q.vc = ValueConstraint{-1e30, 1e30};
      q.values_needed = true;  // force payload reads even for aligned bins
    }
    auto res = reopened.value().execute("phi", q);
    ASSERT_FALSE(res.is_ok());
    EXPECT_EQ(res.status().code(), ErrorCode::kCorruptData);
  }
}


// ----------------------------------------------- CRC-32 segment checksums

/// A one-variable v6 store "s" for the checksum-family tests: `codec`
/// chooses PLoD byte planes (mzip) or whole-value segments (isobar);
/// `fanout` > 0 adds a .hbx index.
void build_v6_store(pfs::PfsStorage& fs, const std::string& codec,
                    int fanout = 0) {
  const Grid grid = datagen::gts_like(64, 42);
  MlocConfig cfg = small_config(grid.shape(), NDShape{16, 16}, codec);
  cfg.layout.index_fanout = fanout;
  auto store = MlocStore::create(&fs, "s", cfg);
  ASSERT_TRUE(store.is_ok()) << store.status().to_string();
  ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());
}

/// Region-only VC over bins 1..n-2 of "phi": the index path answers those
/// bins from .hbx nodes.
Query interior_region_query(const MlocStore& store) {
  const BinningScheme& scheme = store.variable("phi").value()->scheme;
  Query q;
  q.vc = ValueConstraint{scheme.lower(1), scheme.upper(scheme.num_bins() - 2)};
  q.values_needed = false;
  return q;
}

// One flipped byte inside a segment of each checksummed family of a v6
// store, footer re-sealed so only the segment checksum can catch it: the
// read that fetches the segment fails with CorruptData, and fsck names the
// family. The store's checksums are CRC-32.
TEST(Fsck, CrcSegmentFlipRejectedInEveryFamily) {
  struct Case {
    std::string what;
    std::string codec;
    int fanout;
    std::string suffix;  ///< subfile to tamper
    std::string family;  ///< fsck check that must report it
  };
  const std::vector<Case> cases = {
      {"PLoD plane", "mzip", 0, ".dat", "planes"},
      {"position blob", "mzip", 0, ".idx", "positions"},
      {"ISOBAR segment", "isobar", 0, ".dat", "planes"},
      {".hbx node", "mzip", 4, ".hbx", "index"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    pfs::PfsStorage fs;
    build_v6_store(fs, c.codec, c.fanout);
    ASSERT_EQ(checksum_kind(fs), ChecksumKind::kCrc32);
    Query q;
    q.values_needed = true;  // every fragment's blob and all its planes
    if (c.suffix == ".hbx") {
      const MlocStore reader = MlocStore::open(&fs, "s").value();
      q = interior_region_query(reader);
      const auto header = index::HbxHeader::deserialize(
          fs.read(fs.open("s/phi.hbx").value(), 0,
                  reader.variable("phi").value()->hbx->header_len)
              .value());
      ASSERT_TRUE(header.is_ok());
      const std::vector<std::size_t> covered = index::cover(
          header.value(), 1, header.value().num_bins - 2);
      ASSERT_FALSE(covered.empty());
      const index::HbxNode& node = header.value().nodes[covered[0]];
      tamper_resealed(fs, "s/phi.hbx", [&](Bytes& payload) {
        payload[header.value().header_len + node.offset + node.length / 2] ^=
            0x01;
      });
    } else if (c.suffix == ".idx") {
      tamper_resealed(fs, file_named(fs, ".idx"),
                      [](Bytes& payload) { payload.back() ^= 0x01; });
    } else {
      tamper_resealed(fs, file_named(fs, ".dat"), [](Bytes& payload) {
        payload[payload.size() / 2] ^= 0x01;
      });
    }

    auto reopened = MlocStore::open(&fs, "s");
    ASSERT_TRUE(reopened.is_ok()) << reopened.status().to_string();
    auto res = reopened.value().execute("phi", q);
    ASSERT_FALSE(res.is_ok());
    EXPECT_EQ(res.status().code(), ErrorCode::kCorruptData)
        << res.status().to_string();
    EXPECT_NE(res.status().message().find("checksum"), std::string::npos)
        << res.status().to_string();

    const fsck::Report report = fsck::LayoutVerifier(&fs).verify_store("s");
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(has_check(report, c.family)) << checks_of(report);
    bool named = false;
    for (const fsck::Issue& i : report.issues) {
      named = named || (i.check == c.family &&
                        i.detail.find("failed checksum") != std::string::npos);
    }
    EXPECT_TRUE(named) << checks_of(report);
  }
}

// positions, in a .hbx store: a flipped position-blob byte (footer
// re-sealed) that still decodes to ascending, in-chunk offsets, so only the
// blob's checksum catches it. fsck reports it under "positions" and does not
// compare that bin's .hbx leaf with offsets it could not read clean.
TEST(Fsck, FlippedPositionBlobSkipsItsBinsLeaf) {
  pfs::PfsStorage fs;
  build_v6_store(fs, "mzip", /*fanout=*/4);
  tamper_resealed(fs, file_named(fs, ".idx"), [](Bytes& payload) {
    ByteReader r{std::span<const std::uint8_t>(payload)};
    auto layout = BinLayout::deserialize(r);
    ASSERT_TRUE(layout.is_ok());
    const auto& frags = layout.value().fragments;
    const FragmentInfo& last = *std::max_element(
        frags.begin(), frags.end(), [](const auto& a, const auto& b) {
          return a.positions.offset < b.positions.offset;
        });
    const std::size_t at = r.position() + last.positions.offset;
    ASSERT_EQ(at + last.positions.length, payload.size());
    payload.back() ^= 0x01;  // the low bit of the blob's last delta
    const auto offsets = decode_positions(
        std::span<const std::uint8_t>(payload).subspan(at), last.count);
    ASSERT_TRUE(offsets.is_ok()) << offsets.status().to_string();
    const ChunkGrid chunks(NDShape{64, 64}, NDShape{16, 16});
    ASSERT_LT(offsets.value().back(),
              chunks.chunk_region(last.chunk).volume());
  });

  const fsck::Report report = fsck::LayoutVerifier(&fs).verify_store("s");
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_check(report, "positions")) << checks_of(report);
  EXPECT_FALSE(has_check(report, "index")) << checks_of(report);
}

// A CRC-32 checksum is stored zero-extended in the 64-bit field, so one
// whose low 32 bits are still right but whose high bits are set fails:
// one payload segment's and one position blob's, in turn.
TEST(Fsck, CrcChecksumWithHighBitsSetRejected) {
  for (const bool blob : {false, true}) {
    SCOPED_TRACE(blob ? "position blob" : "payload segment");
    pfs::PfsStorage fs;
    build_v6_store(fs, "mzip");
    tamper_resealed(fs, file_named(fs, ".idx"), [&](Bytes& payload) {
      ByteReader r{std::span<const std::uint8_t>(payload)};
      auto layout = BinLayout::deserialize(r);
      ASSERT_TRUE(layout.is_ok());
      const std::size_t header_len = r.position();
      FragmentInfo& frag = layout.value().fragments.front();
      Segment& seg = blob ? frag.positions : frag.groups.front();
      ASSERT_EQ(seg.checksum >> 32, 0u);  // zero-extended CRC-32
      seg.checksum |= 0xA5ull << 40;
      ByteWriter w;
      layout.value().serialize(w);
      ASSERT_EQ(w.size(), header_len);  // checksums are fixed-width
      std::copy(w.bytes().begin(), w.bytes().end(), payload.begin());
    });

    auto reopened = MlocStore::open(&fs, "s");
    ASSERT_TRUE(reopened.is_ok());
    Query q;
    q.values_needed = true;
    auto res = reopened.value().execute("phi", q);
    ASSERT_FALSE(res.is_ok());
    EXPECT_EQ(res.status().code(), ErrorCode::kCorruptData);

    const fsck::Report report = fsck::LayoutVerifier(&fs).verify_store("s");
    EXPECT_TRUE(has_check(report, blob ? "positions" : "planes"))
        << checks_of(report);
  }
}

}  // namespace
}  // namespace mloc
