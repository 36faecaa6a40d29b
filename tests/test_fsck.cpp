// mloc_fsck / LayoutVerifier tests: a clean store passes every check under
// all layout configurations, and one injected corruption per invariant
// family (bin boundaries, positional index, PLoD planes, Hilbert order,
// checksums) is detected and attributed to the right check.
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
#include "tools/fsck.hpp"
#include "util/hash.hpp"

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
      {"rle", LevelOrder::kVMS},        // alternate byte codec
      {"xor-delta", LevelOrder::kVMS},  // whole-value lossless
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
  const BinningScheme* scheme = store.value().binning("phi").value();
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
// must be caught by the blob's FNV checksum.
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
/// fragment-table FNV is recomputed and the footer re-sealed, so only the
/// semantic checks can catch the change. The last blob is the one chosen
/// because re-encoding it at a new length moves no other blob.
void replace_last_position_blob(
    pfs::PfsStorage& fs,
    const std::function<Bytes(const FragmentInfo&,
                              const std::vector<std::uint32_t>&)>& make) {
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
    victim->positions.checksum = fnv1a64(blob);
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

// planes: a flipped byte inside a compressed payload segment (footer
// re-sealed) must be caught by the segment FNV before plane decode.
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
// cache-miss access after reopen (lazy footer verification).
TEST(Fsck, StoreQueryRejectsUnresealedTamperingAfterReopen) {
  pfs::PfsStorage fs;
  build_store(fs, "mzip");
  const std::string dat = file_named(fs, ".dat");
  auto id = fs.open(dat).value();
  auto size = fs.file_size(id).value();
  Bytes content = fs.read(id, 0, size).value();
  content[size - 1] ^= 0xFF;  // footer magic byte: no query reads it
  ASSERT_TRUE(fs.set_contents(id, std::move(content)).is_ok());

  auto reopened = MlocStore::open(&fs, "s");
  ASSERT_TRUE(reopened.is_ok());
  Query q;
  q.vc = ValueConstraint{-1e30, 1e30};
  q.values_needed = true;  // force payload reads even for aligned bins
  auto res = reopened.value().execute("phi", q);
  ASSERT_FALSE(res.is_ok());
  EXPECT_EQ(res.status().code(), ErrorCode::kCorruptData);
}

}  // namespace
}  // namespace mloc
