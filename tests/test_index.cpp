// Hierarchical bitmap index (src/index) tests: tree build / header
// round-trip, top-down cover correctness, store-level A/B bit-identity
// against the flat positional path across layout configs, planner
// estimate == cold execution with the index enabled, meta v4 reopen,
// node caching through the FragmentProvider, the tuner's fan-out axis,
// and one injected corruption per fsck "index" invariant family.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "core/store.hpp"
#include "datagen/datagen.hpp"
#include "index/hbx.hpp"
#include "tune/tuner.hpp"
#include "service/fragment_cache.hpp"
#include "tools/fsck.hpp"
#include "tune/trace.hpp"
#include "tune/tuner.hpp"
#include "util/rng.hpp"

namespace mloc {
namespace {

using index::HbxBuild;
using index::HbxHeader;
using index::HbxNode;

Bitmap random_bitmap(std::uint64_t nbits, double density, std::uint64_t seed) {
  Bitmap b(nbits);
  Rng rng(seed);
  for (std::uint64_t i = 0; i < nbits; ++i) {
    if (rng.next_double() < density) b.set(i);
  }
  return b;
}

std::vector<WahBitmap> random_leaves(int nbins, std::uint64_t nbits,
                                     std::uint64_t seed) {
  std::vector<WahBitmap> leaves;
  leaves.reserve(static_cast<std::size_t>(nbins));
  for (int b = 0; b < nbins; ++b) {
    leaves.push_back(WahBitmap::compress(
        random_bitmap(nbits, 0.05, seed + static_cast<std::uint64_t>(b))));
  }
  return leaves;
}

/// OR of leaves[first..last] (the ground truth any cover must reproduce).
WahBitmap leaf_union(const std::vector<WahBitmap>& leaves, int first,
                     int last, std::uint64_t nbits) {
  WahBitmap acc = WahBitmap::compress(Bitmap(nbits));
  for (int b = first; b <= last; ++b) {
    acc = WahBitmap::logical_or(acc, leaves[static_cast<std::size_t>(b)]);
  }
  return acc;
}

// ------------------------------------------------------------ tree build

/// Build, round-trip and verify a 13-bin tree whose node checksums are
/// of `kind`.
void check_header_round_trip(ChecksumKind kind) {
  const std::uint64_t nbits = 1000;
  const int nbins = 13;  // non-power-of-fanout: ragged top levels
  const auto leaves = random_leaves(nbins, nbits, 7);
  const HbxBuild built = index::build_index(leaves, nbits, 4, kind);

  // Level structure: 13 -> 4 -> 1.
  ASSERT_EQ(built.header.num_levels(), 3);
  EXPECT_EQ(built.header.level(0).size(), 13u);
  EXPECT_EQ(built.header.level(1).size(), 4u);
  EXPECT_EQ(built.header.level(2).size(), 1u);
  EXPECT_EQ(built.bitmaps.size(), built.header.nodes.size());

  // Every node's bitmap is the OR of the leaves it spans, and its table
  // entry records the exact popcount.
  for (std::size_t i = 0; i < built.header.nodes.size(); ++i) {
    const HbxNode& n = built.header.nodes[i];
    EXPECT_TRUE(built.bitmaps[i] ==
                leaf_union(leaves, n.first_bin, n.last_bin(), nbits))
        << "node " << i;
    EXPECT_EQ(built.bitmaps[i].count(), n.popcount) << "node " << i;
  }

  // Header serialize/deserialize round-trips bit-for-bit.
  const Bytes img = built.header.serialize();
  ASSERT_EQ(img.size(), built.header.header_len);
  auto parsed = HbxHeader::deserialize(img);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().fanout, 4);
  EXPECT_EQ(parsed.value().num_bins, nbins);
  EXPECT_EQ(parsed.value().nbits, nbits);
  EXPECT_EQ(parsed.value().level_begin, built.header.level_begin);
  ASSERT_EQ(parsed.value().nodes.size(), built.header.nodes.size());
  for (std::size_t i = 0; i < built.header.nodes.size(); ++i) {
    const HbxNode& a = built.header.nodes[i];
    const HbxNode& b = parsed.value().nodes[i];
    EXPECT_EQ(a.level, b.level);
    EXPECT_EQ(a.first_bin, b.first_bin);
    EXPECT_EQ(a.bin_count, b.bin_count);
    EXPECT_EQ(a.offset, b.offset);
    EXPECT_EQ(a.length, b.length);
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.popcount, b.popcount);
  }

  // The sealed file verifies and its node extents hold the bitmaps.
  auto payload = verify_subfile_footer(built.file);
  ASSERT_TRUE(payload.is_ok());
  for (std::size_t i = 0; i < built.header.nodes.size(); ++i) {
    const HbxNode& n = built.header.nodes[i];
    const auto seg = std::span<const std::uint8_t>(built.file)
                         .subspan(built.header.header_len + n.offset,
                                  n.length);
    EXPECT_EQ(segment_checksum(kind, seg), n.checksum) << "node " << i;
    ByteReader r(seg);
    auto bm = WahBitmap::deserialize(r);
    ASSERT_TRUE(bm.is_ok());
    EXPECT_TRUE(bm.value() == built.bitmaps[i]) << "node " << i;
  }
}

// Ingest writes CRC-32 node checksums; a variable carried over from a
// v2–v5 meta reads FNV-1a ones. build_index writes either.
TEST(HbxBuild, HeaderRoundTripAndAggregates) {
  for (const ChecksumKind kind :
       {ChecksumKind::kCrc32, ChecksumKind::kFnv1a64}) {
    SCOPED_TRACE(std::string(checksum_kind_name(kind)));
    check_header_round_trip(kind);
  }
}

TEST(HbxBuild, SingleBinAndBinaryFanout) {
  const std::uint64_t nbits = 64;
  const HbxBuild one = index::build_index(random_leaves(1, nbits, 3), nbits, 2,
                                          ChecksumKind::kCrc32);
  EXPECT_EQ(one.header.num_levels(), 1);
  EXPECT_EQ(one.header.nodes.size(), 1u);

  const auto leaves = random_leaves(8, nbits, 4);
  const HbxBuild bin =
      index::build_index(leaves, nbits, 2, ChecksumKind::kCrc32);
  EXPECT_EQ(bin.header.num_levels(), 4);  // 8 -> 4 -> 2 -> 1
  EXPECT_EQ(bin.header.nodes.size(), 15u);
}

TEST(HbxCover, RandomSpansMatchLeafUnion) {
  const std::uint64_t nbits = 500;
  const int nbins = 21;
  const auto leaves = random_leaves(nbins, nbits, 11);
  const HbxBuild built =
      index::build_index(leaves, nbits, 3, ChecksumKind::kCrc32);

  Rng rng(99);
  for (int t = 0; t < 200; ++t) {
    int a = static_cast<int>(rng.next_below(static_cast<std::size_t>(nbins)));
    int b = static_cast<int>(rng.next_below(static_cast<std::size_t>(nbins)));
    if (a > b) std::swap(a, b);
    const std::vector<std::size_t> ids = index::cover(built.header, a, b);

    // Covered bins tile [a, b] exactly, without overlap.
    std::vector<int> covered;
    for (std::size_t id : ids) {
      const HbxNode& n = built.header.nodes[id];
      for (int bin = n.first_bin; bin <= n.last_bin(); ++bin) {
        covered.push_back(bin);
      }
    }
    std::sort(covered.begin(), covered.end());
    ASSERT_EQ(covered.size(), static_cast<std::size_t>(b - a + 1));
    for (int bin = a; bin <= b; ++bin) {
      EXPECT_EQ(covered[static_cast<std::size_t>(bin - a)], bin);
    }

    // The OR of the covered nodes equals the OR of the span's leaves.
    WahBitmap acc = WahBitmap::compress(Bitmap(nbits));
    for (std::size_t id : ids) {
      acc = WahBitmap::logical_or(acc, built.bitmaps[id]);
    }
    EXPECT_TRUE(acc == leaf_union(leaves, a, b, nbits));

    // Minimality (binary property): never more nodes than bins, and a
    // full span resolves to the single root.
    EXPECT_LE(ids.size(), static_cast<std::size_t>(b - a + 1));
    if (a == 0 && b == nbins - 1) {
      EXPECT_EQ(ids.size(), 1u);
    }
  }

  EXPECT_TRUE(index::cover(built.header, 5, 4).empty());
  EXPECT_TRUE(index::cover(built.header, -3, -1).empty());
}

// ------------------------------------------------------- store-level A/B

MlocConfig hbx_config(const NDShape& shape, const NDShape& chunk,
                      LevelOrder order, sfc::CurveKind curve, int num_bins,
                      int fanout) {
  MlocConfig cfg;
  cfg.shape = shape;
  cfg.layout.chunk_shape = chunk;
  cfg.layout.num_bins = num_bins;
  cfg.layout.codec = "mzip";
  cfg.layout.order = order;
  cfg.layout.curve = curve;
  cfg.layout.index_fanout = fanout;
  return cfg;
}

TEST(HbxStore, RegionQueriesBitIdenticalToFlatPathAcrossConfigs) {
  struct Case {
    LevelOrder order;
    sfc::CurveKind curve;
    int num_bins;
    int fanout;
  };
  const std::vector<Case> cases = {
      {LevelOrder::kVMS, sfc::CurveKind::kHilbert, 64, 4},
      {LevelOrder::kVSM, sfc::CurveKind::kMorton, 64, 8},
      {LevelOrder::kVMS, sfc::CurveKind::kRowMajor, 128, 2},
  };
  const Grid grid = datagen::gts_like(64, 42);
  for (const auto& c : cases) {
    SCOPED_TRACE(std::to_string(c.num_bins) + " bins, fanout " +
                 std::to_string(c.fanout));
    pfs::PfsStorage fs;
    auto store = MlocStore::create(
        &fs, "s",
        hbx_config(grid.shape(), NDShape{16, 16}, c.order, c.curve,
                   c.num_bins, c.fanout));
    ASSERT_TRUE(store.is_ok()) << store.status().to_string();
    ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());

    Rng rng(7);
    for (double sel : {0.02, 0.2, 0.6}) {
      Query q;
      q.vc = datagen::random_vc(grid, sel, rng);
      q.values_needed = false;

      exec::ExecOptions hier;
      exec::ExecOptions flat;
      flat.use_hbx = false;
      auto rh = store.value().execute("phi", q, 2, hier);
      auto rf = store.value().execute("phi", q, 2, flat);
      ASSERT_TRUE(rh.is_ok()) << rh.status().to_string();
      ASSERT_TRUE(rf.is_ok()) << rf.status().to_string();
      EXPECT_EQ(rh.value().positions, rf.value().positions);
      // The tree must actually engage on interior bins (wide selections
      // always align at least one bin).
      if (sel >= 0.2) {
        EXPECT_GT(rh.value().aligned_bins, 0u);
      }
    }

    // SC + VC region queries take the flat path for boundary bins and
    // intersect node bitmaps positionally — still identical.
    Query q;
    q.vc = datagen::random_vc(grid, 0.3, rng);
    q.sc = Region(2, Coord{8, 8}, Coord{40, 56});
    q.values_needed = false;
    exec::ExecOptions flat;
    flat.use_hbx = false;
    auto rh = store.value().execute("phi", q, 1);
    auto rf = store.value().execute("phi", q, 1, flat);
    ASSERT_TRUE(rh.is_ok());
    ASSERT_TRUE(rf.is_ok());
    EXPECT_EQ(rh.value().positions, rf.value().positions);
  }
}

TEST(HbxStore, ValueRetrievalUnaffectedByIndex) {
  const Grid grid = datagen::gts_like(32, 5);
  pfs::PfsStorage fs;
  auto store = MlocStore::create(
      &fs, "s",
      hbx_config(grid.shape(), NDShape{8, 8}, LevelOrder::kVMS,
                 sfc::CurveKind::kHilbert, 16, 4));
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());
  Rng rng(3);
  Query q;
  q.vc = datagen::random_vc(grid, 0.4, rng);
  q.values_needed = true;
  exec::ExecOptions flat;
  flat.use_hbx = false;
  auto rh = store.value().execute("phi", q, 1);
  auto rf = store.value().execute("phi", q, 1, flat);
  ASSERT_TRUE(rh.is_ok());
  ASSERT_TRUE(rf.is_ok());
  EXPECT_EQ(rh.value().positions, rf.value().positions);
  EXPECT_EQ(rh.value().values, rf.value().values);
  // Value retrieval must touch fragments regardless, so the index stays
  // out of the plan entirely.
  EXPECT_EQ(rh.value().exec.bytes_read, rf.value().exec.bytes_read);
}

TEST(HbxStore, MultivarSelectMatchesFlatDecomposition) {
  const Grid t = datagen::s3d_like(16, 21);
  const Grid y = datagen::s3d_species_like(t, 22);
  pfs::PfsStorage fs;
  MlocConfig cfg = hbx_config(t.shape(), NDShape{8, 8, 8}, LevelOrder::kVMS,
                              sfc::CurveKind::kHilbert, 32, 4);
  auto store = MlocStore::create(&fs, "s", cfg);
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("T", t).is_ok());
  ASSERT_TRUE(store.value().write_variable("Y", y).is_ok());

  pfs::PfsStorage fs_flat;
  MlocConfig cfg_flat = cfg;
  cfg_flat.layout.index_fanout = 0;
  auto flat = MlocStore::create(&fs_flat, "s", cfg_flat);
  ASSERT_TRUE(flat.is_ok());
  ASSERT_TRUE(flat.value().write_variable("T", t).is_ok());
  ASSERT_TRUE(flat.value().write_variable("Y", y).is_ok());

  Rng rng(17);
  const ValueConstraint vct = datagen::random_vc(t, 0.35, rng);
  const ValueConstraint vcy = datagen::random_vc(y, 0.35, rng);
  for (auto combine : {MlocStore::Combine::kAnd, MlocStore::Combine::kOr}) {
    auto rh = store.value().multivar_select({{"T", vct}, {"Y", vcy}}, combine,
                                            "Y", 7, 2);
    auto rf = flat.value().multivar_select({{"T", vct}, {"Y", vcy}}, combine,
                                           "Y", 7, 2);
    ASSERT_TRUE(rh.is_ok()) << rh.status().to_string();
    ASSERT_TRUE(rf.is_ok()) << rf.status().to_string();
    EXPECT_EQ(rh.value().positions, rf.value().positions);
    EXPECT_EQ(rh.value().values, rf.value().values);
  }
}

// ------------------------------------------------- estimate == execution

TEST(HbxStore, PlannerEstimateMatchesColdExecution) {
  const Grid grid = datagen::gts_like(64, 9);
  pfs::PfsStorage fs;
  auto store = MlocStore::create(
      &fs, "s",
      hbx_config(grid.shape(), NDShape{16, 16}, LevelOrder::kVMS,
                 sfc::CurveKind::kHilbert, 64, 4));
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());

  Rng rng(13);
  for (int ranks : {1, 3}) {
    for (double sel : {0.05, 0.3, 0.7}) {
      Query q;
      q.vc = datagen::random_vc(grid, sel, rng);
      q.values_needed = false;
      auto est = store.value().plan("phi", q, ranks);
      ASSERT_TRUE(est.is_ok()) << est.status().to_string();
      auto io_s = tune::estimate_io_seconds(store.value(), "phi", q, ranks);
      ASSERT_TRUE(io_s.is_ok()) << io_s.status().to_string();
      auto res = store.value().execute("phi", q, ranks);
      ASSERT_TRUE(res.is_ok()) << res.status().to_string();
      EXPECT_EQ(est.value().stats.bytes_read, res.value().exec.bytes_read)
          << "sel " << sel << " ranks " << ranks;
      EXPECT_EQ(est.value().stats.modeled_seeks,
                res.value().exec.modeled_seeks);
      EXPECT_EQ(est.value().aligned_bins, res.value().aligned_bins);
      if (ranks == 1) {
        EXPECT_DOUBLE_EQ(io_s.value(), res.value().times.io);
      } else {
        // estimate_io_seconds takes the best makespan over nested
        // power-of-two rank splits, so it lower-bounds the executed split.
        EXPECT_LE(io_s.value(), res.value().times.io + 1e-12);
      }
    }
  }
}

// ------------------------------------------------------- reopen + cache

TEST(HbxStore, MetaV4ReopenKeepsIndex) {
  const Grid grid = datagen::gts_like(48, 31);
  pfs::PfsStorage fs;
  {
    auto store = MlocStore::create(
        &fs, "s",
        hbx_config(grid.shape(), NDShape{16, 16}, LevelOrder::kVMS,
                   sfc::CurveKind::kHilbert, 32, 4));
    ASSERT_TRUE(store.is_ok());
    ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());
  }
  auto reopened = MlocStore::open(&fs, "s");
  ASSERT_TRUE(reopened.is_ok()) << reopened.status().to_string();
  auto var = reopened.value().variable("phi");
  ASSERT_TRUE(var.is_ok());
  ASSERT_TRUE(var.value()->hbx.has_value());
  EXPECT_GT(var.value()->hbx->header_len, 0u);

  Rng rng(41);
  Query q;
  q.vc = datagen::random_vc(grid, 0.4, rng);
  q.values_needed = false;
  exec::ExecOptions flat;
  flat.use_hbx = false;
  auto rh = reopened.value().execute("phi", q, 1);
  auto rf = reopened.value().execute("phi", q, 1, flat);
  ASSERT_TRUE(rh.is_ok());
  ASSERT_TRUE(rf.is_ok());
  EXPECT_EQ(rh.value().positions, rf.value().positions);
  EXPECT_GT(rh.value().aligned_bins, 0u);
}

TEST(HbxStore, NodeBitmapsServedFromFragmentCache) {
  const Grid grid = datagen::gts_like(48, 12);
  pfs::PfsStorage fs;
  auto store = MlocStore::create(
      &fs, "s",
      hbx_config(grid.shape(), NDShape{16, 16}, LevelOrder::kVMS,
                 sfc::CurveKind::kHilbert, 32, 4));
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());
  service::FragmentCache cache;
  store.value().set_fragment_provider(&cache);

  Rng rng(8);
  Query q;
  q.vc = datagen::random_vc(grid, 0.5, rng);
  q.values_needed = false;
  auto cold = store.value().execute("phi", q, 1);
  ASSERT_TRUE(cold.is_ok());
  ASSERT_GT(cold.value().aligned_bins, 0u);
  auto warm = store.value().execute("phi", q, 1);
  ASSERT_TRUE(warm.is_ok());
  EXPECT_EQ(cold.value().positions, warm.value().positions);
  EXPECT_GT(warm.value().cache.hits, 0u);
  EXPECT_LT(warm.value().exec.bytes_read, cold.value().exec.bytes_read);
}

// ------------------------------------------------------------ tuner axis

TEST(HbxTune, FanoutIsASearchableKnob) {
  const Grid grid = datagen::gts_like(32, 77);
  pfs::PfsStorage fs;
  auto store = MlocStore::create(
      &fs, "s",
      hbx_config(grid.shape(), NDShape{8, 8}, LevelOrder::kVMS,
                 sfc::CurveKind::kHilbert, 64, 0));
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());

  // Region-only workload: the .hbx path prunes .idx bytes, so a fan-out
  // candidate must beat the index-less baseline.
  tune::QueryTrace trace;
  Rng rng(5);
  for (int i = 0; i < 6; ++i) {
    Query q;
    q.vc = datagen::random_vc(grid, 0.4, rng);
    q.values_needed = false;
    trace.queries.push_back({"phi", q, 1});
  }
  tune::SearchSpace space;
  space.bin_counts = {64};
  space.chunk_shapes = {NDShape{8, 8}};
  space.index_fanouts = {0, 4};
  space.interleave_samples = 0;
  space.random_restarts = 0;
  auto result = tune::tune_variable(store.value(), "phi", trace, space);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().recommended.index_fanout, 4);
  EXPECT_LT(result.value().predicted_cost_tuned,
            result.value().predicted_cost_default);
  const std::string json = tune::tune_report_json({result.value()});
  EXPECT_NE(json.find("\"index_fanout\":4"), std::string::npos);
}

// ------------------------------------------------------ fsck corruptions

void build_fsck_store(pfs::PfsStorage& fs) {
  const Grid grid = datagen::gts_like(48, 2);
  auto store = MlocStore::create(
      &fs, "s",
      hbx_config(grid.shape(), NDShape{16, 16}, LevelOrder::kVMS,
                 sfc::CurveKind::kHilbert, 16, 4));
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());
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

/// The sealed s/phi.hbx of a fsck store, parsed for in-place tampering.
struct HbxImage {
  pfs::FileId fid = 0;
  Bytes content;
  std::size_t payload_end = 0;  ///< bytes before the footer
  HbxHeader header;
  ChecksumKind checksum = ChecksumKind::kCrc32;  ///< phi's, from the meta
};

HbxImage read_hbx(pfs::PfsStorage& fs) {
  HbxImage img;
  auto store = MlocStore::open(&fs, "s");
  EXPECT_TRUE(store.is_ok());
  img.checksum = store.value().variable("phi").value()->checksum;
  auto fid = fs.open("s/phi.hbx");
  EXPECT_TRUE(fid.is_ok());
  img.fid = fid.value();
  const std::uint64_t size = fs.file_size(img.fid).value();
  img.content = fs.read(img.fid, 0, size).value();
  auto payload = verify_subfile_footer(img.content);
  EXPECT_TRUE(payload.is_ok());
  img.payload_end = payload.value();
  auto header = HbxHeader::deserialize(
      std::span<const std::uint8_t>(img.content).first(img.payload_end));
  EXPECT_TRUE(header.is_ok()) << header.status().to_string();
  img.header = std::move(header).value();
  return img;
}

/// Byte offset of node `id`'s serialized bitmap and of its first WAH word,
/// and its word count.
struct NodeWords {
  std::size_t node_off = 0;
  std::size_t words_off = 0;
  std::uint64_t nwords = 0;
};

NodeWords node_words(const HbxImage& img, std::size_t id) {
  const HbxNode& n = img.header.nodes[id];
  NodeWords out;
  out.node_off = static_cast<std::size_t>(img.header.header_len + n.offset);
  ByteReader r(std::span<const std::uint8_t>(img.content)
                   .subspan(out.node_off, n.length));
  EXPECT_TRUE(r.get_varint().is_ok());  // nbits
  auto nwords = r.get_varint();
  EXPECT_TRUE(nwords.is_ok());
  out.nwords = nwords.value();
  out.words_off = out.node_off + r.position();
  return out;
}

/// Recompute node `id`'s checksum under the variable's kind, write the
/// header back, re-seal the footer and store the file. False (nothing
/// stored) when the header's size changed, since the store's meta records
/// it.
bool reseal_node(pfs::PfsStorage& fs, HbxImage& img, std::size_t id) {
  HbxNode& n = img.header.nodes[id];
  n.checksum = segment_checksum(
      img.checksum, std::span<const std::uint8_t>(img.content)
                        .subspan(img.header.header_len + n.offset, n.length));
  const Bytes head = img.header.serialize();
  if (head.size() != img.header.header_len) return false;
  std::memcpy(img.content.data(), head.data(), head.size());
  img.content.resize(img.payload_end);
  append_subfile_footer(img.content);
  EXPECT_TRUE(fs.set_contents(img.fid, std::move(img.content)).is_ok());
  return true;
}

/// Swap one set and one clear payload bit inside a literal WAH word of
/// node `id`'s serialized bitmap, recompute the node's checksum in the
/// header, and re-seal the footer. Length, stream validity, bit width and
/// popcount all survive, so only the semantic invariants (aggregate OR /
/// leaf vs positional index) can trip. Returns false when the node has no
/// mutable literal word.
bool corrupt_node_bitmap(pfs::PfsStorage& fs, std::size_t id) {
  HbxImage img = read_hbx(fs);
  const NodeWords nw = node_words(img, id);
  // Skip the final word: flipping padding bits in the last group would
  // change count() and trip the popcount check instead.
  for (std::uint64_t w = 0; nw.nwords > 0 && w + 1 < nw.nwords; ++w) {
    std::uint32_t word;
    std::memcpy(&word, img.content.data() + nw.words_off + 4 * w, 4);
    const std::uint32_t lit = word & 0x7FFF'FFFFu;
    if ((word >> 31) != 0 || lit == 0 || lit == 0x7FFF'FFFFu) continue;
    const std::uint32_t lowest_set = lit & (~lit + 1);
    const std::uint32_t inv = ~lit & 0x7FFF'FFFFu;
    const std::uint32_t lowest_clear = inv & (~inv + 1);
    word = (word ^ lowest_set) | lowest_clear;
    std::memcpy(img.content.data() + nw.words_off + 4 * w, &word, 4);
    // Only a fixed-width u64 changes in the header.
    EXPECT_TRUE(reseal_node(fs, img, id));
    return true;
  }
  return false;
}

/// Set the first padding bit (the grid's volume, one past its last point)
/// in node `id`'s final WAH group, then re-seal the node's popcount,
/// checksum and the footer, so the node passes the popcount check that a
/// plain padding flip would trip. A final 0-fill of one group is rewritten
/// as a literal in place. Returns false when `id` is past the node table,
/// the final word is a longer fill (rewriting it would split the word), or
/// the re-sealed popcount would change the header's size.
bool set_node_padding_bit(pfs::PfsStorage& fs, std::size_t id) {
  HbxImage img = read_hbx(fs);
  if (id >= img.header.nodes.size()) return false;
  const std::uint64_t nbits = img.header.nbits;
  const std::uint64_t valid = nbits - 31 * ((nbits + 30) / 31 - 1);
  EXPECT_LT(valid, 31u) << "grid volume leaves no padding bits";
  const NodeWords nw = node_words(img, id);
  if (nw.nwords == 0) return false;
  const std::size_t last_off = nw.words_off + 4 * (nw.nwords - 1);
  std::uint32_t word;
  std::memcpy(&word, img.content.data() + last_off, 4);
  if ((word >> 31) != 0) {
    if (word != 0x8000'0001u) return false;  // not a one-group 0-fill
    word = 0;
  }
  word |= 1u << valid;
  std::memcpy(img.content.data() + last_off, &word, 4);
  img.header.nodes[id].popcount += 1;
  return reseal_node(fs, img, id);
}

TEST(HbxFsck, CleanStorePassesIndexChecks) {
  pfs::PfsStorage fs;
  build_fsck_store(fs);
  fsck::LayoutVerifier verifier(&fs);
  const fsck::Report report = verifier.verify_store("s");
  EXPECT_TRUE(report.ok()) << checks_of(report);
  ASSERT_EQ(report.variable_layouts.size(), 1u);
  EXPECT_TRUE(report.variable_layouts[0].hbx_present);
  EXPECT_EQ(report.variable_layouts[0].index_fanout, 4);
  EXPECT_GT(report.variable_layouts[0].hbx_nodes, 16u);
  const std::string json = report.json();
  EXPECT_NE(json.find("\"hbx\":{\"present\":true"), std::string::npos);
}

TEST(HbxFsck, DetectsBadAggregateOr) {
  pfs::PfsStorage fs;
  build_fsck_store(fs);
  // 16 leaves at fanout 4: nodes 16..19 are level-1 aggregates.
  bool mutated = false;
  for (std::size_t id = 16; id < 21 && !mutated; ++id) {
    mutated = corrupt_node_bitmap(fs, id);
  }
  ASSERT_TRUE(mutated) << "no aggregate node with a mutable literal word";
  fsck::LayoutVerifier verifier(&fs);
  const fsck::Report report = verifier.verify_store("s");
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_check(report, "index")) << checks_of(report);
  bool aggregate_issue = false;
  for (const auto& i : report.issues) {
    if (i.check == "index" && i.detail.find("OR of its") != std::string::npos) {
      aggregate_issue = true;
    }
  }
  EXPECT_TRUE(aggregate_issue) << checks_of(report);
}

TEST(HbxFsck, DetectsLeafPositionalMismatch) {
  pfs::PfsStorage fs;
  build_fsck_store(fs);
  bool mutated = false;
  for (std::size_t id = 0; id < 16 && !mutated; ++id) {
    mutated = corrupt_node_bitmap(fs, id);
  }
  ASSERT_TRUE(mutated) << "no leaf node with a mutable literal word";
  fsck::LayoutVerifier verifier(&fs);
  const fsck::Report report = verifier.verify_store("s");
  EXPECT_FALSE(report.ok());
  bool leaf_issue = false;
  for (const auto& i : report.issues) {
    if (i.check == "index" &&
        i.detail.find("positional index") != std::string::npos) {
      leaf_issue = true;
    }
  }
  EXPECT_TRUE(leaf_issue) << checks_of(report);
}

// A node whose final group sets a bit past the grid volume, re-sealed so
// its popcount, checksum and footer all agree: fsck must flag it, and a
// region-only query answered from that node must fail as corrupt instead
// of dropping (or returning) the out-of-grid position.
TEST(HbxFsck, DetectsPaddingBitPastGrid) {
  pfs::PfsStorage fs;
  build_fsck_store(fs);
  std::size_t id = 0;
  while (id < 64 && !set_node_padding_bit(fs, id)) ++id;
  ASSERT_LT(id, 64u) << "no node with a rewritable final group";

  fsck::LayoutVerifier verifier(&fs);
  const fsck::Report report = verifier.verify_store("s");
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_check(report, "index")) << checks_of(report);
  bool padding_issue = false;
  for (const auto& i : report.issues) {
    if (i.check == "index" && i.detail.find("padding") != std::string::npos) {
      padding_issue = true;
    }
  }
  EXPECT_TRUE(padding_issue) << checks_of(report);

  auto store = MlocStore::open(&fs, "s");
  ASSERT_TRUE(store.is_ok()) << store.status().to_string();
  auto fid = fs.open("s/phi.hbx");
  ASSERT_TRUE(fid.is_ok());
  const std::shared_ptr<const VariableState> var =
      store.value().variable("phi").value();
  const std::uint64_t header_len = var->hbx->header_len;
  auto header =
      HbxHeader::deserialize(fs.read(fid.value(), 0, header_len).value());
  ASSERT_TRUE(header.is_ok());
  const HbxNode& node = header.value().nodes[id];
  const BinningScheme* scheme = &var->scheme;
  Query q;
  q.vc = ValueConstraint{scheme->lower(node.first_bin),
                         scheme->upper(node.last_bin())};
  q.values_needed = false;
  auto res = store.value().execute("phi", q);
  ASSERT_FALSE(res.is_ok()) << "node " << id << " answered "
                            << res.value().positions.size() << " positions";
  EXPECT_EQ(res.status().code(), ErrorCode::kCorruptData)
      << res.status().to_string();
}

TEST(HbxFsck, DetectsTruncatedHbx) {
  pfs::PfsStorage fs;
  build_fsck_store(fs);
  auto fid = fs.open("s/phi.hbx");
  ASSERT_TRUE(fid.is_ok());
  const std::uint64_t size = fs.file_size(fid.value()).value();
  Bytes content = fs.read(fid.value(), 0, size).value();
  content.resize(content.size() / 2);
  ASSERT_TRUE(fs.set_contents(fid.value(), std::move(content)).is_ok());
  fsck::LayoutVerifier verifier(&fs);
  const fsck::Report report = verifier.verify_store("s");
  EXPECT_FALSE(report.ok());
  bool footer_on_hbx = false;
  for (const auto& i : report.issues) {
    if (i.check == "footer" && i.object == "phi.hbx") footer_on_hbx = true;
  }
  EXPECT_TRUE(footer_on_hbx) << checks_of(report);
}

}  // namespace
}  // namespace mloc
