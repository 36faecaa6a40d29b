// Integration tests for src/core: full write->query pipelines for every
// level order and codec, cross-checked against brute-force scans of the
// raw grid; multi-variable bitmap hand-off; PLoD-level queries; rank-count
// invariance; persistence (open after create); failure injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "compress/registry.hpp"
#include "core/store.hpp"
#include "datagen/datagen.hpp"
#include "exec/engine.hpp"
#include "exec/scratch.hpp"
#include "plod/plod.hpp"
#include "service/fragment_cache.hpp"
#include "tools/fsck.hpp"
#include "util/crc32.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace mloc {
namespace {

struct Truth {
  std::vector<std::uint64_t> positions;
  std::vector<double> values;
};

/// Brute-force reference with the store's semantics: VC/SC evaluated on
/// the original values; returned values degraded to the queried PLoD
/// level.
Truth brute_force(const Grid& grid, const Query& q) {
  Truth out;
  std::vector<double> level_values(grid.values().begin(),
                                   grid.values().end());
  if (q.plod_level < 7) {
    auto shredded = plod::shred(level_values);
    level_values = plod::assemble(shredded, q.plod_level).value();
  }
  for (std::uint64_t i = 0; i < grid.size(); ++i) {
    if (q.vc.has_value() && !q.vc->matches(grid.at_linear(i))) continue;
    if (q.sc.has_value() && !q.sc->contains(grid.shape().delinearize(i))) {
      continue;
    }
    out.positions.push_back(i);
    if (q.values_needed) out.values.push_back(level_values[i]);
  }
  return out;
}

/// The version word of store `name`'s meta (after the "MLOC" magic).
std::uint32_t meta_version(const pfs::PfsStorage& fs, const std::string& name) {
  const pfs::FileId meta = fs.open(name + ".meta").value();
  const Bytes head = fs.read(meta, 0, 8).value();
  ByteReader r(head);
  EXPECT_EQ(r.get_u32().value(), 0x4D4C4F43u);  // "MLOC"
  return r.get_u32().value();
}

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

Grid test_grid_2d() { return datagen::gts_like(64, 42); }
Grid test_grid_3d() { return datagen::s3d_like(24, 43); }

/// The highest-numbered bin's subfile ending in `suffix` (".idx"/".dat").
/// Its fragments come last in bin-major order, so a query run at several
/// ranks meets it on the last rank, not on rank 0.
std::string last_bin_file(const pfs::PfsStorage& fs,
                          const std::string& suffix) {
  std::string last;
  int last_bin = -1;
  for (const auto& [name, size] : fs.listing()) {
    const std::size_t at = name.rfind(".bin");
    if (!name.ends_with(suffix) || at == std::string::npos) continue;
    const int bin = std::atoi(name.c_str() + at + 4);
    if (bin > last_bin) {
      last_bin = bin;
      last = name;
    }
  }
  return last;
}

// ------------------------------------------------- parameterized sweeps

class StoreRoundTrip
    : public ::testing::TestWithParam<std::tuple<std::string, LevelOrder>> {};

TEST_P(StoreRoundTrip, ValueQueryMatchesBruteForce) {
  const auto& [codec, order] = GetParam();
  pfs::PfsStorage fs;
  Grid grid = test_grid_2d();
  auto store = MlocStore::create(
      &fs, "t", small_config(grid.shape(), NDShape{16, 16}, codec, order));
  ASSERT_TRUE(store.is_ok()) << store.status().to_string();
  ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());

  // Pure SC query (paper Table III shape).
  Query q;
  q.sc = Region(2, {10, 20}, {40, 50});
  auto res = store.value().execute("phi", q);
  ASSERT_TRUE(res.is_ok()) << res.status().to_string();
  const Truth truth = brute_force(grid, q);
  ASSERT_EQ(res.value().positions, truth.positions) << codec;
  if (make_double_codec(codec).value()->lossless()) {
    EXPECT_EQ(res.value().values, truth.values);
  } else {
    const double eps = make_double_codec(codec).value()->max_relative_error();
    ASSERT_EQ(res.value().values.size(), truth.values.size());
    for (std::size_t i = 0; i < truth.values.size(); ++i) {
      EXPECT_LE(std::abs(res.value().values[i] - truth.values[i]),
                eps * std::abs(truth.values[i]) + 1e-300);
    }
  }
}

TEST_P(StoreRoundTrip, RegionQueryMatchesBruteForce) {
  const auto& [codec, order] = GetParam();
  pfs::PfsStorage fs;
  Grid grid = test_grid_2d();
  auto store = MlocStore::create(
      &fs, "t", small_config(grid.shape(), NDShape{16, 16}, codec, order));
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());

  // Pure VC region-only query (paper Table II shape). Lossy codecs change
  // stored values, so compare against the store's own notion of values:
  // for lossless codecs exact match; for lossy only sanity bounds.
  Rng rng(7);
  Query q;
  q.vc = datagen::random_vc(grid, 0.05, rng);
  q.values_needed = false;
  auto res = store.value().execute("phi", q);
  ASSERT_TRUE(res.is_ok()) << res.status().to_string();
  EXPECT_TRUE(res.value().values.empty());

  if (make_double_codec(codec).value()->lossless()) {
    const Truth truth = brute_force(grid, q);
    EXPECT_EQ(res.value().positions, truth.positions);
  } else {
    // Lossy: positions of comfortably-interior values must be present, and
    // all reported positions must be within the widened constraint.
    const double eps = make_double_codec(codec).value()->max_relative_error();
    std::set<std::uint64_t> got(res.value().positions.begin(),
                                res.value().positions.end());
    for (std::uint64_t i = 0; i < grid.size(); ++i) {
      const double v = grid.at_linear(i);
      const double margin = 2 * eps * std::abs(v) + 1e-12;
      if (v >= q.vc->lo + margin && v < q.vc->hi - margin) {
        EXPECT_TRUE(got.contains(i)) << "interior value missing at " << i;
      }
    }
    for (std::uint64_t p : res.value().positions) {
      const double v = grid.at_linear(p);
      const double margin = 2 * eps * std::abs(v) + 1e-12;
      EXPECT_GE(v, q.vc->lo - margin);
      EXPECT_LT(v, q.vc->hi + margin);
    }
  }
}

TEST_P(StoreRoundTrip, CombinedVcScQuery) {
  const auto& [codec, order] = GetParam();
  if (!make_double_codec(codec).value()->lossless()) GTEST_SKIP();
  pfs::PfsStorage fs;
  Grid grid = test_grid_3d();
  auto store = MlocStore::create(
      &fs, "t", small_config(grid.shape(), NDShape{8, 8, 8}, codec, order));
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("temp", grid).is_ok());

  Query q;
  q.vc = ValueConstraint{1500.0, 2200.0};
  q.sc = Region(3, {4, 0, 6}, {20, 16, 22});
  auto res = store.value().execute("temp", q);
  ASSERT_TRUE(res.is_ok());
  const Truth truth = brute_force(grid, q);
  EXPECT_EQ(res.value().positions, truth.positions);
  EXPECT_EQ(res.value().values, truth.values);
}

INSTANTIATE_TEST_SUITE_P(
    CodecsAndOrders, StoreRoundTrip,
    ::testing::Values(std::tuple{"mzip", LevelOrder::kVMS},
                      std::tuple{"mzip", LevelOrder::kVSM},
                      std::tuple{"raw", LevelOrder::kVMS},
                      std::tuple{"raw", LevelOrder::kVSM},
                      std::tuple{"isobar", LevelOrder::kVMS},
                      std::tuple{"isobar", LevelOrder::kVSM},
                      std::tuple{"isabela:0.001", LevelOrder::kVMS}));

// ------------------------------------------------------- rank invariance

class StoreRankSweep : public ::testing::TestWithParam<int> {};

TEST_P(StoreRankSweep, ResultsIdenticalAcrossRankCounts) {
  const int ranks = GetParam();
  pfs::PfsStorage fs;
  Grid grid = test_grid_2d();
  auto store = MlocStore::create(
      &fs, "t", small_config(grid.shape(), NDShape{16, 16}, "mzip"));
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());

  Query q;
  q.vc = ValueConstraint{-0.1, 0.2};
  q.sc = Region(2, {0, 0}, {50, 64});
  auto reference = store.value().execute("phi", q, 1);
  ASSERT_TRUE(reference.is_ok());
  auto res = store.value().execute("phi", q, ranks);
  ASSERT_TRUE(res.is_ok());
  EXPECT_EQ(res.value().positions, reference.value().positions);
  EXPECT_EQ(res.value().values, reference.value().values);
}

INSTANTIATE_TEST_SUITE_P(Ranks, StoreRankSweep,
                         ::testing::Values(1, 2, 3, 8, 17));

// ------------------------------------------------------------- PLoD path

class StorePlodSweep : public ::testing::TestWithParam<int> {};

TEST_P(StorePlodSweep, LevelQueriesMatchShreddedTruth) {
  const int level = GetParam();
  pfs::PfsStorage fs;
  Grid grid = test_grid_2d();
  auto store = MlocStore::create(
      &fs, "t", small_config(grid.shape(), NDShape{16, 16}, "mzip"));
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());

  Query q;
  q.sc = Region(2, {8, 8}, {40, 56});
  q.plod_level = level;
  auto res = store.value().execute("phi", q);
  ASSERT_TRUE(res.is_ok()) << res.status().to_string();
  const Truth truth = brute_force(grid, q);
  ASSERT_EQ(res.value().positions, truth.positions);
  EXPECT_EQ(res.value().values, truth.values);

  // Lower levels must read fewer bytes (that is the whole point).
  if (level < 7) {
    Query full = q;
    full.plod_level = 7;
    auto full_res = store.value().execute("phi", full);
    ASSERT_TRUE(full_res.is_ok());
    EXPECT_LT(res.value().exec.bytes_read, full_res.value().exec.bytes_read);
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, StorePlodSweep, ::testing::Range(1, 8));

TEST(StorePlod, LevelBelowFullRejectedOnDoubleCodecStore) {
  pfs::PfsStorage fs;
  Grid grid = test_grid_2d();
  auto store = MlocStore::create(
      &fs, "t", small_config(grid.shape(), NDShape{16, 16}, "isobar"));
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());
  Query q;
  q.plod_level = 2;
  auto res = store.value().execute("phi", q);
  ASSERT_FALSE(res.is_ok());
  EXPECT_EQ(res.status().code(), ErrorCode::kUnsupported);
}

// ---------------------------------------------------------- multivar

TEST(StoreMultivar, BitmapHandoffMatchesBruteForce) {
  pfs::PfsStorage fs;
  Grid temp = test_grid_3d();
  Grid species = datagen::s3d_species_like(temp, 99);
  auto store = MlocStore::create(
      &fs, "t", small_config(temp.shape(), NDShape{8, 8, 8}, "mzip"));
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("temp", temp).is_ok());
  ASSERT_TRUE(store.value().write_variable("yfuel", species).is_ok());

  const ValueConstraint vc{2000.0, 2500.0};
  auto res = store.value().multivar_select({{"temp", vc}},
                                           MlocStore::Combine::kAnd, "yfuel");
  ASSERT_TRUE(res.is_ok()) << res.status().to_string();

  // Reference: positions where temp qualifies; values from species there.
  std::vector<std::uint64_t> expect_pos;
  std::vector<double> expect_val;
  for (std::uint64_t i = 0; i < temp.size(); ++i) {
    if (vc.matches(temp.at_linear(i))) {
      expect_pos.push_back(i);
      expect_val.push_back(species.at_linear(i));
    }
  }
  EXPECT_EQ(res.value().positions, expect_pos);
  EXPECT_EQ(res.value().values, expect_val);
}

TEST(StoreMultivar, AndSelectMatchesBruteForce) {
  pfs::PfsStorage fs;
  Grid temp = test_grid_3d();
  Grid species = datagen::s3d_species_like(temp, 99);
  auto store = MlocStore::create(
      &fs, "t", small_config(temp.shape(), NDShape{8, 8, 8}, "mzip"));
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("temp", temp).is_ok());
  ASSERT_TRUE(store.value().write_variable("yfuel", species).is_ok());

  const ValueConstraint hot{1800.0, 1e9};
  const ValueConstraint rich{0.05, 1e9};
  auto res = store.value().multivar_select(
      {{"temp", hot}, {"yfuel", rich}}, MlocStore::Combine::kAnd, "yfuel");
  ASSERT_TRUE(res.is_ok()) << res.status().to_string();

  std::vector<std::uint64_t> expect_pos;
  std::vector<double> expect_val;
  for (std::uint64_t i = 0; i < temp.size(); ++i) {
    if (hot.matches(temp.at_linear(i)) &&
        rich.matches(species.at_linear(i))) {
      expect_pos.push_back(i);
      expect_val.push_back(species.at_linear(i));
    }
  }
  EXPECT_EQ(res.value().positions, expect_pos);
  EXPECT_EQ(res.value().values, expect_val);
}

TEST(StoreMultivar, OrSelectMatchesBruteForce) {
  pfs::PfsStorage fs;
  Grid temp = test_grid_3d();
  Grid species = datagen::s3d_species_like(temp, 99);
  auto store = MlocStore::create(
      &fs, "t", small_config(temp.shape(), NDShape{8, 8, 8}, "mzip"));
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("temp", temp).is_ok());
  ASSERT_TRUE(store.value().write_variable("yfuel", species).is_ok());

  const ValueConstraint cold{-1e9, 850.0};
  const ValueConstraint lean{-1e9, 0.01};
  // Positions only (empty fetch_var).
  auto res = store.value().multivar_select(
      {{"temp", cold}, {"yfuel", lean}}, MlocStore::Combine::kOr, "");
  ASSERT_TRUE(res.is_ok());
  EXPECT_TRUE(res.value().values.empty());

  std::vector<std::uint64_t> expect_pos;
  for (std::uint64_t i = 0; i < temp.size(); ++i) {
    if (cold.matches(temp.at_linear(i)) ||
        lean.matches(species.at_linear(i))) {
      expect_pos.push_back(i);
    }
  }
  EXPECT_EQ(res.value().positions, expect_pos);
}

TEST(StoreMultivar, SelectRejectsEmptyPredicates) {
  pfs::PfsStorage fs;
  Grid temp = test_grid_3d();
  auto store = MlocStore::create(
      &fs, "t", small_config(temp.shape(), NDShape{8, 8, 8}, "mzip"));
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("temp", temp).is_ok());
  EXPECT_FALSE(store.value()
                   .multivar_select({}, MlocStore::Combine::kAnd, "temp")
                   .is_ok());
}

TEST(StoreMultivar, SelectUnknownVariableFails) {
  pfs::PfsStorage fs;
  Grid temp = test_grid_3d();
  auto store = MlocStore::create(
      &fs, "t", small_config(temp.shape(), NDShape{8, 8, 8}, "mzip"));
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("temp", temp).is_ok());
  EXPECT_FALSE(store.value()
                   .multivar_select({{"ghost", {0, 1}}},
                                    MlocStore::Combine::kAnd, "temp")
                   .is_ok());
}

TEST(StoreMultivar, EmptySelectionYieldsEmptyResult) {
  pfs::PfsStorage fs;
  Grid temp = test_grid_3d();
  Grid species = datagen::s3d_species_like(temp, 99);
  auto store = MlocStore::create(
      &fs, "t", small_config(temp.shape(), NDShape{8, 8, 8}, "mzip"));
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("temp", temp).is_ok());
  ASSERT_TRUE(store.value().write_variable("yfuel", species).is_ok());
  auto res = store.value().multivar_select({{"temp", {1e9, 2e9}}},
                                           MlocStore::Combine::kAnd, "yfuel");
  ASSERT_TRUE(res.is_ok());
  EXPECT_TRUE(res.value().positions.empty());
  EXPECT_TRUE(res.value().values.empty());
}

TEST(StoreMultivar, PositionsOnlySelectionSumsItsPassesAccounting) {
  const Grid a = datagen::gts_like(128, 3);
  const Grid b = datagen::gts_like(128, 9);
  MlocConfig cfg = small_config(a.shape(), NDShape{16, 16}, "mzip");
  cfg.layout.num_bins = 8;
  pfs::PfsStorage fs;
  auto store = MlocStore::create(&fs, "t", cfg);
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("a", a).is_ok());
  ASSERT_TRUE(store.value().write_variable("b", b).is_ok());
  const std::vector<MlocStore::VarConstraint> preds = {
      {"a", ValueConstraint{0.21, 0.28}}, {"b", ValueConstraint{0.22, 0.30}}};

  std::uint64_t read = 0, skipped = 0;
  for (const MlocStore::VarConstraint& pred : preds) {
    Query q;
    q.vc = pred.vc;
    q.values_needed = false;
    auto pass = store.value().execute(pred.var, q, 1);
    ASSERT_TRUE(pass.is_ok()) << pass.status().to_string();
    read += pass.value().fragments_read;
    skipped += pass.value().fragments_skipped;
  }
  ASSERT_GT(skipped, 0u);  // zone maps prune here, so a dropped sum shows
  auto mv = store.value().multivar_select(preds, MlocStore::Combine::kAnd, "");
  ASSERT_TRUE(mv.is_ok()) << mv.status().to_string();
  EXPECT_EQ(mv.value().fragments_read, read);
  EXPECT_EQ(mv.value().fragments_skipped, skipped);
}

TEST(StoreMultivar, SelectValidatesEveryPassBeforeRunningAny) {
  pfs::PfsStorage fs;
  Grid temp = test_grid_3d();
  auto store = MlocStore::create(
      &fs, "t", small_config(temp.shape(), NDShape{8, 8, 8}, "mzip"));
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("temp", temp).is_ok());
  VariableLayout whole = store.value().config().layout;
  whole.codec = "isobar";  // whole-value codec: no PLoD below 7
  ASSERT_TRUE(store.value().write_variable("whole", temp, whole).is_ok());

  using C = MlocStore::Combine;
  struct Case {
    const char* what;
    std::vector<MlocStore::VarConstraint> extra;  // after the selection
    std::string fetch;
    int plod;
    ErrorCode code;
  };
  const std::vector<Case> cases = {
      {"unknown predicate variable", {{"ghost", {0, 1}}}, "", 7,
       ErrorCode::kNotFound},
      {"empty predicate VC", {{"temp", {5, 5}}}, "", 7,
       ErrorCode::kInvalidArgument},
      {"NaN predicate VC", {{"temp", {std::nan(""), 1}}}, "temp", 7,
       ErrorCode::kInvalidArgument},
      {"unknown fetch variable", {}, "ghost", 7, ErrorCode::kNotFound},
      {"PLoD above 7", {}, "temp", 9, ErrorCode::kInvalidArgument},
      {"PLoD below 1", {}, "whole", 0, ErrorCode::kInvalidArgument},
      {"PLoD below 7 on a whole-value variable", {}, "whole", 3,
       ErrorCode::kUnsupported},
  };
  // The same bad request must fail the same way whether the selection
  // comes out empty or not.
  const ValueConstraint empty_sel{1e9, 2e9};
  const ValueConstraint some_sel{2000.0, 2500.0};
  for (const Case& c : cases) {
    for (const ValueConstraint& sel : {empty_sel, some_sel}) {
      for (const C combine : {C::kAnd, C::kOr}) {
        std::vector<MlocStore::VarConstraint> preds = {{"temp", sel}};
        preds.insert(preds.end(), c.extra.begin(), c.extra.end());
        auto res = store.value().multivar_select(preds, combine, c.fetch,
                                                 c.plod, 2);
        ASSERT_FALSE(res.is_ok())
            << c.what << " (selection " << sel.lo << ")";
        EXPECT_EQ(res.status().code(), c.code)
            << c.what << ": " << res.status().to_string();
      }
    }
  }
}

/// Brute-force multivariable answer: positions from the full-precision
/// predicates, values of `fetch` degraded to `plod_level`.
Truth multivar_truth(
    const std::vector<std::pair<const Grid*, ValueConstraint>>& preds,
    MlocStore::Combine combine, const Grid& fetch, int plod_level) {
  std::vector<double> level_values(fetch.size());
  plod::degrade_into(fetch.values(), plod_level, level_values);
  Truth out;
  for (std::uint64_t i = 0; i < fetch.size(); ++i) {
    bool hit = combine == MlocStore::Combine::kAnd;
    for (const auto& [grid, vc] : preds) {
      const bool m = vc.matches(grid->at_linear(i));
      hit = combine == MlocStore::Combine::kAnd ? hit && m : hit || m;
    }
    if (!hit) continue;
    out.positions.push_back(i);
    out.values.push_back(level_values[i]);
  }
  return out;
}

/// Pass 2 against brute force on a 2-D GTS-like or 3-D S3D-like store,
/// flat or with an .hbx index: every request shape that fuses the fetch
/// variable's predicate into pass 2, or must not, at PLoD 2/5/7, 1 and 3
/// ranks, without a provider and through a FragmentCache (fill, then hit).
class StoreMultivarPass2
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(StoreMultivarPass2, MatchesBruteForce) {
  const auto [dims, hbx] = GetParam();
  const Grid a = dims == 2 ? test_grid_2d() : test_grid_3d();
  const Grid b = dims == 2 ? datagen::gts_like(64, 77)
                           : datagen::s3d_species_like(a, 99);
  MlocConfig cfg = small_config(
      a.shape(), dims == 2 ? NDShape{16, 16} : NDShape{8, 8, 8}, "mzip");
  cfg.layout.index_fanout = hbx ? 4 : 0;
  service::FragmentCache cache;
  pfs::PfsStorage fs;
  auto store = MlocStore::create(&fs, "t", cfg);
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("a", a).is_ok());
  ASSERT_TRUE(store.value().write_variable("b", b).is_ok());

  Rng rng(static_cast<std::uint64_t>(dims) * 10 + (hbx ? 1 : 0));
  const ValueConstraint va = datagen::random_vc(a, 0.4, rng);
  // Overlaps the upper half of va, so two predicates on `a` intersect.
  const ValueConstraint va2{(va.lo + va.hi) / 2, va.hi + (va.hi - va.lo)};
  const ValueConstraint vb = datagen::random_vc(b, 0.5, rng);
  const ValueConstraint vb2 = datagen::random_vc(b, 0.6, rng);

  using C = MlocStore::Combine;
  struct Shape {
    const char* what;
    std::vector<std::pair<std::string, ValueConstraint>> preds;
    C combine;
  };
  const std::vector<Shape> shapes = {
      {"AND, fetch predicate first", {{"a", va}, {"b", vb}}, C::kAnd},
      {"AND, fetch predicate second", {{"b", vb}, {"a", va}}, C::kAnd},
      {"single fetch predicate", {{"a", va}}, C::kAnd},
      {"two fetch predicates", {{"a", va}, {"a", va2}}, C::kAnd},
      {"AND, no fetch predicate", {{"b", vb}, {"b", vb2}}, C::kAnd},
      {"OR with a fetch", {{"a", va}, {"b", vb}}, C::kOr},
  };
  for (const int plod_level : {2, 5, 7}) {
    for (const int ranks : {1, 3}) {
      for (const bool cached : {false, true}) {
        store.value().set_fragment_provider(cached ? &cache : nullptr);
        for (const Shape& sh : shapes) {
          std::vector<MlocStore::VarConstraint> preds;
          std::vector<std::pair<const Grid*, ValueConstraint>> truth_preds;
          for (const auto& [var, vc] : sh.preds) {
            preds.push_back({var, vc});
            truth_preds.emplace_back(var == "a" ? &a : &b, vc);
          }
          const Truth want =
              multivar_truth(truth_preds, sh.combine, a, plod_level);
          ASSERT_FALSE(want.positions.empty()) << sh.what;
          // Cached: the first run fills the cache, the second hits it.
          for (int pass = 0; pass < (cached ? 2 : 1); ++pass) {
            auto got = store.value().multivar_select(preds, sh.combine, "a",
                                                     plod_level, ranks);
            ASSERT_TRUE(got.is_ok()) << got.status().to_string();
            const std::string where =
                std::string(sh.what) + " at PLoD " +
                std::to_string(plod_level) + ", " + std::to_string(ranks) +
                " ranks" + (cached ? ", cached pass " : ", uncached") +
                (cached ? std::to_string(pass) : "");
            EXPECT_EQ(got.value().positions, want.positions) << where;
            EXPECT_EQ(got.value().values, want.values) << where;
          }
        }
      }
    }
  }
  store.value().set_fragment_provider(nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    Stores, StoreMultivarPass2,
    ::testing::Combine(::testing::Values(2, 3), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<int, bool>>& info) {
      return std::to_string(std::get<0>(info.param)) + "d" +
             (std::get<1>(info.param) ? "Hbx" : "Flat");
    });

TEST(StoreMultivar, PassTwoFetchesOnlySelectedChunks) {
  const Grid phi = test_grid_2d();  // 64x64 in 16x16 chunks
  const Region one(2, {16, 32}, {32, 48});
  const Region corner_a(2, {0, 0}, {16, 16});
  const Region corner_b(2, {48, 48}, {64, 64});
  // `mask` qualifies a sparse set of points: `m1` in one chunk, `m2` in
  // two opposite corner chunks, whose bounding box is the whole grid.
  const auto make_mask = [&](const std::vector<Region>& chunks) {
    std::vector<double> m(phi.size());
    for (std::uint64_t i = 0; i < phi.size(); ++i) {
      const Coord c = phi.shape().delinearize(i);
      bool picked = false;
      for (const Region& r : chunks) picked = picked || r.contains(c);
      picked = picked && i % 3 == 0;
      m[i] = picked ? 5.0 + static_cast<double>(i % 13) / 13.0
                    : static_cast<double>(i % 97) / 97.0;
    }
    return Grid(phi.shape(), m);
  };
  const Grid m1 = make_mask({one});
  const Grid m2 = make_mask({corner_a, corner_b});
  pfs::PfsStorage fs;
  auto store = MlocStore::create(
      &fs, "t", small_config(phi.shape(), NDShape{16, 16}, "mzip"));
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("phi", phi).is_ok());
  ASSERT_TRUE(store.value().write_variable("m1", m1).is_ok());
  ASSERT_TRUE(store.value().write_variable("m2", m2).is_ok());
  const ValueConstraint sel{4.0, 7.0};

  struct Case {
    std::string mask;
    const Grid* grid;
    std::vector<Region> chunks;
  };
  for (const Case& c : {Case{"m1", &m1, {one}},
                        Case{"m2", &m2, {corner_a, corner_b}}}) {
    for (const int ranks : {1, 3}) {
      auto mv = store.value().multivar_select(
          {{c.mask, sel}}, MlocStore::Combine::kAnd, "phi", 7, ranks);
      ASSERT_TRUE(mv.is_ok()) << mv.status().to_string();
      const Truth want =
          multivar_truth({{c.grid, sel}}, MlocStore::Combine::kAnd, phi, 7);
      ASSERT_FALSE(want.positions.empty());
      EXPECT_EQ(mv.value().positions, want.positions) << c.mask;
      EXPECT_EQ(mv.value().values, want.values) << c.mask;

      // Pass 2's share of the accounting is the answer minus pass 1. It
      // must equal fetching the selected chunks alone (no provider: every
      // fragment is read from the PFS).
      Query region_q;
      region_q.vc = sel;
      region_q.values_needed = false;
      auto pass1 = store.value().execute(c.mask, region_q, ranks);
      ASSERT_TRUE(pass1.is_ok());
      std::uint64_t chunk_frags = 0;
      std::uint64_t chunk_bytes = 0;
      for (const Region& chunk : c.chunks) {
        Query in_chunk;
        in_chunk.sc = chunk;
        auto r = store.value().execute("phi", in_chunk, ranks);
        ASSERT_TRUE(r.is_ok());
        chunk_frags += r.value().fragments_read;
        chunk_bytes += r.value().exec.bytes_read;
      }
      auto whole = store.value().execute("phi", Query{}, ranks);
      ASSERT_TRUE(whole.is_ok());
      const std::uint64_t pass2_frags =
          mv.value().fragments_read - pass1.value().fragments_read;
      const std::uint64_t pass2_bytes =
          mv.value().exec.bytes_read - pass1.value().exec.bytes_read;
      EXPECT_EQ(pass2_frags, chunk_frags) << c.mask << ", " << ranks;
      if (c.chunks.size() == 1) {
        EXPECT_EQ(pass2_bytes, chunk_bytes) << c.mask << ", " << ranks;
      }
      EXPECT_LT(pass2_bytes, whole.value().exec.bytes_read) << c.mask;
    }
  }
}

// ------------------------------------------------------------ persistence

TEST(StorePersistence, OpenAfterCreateSeesIdenticalResults) {
  pfs::PfsStorage fs;
  Grid grid = test_grid_2d();
  {
    auto store = MlocStore::create(
        &fs, "persisted", small_config(grid.shape(), NDShape{16, 16}, "mzip"));
    ASSERT_TRUE(store.is_ok());
    ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());
  }
  auto reopened = MlocStore::open(&fs, "persisted");
  ASSERT_TRUE(reopened.is_ok()) << reopened.status().to_string();
  EXPECT_EQ(reopened.value().variables(), std::vector<std::string>{"phi"});
  EXPECT_EQ(reopened.value().config().layout.codec, "mzip");

  Query q;
  q.vc = ValueConstraint{0.0, 0.5};
  auto res = reopened.value().execute("phi", q);
  ASSERT_TRUE(res.is_ok());
  const Truth truth = brute_force(grid, q);
  EXPECT_EQ(res.value().positions, truth.positions);
}

// New stores write meta v6: their segment checksums are CRC-32, which a v5
// reader would read as FNV-1a and call corrupt, so such a reader refuses
// the store as an unknown version instead. Every stored checksum is a
// zero-extended CRC-32, the store holds both mzip stream forms, the
// reopened store answers as the raw grid does, and fsck finds it clean.
TEST(StorePersistence, NewStoreWritesMetaV6AndHoldsBothStreamForms) {
  pfs::PfsStorage fs;
  const Grid grid = test_grid_2d();
  int stored = 0;
  int dynamic = 0;
  {
    // Fragments of about 512 values: group 0 codes dynamic, the mantissa
    // groups code stored.
    MlocConfig cfg = small_config(grid.shape(), NDShape{32, 32}, "mzip");
    cfg.layout.num_bins = 2;
    auto store = MlocStore::create(&fs, "v6", cfg);
    ASSERT_TRUE(store.is_ok());
    ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());
    const VariableState& var = *store.value().variable("phi").value();
    EXPECT_EQ(var.checksum, ChecksumKind::kCrc32);
    for (const VariableState::Bin& bin : var.bins) {
      for (const FragmentInfo& f : bin.idx.header()->fragments) {
        EXPECT_EQ(f.positions.checksum >> 32, 0u);
        for (const Segment& seg : f.groups) {
          EXPECT_EQ(seg.checksum >> 32, 0u);
          const Bytes bytes =
              fs.read(bin.dat.file, seg.offset, seg.length).value();
          EXPECT_EQ(seg.checksum, crc32(bytes));
          ++(bytes[0] == 0 ? stored : dynamic);
        }
      }
    }
  }
  EXPECT_GT(stored, 0);
  EXPECT_GT(dynamic, 0);

  EXPECT_EQ(meta_version(fs, "v6"), 6u);

  auto reopened = MlocStore::open(&fs, "v6");
  ASSERT_TRUE(reopened.is_ok()) << reopened.status().to_string();
  Query vc;
  vc.vc = ValueConstraint{-0.1, 0.3};
  Query sc;
  sc.sc = Region(2, Coord{5, 9}, Coord{50, 33});
  for (const Query& q : {vc, sc}) {
    auto res = reopened.value().execute("phi", q, 3);
    ASSERT_TRUE(res.is_ok()) << res.status().to_string();
    const Truth truth = brute_force(grid, q);
    EXPECT_EQ(res.value().positions, truth.positions);
    EXPECT_EQ(res.value().values, truth.values);
  }

  const fsck::Report report = fsck::LayoutVerifier(&fs).verify_store("v6");
  EXPECT_TRUE(report.ok()) << report.human();
  EXPECT_GT(report.fragments_checked, 0u);
}

TEST(StorePersistence, OpenMissingStoreFails) {
  pfs::PfsStorage fs;
  EXPECT_FALSE(MlocStore::open(&fs, "nope").is_ok());
}

TEST(StorePersistence, CorruptMetaRejected) {
  pfs::PfsStorage fs;
  Grid grid = test_grid_2d();
  {
    auto store = MlocStore::create(
        &fs, "c", small_config(grid.shape(), NDShape{16, 16}, "mzip"));
    ASSERT_TRUE(store.is_ok());
    ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());
  }
  auto meta = fs.open("c.meta").value();
  ASSERT_TRUE(fs.set_contents(meta, Bytes{1, 2, 3}).is_ok());
  EXPECT_FALSE(MlocStore::open(&fs, "c").is_ok());
}

TEST(StorePersistence, CorruptDataSegmentDetectedByChecksum) {
  for (int ranks : {1, 3}) {
    pfs::PfsStorage fs;
    Grid grid = test_grid_2d();
    auto store = MlocStore::create(
        &fs, "c", small_config(grid.shape(), NDShape{16, 16}, "mzip"));
    ASSERT_TRUE(store.is_ok());
    ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());

    // Flip one byte in the middle of the last bin's data file.
    const std::string name = last_bin_file(fs, ".dat");
    ASSERT_FALSE(name.empty());
    auto id = fs.open(name).value();
    const std::uint64_t size = fs.file_size(id).value();
    Bytes content = fs.read(id, 0, size).value();
    content[size / 2] ^= 0xFF;
    ASSERT_TRUE(fs.set_contents(id, std::move(content)).is_ok());

    Query q;
    q.sc = Region(2, {0, 0}, {64, 64});
    auto res = store.value().execute("phi", q, ranks);
    ASSERT_FALSE(res.is_ok()) << "ranks " << ranks;
    EXPECT_EQ(res.status().code(), ErrorCode::kCorruptData);
  }
}

TEST(StorePersistence, CorruptPositionBlobDetectedByChecksum) {
  for (int ranks : {1, 3}) {
    pfs::PfsStorage fs;
    Grid grid = test_grid_2d();
    auto store = MlocStore::create(
        &fs, "c", small_config(grid.shape(), NDShape{16, 16}, "mzip"));
    ASSERT_TRUE(store.is_ok());
    ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());

    // Corrupt the blob section (bytes after the header) of the last bin's
    // .idx file. The last kSubfileFooterSize bytes are the CRC footer, so
    // the last blob byte sits just before it.
    const std::string name = last_bin_file(fs, ".idx");
    ASSERT_FALSE(name.empty());
    auto id = fs.open(name).value();
    const std::uint64_t size = fs.file_size(id).value();
    ASSERT_GT(size, 2 * kSubfileFooterSize);
    Bytes content = fs.read(id, 0, size).value();
    content[size - kSubfileFooterSize - 1] ^= 0xFF;  // last blob byte
    ASSERT_TRUE(fs.set_contents(id, std::move(content)).is_ok());

    Query q;
    q.vc = ValueConstraint{-1e30, 1e30};
    q.values_needed = false;
    auto res = store.value().execute("phi", q, ranks);
    ASSERT_FALSE(res.is_ok()) << "ranks " << ranks;
    EXPECT_EQ(res.status().code(), ErrorCode::kCorruptData);
  }
}

// ---------------------------------------------------------- misc behavior

TEST(Store, AlignedBinsSkipDataReads) {
  pfs::PfsStorage fs;
  Grid grid = test_grid_2d();
  auto cfg = small_config(grid.shape(), NDShape{16, 16}, "mzip");
  cfg.layout.num_bins = 32;
  auto store = MlocStore::create(&fs, "t", cfg);
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());

  // A VC exactly covering whole bins: use bin boundaries as the range.
  Query q;
  q.values_needed = false;
  q.vc = ValueConstraint{-1e30, 1e30};  // covers all interior bins
  auto res = store.value().execute("phi", q);
  ASSERT_TRUE(res.is_ok());
  // All interior bins aligned; only the two infinite-edge bins are not.
  EXPECT_GE(res.value().aligned_bins, res.value().bins_touched - 2);
  // Aligned bins answer from the index: far fewer fragments decompressed
  // than a value query would need.
  EXPECT_LT(res.value().fragments_read, res.value().bins_touched * 2);
}

TEST(Store, EqualWidthBinningWorksAndPersists) {
  pfs::PfsStorage fs;
  Grid grid = test_grid_2d();
  auto cfg = small_config(grid.shape(), NDShape{16, 16}, "mzip");
  cfg.layout.binning = BinningKind::kEqualWidth;
  {
    auto store = MlocStore::create(&fs, "ew", cfg);
    ASSERT_TRUE(store.is_ok());
    ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());
  }
  auto reopened = MlocStore::open(&fs, "ew");
  ASSERT_TRUE(reopened.is_ok());
  EXPECT_EQ(reopened.value().config().layout.binning, BinningKind::kEqualWidth);

  Query q;
  q.vc = ValueConstraint{-0.1, 0.3};
  q.sc = Region(2, {4, 4}, {60, 50});
  auto res = reopened.value().execute("phi", q);
  ASSERT_TRUE(res.is_ok());
  const Truth truth = brute_force(grid, q);
  EXPECT_EQ(res.value().positions, truth.positions);
  EXPECT_EQ(res.value().values, truth.values);
}

TEST(Store, EqualFrequencyIsMoreBalancedThanEqualWidth) {
  // The §III-B-1 claim, checked directly on bin populations.
  pfs::PfsStorage fs;
  Grid grid = test_grid_2d();  // skewed value distribution
  auto imbalance = [&](BinningKind kind, const std::string& name) {
    auto cfg = small_config(grid.shape(), NDShape{16, 16}, "raw");
    cfg.layout.binning = kind;
    cfg.layout.num_bins = 16;
    auto store = MlocStore::create(&fs, name, cfg);
    MLOC_CHECK(store.is_ok());
    MLOC_CHECK(store.value().write_variable("phi", grid).is_ok());
    const BinningScheme* scheme =
        &store.value().variable("phi").value()->scheme;
    std::vector<std::uint64_t> pop(scheme->num_bins(), 0);
    for (std::uint64_t i = 0; i < grid.size(); ++i) {
      ++pop[scheme->bin_of(grid.at_linear(i))];
    }
    const auto [mn, mx] = std::minmax_element(pop.begin(), pop.end());
    return static_cast<double>(*mx) / static_cast<double>(std::max<std::uint64_t>(*mn, 1));
  };
  EXPECT_LT(imbalance(BinningKind::kEqualFrequency, "ef"),
            imbalance(BinningKind::kEqualWidth, "ew"));
}

TEST(Store, OneDimensionalVariableWorks) {
  // GTS data is natively 1-D (paper §IV-A aggregates steps into 2-D);
  // the pipeline must handle it directly too.
  pfs::PfsStorage fs;
  NDShape shape{4096};
  Grid grid(shape);
  Rng rng(31);
  for (std::uint64_t i = 0; i < grid.size(); ++i) {
    grid.at_linear(i) = std::sin(i * 0.01) + 0.1 * rng.next_gaussian();
  }
  auto store = MlocStore::create(
      &fs, "t", small_config(shape, NDShape{256}, "mzip"));
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());

  Query q;
  q.vc = ValueConstraint{0.5, 2.0};
  q.sc = Region(1, {100}, {3000});
  auto res = store.value().execute("phi", q, 3);
  ASSERT_TRUE(res.is_ok()) << res.status().to_string();
  const Truth truth = brute_force(grid, q);
  EXPECT_EQ(res.value().positions, truth.positions);
  EXPECT_EQ(res.value().values, truth.values);
}

TEST(Store, FourDimensionalSpaceTimeVariableWorks) {
  // 3-D space + time as the fourth dimension: the "space+time" analysis
  // the paper's introduction motivates.
  pfs::PfsStorage fs;
  NDShape shape{8, 8, 8, 6};  // x, y, z, t
  Grid grid(shape);
  Rng rng(32);
  for (std::uint64_t i = 0; i < grid.size(); ++i) {
    grid.at_linear(i) = 10.0 + rng.next_gaussian();
  }
  auto store = MlocStore::create(
      &fs, "t", small_config(shape, NDShape{4, 4, 4, 3}, "isobar"));
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("u", grid).is_ok());

  Query q;
  q.sc = Region(4, {2, 0, 3, 1}, {7, 8, 8, 4});  // spatial box x time window
  q.vc = ValueConstraint{10.0, 12.0};
  auto res = store.value().execute("u", q, 5);
  ASSERT_TRUE(res.is_ok()) << res.status().to_string();
  const Truth truth = brute_force(grid, q);
  EXPECT_EQ(res.value().positions, truth.positions);
  EXPECT_EQ(res.value().values, truth.values);
}

TEST(Store, VcFilteringIsOnOriginalValuesAtReducedPlod) {
  // Explicit check of the documented semantics: the qualifying set is
  // independent of plod_level; only returned values degrade.
  pfs::PfsStorage fs;
  Grid grid = test_grid_2d();
  auto store = MlocStore::create(
      &fs, "t", small_config(grid.shape(), NDShape{16, 16}, "mzip"));
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());

  Query full;
  full.vc = ValueConstraint{-0.05, 0.22};
  Query reduced = full;
  reduced.plod_level = 2;
  auto r_full = store.value().execute("phi", full);
  auto r_reduced = store.value().execute("phi", reduced);
  ASSERT_TRUE(r_full.is_ok() && r_reduced.is_ok());
  EXPECT_EQ(r_full.value().positions, r_reduced.value().positions);
  // Returned values differ but stay within the level-2 bound.
  ASSERT_EQ(r_full.value().values.size(), r_reduced.value().values.size());
  const double bound = plod::level_max_relative_error(2);
  for (std::size_t i = 0; i < r_full.value().values.size(); ++i) {
    EXPECT_LE(std::abs(r_full.value().values[i] - r_reduced.value().values[i]),
              bound * std::abs(r_full.value().values[i]) + 1e-300);
  }
}

TEST(Store, ZoneMapsSkipDisjointFragmentsInMisalignedBins) {
  pfs::PfsStorage fs;
  // A field with a strong spatial gradient: most chunks' value ranges are
  // far from a narrow VC, so zone maps prune fragments inside the two
  // misaligned edge bins.
  NDShape shape{64, 64};
  Grid grid(shape);
  for (std::uint64_t i = 0; i < grid.size(); ++i) {
    grid.at_linear(i) = static_cast<double>(i);  // perfectly sorted field
  }
  auto cfg = small_config(shape, NDShape{8, 8}, "mzip");
  cfg.layout.num_bins = 4;  // coarse bins -> VC below covers a sliver of one bin
  auto store = MlocStore::create(&fs, "t", cfg);
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());

  Query q;
  q.vc = ValueConstraint{100.0, 140.0};  // a sliver inside bin 0
  q.values_needed = false;
  auto res = store.value().execute("phi", q);
  ASSERT_TRUE(res.is_ok());
  // Correctness.
  const Truth truth = brute_force(grid, q);
  EXPECT_EQ(res.value().positions, truth.positions);
  // Pruning happened: bin 0 holds 16 fragments (two chunk rows); the
  // second chunk row's value ranges are disjoint from [100, 140).
  EXPECT_GE(res.value().fragments_skipped, 8u);
  EXPECT_LE(res.value().fragments_read, 8u);
}

TEST(Store, ZoneMapAlignedFragmentsAvoidDecompression) {
  pfs::PfsStorage fs;
  NDShape shape{64, 64};
  Grid grid(shape);
  for (std::uint64_t i = 0; i < grid.size(); ++i) {
    grid.at_linear(i) = static_cast<double>(i);
  }
  auto cfg = small_config(shape, NDShape{8, 8}, "mzip");
  cfg.layout.num_bins = 4;
  auto store = MlocStore::create(&fs, "t", cfg);
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());

  // VC covering most of bin 0 but not all of it: the bin is misaligned,
  // yet all fully-contained fragments answer from the index alone.
  Query q;
  q.vc = ValueConstraint{0.0, 1000.0};
  q.values_needed = false;
  auto res = store.value().execute("phi", q);
  ASSERT_TRUE(res.is_ok());
  const Truth truth = brute_force(grid, q);
  EXPECT_EQ(res.value().positions, truth.positions);
  // 1000 points = ~15 full 64-point fragments + boundary ones; far fewer
  // fragments decompressed than matched.
  EXPECT_LT(res.value().fragments_read, 8u);
}

TEST(Store, DegenerateOrNanVcRejected) {
  pfs::PfsStorage fs;
  Grid grid = test_grid_2d();
  auto store = MlocStore::create(
      &fs, "t", small_config(grid.shape(), NDShape{16, 16}, "mzip"));
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());

  // An empty half-open range ([lo, lo)) can never match: surfaced as an
  // error instead of a silently empty result.
  EXPECT_FALSE((ValueConstraint{5.0, 5.0}).valid());
  Query q;
  q.vc = ValueConstraint{5.0, 5.0};
  auto res = store.value().execute("phi", q);
  ASSERT_FALSE(res.is_ok());
  EXPECT_EQ(res.status().code(), ErrorCode::kInvalidArgument);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const auto& vc :
       {ValueConstraint{nan, 1.0}, ValueConstraint{0.0, nan},
        ValueConstraint{2.0, 1.0}}) {
    EXPECT_FALSE(vc.valid());
    q.vc = vc;
    auto bad = store.value().execute("phi", q);
    ASSERT_FALSE(bad.is_ok());
    EXPECT_EQ(bad.status().code(), ErrorCode::kInvalidArgument);
  }

  // The default (unbounded) constraint stays valid.
  EXPECT_TRUE(ValueConstraint{}.valid());
}

TEST(Store, UnknownVariableFails) {
  pfs::PfsStorage fs;
  Grid grid = test_grid_2d();
  auto store = MlocStore::create(
      &fs, "t", small_config(grid.shape(), NDShape{16, 16}, "mzip"));
  ASSERT_TRUE(store.is_ok());
  EXPECT_FALSE(store.value().execute("ghost", Query{}).is_ok());
}

TEST(Store, RewriteReplacesVariable) {
  // Writing an existing name re-ingests: same subfiles (no file-table
  // growth), one variable entry, and queries see only the fresh data.
  pfs::PfsStorage fs;
  Grid grid = test_grid_2d();
  auto store = MlocStore::create(
      &fs, "t", small_config(grid.shape(), NDShape{16, 16}, "mzip"));
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());
  const std::size_t files_before = fs.num_files();

  Grid fresh = datagen::gts_like(64, 77);
  ASSERT_TRUE(store.value().write_variable("phi", fresh).is_ok());
  EXPECT_EQ(fs.num_files(), files_before);
  EXPECT_EQ(store.value().variables().size(), 1u);

  Query q;
  q.sc = Region(2, {0, 0}, {8, 8});
  q.values_needed = true;
  auto res = store.value().execute("phi", q);
  ASSERT_TRUE(res.is_ok()) << res.status().to_string();
  const Truth want = brute_force(fresh, q);
  EXPECT_EQ(res.value().values, want.values);
}

TEST(Store, ReingestFreesTheRecordItReplaces) {
  pfs::PfsStorage fs;
  Grid grid = test_grid_2d();
  auto store = MlocStore::create(
      &fs, "t", small_config(grid.shape(), NDShape{16, 16}, "mzip"));
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("t", grid).is_ok());
  const std::weak_ptr<const VariableState> first =
      store.value().variable("t").value();
  ASSERT_FALSE(first.expired());  // the store holds it

  ASSERT_TRUE(store.value().write_variable("t", grid).is_ok());
  EXPECT_TRUE(first.expired());

  // A holder keeps the replaced record alive exactly until it lets go.
  std::shared_ptr<const VariableState> held =
      store.value().variable("t").value();
  const std::weak_ptr<const VariableState> second = held;
  ASSERT_TRUE(store.value()
                  .write_variable("t", datagen::gts_like(64, 77),
                                  {.threads = 2, .write_behind = true})
                  .is_ok());
  EXPECT_FALSE(second.expired());
  EXPECT_NE(store.value().variable("t").value(), held);
  held.reset();
  EXPECT_TRUE(second.expired());
  EXPECT_EQ(store.value().variables().size(), 1u);
}

// A reader that holds the record it started on across re-ingests of its
// variable either completes with that record's answer or fails with
// CorruptData. `raw` segments and position blobs keep their sizes when
// every value doubles (the bins keep their cells), so the re-ingested
// subfiles keep the old offsets in range: the reader meets the other
// generation's bytes, never a short file. Run under ASan and TSan, it also
// checks that the record is freed by its last holder and nowhere else.
TEST(Store, ReaderHoldingTheOldRecordCompletesOrFailsClean) {
  pfs::PfsStorage fs;
  const Grid grid = test_grid_2d();
  std::vector<double> doubled(grid.values().begin(), grid.values().end());
  for (double& v : doubled) v *= 2.0;
  const Grid twice(grid.shape(), std::move(doubled));
  auto store = MlocStore::create(
      &fs, "t", small_config(grid.shape(), NDShape{16, 16}, "raw"));
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());

  Query q;
  q.vc = ValueConstraint{-0.5, 0.75};
  q.values_needed = true;
  const Truth want = brute_force(grid, q);
  std::shared_ptr<const VariableState> old =
      store.value().variable("phi").value();
  const std::weak_ptr<const VariableState> watch = old;

  std::atomic<bool> stop{false};
  std::atomic<int> completed{0};
  std::atomic<int> corrupt{0};
  std::atomic<int> wrong{0};
  std::thread reader([&, held = std::move(old)]() mutable {
    while (!stop.load(std::memory_order_relaxed)) {
      auto res = exec::execute_query(store.value(), *held, q, 2, nullptr,
                                     exec::ExecOptions{});
      if (res.is_ok() && res.value().positions == want.positions &&
          res.value().values == want.values) {
        completed.fetch_add(1);
      } else if (!res.is_ok() &&
                 res.status().code() == ErrorCode::kCorruptData) {
        corrupt.fetch_add(1);
      } else {
        wrong.fetch_add(1);
      }
    }
    held.reset();
  });
  for (int round = 0; round < 8; ++round) {
    ASSERT_TRUE(store.value()
                    .write_variable("phi", round % 2 == 0 ? twice : grid,
                                    {.threads = 2, .write_behind = true})
                    .is_ok())
        << round;
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(completed.load() + corrupt.load(), 0);
  EXPECT_TRUE(watch.expired());  // its last holder, the reader, let go
}

// The same reader over mzip grids that alternate between noise and a
// smooth field: the smooth one compresses to shorter subfiles, so the held
// (noisy) record's reads run past their ends as well as into the other
// generation's bytes. Both are CorruptData; re-ingesting the noise restores
// the held record's bytes, and the reader completes again.
TEST(Store, ReaderHoldingTheOldRecordAcrossShorterSubfiles) {
  pfs::PfsStorage fs;
  const Grid smooth = test_grid_2d();
  std::vector<double> random(smooth.size());
  Rng rng(4242);
  for (double& v : random) v = rng.next_double(-1.0, 1.0);
  const Grid noisy(smooth.shape(), std::move(random));
  auto store = MlocStore::create(
      &fs, "t", small_config(smooth.shape(), NDShape{16, 16}, "mzip"));
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("phi", noisy).is_ok());

  Query q;
  q.vc = ValueConstraint{-0.5, 0.75};
  q.values_needed = true;
  const Truth want = brute_force(noisy, q);
  std::shared_ptr<const VariableState> old =
      store.value().variable("phi").value();
  const std::weak_ptr<const VariableState> watch = old;
  const auto run_old = [&](const VariableState& held) {
    return exec::execute_query(store.value(), held, q, 2, nullptr,
                               exec::ExecOptions{});
  };

  std::atomic<bool> stop{false};
  std::atomic<int> completed{0};
  std::atomic<int> corrupt{0};
  std::atomic<int> wrong{0};
  std::thread reader([&, held = old]() mutable {
    while (!stop.load(std::memory_order_relaxed)) {
      auto res = run_old(*held);
      if (res.is_ok() && res.value().positions == want.positions &&
          res.value().values == want.values) {
        completed.fetch_add(1);
      } else if (!res.is_ok() &&
                 res.status().code() == ErrorCode::kCorruptData) {
        corrupt.fetch_add(1);
      } else {
        wrong.fetch_add(1);
      }
    }
    held.reset();
  });
  for (int round = 0; round < 8; ++round) {
    ASSERT_TRUE(store.value()
                    .write_variable("phi", round % 2 == 0 ? smooth : noisy,
                                    {.threads = 2, .write_behind = true})
                    .is_ok())
        << round;
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(completed.load() + corrupt.load(), 0);

  // With the smooth field in place, the held record's reads run past the
  // shortened subfiles' ends: CorruptData, the read past the end named.
  ASSERT_TRUE(store.value().write_variable("phi", smooth).is_ok());
  const auto past_end = run_old(*old);
  ASSERT_FALSE(past_end.is_ok());
  EXPECT_EQ(past_end.status().code(), ErrorCode::kCorruptData);
  EXPECT_NE(past_end.status().message().find("read past end"),
            std::string::npos)
      << past_end.status().to_string();
  old.reset();
  EXPECT_TRUE(watch.expired());
}

// ------------------------------------------------ per-thread query scratch

// A query that fails part-way through its ranks leaves points in the
// thread's arrival buffer; the next query on the thread must not see them.
TEST(QueryScratch, FailedQueryThenGoodQueryOnOneThread) {
  const Grid grid = test_grid_2d();
  pfs::PfsStorage bad_fs;
  auto bad = MlocStore::create(
      &bad_fs, "c", small_config(grid.shape(), NDShape{16, 16}, "mzip"));
  ASSERT_TRUE(bad.is_ok());
  ASSERT_TRUE(bad.value().write_variable("phi", grid).is_ok());
  // The last bin's fragments come last, so earlier ones have arrived.
  const std::string name = last_bin_file(bad_fs, ".dat");
  ASSERT_FALSE(name.empty());
  const auto id = bad_fs.open(name).value();
  const std::uint64_t size = bad_fs.file_size(id).value();
  Bytes content = bad_fs.read(id, 0, size).value();
  content[size / 2] ^= 0xFF;
  ASSERT_TRUE(bad_fs.set_contents(id, std::move(content)).is_ok());

  pfs::PfsStorage good_fs;
  auto good = MlocStore::create(
      &good_fs, "g", small_config(grid.shape(), NDShape{16, 16}, "mzip"));
  ASSERT_TRUE(good.is_ok());
  ASSERT_TRUE(good.value().write_variable("phi", grid).is_ok());

  Query all;
  all.sc = Region(2, {0, 0}, {64, 64});
  Query some;
  some.vc = ValueConstraint{-0.5, 0.75};
  some.values_needed = true;
  for (const int ranks : {1, 3}) {
    for (const Query& q : {all, some}) {
      const auto failed = bad.value().execute("phi", all, ranks);
      ASSERT_FALSE(failed.is_ok());
      EXPECT_EQ(failed.status().code(), ErrorCode::kCorruptData);
      const auto res = good.value().execute("phi", q, ranks);
      ASSERT_TRUE(res.is_ok()) << res.status().to_string();
      const Truth truth = brute_force(grid, q);
      EXPECT_EQ(res.value().positions, truth.positions) << "ranks " << ranks;
      EXPECT_EQ(res.value().values, truth.values) << "ranks " << ranks;
    }
  }
}

// One thread alternates answers of different shapes, sizes and gather
// paths through its one scratch: 2-D mzip value and region-only queries,
// 3-D isobar queries under an SC, multivariable AND and OR, and a
// region-only answer taken as a grid bitmap. Every answer is the
// brute-force one, every time.
TEST(QueryScratch, OneThreadAlternatesQueryShapes) {
  const Grid flat = test_grid_2d();
  pfs::PfsStorage fs2;
  auto s2 = MlocStore::create(
      &fs2, "f", small_config(flat.shape(), NDShape{16, 16}, "mzip"));
  ASSERT_TRUE(s2.is_ok());
  ASSERT_TRUE(s2.value().write_variable("phi", flat).is_ok());

  const Grid temp = test_grid_3d();
  const Grid species = datagen::s3d_species_like(temp, 99);
  pfs::PfsStorage fs3;
  auto s3 = MlocStore::create(
      &fs3, "v", small_config(temp.shape(), NDShape{8, 8, 8}, "isobar"));
  ASSERT_TRUE(s3.is_ok());
  ASSERT_TRUE(s3.value().write_variable("temp", temp).is_ok());
  ASSERT_TRUE(s3.value().write_variable("yfuel", species).is_ok());

  Query wide;  // most of the grid: the bitmap placement
  wide.vc = ValueConstraint{-1e30, 1e30};
  wide.values_needed = true;
  Query narrow;  // a sliver: the radix sort
  narrow.vc = ValueConstraint{0.25, 0.26};
  narrow.values_needed = true;
  Query region = wide;
  region.values_needed = false;
  Query boxed;
  boxed.vc = ValueConstraint{1500.0, 1e9};
  boxed.sc = Region(3, {2, 3, 4}, {20, 17, 23});
  boxed.values_needed = true;
  const ValueConstraint hot{1800.0, 1e9};
  const ValueConstraint rich{0.05, 1e9};

  const auto expect_answer = [](const Result<QueryResult>& res,
                                const Truth& truth, const char* what) {
    ASSERT_TRUE(res.is_ok()) << what << ": " << res.status().to_string();
    EXPECT_EQ(res.value().positions, truth.positions) << what;
    EXPECT_EQ(res.value().values, truth.values) << what;
  };
  Truth both;  // hot AND rich, yfuel values
  Truth either;  // hot OR rich, positions only
  for (std::uint64_t i = 0; i < temp.size(); ++i) {
    const bool h = hot.matches(temp.at_linear(i));
    const bool r = rich.matches(species.at_linear(i));
    if (h && r) {
      both.positions.push_back(i);
      both.values.push_back(species.at_linear(i));
    }
    if (h || r) either.positions.push_back(i);
  }
  const Truth region_truth = brute_force(flat, region);

  for (int round = 0; round < 3; ++round) {
    for (const int ranks : {1, 4}) {
      expect_answer(s2.value().execute("phi", wide, ranks),
                    brute_force(flat, wide), "2-D wide");
      expect_answer(s3.value().execute("temp", boxed, ranks),
                    brute_force(temp, boxed), "3-D boxed");
      expect_answer(s2.value().execute("phi", narrow, ranks),
                    brute_force(flat, narrow), "2-D narrow");
      expect_answer(s3.value().multivar_select({{"temp", hot}, {"yfuel", rich}},
                                               MlocStore::Combine::kAnd,
                                               "yfuel", 7, ranks),
                    both, "multivar AND");
      expect_answer(s2.value().execute("phi", region, ranks), region_truth,
                    "2-D region-only");
      expect_answer(s3.value().multivar_select({{"temp", hot}, {"yfuel", rich}},
                                               MlocStore::Combine::kOr, "", 7,
                                               ranks),
                    either, "multivar OR");
      Bitmap bits;
      const auto as_bits = exec::execute_query(
          s2.value(), *s2.value().variable("phi").value(), region, ranks,
          nullptr, exec::ExecOptions{}, &bits);
      ASSERT_TRUE(as_bits.is_ok()) << as_bits.status().to_string();
      std::vector<std::uint64_t> set;
      bits.for_each_set([&](std::uint64_t p) { set.push_back(p); });
      EXPECT_EQ(set, region_truth.positions) << "region_bits";
    }
  }
}

// A query whose buffers outgrow kScratchRetainBytes gives them back when
// it ends; an ordinary one leaves the thread's scratch warm, and repeating
// it grows nothing.
TEST(QueryScratch, KeepsNoMoreThanTheCeiling) {
  // 2^20 points with values need 16 MiB of arrivals alone.
  const Grid big = datagen::gts_like(1024, 7);
  pfs::PfsStorage fs;
  auto store = MlocStore::create(
      &fs, "b", small_config(big.shape(), NDShape{128, 128}, "raw"));
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("phi", big).is_ok());

  Query small;
  small.sc = Region(2, {100, 100}, {200, 180});
  small.values_needed = true;
  Query whole;
  whole.vc = ValueConstraint{-1e30, 1e30};
  whole.values_needed = true;

  std::thread([&] {
    ASSERT_TRUE(store.value().execute("phi", small, 2).is_ok());
    const std::size_t warm = exec::thread_scratch_bytes();
    EXPECT_GT(warm, 0u);
    ASSERT_TRUE(store.value().execute("phi", small, 2).is_ok());
    EXPECT_EQ(exec::thread_scratch_bytes(), warm);

    const auto res = store.value().execute("phi", whole, 2);
    ASSERT_TRUE(res.is_ok()) << res.status().to_string();
    EXPECT_EQ(res.value().positions.size(), big.size());
    EXPECT_LE(exec::thread_scratch_bytes(), exec::kScratchRetainBytes);

    const auto again = store.value().execute("phi", small, 2);
    ASSERT_TRUE(again.is_ok());
    EXPECT_EQ(again.value().positions.size(), std::size_t{100} * 80);
    EXPECT_LE(exec::thread_scratch_bytes(), exec::kScratchRetainBytes);
  }).join();
}

TEST(Store, ShapeMismatchRejected) {
  pfs::PfsStorage fs;
  auto store = MlocStore::create(
      &fs, "t", small_config(NDShape{64, 64}, NDShape{16, 16}, "mzip"));
  ASSERT_TRUE(store.is_ok());
  Grid wrong(NDShape{32, 32});
  EXPECT_FALSE(store.value().write_variable("phi", wrong).is_ok());
}

TEST(Store, InvalidQueryParamsRejected) {
  pfs::PfsStorage fs;
  Grid grid = test_grid_2d();
  auto store = MlocStore::create(
      &fs, "t", small_config(grid.shape(), NDShape{16, 16}, "mzip"));
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());
  Query q;
  q.plod_level = 0;
  EXPECT_FALSE(store.value().execute("phi", q).is_ok());
  q.plod_level = 8;
  EXPECT_FALSE(store.value().execute("phi", q).is_ok());
  Query q2;
  EXPECT_FALSE(store.value().execute("phi", q2, 0).is_ok());
  Query q3;
  q3.sc = Region(3, {0, 0, 0}, {1, 1, 1});  // wrong dimensionality
  EXPECT_FALSE(store.value().execute("phi", q3).is_ok());
}

TEST(Store, StorageAccountingIsConsistent) {
  pfs::PfsStorage fs;
  Grid grid = test_grid_2d();
  auto store = MlocStore::create(
      &fs, "t", small_config(grid.shape(), NDShape{16, 16}, "mzip"));
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());
  const std::uint64_t data = store.value().data_bytes();
  const std::uint64_t index = store.value().index_bytes();
  EXPECT_GT(data, 0u);
  EXPECT_GT(index, 0u);
  EXPECT_EQ(data + index, fs.total_bytes());
}

TEST(Store, QueryTimesArePopulated) {
  pfs::PfsStorage fs;
  Grid grid = test_grid_2d();
  auto store = MlocStore::create(
      &fs, "t", small_config(grid.shape(), NDShape{16, 16}, "mzip"));
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());
  Query q;
  q.sc = Region(2, {0, 0}, {32, 32});
  auto res = store.value().execute("phi", q);
  ASSERT_TRUE(res.is_ok());
  EXPECT_GT(res.value().times.io, 0.0);
  EXPECT_GT(res.value().exec.bytes_read, 0u);
  EXPECT_GT(res.value().times.total(), 0.0);
}

TEST(Store, VsmFullPrecisionReadsFewerSeeksThanVms) {
  // Table VII mechanism: for full-precision access V-S-M stores a
  // fragment's byte groups adjacently (1 run per fragment) while V-M-S
  // scatters them across 7 group sections (up to 7 runs) — so the modeled
  // I/O for the same SC query is lower under V-S-M.
  pfs::PfsStorage fs;
  Grid grid = test_grid_2d();
  auto vms = MlocStore::create(&fs, "vms",
                               small_config(grid.shape(), NDShape{8, 8},
                                            "mzip", LevelOrder::kVMS));
  auto vsm = MlocStore::create(&fs, "vsm",
                               small_config(grid.shape(), NDShape{8, 8},
                                            "mzip", LevelOrder::kVSM));
  ASSERT_TRUE(vms.is_ok() && vsm.is_ok());
  ASSERT_TRUE(vms.value().write_variable("phi", grid).is_ok());
  ASSERT_TRUE(vsm.value().write_variable("phi", grid).is_ok());

  Query full;
  full.sc = Region(2, {16, 16}, {48, 48});
  auto t_vms = vms.value().execute("phi", full);
  auto t_vsm = vsm.value().execute("phi", full);
  ASSERT_TRUE(t_vms.is_ok() && t_vsm.is_ok());
  EXPECT_EQ(t_vms.value().positions, t_vsm.value().positions);
  EXPECT_LT(t_vsm.value().times.io, t_vms.value().times.io);

  Query low = full;
  low.plod_level = 2;
  auto l_vms = vms.value().execute("phi", low);
  auto l_vsm = vsm.value().execute("phi", low);
  ASSERT_TRUE(l_vms.is_ok() && l_vsm.is_ok());
  EXPECT_LT(l_vms.value().times.io, l_vsm.value().times.io);
}

// ------------------------------------------------- per-variable layouts

VariableLayout alt_layout() {
  // Deliberately different from small_config's default on every axis the
  // tuner searches: order, curve (generalized Morton with a non-canonical
  // interleave), bin count, and chunk shape.
  VariableLayout l;
  l.chunk_shape = NDShape{8, 8};
  l.num_bins = 9;
  l.order = LevelOrder::kVSM;
  l.curve = sfc::CurveKind::kGeneralizedMorton;
  l.interleave = "yyyxxx";
  l.codec = "mzip";
  l.sample_stride = 3;
  return l;
}

TEST(MixedLayout, TwoLayoutsInOneStoreMatchSingleLayoutStores) {
  pfs::PfsStorage fs;
  Grid grid = test_grid_2d();

  // Mixed store: "a" under the default layout, "b" under alt_layout().
  auto mixed = MlocStore::create(
      &fs, "mixed", small_config(grid.shape(), NDShape{16, 16}, "mzip"));
  ASSERT_TRUE(mixed.is_ok());
  ASSERT_TRUE(mixed.value().write_variable("a", grid).is_ok());
  ASSERT_TRUE(
      mixed.value().write_variable("b", grid, alt_layout()).is_ok());

  // Reference stores, each single-layout.
  auto ref_a = MlocStore::create(
      &fs, "ref_a", small_config(grid.shape(), NDShape{16, 16}, "mzip"));
  MlocConfig cfg_b;
  cfg_b.shape = grid.shape();
  cfg_b.layout = alt_layout();
  auto ref_b = MlocStore::create(&fs, "ref_b", cfg_b);
  ASSERT_TRUE(ref_a.is_ok() && ref_b.is_ok());
  ASSERT_TRUE(ref_a.value().write_variable("a", grid).is_ok());
  ASSERT_TRUE(ref_b.value().write_variable("b", grid).is_ok());

  // Byte-identical query results for both variables against their
  // single-layout twins, across query shapes and rank counts.
  std::vector<Query> queries;
  { Query q; q.vc = ValueConstraint{0.2, 0.7}; queries.push_back(q); }
  { Query q; q.sc = Region(2, {8, 8}, {40, 52}); queries.push_back(q); }
  {
    Query q;
    q.vc = ValueConstraint{0.1, 0.9};
    q.sc = Region(2, {0, 16}, {64, 48});
    q.plod_level = 3;
    queries.push_back(q);
  }
  for (const Query& q : queries) {
    for (int ranks : {1, 4}) {
      for (const char* var : {"a", "b"}) {
        auto got = mixed.value().execute(var, q, ranks);
        auto want = (var[0] == 'a' ? ref_a : ref_b).value().execute(var, q,
                                                                    ranks);
        ASSERT_TRUE(got.is_ok() && want.is_ok()) << var;
        EXPECT_EQ(got.value().positions, want.value().positions) << var;
        EXPECT_EQ(got.value().values, want.value().values) << var;
      }
    }
  }

  // Brute-force ground truth holds for the generalized-Morton variable.
  Query q;
  q.vc = ValueConstraint{0.2, 0.7};
  q.values_needed = true;
  auto res = mixed.value().execute("b", q);
  ASSERT_TRUE(res.is_ok());
  const Truth truth = brute_force(grid, q);
  EXPECT_EQ(res.value().positions, truth.positions);
  EXPECT_EQ(res.value().values, truth.values);

  // Cross-variable bitmap hand-off works across differing layouts.
  auto mv = mixed.value().multivar_select({{"a", ValueConstraint{0.3, 0.8}}},
                                          MlocStore::Combine::kAnd, "b");
  ASSERT_TRUE(mv.is_ok()) << mv.status().to_string();
}

TEST(MixedLayout, LayoutsSurviveReopen) {
  pfs::PfsStorage fs;
  Grid grid = test_grid_2d();
  {
    auto store = MlocStore::create(
        &fs, "mix", small_config(grid.shape(), NDShape{16, 16}, "mzip"));
    ASSERT_TRUE(store.is_ok());
    ASSERT_TRUE(store.value().write_variable("a", grid).is_ok());
    ASSERT_TRUE(store.value().write_variable("b", grid, alt_layout()).is_ok());
  }
  auto reopened = MlocStore::open(&fs, "mix");
  ASSERT_TRUE(reopened.is_ok()) << reopened.status().to_string();
  auto la = reopened.value().variable_layout("a");
  auto lb = reopened.value().variable_layout("b");
  ASSERT_TRUE(la.is_ok() && lb.is_ok());
  EXPECT_EQ(*la.value(), reopened.value().config().layout);
  EXPECT_EQ(*lb.value(), alt_layout());
  EXPECT_EQ(lb.value()->interleave, "yyyxxx");

  // Queries still work per layout after reopen.
  Query q;
  q.sc = Region(2, {4, 4}, {30, 60});
  for (const char* var : {"a", "b"}) {
    auto res = reopened.value().execute(var, q);
    ASSERT_TRUE(res.is_ok()) << var;
    const Truth truth = brute_force(grid, q);
    EXPECT_EQ(res.value().positions, truth.positions) << var;
  }
}

TEST(MixedLayout, ReingestMayChangeLayout) {
  pfs::PfsStorage fs;
  Grid grid = test_grid_2d();
  auto store = MlocStore::create(
      &fs, "t", small_config(grid.shape(), NDShape{16, 16}, "mzip"));
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());
  ASSERT_TRUE(store.value().write_variable("phi", grid, alt_layout()).is_ok());
  auto layout = store.value().variable_layout("phi");
  ASSERT_TRUE(layout.is_ok());
  EXPECT_EQ(*layout.value(), alt_layout());

  Query q;
  q.vc = ValueConstraint{0.25, 0.75};
  auto res = store.value().execute("phi", q);
  ASSERT_TRUE(res.is_ok());
  EXPECT_EQ(res.value().positions, brute_force(grid, q).positions);
}

// ------------------------------------------------- layout validation

TEST(LayoutValidation, BadLayoutsRejectedAtIngest) {
  pfs::PfsStorage fs;
  Grid grid = test_grid_2d();
  auto store = MlocStore::create(
      &fs, "t", small_config(grid.shape(), NDShape{16, 16}, "mzip"));
  ASSERT_TRUE(store.is_ok());

  const VariableLayout good = store.value().config().layout;
  auto expect_invalid = [&](VariableLayout l, const char* what) {
    auto st = store.value().write_variable("v", grid, l);
    EXPECT_FALSE(st.is_ok()) << what;
    EXPECT_EQ(st.code(), ErrorCode::kInvalidArgument) << what;
  };

  { VariableLayout l = good; l.num_bins = 0; expect_invalid(l, "bins"); }
  { VariableLayout l = good; l.sample_stride = 0; expect_invalid(l, "stride"); }
  { VariableLayout l = good; l.chunk_shape = NDShape{16, 16, 16};
    expect_invalid(l, "rank"); }
  { VariableLayout l = good; l.chunk_shape = NDShape{128, 16};
    expect_invalid(l, "chunk > grid"); }
  { VariableLayout l = good; l.codec = "no-such-codec";
    expect_invalid(l, "codec"); }
  { VariableLayout l = good; l.curve = sfc::CurveKind::kGeneralizedMorton;
    l.interleave = "x";  // y never appears
    expect_invalid(l, "interleave coverage"); }
  { VariableLayout l = good; l.interleave = "xyxy";  // pattern w/o curve
    expect_invalid(l, "interleave without generalized curve"); }

  // Nothing was published by the failed attempts.
  EXPECT_TRUE(store.value().variables().empty());

  // create() validates the default layout the same way.
  MlocConfig bad;
  bad.shape = grid.shape();
  bad.layout = good;
  bad.layout.num_bins = -1;
  EXPECT_FALSE(MlocStore::create(&fs, "bad", bad).is_ok());
}

// ------------------------------------------------- v2 back-compat

TEST(BackCompat, V2StoreFixtureOpensAndQueries) {
  // tests/data/v2-store was written by the pre-refactor (meta v2,
  // store-wide layout) code: 32x32 gts grid, 16x16 chunks, 8 bins, mzip,
  // hilbert, V-M-S, stride 101, one variable "temp". The legacy open path
  // must reproduce its layout and its exact query results.
  auto fs = pfs::PfsStorage::load_from_dir(std::string(MLOC_TEST_DATA_DIR) +
                                           "/v2-store");
  ASSERT_TRUE(fs.is_ok()) << fs.status().to_string();
  auto store = MlocStore::open(&fs.value(), "store");
  ASSERT_TRUE(store.is_ok()) << store.status().to_string();

  EXPECT_EQ(store.value().variables(), std::vector<std::string>{"temp"});
  auto layout = store.value().variable_layout("temp");
  ASSERT_TRUE(layout.is_ok());
  EXPECT_EQ(layout.value()->chunk_shape, (NDShape{16, 16}));
  EXPECT_EQ(layout.value()->num_bins, 8);
  EXPECT_EQ(layout.value()->codec, "mzip");
  EXPECT_EQ(layout.value()->curve, sfc::CurveKind::kHilbert);
  EXPECT_EQ(layout.value()->order, LevelOrder::kVMS);
  EXPECT_EQ(layout.value()->sample_stride, 101u);
  EXPECT_TRUE(layout.value()->interleave.empty());
  // The store-wide legacy layout doubles as the default layout.
  EXPECT_EQ(store.value().config().layout, *layout.value());
  EXPECT_EQ(store.value().variable("temp").value()->checksum,
            ChecksumKind::kFnv1a64);

  Query q;
  q.vc = ValueConstraint{0.2, 0.8};
  q.values_needed = true;
  auto res = store.value().execute("temp", q, 2);
  ASSERT_TRUE(res.is_ok()) << res.status().to_string();
  ASSERT_EQ(res.value().positions.size(), 136u);
  double sum = 0.0, lo = res.value().values[0], hi = lo;
  for (double v : res.value().values) {
    sum += v;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_NEAR(sum / 136.0, 0.400972, 1e-6);
  EXPECT_NEAR(lo, 0.201853, 1e-6);
  EXPECT_NEAR(hi, 0.780933, 1e-6);
}

// FNV-1a of the little-endian image of `xs`: a compact record of an
// exact answer.
std::uint64_t answer_hash(const std::vector<std::uint64_t>& xs) {
  ByteWriter w;
  for (const std::uint64_t x : xs) w.put_u64(x);
  return fnv1a64(w.bytes());
}
std::uint64_t answer_hash(const std::vector<double>& xs) {
  ByteWriter w;
  for (const double x : xs) w.put_f64(x);
  return fnv1a64(w.bytes());
}

TEST(BackCompat, V4StoreFixtureOpensAndQueries) {
  // tests/data/v4-store was written by the meta v4 code, before mzip had a
  // stored form, so every mzip stream in it is dynamic: `mloc_cli build
  // --dataset gts --edge 32 --chunk 16 --bins 8 --codec mzip
  // --index-fanout 2 --seed 1 --var temp`. Its answers below were recorded
  // with that code.
  const std::string dir = std::string(MLOC_TEST_DATA_DIR) + "/v4-store";
  auto fs = pfs::PfsStorage::load_from_dir(dir);
  ASSERT_TRUE(fs.is_ok()) << fs.status().to_string();
  auto store = MlocStore::open(&fs.value(), "store");
  ASSERT_TRUE(store.is_ok()) << store.status().to_string();

  EXPECT_EQ(store.value().variables(), std::vector<std::string>{"temp"});
  const VariableState& var = *store.value().variable("temp").value();
  EXPECT_EQ(var.layout.chunk_shape, (NDShape{16, 16}));
  EXPECT_EQ(var.layout.num_bins, 8);
  EXPECT_EQ(var.layout.codec, "mzip");
  EXPECT_EQ(var.layout.index_fanout, 2);
  EXPECT_TRUE(var.hbx.has_value());
  EXPECT_EQ(var.checksum, ChecksumKind::kFnv1a64);

  // A value query with values: bins 3..6 aligned, 2 and 7 filtered.
  Query q;
  q.vc = ValueConstraint{-0.1, 0.5};
  q.values_needed = true;
  auto res = store.value().execute("temp", q, 2);
  ASSERT_TRUE(res.is_ok()) << res.status().to_string();
  EXPECT_EQ(res.value().positions.size(), 744u);
  EXPECT_EQ(res.value().aligned_bins, 4u);
  EXPECT_EQ(answer_hash(res.value().positions), 0xea85d27c515b580aull);
  EXPECT_EQ(answer_hash(res.value().values), 0x62478ccc6cdf637eull);

  // A region-only query whose aligned bins 2..5 are answered from .hbx
  // nodes; the flat per-bin path gives the same positions.
  Query region;
  region.vc = ValueConstraint{-0.2, 0.02};
  region.values_needed = false;
  auto hier = store.value().execute("temp", region, 2);
  ASSERT_TRUE(hier.is_ok()) << hier.status().to_string();
  EXPECT_EQ(hier.value().positions.size(), 441u);
  EXPECT_EQ(hier.value().aligned_bins, 4u);
  EXPECT_EQ(answer_hash(hier.value().positions), 0xedd1525f3b494a3aull);
  exec::ExecOptions flat;
  flat.use_hbx = false;
  auto flat_res = store.value().execute("temp", region, 2, flat);
  ASSERT_TRUE(flat_res.is_ok()) << flat_res.status().to_string();
  EXPECT_EQ(flat_res.value().positions, hier.value().positions);

  const fsck::Report report =
      fsck::LayoutVerifier(&fs.value()).verify_store("store");
  EXPECT_TRUE(report.ok()) << report.human();
}


/// tests/data/v5-store, loaded into memory: writes to it stay in the copy.
pfs::PfsStorage load_v5_fixture() {
  auto fs = pfs::PfsStorage::load_from_dir(std::string(MLOC_TEST_DATA_DIR) +
                                           "/v5-store");
  EXPECT_TRUE(fs.is_ok()) << fs.status().to_string();
  return std::move(fs).value();
}

/// The grid mloc_cli wrote into tests/data/v5-store (`--dataset gts --edge
/// 64 --seed 1`).
Grid v5_fixture_grid() { return datagen::gts_like(64, 1); }

/// Counts a query's .hbx node reads: every node a cold query decodes is
/// offered to the provider under kHbxNodeChunk. Serves nothing.
class NodeCounter : public FragmentProvider {
 public:
  std::shared_ptr<const FragmentData> lookup(const FragmentKey&) override {
    return nullptr;
  }
  void insert(const FragmentKey& key,
              std::shared_ptr<const FragmentData>) override {
    if (key.chunk == kHbxNodeChunk) ++nodes;
  }
  std::atomic<int> nodes{0};
};

TEST(BackCompat, V5StoreFixtureOpensAndQueries) {
  // tests/data/v5-store was written by the meta v5 code, whose segment and
  // .hbx node checksums are FNV-1a: `mloc_cli build --dataset gts --edge 64
  // --chunk 32 --bins 8 --codec mzip --index-fanout 2 --seed 1 --var temp`
  // (fragments of about 128 values, so both mzip stream forms occur). Its
  // answers below were recorded with that code.
  pfs::PfsStorage fs = load_v5_fixture();
  EXPECT_EQ(meta_version(fs, "store"), 5u);
  auto store = MlocStore::open(&fs, "store");
  ASSERT_TRUE(store.is_ok()) << store.status().to_string();

  EXPECT_EQ(store.value().variables(), std::vector<std::string>{"temp"});
  const VariableState& var = *store.value().variable("temp").value();
  EXPECT_EQ(var.layout.chunk_shape, (NDShape{32, 32}));
  EXPECT_EQ(var.layout.num_bins, 8);
  EXPECT_EQ(var.layout.codec, "mzip");
  EXPECT_EQ(var.layout.index_fanout, 2);
  EXPECT_TRUE(var.hbx.has_value());
  EXPECT_EQ(var.checksum, ChecksumKind::kFnv1a64);

  // A value query with values: 5 aligned bins, the boundary bins filtered.
  Query q;
  q.vc = ValueConstraint{-0.1, 0.5};
  q.values_needed = true;
  auto res = store.value().execute("temp", q, 2);
  ASSERT_TRUE(res.is_ok()) << res.status().to_string();
  EXPECT_EQ(res.value().positions.size(), 3017u);
  EXPECT_EQ(res.value().aligned_bins, 5u);
  EXPECT_EQ(answer_hash(res.value().positions), 0x905cb85eae79aa09ull);
  EXPECT_EQ(answer_hash(res.value().values), 0x30be73a9ac866195ull);

  // A region-only query whose 2 aligned bins are answered from .hbx nodes
  // (their FNV-1a checksums verified on the way); the flat per-bin path
  // gives the same positions.
  Query region;
  region.vc = ValueConstraint{-0.2, 0.02};
  region.values_needed = false;
  NodeCounter counter;
  store.value().set_fragment_provider(&counter);
  auto hier = store.value().execute("temp", region, 2);
  store.value().set_fragment_provider(nullptr);
  ASSERT_TRUE(hier.is_ok()) << hier.status().to_string();
  EXPECT_GT(counter.nodes.load(), 0);
  EXPECT_EQ(hier.value().positions.size(), 1776u);
  EXPECT_EQ(hier.value().aligned_bins, 2u);
  EXPECT_EQ(answer_hash(hier.value().positions), 0xd810f081cb39736eull);
  exec::ExecOptions flat;
  flat.use_hbx = false;
  auto flat_res = store.value().execute("temp", region, 2, flat);
  ASSERT_TRUE(flat_res.is_ok()) << flat_res.status().to_string();
  EXPECT_EQ(flat_res.value().positions, hier.value().positions);

  const fsck::Report report = fsck::LayoutVerifier(&fs).verify_store("store");
  EXPECT_TRUE(report.ok()) << report.human();
  ASSERT_EQ(report.variable_layouts.size(), 1u);
  EXPECT_EQ(report.variable_layouts[0].checksum, "fnv1a64");
}

/// True when every positional blob and payload segment of `var` verifies
/// under `kind`, read straight from its subfiles.
bool segments_verify_as(const pfs::PfsStorage& fs, const VariableState& var,
                        ChecksumKind kind) {
  for (const VariableState::Bin& bin : var.bins) {
    const Bytes table = fs.read(bin.idx.file, 0, bin.idx.header_len).value();
    ByteReader r(table);
    const BinLayout layout = BinLayout::deserialize(r).value();
    for (const FragmentInfo& f : layout.fragments) {
      const Bytes blob = fs.read(bin.idx.file,
                                 bin.idx.header_len + f.positions.offset,
                                 f.positions.length)
                             .value();
      if (segment_checksum(kind, blob) != f.positions.checksum) return false;
      for (const Segment& seg : f.groups) {
        const Bytes bytes =
            fs.read(bin.dat.file, seg.offset, seg.length).value();
        if (segment_checksum(kind, bytes) != seg.checksum) return false;
      }
    }
  }
  return true;
}

/// `var` of `store` answers a VC with values, an SC and a region-only VC
/// exactly as a scan of `grid` does.
void expect_answers_like_grid(const MlocStore& store, const std::string& var,
                              const Grid& grid) {
  Query vc;
  vc.vc = ValueConstraint{-0.1, 0.5};
  vc.values_needed = true;
  Query sc;
  sc.sc = Region(2, Coord{5, 9}, Coord{50, 33});
  Query region;
  region.vc = ValueConstraint{-0.2, 0.02};
  region.values_needed = false;
  for (const Query& q : {vc, sc, region}) {
    auto res = store.execute(var, q, 2);
    ASSERT_TRUE(res.is_ok()) << var << ": " << res.status().to_string();
    const Truth truth = brute_force(grid, q);
    EXPECT_EQ(res.value().positions, truth.positions) << var;
    EXPECT_EQ(res.value().values, truth.values) << var;
  }
}

// A v5 store that takes a new variable is rewritten at meta v6 and holds
// both checksum kinds: the old variable keeps its FNV-1a checksums until it
// is re-ingested, the new one is CRC-32, and both answer as the grid does.
TEST(BackCompat, V5StoreMixesChecksumKindsUntilReingest) {
  pfs::PfsStorage fs = load_v5_fixture();
  const Grid temp = v5_fixture_grid();
  const Grid pres = datagen::gts_like(64, 2);
  {
    auto store = MlocStore::open(&fs, "store");
    ASSERT_TRUE(store.is_ok()) << store.status().to_string();
    ASSERT_TRUE(store.value().write_variable("pres", pres).is_ok());
  }
  EXPECT_EQ(meta_version(fs, "store"), 6u);

  {
    auto store = MlocStore::open(&fs, "store");
    ASSERT_TRUE(store.is_ok()) << store.status().to_string();
    EXPECT_EQ(store.value().variables(),
              (std::vector<std::string>{"temp", "pres"}));
    const VariableState& t = *store.value().variable("temp").value();
    const VariableState& p = *store.value().variable("pres").value();
    EXPECT_EQ(t.checksum, ChecksumKind::kFnv1a64);
    EXPECT_EQ(p.checksum, ChecksumKind::kCrc32);
    EXPECT_TRUE(p.hbx.has_value());  // the store's default layout
    EXPECT_TRUE(segments_verify_as(fs, t, ChecksumKind::kFnv1a64));
    EXPECT_FALSE(segments_verify_as(fs, t, ChecksumKind::kCrc32));
    EXPECT_TRUE(segments_verify_as(fs, p, ChecksumKind::kCrc32));
    EXPECT_FALSE(segments_verify_as(fs, p, ChecksumKind::kFnv1a64));
    expect_answers_like_grid(store.value(), "temp", temp);
    expect_answers_like_grid(store.value(), "pres", pres);

    const fsck::Report report =
        fsck::LayoutVerifier(&fs).verify_store("store");
    EXPECT_TRUE(report.ok()) << report.human();
    ASSERT_EQ(report.variable_layouts.size(), 2u);
    EXPECT_EQ(report.variable_layouts[0].checksum, "fnv1a64");
    EXPECT_EQ(report.variable_layouts[1].checksum, "crc32");

    // Re-ingesting temp moves it to CRC-32.
    ASSERT_TRUE(store.value().write_variable("temp", temp).is_ok());
    EXPECT_EQ(store.value().variable("temp").value()->checksum,
              ChecksumKind::kCrc32);
  }

  auto store = MlocStore::open(&fs, "store");
  ASSERT_TRUE(store.is_ok()) << store.status().to_string();
  const VariableState& t = *store.value().variable("temp").value();
  EXPECT_EQ(t.checksum, ChecksumKind::kCrc32);
  EXPECT_TRUE(segments_verify_as(fs, t, ChecksumKind::kCrc32));
  expect_answers_like_grid(store.value(), "temp", temp);
  expect_answers_like_grid(store.value(), "pres", pres);
  const fsck::Report report = fsck::LayoutVerifier(&fs).verify_store("store");
  EXPECT_TRUE(report.ok()) << report.human();
}

// A v6 meta whose checksum-kind byte names no kind is refused on open.
TEST(StorePersistence, UnknownChecksumKindIsCorruptData) {
  pfs::PfsStorage fs;
  const Grid grid = test_grid_2d();
  {
    auto store = MlocStore::create(
        &fs, "k", small_config(grid.shape(), NDShape{16, 16}, "mzip"));
    ASSERT_TRUE(store.is_ok());
    ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());
  }
  const pfs::FileId meta = fs.open("k.meta").value();
  Bytes content = fs.read(meta, 0, fs.file_size(meta).value()).value();
  const std::uint64_t payload = verify_subfile_footer(content).value();
  content.resize(payload);
  // The one variable's kind byte ends the meta payload.
  ASSERT_EQ(content.back(), static_cast<std::uint8_t>(ChecksumKind::kCrc32));
  content.back() = 2;
  append_subfile_footer(content);
  ASSERT_TRUE(fs.set_contents(meta, std::move(content)).is_ok());
  auto reopened = MlocStore::open(&fs, "k");
  ASSERT_FALSE(reopened.is_ok());
  EXPECT_EQ(reopened.status().code(), ErrorCode::kCorruptData);
  EXPECT_EQ(reopened.status().message(), "meta: unknown checksum kind");
}

TEST(StorePersistence, MetaNamingAnUnregisteredCodecFailsToOpen) {
  // A store written by a build that still registered the RLE codec names
  // "rle" in its meta. Whether the default layout or the variable's layout
  // names it, open must fail with a status, and fsck must report the store
  // rather than crash.
  for (const int occurrence : {0, 1}) {  // 0: default layout, 1: variable's
    SCOPED_TRACE(occurrence == 0 ? "default layout" : "variable layout");
    pfs::PfsStorage fs;
    const Grid grid = test_grid_2d();
    {
      auto store = MlocStore::create(
          &fs, "c", small_config(grid.shape(), NDShape{16, 16}, "raw"));
      ASSERT_TRUE(store.is_ok());
      ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());
    }
    const pfs::FileId meta = fs.open("c.meta").value();
    Bytes content = fs.read(meta, 0, fs.file_size(meta).value()).value();
    content.resize(verify_subfile_footer(content).value());
    // Codec names are length-prefixed strings: "raw" appears once in the
    // default layout and once in the variable's, and "rle" has its length.
    const Bytes needle = {3, 'r', 'a', 'w'};
    std::vector<std::size_t> at;
    for (auto it = content.begin();
         (it = std::search(it, content.end(), needle.begin(), needle.end())) !=
         content.end();
         ++it) {
      at.push_back(static_cast<std::size_t>(it - content.begin()));
    }
    ASSERT_EQ(at.size(), 2u);
    const std::string patched = "rle";
    std::copy(patched.begin(), patched.end(),
              content.begin() + static_cast<std::ptrdiff_t>(at[occurrence]) +
                  1);
    append_subfile_footer(content);
    ASSERT_TRUE(fs.set_contents(meta, std::move(content)).is_ok());

    auto reopened = MlocStore::open(&fs, "c");
    ASSERT_FALSE(reopened.is_ok());
    EXPECT_EQ(reopened.status().code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(reopened.status().message(), "layout: unknown codec 'rle'");

    const fsck::Report report = fsck::LayoutVerifier(&fs).verify_store("c");
    EXPECT_FALSE(report.ok());
    ASSERT_EQ(report.issues.size(), 1u);
    EXPECT_EQ(report.issues[0].check, "meta");
    EXPECT_NE(report.issues[0].detail.find("unknown codec 'rle'"),
              std::string::npos)
        << report.human();
  }
}

}  // namespace
}  // namespace mloc
