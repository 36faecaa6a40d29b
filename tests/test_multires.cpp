// Tests for src/multires: hierarchical subset partitioning invariants,
// level reads vs brute force, spatial pruning, coverage fractions,
// persistence, codec interop, failure injection.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "datagen/datagen.hpp"
#include "multires/subset.hpp"

namespace mloc::multires {
namespace {

SubsetStore::Config small_cfg(const NDShape& shape, int levels = 3,
                              const std::string& codec = "mzip") {
  SubsetStore::Config cfg;
  cfg.shape = shape;
  cfg.num_levels = levels;
  cfg.codec = codec;
  cfg.segment_points = 1024;
  return cfg;
}

TEST(SubsetStore, TopLevelReadReturnsEveryPointExactly) {
  pfs::PfsStorage fs;
  Grid grid = datagen::gts_like(64, 1);
  auto store = SubsetStore::create(&fs, "s", small_cfg(grid.shape()));
  ASSERT_TRUE(store.is_ok()) << store.status().to_string();
  ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());

  auto res = store.value().read_level("phi", 2);
  ASSERT_TRUE(res.is_ok()) << res.status().to_string();
  ASSERT_EQ(res.value().positions.size(), grid.size());
  for (std::size_t i = 0; i < res.value().positions.size(); ++i) {
    EXPECT_EQ(res.value().positions[i], i);  // ascending, complete
    EXPECT_EQ(res.value().values[i], grid.at_linear(i));
  }
}

TEST(SubsetStore, LevelsAreNestedAndDisjoint) {
  pfs::PfsStorage fs;
  Grid grid = datagen::gts_like(64, 2);
  auto store = SubsetStore::create(&fs, "s", small_cfg(grid.shape()));
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());

  std::vector<std::set<std::uint64_t>> level_sets;
  for (int lvl = 0; lvl < 3; ++lvl) {
    auto res = store.value().read_level("phi", lvl);
    ASSERT_TRUE(res.is_ok());
    level_sets.emplace_back(res.value().positions.begin(),
                            res.value().positions.end());
  }
  // Nesting: level k's result contains level k-1's.
  for (std::uint64_t p : level_sets[0]) EXPECT_TRUE(level_sets[1].contains(p));
  for (std::uint64_t p : level_sets[1]) EXPECT_TRUE(level_sets[2].contains(p));
  // Strict growth.
  EXPECT_LT(level_sets[0].size(), level_sets[1].size());
  EXPECT_LT(level_sets[1].size(), level_sets[2].size());
}

TEST(SubsetStore, CoverageMatchesDivisibilityTheory) {
  pfs::PfsStorage fs;
  Grid grid = datagen::gts_like(64, 3);  // 2-D: fanout 4
  auto store = SubsetStore::create(&fs, "s", small_cfg(grid.shape(), 3));
  ASSERT_TRUE(store.is_ok());
  // Union of levels 0..k = positions divisible by 4^(2-k):
  // k=0 -> 1/16 of the curve, k=1 -> 1/4, k=2 -> all.
  EXPECT_NEAR(store.value().coverage(0), 1.0 / 16, 1e-9);
  EXPECT_NEAR(store.value().coverage(1), 1.0 / 4, 1e-9);
  EXPECT_DOUBLE_EQ(store.value().coverage(2), 1.0);
}

TEST(SubsetStore, LowResIsAUniformishSubsample) {
  pfs::PfsStorage fs;
  Grid grid = datagen::gts_like(64, 4);
  auto store = SubsetStore::create(&fs, "s", small_cfg(grid.shape()));
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());
  auto res = store.value().read_level("phi", 0);
  ASSERT_TRUE(res.is_ok());
  // Every 16x16 tile must contain at least one sample (uniformity).
  for (std::uint32_t tx = 0; tx < 64; tx += 16) {
    for (std::uint32_t ty = 0; ty < 64; ty += 16) {
      const Region tile(2, {tx, ty}, {tx + 16, ty + 16});
      bool found = false;
      for (std::uint64_t p : res.value().positions) {
        if (tile.contains(grid.shape().delinearize(p))) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << "tile " << tile.to_string();
    }
  }
}

TEST(SubsetStore, SpatialConstraintFiltersAndPrunes) {
  pfs::PfsStorage fs;
  Grid grid = datagen::gts_like(128, 5);
  auto cfg = small_cfg(grid.shape());
  cfg.segment_points = 256;  // many segments -> pruning visible
  auto store = SubsetStore::create(&fs, "s", cfg);
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());

  const Region roi(2, {0, 0}, {16, 16});
  auto res = store.value().read_level("phi", 2, roi);
  ASSERT_TRUE(res.is_ok());
  EXPECT_EQ(res.value().positions.size(), roi.volume());
  for (std::uint64_t p : res.value().positions) {
    EXPECT_TRUE(roi.contains(grid.shape().delinearize(p)));
  }
  auto full = store.value().read_level("phi", 2);
  ASSERT_TRUE(full.is_ok());
  EXPECT_LT(res.value().exec.bytes_read, full.value().exec.bytes_read / 4);
}

TEST(SubsetStore, RankInvariance) {
  pfs::PfsStorage fs;
  Grid grid = datagen::s3d_like(24, 6);
  auto store = SubsetStore::create(&fs, "s", small_cfg(grid.shape()));
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("t", grid).is_ok());
  auto r1 = store.value().read_level("t", 1, {}, 1);
  auto r7 = store.value().read_level("t", 1, {}, 7);
  ASSERT_TRUE(r1.is_ok() && r7.is_ok());
  EXPECT_EQ(r1.value().positions, r7.value().positions);
  EXPECT_EQ(r1.value().values, r7.value().values);
}

TEST(SubsetStore, LowerLevelsReadFewerBytes) {
  pfs::PfsStorage fs;
  Grid grid = datagen::gts_like(128, 7);
  auto store = SubsetStore::create(&fs, "s", small_cfg(grid.shape()));
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());
  std::uint64_t prev = 0;
  for (int lvl = 0; lvl < 3; ++lvl) {
    auto res = store.value().read_level("phi", lvl);
    ASSERT_TRUE(res.is_ok());
    EXPECT_GT(res.value().exec.bytes_read, prev);
    prev = res.value().exec.bytes_read;
  }
}

TEST(SubsetStore, PersistsAcrossOpen) {
  pfs::PfsStorage fs;
  Grid grid = datagen::gts_like(64, 8);
  {
    auto store = SubsetStore::create(&fs, "p", small_cfg(grid.shape()));
    ASSERT_TRUE(store.is_ok());
    ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());
  }
  auto reopened = SubsetStore::open(&fs, "p");
  ASSERT_TRUE(reopened.is_ok()) << reopened.status().to_string();
  EXPECT_EQ(reopened.value().variables(), std::vector<std::string>{"phi"});
  auto res = reopened.value().read_level("phi", 2);
  ASSERT_TRUE(res.is_ok());
  EXPECT_EQ(res.value().positions.size(), grid.size());
}

TEST(SubsetStore, WorksWithLossyCodecWithinBound) {
  pfs::PfsStorage fs;
  Grid grid = datagen::s3d_like(24, 9);
  auto store = SubsetStore::create(
      &fs, "s", small_cfg(grid.shape(), 3, "isabela:0.001"));
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("t", grid).is_ok());
  auto res = store.value().read_level("t", 2);
  ASSERT_TRUE(res.is_ok());
  ASSERT_EQ(res.value().positions.size(), grid.size());
  for (std::size_t i = 0; i < res.value().positions.size(); ++i) {
    const double truth = grid.at_linear(res.value().positions[i]);
    EXPECT_LE(std::abs(res.value().values[i] - truth),
              0.001 * std::abs(truth) + 1e-300);
  }
}

TEST(SubsetStore, InvalidInputsRejected) {
  pfs::PfsStorage fs;
  Grid grid = datagen::gts_like(64, 10);
  auto store = SubsetStore::create(&fs, "s", small_cfg(grid.shape()));
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());
  EXPECT_FALSE(store.value().write_variable("phi", grid).is_ok());
  EXPECT_FALSE(store.value().read_level("ghost", 0).is_ok());
  EXPECT_FALSE(store.value().read_level("phi", -1).is_ok());
  EXPECT_FALSE(store.value().read_level("phi", 3).is_ok());
  EXPECT_FALSE(store.value().read_level("phi", 0, {}, 0).is_ok());

  SubsetStore::Config bad = small_cfg(grid.shape());
  bad.num_levels = 0;
  EXPECT_FALSE(SubsetStore::create(&fs, "b", bad).is_ok());
}

TEST(SubsetStore, CorruptMetaRejected) {
  pfs::PfsStorage fs;
  Grid grid = datagen::gts_like(64, 11);
  {
    auto store = SubsetStore::create(&fs, "c", small_cfg(grid.shape()));
    ASSERT_TRUE(store.is_ok());
    ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());
  }
  auto meta = fs.open("c.mrsmeta").value();
  ASSERT_TRUE(fs.set_contents(meta, Bytes{9, 9, 9, 9}).is_ok());
  EXPECT_FALSE(SubsetStore::open(&fs, "c").is_ok());
}

}  // namespace
}  // namespace mloc::multires
