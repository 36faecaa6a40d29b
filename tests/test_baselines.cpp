// Tests for src/baselines: each comparator must return exactly the same
// answers as a brute-force scan (they differ from MLOC in cost, never in
// correctness), plus the cost-shape properties the paper's comparison
// rests on (FastBit's index-load dominance, SciDB's scan-everything VC).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "baselines/fastbit_like.hpp"
#include "baselines/scidb_like.hpp"
#include "baselines/seqscan.hpp"
#include "datagen/datagen.hpp"

namespace mloc::baselines {
namespace {

Grid test_grid() { return datagen::gts_like(64, 7); }

struct Truth {
  std::vector<std::uint64_t> positions;
  std::vector<double> values;
};

Truth brute_vc(const Grid& g, ValueConstraint vc) {
  Truth t;
  for (std::uint64_t i = 0; i < g.size(); ++i) {
    if (vc.matches(g.at_linear(i))) {
      t.positions.push_back(i);
      t.values.push_back(g.at_linear(i));
    }
  }
  return t;
}

Truth brute_sc(const Grid& g, const Region& sc) {
  Truth t;
  for (std::uint64_t i = 0; i < g.size(); ++i) {
    if (sc.contains(g.shape().delinearize(i))) {
      t.positions.push_back(i);
      t.values.push_back(g.at_linear(i));
    }
  }
  return t;
}

// --------------------------------------------------------------- seqscan

TEST(SeqScan, RegionQueryMatchesBruteForce) {
  pfs::PfsStorage fs;
  Grid g = test_grid();
  auto store = SeqScanStore::create(&fs, "s", g);
  ASSERT_TRUE(store.is_ok());
  const ValueConstraint vc{-0.2, 0.3};
  auto res = store.value().region_query(vc, /*values_needed=*/true);
  ASSERT_TRUE(res.is_ok());
  const Truth t = brute_vc(g, vc);
  EXPECT_EQ(res.value().positions, t.positions);
  EXPECT_EQ(res.value().values, t.values);
  // Full scan: reads the whole file.
  EXPECT_EQ(res.value().exec.bytes_read, g.size() * sizeof(double));
}

TEST(SeqScan, ValueQueryMatchesBruteForce) {
  pfs::PfsStorage fs;
  Grid g = test_grid();
  auto store = SeqScanStore::create(&fs, "s", g);
  ASSERT_TRUE(store.is_ok());
  const Region sc(2, {5, 9}, {31, 44});
  auto res = store.value().value_query(sc);
  ASSERT_TRUE(res.is_ok());
  const Truth t = brute_sc(g, sc);
  EXPECT_EQ(res.value().positions, t.positions);
  EXPECT_EQ(res.value().values, t.values);
  // Partial read: far less than the whole file.
  EXPECT_LT(res.value().exec.bytes_read, g.size() * sizeof(double) / 2);
}

TEST(SeqScan, RankCountDoesNotChangeAnswers) {
  pfs::PfsStorage fs;
  Grid g = test_grid();
  auto store = SeqScanStore::create(&fs, "s", g);
  ASSERT_TRUE(store.is_ok());
  const ValueConstraint vc{0.0, 0.4};
  auto r1 = store.value().region_query(vc, true, 1);
  auto r8 = store.value().region_query(vc, true, 8);
  ASSERT_TRUE(r1.is_ok() && r8.is_ok());
  EXPECT_EQ(r1.value().positions, r8.value().positions);
  EXPECT_EQ(r1.value().values, r8.value().values);
}

TEST(SeqScan, OpenValidatesSize) {
  pfs::PfsStorage fs;
  Grid g = test_grid();
  ASSERT_TRUE(SeqScanStore::create(&fs, "s", g).is_ok());
  EXPECT_TRUE(SeqScanStore::open(&fs, "s", g.shape()).is_ok());
  EXPECT_FALSE(SeqScanStore::open(&fs, "s", NDShape{8, 8}).is_ok());
}

// --------------------------------------------------------------- fastbit

TEST(FastBit, RegionQueryMatchesBruteForce) {
  pfs::PfsStorage fs;
  Grid g = test_grid();
  auto store = FastBitStore::create(&fs, "f", g, 64);
  ASSERT_TRUE(store.is_ok());
  const ValueConstraint vc{-0.15, 0.25};
  auto res = store.value().region_query(vc, /*values_needed=*/true);
  ASSERT_TRUE(res.is_ok()) << res.status().to_string();
  const Truth t = brute_vc(g, vc);
  EXPECT_EQ(res.value().positions, t.positions);
  EXPECT_EQ(res.value().values, t.values);
}

TEST(FastBit, ValueQueryMatchesBruteForce) {
  pfs::PfsStorage fs;
  Grid g = test_grid();
  auto store = FastBitStore::create(&fs, "f", g, 64);
  ASSERT_TRUE(store.is_ok());
  const Region sc(2, {0, 10}, {20, 60});
  auto res = store.value().value_query(sc);
  ASSERT_TRUE(res.is_ok());
  const Truth t = brute_sc(g, sc);
  EXPECT_EQ(res.value().positions, t.positions);
  EXPECT_EQ(res.value().values, t.values);
}

TEST(FastBit, EveryQueryPaysTheFullIndexLoad) {
  // The paper's explanation of FastBit's poor disk-resident performance.
  pfs::PfsStorage fs;
  Grid g = test_grid();
  auto store = FastBitStore::create(&fs, "f", g, 64);
  ASSERT_TRUE(store.is_ok());
  const std::uint64_t index_size = store.value().index_bytes();
  ASSERT_GT(index_size, 0u);
  // Even a tiny value query reads >= the index size.
  auto res = store.value().value_query(Region(2, {0, 0}, {2, 2}));
  ASSERT_TRUE(res.is_ok());
  EXPECT_GE(res.value().exec.bytes_read, index_size);
}

TEST(FastBit, FineBinningInflatesIndex) {
  pfs::PfsStorage fs1, fs2;
  Grid g = test_grid();
  auto coarse = FastBitStore::create(&fs1, "f", g, 16);
  auto fine = FastBitStore::create(&fs2, "f", g, 1000);
  ASSERT_TRUE(coarse.is_ok() && fine.is_ok());
  EXPECT_GT(fine.value().index_bytes(), coarse.value().index_bytes());
}

TEST(FastBit, OpenReadsScheme) {
  pfs::PfsStorage fs;
  Grid g = test_grid();
  ASSERT_TRUE(FastBitStore::create(&fs, "f", g, 32).is_ok());
  auto reopened = FastBitStore::open(&fs, "f", g.shape());
  ASSERT_TRUE(reopened.is_ok());
  const ValueConstraint vc{0.0, 0.2};
  auto res = reopened.value().region_query(vc, false);
  ASSERT_TRUE(res.is_ok());
  EXPECT_EQ(res.value().positions, brute_vc(g, vc).positions);
}

// ----------------------------------------------------------------- scidb

SciDbStore::Options scidb_opts() {
  SciDbStore::Options opts;
  opts.chunk_shape = NDShape{16, 16};
  opts.overlap = 4;
  opts.per_chunk_overhead_s = 0.005;
  return opts;
}

TEST(SciDb, ValueQueryMatchesBruteForce) {
  pfs::PfsStorage fs;
  Grid g = test_grid();
  auto store = SciDbStore::create(&fs, "d", g, scidb_opts());
  ASSERT_TRUE(store.is_ok());
  const Region sc(2, {7, 3}, {42, 29});
  auto res = store.value().value_query(sc);
  ASSERT_TRUE(res.is_ok());
  const Truth t = brute_sc(g, sc);
  EXPECT_EQ(res.value().positions, t.positions);
  EXPECT_EQ(res.value().values, t.values);
}

TEST(SciDb, RegionQueryMatchesBruteForce) {
  pfs::PfsStorage fs;
  Grid g = test_grid();
  auto store = SciDbStore::create(&fs, "d", g, scidb_opts());
  ASSERT_TRUE(store.is_ok());
  const ValueConstraint vc{-0.1, 0.15};
  auto res = store.value().region_query(vc, true);
  ASSERT_TRUE(res.is_ok());
  const Truth t = brute_vc(g, vc);
  EXPECT_EQ(res.value().positions, t.positions);
  EXPECT_EQ(res.value().values, t.values);
}

TEST(SciDb, OverlapReplicationInflatesData) {
  // Table I's asterisk: SciDB stores more than the raw bytes.
  pfs::PfsStorage fs;
  Grid g = test_grid();
  auto store = SciDbStore::create(&fs, "d", g, scidb_opts());
  ASSERT_TRUE(store.is_ok());
  EXPECT_GT(store.value().data_bytes(), g.size() * sizeof(double));
}

TEST(SciDb, RegionQueryScansEverything) {
  pfs::PfsStorage fs;
  Grid g = test_grid();
  auto store = SciDbStore::create(&fs, "d", g, scidb_opts());
  ASSERT_TRUE(store.is_ok());
  auto res = store.value().region_query({1e30, 2e30}, false);
  ASSERT_TRUE(res.is_ok());
  EXPECT_TRUE(res.value().positions.empty());
  // Still read the entire (replicated) dataset.
  EXPECT_EQ(res.value().exec.bytes_read, store.value().data_bytes());
}

TEST(SciDb, ValueQueryReadsOnlyCoveringChunks) {
  pfs::PfsStorage fs;
  Grid g = test_grid();
  auto store = SciDbStore::create(&fs, "d", g, scidb_opts());
  ASSERT_TRUE(store.is_ok());
  auto small = store.value().value_query(Region(2, {0, 0}, {8, 8}));
  ASSERT_TRUE(small.is_ok());
  EXPECT_LT(small.value().exec.bytes_read, store.value().data_bytes() / 4);
}

TEST(SciDb, RankInvariance) {
  pfs::PfsStorage fs;
  Grid g = test_grid();
  auto store = SciDbStore::create(&fs, "d", g, scidb_opts());
  ASSERT_TRUE(store.is_ok());
  const Region sc(2, {10, 10}, {50, 50});
  auto r1 = store.value().value_query(sc, 1);
  auto r4 = store.value().value_query(sc, 4);
  ASSERT_TRUE(r1.is_ok() && r4.is_ok());
  EXPECT_EQ(r1.value().positions, r4.value().positions);
  EXPECT_EQ(r1.value().values, r4.value().values);
}

}  // namespace
}  // namespace mloc::baselines
