// Tests for query costing without execution — MlocStore::plan's
// PlanSummary and src/tune's estimate_io_seconds / recommend_ranks:
// estimates track measured query behaviour within a modest factor,
// monotonicity properties, rank recommendation, and the order advisor's
// Table VII crossover.
#include <gtest/gtest.h>

#include <limits>

#include "core/store.hpp"
#include "datagen/datagen.hpp"
#include "tune/tuner.hpp"

namespace mloc::tune {
namespace {

struct StoreFixture {
  pfs::PfsStorage fs;
  Grid grid;
  Result<MlocStore> store;

  explicit StoreFixture(const std::string& codec = "mzip")
      : grid(datagen::gts_like(256, 3)), store(make_store(codec)) {}

  Result<MlocStore> make_store(const std::string& codec) {
    MlocConfig cfg;
    cfg.shape = NDShape{256, 256};
    cfg.layout.chunk_shape = NDShape{32, 32};
    cfg.layout.num_bins = 32;
    cfg.layout.codec = codec;
    auto s = MlocStore::create(&fs, "t", cfg);
    if (s.is_ok()) {
      MLOC_RETURN_IF_ERROR(s.value().write_variable("phi", grid));
    }
    return s;
  }
};

TEST(Planner, BinCountsMatchEngineExactly) {
  StoreFixture fx;
  ASSERT_TRUE(fx.store.is_ok());
  Rng rng(1);
  for (int i = 0; i < 10; ++i) {
    Query q;
    q.vc = datagen::random_vc(fx.grid, 0.05, rng);
    q.values_needed = false;
    auto est = fx.store.value().plan("phi", q);
    auto actual = fx.store.value().execute("phi", q);
    ASSERT_TRUE(est.is_ok() && actual.is_ok());
    EXPECT_EQ(est.value().bins_touched, actual.value().bins_touched);
    EXPECT_EQ(est.value().aligned_bins, actual.value().aligned_bins);
  }
}

TEST(Planner, ByteEstimateWithinSmallFactorOfMeasured) {
  StoreFixture fx;
  ASSERT_TRUE(fx.store.is_ok());
  Rng rng(2);
  for (double sel : {0.01, 0.1}) {
    Query q;
    q.sc = datagen::random_sc(fx.grid.shape(), sel, rng);
    auto est = fx.store.value().plan("phi", q);
    auto actual = fx.store.value().execute("phi", q);
    ASSERT_TRUE(est.is_ok() && actual.is_ok());
    const double ratio = static_cast<double>(est.value().stats.bytes_read) /
                         static_cast<double>(actual.value().exec.bytes_read);
    EXPECT_GT(ratio, 0.2) << sel;
    EXPECT_LT(ratio, 5.0) << sel;
  }
}

TEST(Planner, PointEstimateTracksSelectivity) {
  StoreFixture fx;
  ASSERT_TRUE(fx.store.is_ok());
  Rng rng(3);
  Query q;
  q.vc = datagen::random_vc(fx.grid, 0.10, rng);
  q.values_needed = false;
  auto est = fx.store.value().plan("phi", q);
  auto actual = fx.store.value().execute("phi", q);
  ASSERT_TRUE(est.is_ok() && actual.is_ok());
  const double measured = static_cast<double>(actual.value().positions.size());
  EXPECT_GT(est.value().est_points, measured * 0.25);
  EXPECT_LT(est.value().est_points, measured * 4.0);
}

TEST(Planner, LowerPlodEstimatesFewerBytes) {
  StoreFixture fx;
  ASSERT_TRUE(fx.store.is_ok());
  const MlocStore& store = fx.store.value();
  Query q;
  q.sc = Region(2, {0, 0}, {128, 128});
  q.plod_level = 2;
  auto low = store.plan("phi", q);
  auto low_io = estimate_io_seconds(store, "phi", q);
  q.plod_level = 7;
  auto full = store.plan("phi", q);
  auto full_io = estimate_io_seconds(store, "phi", q);
  ASSERT_TRUE(low.is_ok() && full.is_ok() && low_io.is_ok() &&
              full_io.is_ok());
  EXPECT_LT(low.value().stats.bytes_read, full.value().stats.bytes_read);
  EXPECT_LT(low_io.value(), full_io.value());
}

TEST(Planner, MoreRanksNeverSlower) {
  StoreFixture fx;
  ASSERT_TRUE(fx.store.is_ok());
  Query q;
  q.sc = Region(2, {0, 0}, {128, 128});
  double prev = 1e18;
  for (int ranks : {1, 2, 4, 8, 16}) {
    auto est = estimate_io_seconds(fx.store.value(), "phi", q, ranks);
    ASSERT_TRUE(est.is_ok());
    EXPECT_LE(est.value(), prev * (1 + 1e-9));
    prev = est.value();
  }
}

TEST(Planner, EmptyQueriesEstimateZero) {
  StoreFixture fx;
  ASSERT_TRUE(fx.store.is_ok());
  Query q;
  q.vc = ValueConstraint{5.0, 5.0};
  auto est = fx.store.value().plan("phi", q);
  ASSERT_TRUE(est.is_ok());
  EXPECT_EQ(est.value().bins_touched, 0u);
  EXPECT_EQ(est.value().stats.bytes_read, 0u);
}

TEST(Planner, RecommendRanksSaturates) {
  StoreFixture fx;
  ASSERT_TRUE(fx.store.is_ok());
  Query q;
  q.sc = Region(2, {0, 0}, {64, 64});  // small query: few ranks suffice
  auto ranks = recommend_ranks(fx.store.value(), "phi", q, 128);
  ASSERT_TRUE(ranks.is_ok());
  EXPECT_GE(ranks.value(), 1);
  EXPECT_LE(ranks.value(), 128);
  // A tiny query should not demand the full 128 ranks.
  EXPECT_LT(ranks.value(), 128);
}

TEST(Planner, UnknownVariableFails) {
  StoreFixture fx;
  ASSERT_TRUE(fx.store.is_ok());
  EXPECT_FALSE(fx.store.value().plan("ghost", Query{}).is_ok());
  EXPECT_FALSE(
      estimate_io_seconds(fx.store.value(), "ghost", Query{}).is_ok());
}

// -------------------------------------------------------- order advisor

TEST(OrderAdvisor, PlodHeavyWorkloadsPreferVms) {
  WorkloadProfile w;
  w.value_reduced = 0.8;
  w.value_full_precision = 0.1;
  w.region_queries = 0.1;
  w.reduced_level = 2;
  EXPECT_EQ(recommend_order(w).value(), LevelOrder::kVMS);
}

TEST(OrderAdvisor, FullPrecisionWorkloadsPreferVsm) {
  WorkloadProfile w;
  w.value_full_precision = 0.9;
  w.region_queries = 0.1;
  EXPECT_EQ(recommend_order(w).value(), LevelOrder::kVSM);
}

TEST(OrderAdvisor, AdviceMatchesMeasuredTableVII) {
  // Validate the advisor against actual stores: the order it picks for a
  // pure workload must be the one with lower modeled I/O on that workload.
  Grid grid = datagen::gts_like(256, 9);
  MlocConfig base;
  base.shape = grid.shape();
  base.layout.chunk_shape = NDShape{32, 32};
  base.layout.num_bins = 16;
  base.layout.codec = "mzip";

  pfs::PfsStorage fs;
  base.layout.order = LevelOrder::kVMS;
  auto vms = MlocStore::create(&fs, "vms", base);
  base.layout.order = LevelOrder::kVSM;
  auto vsm = MlocStore::create(&fs, "vsm", base);
  ASSERT_TRUE(vms.is_ok() && vsm.is_ok());
  ASSERT_TRUE(vms.value().write_variable("phi", grid).is_ok());
  ASSERT_TRUE(vsm.value().write_variable("phi", grid).is_ok());

  Query reduced;
  reduced.sc = Region(2, {64, 64}, {192, 192});
  reduced.plod_level = 2;
  Query full = reduced;
  full.plod_level = 7;

  auto vms_reduced = vms.value().execute("phi", reduced);
  auto vsm_reduced = vsm.value().execute("phi", reduced);
  auto vms_full = vms.value().execute("phi", full);
  auto vsm_full = vsm.value().execute("phi", full);
  ASSERT_TRUE(vms_reduced.is_ok() && vsm_reduced.is_ok() &&
              vms_full.is_ok() && vsm_full.is_ok());

  WorkloadProfile reduced_heavy;
  reduced_heavy.value_reduced = 1.0;
  const LevelOrder pick_reduced = recommend_order(reduced_heavy).value();
  const bool vms_wins_reduced =
      vms_reduced.value().times.io < vsm_reduced.value().times.io;
  EXPECT_EQ(pick_reduced == LevelOrder::kVMS, vms_wins_reduced);

  WorkloadProfile full_heavy;
  full_heavy.value_full_precision = 1.0;
  const LevelOrder pick_full = recommend_order(full_heavy).value();
  const bool vms_wins_full =
      vms_full.value().times.io < vsm_full.value().times.io;
  EXPECT_EQ(pick_full == LevelOrder::kVMS, vms_wins_full);
}

TEST(OrderAdvisor, DecisionIsScaleInvariant) {
  // Fractions need not sum to 1: query *counts* work just as well.
  WorkloadProfile normalized;
  normalized.value_reduced = 0.8;
  normalized.value_full_precision = 0.1;
  normalized.region_queries = 0.1;
  normalized.reduced_level = 2;
  WorkloadProfile counts = normalized;
  counts.value_reduced *= 1000;
  counts.value_full_precision *= 1000;
  counts.region_queries *= 1000;
  EXPECT_EQ(recommend_order(normalized).value(), recommend_order(counts).value());
}

TEST(OrderAdvisor, AllZeroProfileDefaultsToVms) {
  EXPECT_EQ(recommend_order(WorkloadProfile{}).value(), LevelOrder::kVMS);
}

TEST(OrderAdvisor, FragmentsPerBinClampedToAtLeastOne) {
  // With <= 1 fragment per bin, V-S-M's reduced-precision read is a single
  // run: it must win over V-M-S's per-group runs, even when the caller
  // passes a degenerate (fractional or zero) average.
  WorkloadProfile reduced_heavy;
  reduced_heavy.value_reduced = 1.0;
  reduced_heavy.reduced_level = 2;
  for (double frags : {1.0, 0.2, 0.0}) {
    EXPECT_EQ(recommend_order(reduced_heavy, frags).value(),
              LevelOrder::kVSM)
        << frags;
  }
  // Sanity: with many fragments per bin the same workload flips to V-M-S.
  EXPECT_EQ(recommend_order(reduced_heavy, 16.0).value(), LevelOrder::kVMS);
}

TEST(OrderAdvisor, NonFiniteAndNegativeWeightsAreRejected) {
  // A NaN/inf/negative weight means the caller's workload accounting is
  // broken; the advisor surfaces that instead of clamping it away.
  WorkloadProfile w;
  w.value_full_precision = 0.9;
  w.value_reduced = -5.0;
  EXPECT_FALSE(recommend_order(w).is_ok());
  w.value_reduced = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(recommend_order(w).is_ok());
  w.value_reduced = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(recommend_order(w).is_ok());
  w.value_reduced = 0.1;
  EXPECT_TRUE(recommend_order(w).is_ok());
  EXPECT_FALSE(recommend_order(w, -3.0).is_ok());
  EXPECT_FALSE(
      recommend_order(w, std::numeric_limits<double>::infinity()).is_ok());
}

}  // namespace
}  // namespace mloc::tune
