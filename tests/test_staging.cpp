// Tests for src/staging: asynchronous ingest correctness, backpressure,
// error propagation, finish/drain semantics, time-range queries.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "datagen/datagen.hpp"
#include "staging/staging.hpp"

namespace mloc::staging {
namespace {

MlocConfig cfg_for(const NDShape& shape) {
  MlocConfig cfg;
  cfg.shape = shape;
  cfg.layout.chunk_shape = NDShape{16, 16};
  cfg.layout.num_bins = 8;
  cfg.layout.codec = "mzip";
  return cfg;
}

TEST(Staging, AllStepsLandAndAreQueryable) {
  pfs::PfsStorage fs;
  Grid step0 = datagen::gts_like(64, 1);
  auto store = MlocStore::create(&fs, "s", cfg_for(step0.shape()));
  ASSERT_TRUE(store.is_ok());

  std::vector<Grid> steps;
  for (std::uint64_t t = 0; t < 5; ++t) {
    steps.push_back(datagen::gts_like(64, 100 + t));
  }
  {
    StagingPipeline pipeline(&store.value(), {.queue_capacity = 2});
    for (std::uint64_t t = 0; t < 5; ++t) {
      ASSERT_TRUE(pipeline.submit("phi", t, steps[t]).is_ok());
    }
    ASSERT_TRUE(pipeline.finish().is_ok());
    const auto stats = pipeline.stats();
    EXPECT_EQ(stats.steps_submitted, 5u);
    EXPECT_EQ(stats.steps_staged, 5u);
    EXPECT_EQ(stats.bytes_in, 5 * steps[0].size() * sizeof(double));
    EXPECT_GT(stats.staging_seconds, 0.0);
  }

  EXPECT_EQ(store.value().variables().size(), 5u);
  for (std::uint64_t t = 0; t < 5; ++t) {
    Query q;
    q.sc = Region(2, {0, 0}, {8, 8});
    auto res = store.value().execute(step_variable("phi", t), q);
    ASSERT_TRUE(res.is_ok()) << t;
    ASSERT_EQ(res.value().values.size(), 64u);
    EXPECT_EQ(res.value().values[0], steps[t].at({0, 0}));
  }
}

TEST(Staging, FinishIsIdempotentAndBlocksFurtherSubmits) {
  pfs::PfsStorage fs;
  Grid grid = datagen::gts_like(32, 2);
  auto cfg = cfg_for(grid.shape());
  cfg.layout.chunk_shape = NDShape{16, 16};
  auto store = MlocStore::create(&fs, "s", cfg);
  ASSERT_TRUE(store.is_ok());
  StagingPipeline pipeline(&store.value(), {});
  ASSERT_TRUE(pipeline.submit("phi", 0, grid).is_ok());
  EXPECT_TRUE(pipeline.finish().is_ok());
  EXPECT_TRUE(pipeline.finish().is_ok());
  auto status = pipeline.submit("phi", 1, grid);
  EXPECT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), ErrorCode::kFailedPrecondition);
}

TEST(Staging, DuplicateStepErrorSurfacesAtFinish) {
  pfs::PfsStorage fs;
  Grid grid = datagen::gts_like(32, 3);
  auto cfg = cfg_for(grid.shape());
  cfg.layout.chunk_shape = NDShape{16, 16};
  auto store = MlocStore::create(&fs, "s", cfg);
  ASSERT_TRUE(store.is_ok());
  StagingPipeline pipeline(&store.value(), {});
  ASSERT_TRUE(pipeline.submit("phi", 0, grid).is_ok());
  ASSERT_TRUE(pipeline.submit("phi", 0, grid).is_ok());  // same step name
  Status status = pipeline.finish();
  EXPECT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(pipeline.stats().steps_staged, 1u);
}

TEST(Staging, BlockedProducerGetsTheFirstErrorFromSubmit) {
  // Capacity 1: one step waits behind the one being written. Step 0 is
  // slow to write; the second "step 0" waits behind it and fails as soon as
  // its turn comes. The producer then keeps submitting into the full
  // backlog: it blocks, and once the duplicate has failed, submit returns
  // that error instead of waiting for space. At most one step slips in
  // between step 0 landing and the duplicate failing.
  pfs::PfsStorage fs;
  Grid grid = datagen::gts_like(256, 7);  // big enough that writes take time
  auto store = MlocStore::create(&fs, "s", cfg_for(grid.shape()));
  ASSERT_TRUE(store.is_ok());
  StagingPipeline pipeline(&store.value(), {.queue_capacity = 1});
  ASSERT_TRUE(pipeline.submit("phi", 0, grid).is_ok());
  ASSERT_TRUE(pipeline.submit("phi", 0, grid).is_ok());  // fails when written
  Status status;
  std::uint64_t accepted = 0;
  for (std::uint64_t t = 1; t <= 3; ++t) {
    status = pipeline.submit("phi", t, grid);
    if (!status.is_ok()) break;
    ++accepted;
  }
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(status.message().find("duplicate step phi@0"), std::string::npos)
      << status.to_string();
  EXPECT_LE(accepted, 1u);
  const Status finished = pipeline.finish();
  EXPECT_EQ(finished.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(finished.message(), status.message());
  EXPECT_EQ(pipeline.stats().steps_submitted, 2 + accepted);
  EXPECT_EQ(pipeline.stats().steps_staged, 1 + accepted);
}

TEST(Staging, BackpressureBoundsTheQueue) {
  // With capacity 1 and a slow consumer, producer wait time must be
  // nonzero while everything still lands.
  pfs::PfsStorage fs;
  Grid grid = datagen::gts_like(128, 4);  // big enough that writes take time
  auto cfg = cfg_for(grid.shape());
  auto store = MlocStore::create(&fs, "s", cfg);
  ASSERT_TRUE(store.is_ok());
  StagingPipeline pipeline(&store.value(), {.queue_capacity = 1});
  for (std::uint64_t t = 0; t < 4; ++t) {
    ASSERT_TRUE(pipeline.submit("phi", t, grid = datagen::gts_like(128, 50 + t))
                    .is_ok());
  }
  ASSERT_TRUE(pipeline.finish().is_ok());
  EXPECT_EQ(pipeline.stats().steps_staged, 4u);
  EXPECT_GT(pipeline.stats().producer_wait_seconds, 0.0);
}

TEST(Staging, TimeRangeQueryReturnsPerStepResults) {
  pfs::PfsStorage fs;
  Grid step0 = datagen::gts_like(64, 5);
  auto store = MlocStore::create(&fs, "s", cfg_for(step0.shape()));
  ASSERT_TRUE(store.is_ok());
  StagingPipeline pipeline(&store.value(), {});
  std::vector<Grid> steps;
  for (std::uint64_t t = 0; t < 3; ++t) {
    steps.push_back(datagen::gts_like(64, 200 + t));
    ASSERT_TRUE(pipeline.submit("phi", t, steps[t]).is_ok());
  }
  ASSERT_TRUE(pipeline.finish().is_ok());

  Query q;
  q.vc = ValueConstraint{0.0, 0.3};
  q.values_needed = false;
  auto res = query_time_range(store.value(), "phi", 0, 2, q);
  ASSERT_TRUE(res.is_ok());
  ASSERT_EQ(res.value().size(), 3u);
  for (std::uint64_t t = 0; t < 3; ++t) {
    std::uint64_t expect = 0;
    for (std::uint64_t i = 0; i < steps[t].size(); ++i) {
      if (q.vc->matches(steps[t].at_linear(i))) ++expect;
    }
    EXPECT_EQ(res.value()[t].positions.size(), expect) << "step " << t;
  }
}

TEST(Staging, TimeRangeRejectsInvertedRange) {
  pfs::PfsStorage fs;
  Grid grid = datagen::gts_like(32, 6);
  auto cfg = cfg_for(grid.shape());
  cfg.layout.chunk_shape = NDShape{16, 16};
  auto store = MlocStore::create(&fs, "s", cfg);
  ASSERT_TRUE(store.is_ok());
  EXPECT_FALSE(query_time_range(store.value(), "phi", 3, 1, Query{}).is_ok());
}

}  // namespace
}  // namespace mloc::staging
