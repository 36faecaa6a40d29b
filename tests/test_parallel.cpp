// Tests for src/parallel: rank execution and query charging, even
// splitting, thread pool correctness under load and without workers.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/runtime.hpp"

namespace mloc::parallel {
namespace {

TEST(RunQueryRanks, RunsEveryRankOnceInOrder) {
  std::vector<int> visited;
  QueryResult result;
  const Status st = run_query_ranks(
      pfs::PfsConfig{}, 5,
      [&](RankContext& ctx) {
        visited.push_back(ctx.rank);
        EXPECT_EQ(ctx.num_ranks, 5);
        return Status::ok();
      },
      &result);
  EXPECT_TRUE(st.is_ok());
  EXPECT_EQ(visited, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(RunQueryRanks, FirstErrorStopsLaterRanksAndIsReturned) {
  std::vector<int> visited;
  QueryResult result;
  const Status st = run_query_ranks(
      pfs::PfsConfig{}, 5,
      [&](RankContext& ctx) {
        visited.push_back(ctx.rank);
        if (ctx.rank == 2) return corrupt_data("rank 2 failed");
        if (ctx.rank == 3) return internal_error("rank 3 must not run");
        return Status::ok();
      },
      &result);
  EXPECT_EQ(st.code(), ErrorCode::kCorruptData);
  EXPECT_EQ(st.message(), "rank 2 failed");
  EXPECT_EQ(visited, (std::vector<int>{0, 1, 2}));
}

TEST(RunQueryRanks, ChargesTheMergedLogThroughThePfsModel) {
  // Rank r reads two extents of its own file (adjacent on rank 0, so they
  // coalesce into one seek there) plus a shared file.
  const auto reads = [](int rank, pfs::IoLog* log) {
    const auto r = static_cast<std::uint32_t>(rank);
    log->add(r, 0, 4096, r);
    log->add(r, rank == 0 ? 4096 : 65536, 1000 + r, r);
    log->add(7, 1u << 20, 333, r);
  };
  pfs::PfsConfig cfg;
  cfg.num_osts = 3;
  cfg.stripe_size = 8192;
  QueryResult result;
  ASSERT_TRUE(run_query_ranks(
                  cfg, 3,
                  [&](RankContext& ctx) {
                    reads(ctx.rank, &ctx.io_log);
                    return Status::ok();
                  },
                  &result)
                  .is_ok());

  pfs::IoLog expect;
  for (int r = 0; r < 3; ++r) reads(r, &expect);
  EXPECT_EQ(result.exec.bytes_read, expect.total_bytes());
  EXPECT_EQ(result.exec.bytes_read, expect.total_bytes());
  EXPECT_EQ(result.exec.modeled_seeks, pfs::coalesced_extent_count(expect));
  EXPECT_EQ(result.exec.modeled_seeks, 8u);
  EXPECT_EQ(result.times.io, pfs::model_makespan(cfg, expect, 3));
  EXPECT_GT(result.times.io, 0.0);
}

TEST(RunQueryRanks, CpuPhasesArePerPhaseMaxima) {
  QueryResult result;
  ASSERT_TRUE(run_query_ranks(
                  pfs::PfsConfig{}, 3,
                  [&](RankContext& ctx) {
                    ctx.times.decompress = 1.0 + ctx.rank;   // max at rank 2
                    ctx.times.reconstruct = 3.0 - ctx.rank;  // max at rank 0
                    return Status::ok();
                  },
                  &result)
                  .is_ok());
  EXPECT_DOUBLE_EQ(result.times.decompress, 3.0);
  EXPECT_DOUBLE_EQ(result.times.reconstruct, 3.0);
  EXPECT_EQ(result.times.io, 0.0);  // no reads logged
}

TEST(SplitEven, CoversWithoutOverlap) {
  for (std::size_t n : {0ull, 1ull, 7ull, 100ull, 101ull}) {
    for (int parts : {1, 2, 3, 8, 17}) {
      auto chunks = split_even(n, parts);
      ASSERT_EQ(chunks.size(), static_cast<std::size_t>(parts));
      std::size_t expect_begin = 0;
      for (auto [b, e] : chunks) {
        EXPECT_EQ(b, expect_begin);
        EXPECT_LE(b, e);
        expect_begin = e;
      }
      EXPECT_EQ(expect_begin, n);
      // Balance: sizes differ by at most 1.
      std::size_t mn = n, mx = 0;
      for (auto [b, e] : chunks) {
        mn = std::min(mn, e - b);
        mx = std::max(mx, e - b);
      }
      if (n > 0) {
      EXPECT_LE(mx - mn, 1u);
    }
    }
  }
}

// Every pool case also runs with zero workers, where each task runs inline
// on the submitting thread before submit returns.
class ThreadPoolWorkers : public ::testing::TestWithParam<int> {};

TEST_P(ThreadPoolWorkers, RunsAllTasks) {
  ThreadPool pool(GetParam());
  std::atomic<int> counter{0};
  std::vector<TaskHandle> handles;
  handles.reserve(1000);
  for (int i = 0; i < 1000; ++i) {
    handles.push_back(pool.submit_waitable(
        [&] { counter.fetch_add(1, std::memory_order_relaxed); }));
  }
  for (auto& h : handles) h.wait();
  EXPECT_EQ(counter.load(), 1000);
}

TEST_P(ThreadPoolWorkers, DestructorRunsEveryQueuedTask) {
  std::atomic<int> counter{0};
  {
    ThreadPool idle(GetParam());  // nothing submitted: must not deadlock
    ThreadPool pool(GetParam());
    for (int i = 0; i < 200; ++i) {
      pool.submit([&] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
  }
  EXPECT_EQ(counter.load(), 200);
}

TEST_P(ThreadPoolWorkers, TasksCanAccumulateResults) {
  ThreadPool pool(GetParam());
  std::vector<std::uint64_t> partial(16, 0);
  std::vector<TaskHandle> handles;
  for (int t = 0; t < 16; ++t) {
    handles.push_back(pool.submit_waitable([&partial, t] {
      std::uint64_t sum = 0;
      for (int i = 0; i <= 1000; ++i) sum += static_cast<std::uint64_t>(i);
      partial[t] = sum;
    }));
  }
  for (auto& h : handles) h.wait();
  for (auto v : partial) EXPECT_EQ(v, 500500u);
}

TEST_P(ThreadPoolWorkers, TasksRunOnWorkersOrInlineWithoutThem) {
  const int workers = GetParam();
  ThreadPool pool(workers);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> ran{0};
  std::vector<TaskHandle> handles;
  for (int i = 0; i < 8; ++i) {
    handles.push_back(pool.submit_waitable([&] {
      EXPECT_EQ(std::this_thread::get_id() == caller, workers == 0);
      ran.fetch_add(1);
    }));
    // Without workers the task has already run when submit returns.
    if (workers == 0) {
      EXPECT_EQ(ran.load(), i + 1);
    }
  }
  for (auto& h : handles) h.wait();
  EXPECT_EQ(ran.load(), 8);
}

TEST_P(ThreadPoolWorkers, SubmitWaitableCompletesBeforeWaitReturns) {
  ThreadPool pool(GetParam());
  std::atomic<int> done{0};
  std::vector<TaskHandle> handles;
  handles.reserve(32);
  for (int i = 0; i < 32; ++i) {
    handles.push_back(pool.submit_waitable(
        [&done] { done.fetch_add(1, std::memory_order_relaxed); }));
  }
  for (auto& h : handles) {
    EXPECT_TRUE(h.valid());
    h.wait();
    EXPECT_FALSE(h.valid());
  }
  EXPECT_EQ(done.load(), 32);
}

TEST_P(ThreadPoolWorkers, SubmitWaitablePropagatesExceptions) {
  ThreadPool pool(GetParam());
  TaskHandle ok = pool.submit_waitable([] {});
  // Without workers the throw happens inside submit_waitable: it must be
  // captured for wait(), not escape to the submitter.
  TaskHandle bad = pool.submit_waitable(
      [] { throw std::runtime_error("task failed"); });
  ok.wait();  // unaffected sibling completes normally
  EXPECT_THROW(bad.wait(), std::runtime_error);
}

TEST_P(ThreadPoolWorkers, TaskIsReleasedOnceRunNotAtWait) {
  auto token = std::make_shared<int>(7);
  const std::weak_ptr<int> watch = token;
  TaskHandle handle;
  {
    ThreadPool pool(GetParam());
    handle = pool.submit_waitable(
        [token = std::move(token)] { EXPECT_EQ(*token, 7); });
  }  // destroying the pool runs the task and joins the workers
  // The handle holds the outcome only, so what the task captured is gone.
  EXPECT_TRUE(watch.expired());
  handle.wait();
}

TEST_P(ThreadPoolWorkers, ReusableAcrossBatches) {
  ThreadPool pool(GetParam());
  std::atomic<int> counter{0};
  for (int batch = 0; batch < 5; ++batch) {
    std::vector<TaskHandle> handles;
    for (int i = 0; i < 50; ++i) {
      handles.push_back(pool.submit_waitable([&] { counter.fetch_add(1); }));
    }
    for (auto& h : handles) h.wait();
    EXPECT_EQ(counter.load(), (batch + 1) * 50);
  }
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, ThreadPoolWorkers,
                         ::testing::Values(0, 1, 2, 3, 4));

TEST(ThreadPool, DefaultTaskHandleIsInvalid) {
  TaskHandle h;
  EXPECT_FALSE(h.valid());
}

}  // namespace
}  // namespace mloc::parallel
