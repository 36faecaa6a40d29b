// Staged query engine tests: IoScheduler coalescing rules (unit level),
// coalesced-vs-naive bit-identical results across every layout config,
// extent/seek reduction on a Table-VI-style query mix, planner exact-match
// against execution on cold caches, header-cache reuse on reopened stores,
// fsck cleanliness after engine queries, a threads x shared-cache
// stress for TSan, the gather (bitmap placement and radix sort) against the
// pair-sort reference, region-only answers taken as a grid bitmap, and the
// emit pass and its multiply-shift divider against the row-walk reference
// and hardware division.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/store.hpp"
#include "datagen/datagen.hpp"
#include "exec/decode_pipeline.hpp"
#include "exec/engine.hpp"
#include "exec/gather.hpp"
#include "exec/io_scheduler.hpp"
#include "tune/tuner.hpp"
#include "service/fragment_cache.hpp"
#include "tools/fsck.hpp"
#include "util/divider.hpp"
#include "util/rng.hpp"

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

Result<MlocStore> build_store(pfs::PfsStorage& fs, const std::string& codec,
                              LevelOrder order) {
  Grid grid = datagen::gts_like(64, 42);
  auto store = MlocStore::create(
      &fs, "s", small_config(grid.shape(), NDShape{16, 16}, codec, order));
  if (!store.is_ok()) return store;
  MLOC_RETURN_IF_ERROR(store.value().write_variable("phi", grid));
  return store;
}

/// Table-VI-style mix: value retrieval over a spatial subset (so fragment
/// runs have gaps), plus a VC + full-domain retrieval, at two PLoD levels.
std::vector<Query> query_mix(bool plod) {
  std::vector<Query> mix;
  {
    Query q;
    q.sc = Region(2, {8, 8}, {56, 40});
    mix.push_back(q);
  }
  {
    Query q;
    q.sc = Region(2, {0, 16}, {64, 48});
    if (plod) q.plod_level = 2;
    mix.push_back(q);
  }
  {
    Query q;
    q.vc = ValueConstraint{-0.5, 0.75};
    mix.push_back(q);
  }
  return mix;
}

// ------------------------------------------------------ IoScheduler unit

TEST(IoScheduler, AdjacentAndOverlappingSegmentsAlwaysMerge) {
  // Touching or overlapping extents merge regardless of merge class.
  const std::vector<exec::PlannedSegment> segs = {
      {1, 0, 100, 7}, {1, 100, 50, 9}, {1, 120, 100, 3}};
  std::vector<exec::SlotRef> slots;
  const auto merged = exec::coalesce_segments(segs, 0, &slots);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].offset, 0u);
  EXPECT_EQ(merged[0].len, 220u);
  for (std::size_t i = 0; i < segs.size(); ++i) {
    EXPECT_EQ(slots[i].extent, 0);
    EXPECT_EQ(slots[i].delta, segs[i].offset);
  }
}

TEST(IoScheduler, SameClassGapBridgesWithinLimitOnly) {
  const std::vector<exec::PlannedSegment> same = {{1, 0, 10, 2},
                                                  {1, 40, 10, 2}};
  EXPECT_EQ(exec::coalesce_segments(same, 64, nullptr).size(), 1u);
  EXPECT_EQ(exec::coalesce_segments(same, 16, nullptr).size(), 2u);

  // Same gap, different classes: never bridged.
  const std::vector<exec::PlannedSegment> cross = {{1, 0, 10, 2},
                                                   {1, 40, 10, 3}};
  EXPECT_EQ(exec::coalesce_segments(cross, 64, nullptr).size(), 2u);
}

TEST(IoScheduler, DifferentFilesNeverMerge) {
  const std::vector<exec::PlannedSegment> segs = {{1, 0, 10, 2},
                                                  {2, 10, 10, 2}};
  EXPECT_EQ(exec::coalesce_segments(segs, 1 << 20, nullptr).size(), 2u);
}

TEST(IoScheduler, SlotsAddressOriginalBytesAfterBridging) {
  const std::vector<exec::PlannedSegment> segs = {
      {1, 100, 10, 2}, {1, 0, 10, 2}, {1, 30, 10, 2}};
  std::vector<exec::SlotRef> slots;
  const auto merged = exec::coalesce_segments(segs, 64, &slots);
  ASSERT_EQ(merged.size(), 1u);  // sorted then bridged: [0, 110)
  EXPECT_EQ(merged[0].offset, 0u);
  EXPECT_EQ(merged[0].len, 110u);
  EXPECT_EQ(slots[0].delta, 100u);
  EXPECT_EQ(slots[1].delta, 0u);
  EXPECT_EQ(slots[2].delta, 30u);
}

TEST(IoScheduler, ZeroLengthSegmentsGetNoExtent) {
  const std::vector<exec::PlannedSegment> segs = {{1, 0, 0, 2}, {1, 5, 10, 2}};
  std::vector<exec::SlotRef> slots;
  const auto merged = exec::coalesce_segments(segs, 0, &slots);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(slots[0].extent, -1);
  EXPECT_EQ(slots[1].extent, 0);

  const auto naive = exec::naive_schedule(segs, &slots);
  ASSERT_EQ(naive.size(), 1u);
  EXPECT_EQ(slots[0].extent, -1);
}

TEST(IoScheduler, NaiveScheduleIsOneExtentPerSegment) {
  const std::vector<exec::PlannedSegment> segs = {
      {1, 0, 10, 2}, {1, 10, 10, 2}, {1, 20, 10, 2}};
  std::vector<exec::SlotRef> slots;
  const auto naive = exec::naive_schedule(segs, &slots);
  ASSERT_EQ(naive.size(), 3u);
  for (std::size_t i = 0; i < segs.size(); ++i) {
    EXPECT_EQ(slots[i].extent, static_cast<int>(i));
    EXPECT_EQ(slots[i].delta, 0u);
  }
}

// ------------------------------------------- engine end-to-end invariants

class EngineConfigs
    : public ::testing::TestWithParam<std::tuple<std::string, LevelOrder>> {};

TEST_P(EngineConfigs, CoalescedAndNaiveAreBitIdentical) {
  const auto& [codec, order] = GetParam();
  pfs::PfsStorage fs;
  auto store = build_store(fs, codec, order);
  ASSERT_TRUE(store.is_ok()) << store.status().to_string();

  exec::ExecOptions coalesced;
  exec::ExecOptions naive;
  naive.naive_io = true;

  const bool plod = store.value().describe("phi").value().plod_capable;
  for (const Query& q : query_mix(plod)) {
    for (int ranks : {1, 3}) {
      auto a = store.value().execute("phi", q, ranks, coalesced);
      auto b = store.value().execute("phi", q, ranks, naive);
      ASSERT_TRUE(a.is_ok()) << a.status().to_string();
      ASSERT_TRUE(b.is_ok()) << b.status().to_string();
      EXPECT_EQ(a.value().positions, b.value().positions);
      EXPECT_EQ(a.value().values, b.value().values);
      // Same plan, different scheduling: identical logical counters.
      EXPECT_EQ(a.value().fragments_read, b.value().fragments_read);
      EXPECT_EQ(a.value().fragments_skipped, b.value().fragments_skipped);
      EXPECT_EQ(a.value().exec.extents_naive, b.value().exec.extents_naive);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllLayouts, EngineConfigs,
    ::testing::Values(
        std::make_tuple("mzip", LevelOrder::kVMS),
        std::make_tuple("mzip", LevelOrder::kVSM),
        std::make_tuple("raw", LevelOrder::kVMS),
        std::make_tuple("isobar", LevelOrder::kVMS),
        std::make_tuple("isabela:0.01", LevelOrder::kVMS)));

TEST(Engine, CoalescingReducesExtentsAndModeledSeeks) {
  pfs::PfsStorage fs;
  auto store = build_store(fs, "mzip", LevelOrder::kVMS);
  ASSERT_TRUE(store.is_ok());

  // Sanity: the fixture really has >= 4 fragments per touched bin on
  // average (the acceptance bar for this comparison).
  Query probe;
  auto probed = store.value().execute("phi", probe);
  ASSERT_TRUE(probed.is_ok());
  ASSERT_GE(probed.value().fragments_read,
            4 * probed.value().bins_touched);

  exec::ExecOptions naive;
  naive.naive_io = true;
  for (const Query& q : query_mix(/*plod=*/true)) {
    for (int ranks : {1, 3}) {
      auto n = store.value().execute("phi", q, ranks, naive);
      auto c = store.value().execute("phi", q, ranks, exec::ExecOptions{});
      ASSERT_TRUE(n.is_ok() && c.is_ok());
      // Strictly fewer IoLog extents and strictly fewer modeled seeks.
      EXPECT_LT(c.value().exec.extents_coalesced,
                c.value().exec.extents_naive);
      EXPECT_LT(c.value().exec.modeled_seeks, n.value().exec.modeled_seeks);
      EXPECT_LE(c.value().times.io, n.value().times.io);
    }
  }
}

TEST(Engine, PlannerEstimateMatchesColdExecutionExactly) {
  pfs::PfsStorage fs;
  {
    auto created = build_store(fs, "mzip", LevelOrder::kVMS);
    ASSERT_TRUE(created.is_ok());
  }
  for (const Query& q : query_mix(/*plod=*/true)) {
    // Reopen per query: cold header cache, so the estimate must predict
    // the header reads too.
    auto store = MlocStore::open(&fs, "s");
    ASSERT_TRUE(store.is_ok());
    auto est = store.value().plan("phi", q, 1);
    ASSERT_TRUE(est.is_ok());
    auto io_s = tune::estimate_io_seconds(store.value(), "phi", q, 1);
    ASSERT_TRUE(io_s.is_ok());
    auto run = store.value().execute("phi", q, 1);
    ASSERT_TRUE(run.is_ok());
    EXPECT_EQ(est.value().bins_touched, run.value().bins_touched);
    EXPECT_EQ(est.value().aligned_bins, run.value().aligned_bins);
    EXPECT_EQ(est.value().fragments_to_fetch, run.value().fragments_read);
    EXPECT_EQ(est.value().stats.bytes_read, run.value().exec.bytes_read);
    EXPECT_EQ(est.value().stats.modeled_seeks,
              run.value().exec.modeled_seeks);
    EXPECT_DOUBLE_EQ(io_s.value(), run.value().times.io);
  }
}

TEST(Engine, HeaderCacheEliminatesRereadsAfterFirstQuery) {
  pfs::PfsStorage fs;
  {
    auto created = build_store(fs, "mzip", LevelOrder::kVMS);
    ASSERT_TRUE(created.is_ok());
  }
  auto store = MlocStore::open(&fs, "s");
  ASSERT_TRUE(store.is_ok());
  Query q;
  q.sc = Region(2, {8, 8}, {56, 40});
  auto cold = store.value().execute("phi", q);
  auto warm = store.value().execute("phi", q);
  ASSERT_TRUE(cold.is_ok() && warm.is_ok());
  // No FragmentProvider attached: only the header reads can disappear.
  EXPECT_LT(warm.value().exec.bytes_read, cold.value().exec.bytes_read);
  EXPECT_EQ(warm.value().positions, cold.value().positions);

  // A freshly created store is header-warm from the start: both runs read
  // the same bytes.
  pfs::PfsStorage fs2;
  auto created = build_store(fs2, "mzip", LevelOrder::kVMS);
  ASSERT_TRUE(created.is_ok());
  auto first = created.value().execute("phi", q);
  auto second = created.value().execute("phi", q);
  ASSERT_TRUE(first.is_ok() && second.is_ok());
  EXPECT_EQ(first.value().exec.bytes_read, second.value().exec.bytes_read);
}

TEST(Engine, CacheStatsSplitPlannedReadAndSavedBytes) {
  pfs::PfsStorage fs;
  auto store = build_store(fs, "mzip", LevelOrder::kVMS);
  ASSERT_TRUE(store.is_ok());
  service::FragmentCache cache;
  store.value().set_fragment_provider(&cache);

  Query q;
  q.sc = Region(2, {8, 8}, {56, 40});
  auto cold = store.value().execute("phi", q);
  auto warm = store.value().execute("phi", q);
  ASSERT_TRUE(cold.is_ok() && warm.is_ok());

  EXPECT_EQ(cold.value().exec.bytes_from_cache, 0u);
  EXPECT_GT(cold.value().exec.bytes_planned, 0u);
  EXPECT_GT(warm.value().exec.bytes_from_cache, 0u);
  EXPECT_LT(warm.value().exec.bytes_read, cold.value().exec.bytes_read);
  EXPECT_EQ(warm.value().positions, cold.value().positions);
  EXPECT_EQ(warm.value().values, cold.value().values);
  store.value().set_fragment_provider(nullptr);
}

TEST(Engine, FsckPassesOnStoreQueriedThroughEngine) {
  pfs::PfsStorage fs;
  auto store = build_store(fs, "mzip", LevelOrder::kVMS);
  ASSERT_TRUE(store.is_ok());
  for (const Query& q : query_mix(/*plod=*/true)) {
    ASSERT_TRUE(store.value().execute("phi", q, 3).is_ok());
  }
  fsck::LayoutVerifier verifier(&fs);
  const fsck::Report report = verifier.verify_store("s");
  EXPECT_TRUE(report.ok()) << report.human();
}

TEST(Engine, MixedLayoutVariablesThroughOneEngineAndCache) {
  // Two variables of one store under different layouts (order, curve,
  // bins, chunking), served through the staged engine with a shared
  // FragmentCache: every (query, ranks, schedule) combination must be
  // bit-identical to a single-layout reference store of the same data.
  Grid grid_a = datagen::gts_like(64, 42);
  Grid grid_b = datagen::gts_like(64, 43);

  VariableLayout la;  // kVMS / hilbert / 16 bins / 16x16 (fixture default)
  la.chunk_shape = NDShape{16, 16};
  la.num_bins = 16;
  la.sample_stride = 7;
  VariableLayout lb = la;
  lb.chunk_shape = NDShape{8, 8};
  lb.num_bins = 9;
  lb.order = LevelOrder::kVSM;
  lb.curve = sfc::CurveKind::kGeneralizedMorton;
  lb.interleave = "yyyxxx";

  pfs::PfsStorage fs;
  MlocConfig cfg = small_config(grid_a.shape(), la.chunk_shape, "mzip");
  auto mixed = MlocStore::create(&fs, "mixed", cfg);
  ASSERT_TRUE(mixed.is_ok());
  ASSERT_TRUE(mixed.value().write_variable("a", grid_a, la).is_ok());
  ASSERT_TRUE(mixed.value().write_variable("b", grid_b, lb).is_ok());
  service::FragmentCache cache;
  mixed.value().set_fragment_provider(&cache);

  pfs::PfsStorage ref_fs;
  auto ref_a = MlocStore::create(&ref_fs, "ra", cfg);
  MlocConfig cfg_b = cfg;
  cfg_b.layout = lb;
  auto ref_b = MlocStore::create(&ref_fs, "rb", cfg_b);
  ASSERT_TRUE(ref_a.is_ok() && ref_b.is_ok());
  ASSERT_TRUE(ref_a.value().write_variable("a", grid_a).is_ok());
  ASSERT_TRUE(ref_b.value().write_variable("b", grid_b).is_ok());

  exec::ExecOptions naive;
  naive.naive_io = true;
  for (const Query& q : query_mix(/*plod=*/true)) {
    for (int ranks : {1, 3}) {
      for (const exec::ExecOptions& opts : {exec::ExecOptions{}, naive}) {
        auto ma = mixed.value().execute("a", q, ranks, opts);
        auto mb = mixed.value().execute("b", q, ranks, opts);
        auto ea = ref_a.value().execute("a", q, ranks, opts);
        auto eb = ref_b.value().execute("b", q, ranks, opts);
        ASSERT_TRUE(ma.is_ok() && mb.is_ok() && ea.is_ok() && eb.is_ok());
        EXPECT_EQ(ma.value().positions, ea.value().positions);
        EXPECT_EQ(ma.value().values, ea.value().values);
        EXPECT_EQ(mb.value().positions, eb.value().positions);
        EXPECT_EQ(mb.value().values, eb.value().values);
      }
    }
  }
  mixed.value().set_fragment_provider(nullptr);

  fsck::Report report = fsck::LayoutVerifier(&fs).verify_store("mixed");
  EXPECT_TRUE(report.ok()) << report.human();
}

TEST(Engine, ConcurrentQueriesWithSharedCache) {
  pfs::PfsStorage fs;
  auto store = build_store(fs, "mzip", LevelOrder::kVMS);
  ASSERT_TRUE(store.is_ok());

  Query q;
  q.vc = ValueConstraint{-0.5, 0.75};

  // The shared cache is sized at half of what one query decodes: it can
  // never hold a whole query, so every query reads and decodes bytes, and
  // the threads' inserts race each other's lookups and evictions.
  service::FragmentCache probe;
  store.value().set_fragment_provider(&probe);
  auto expected = store.value().execute("phi", q, 1);
  store.value().set_fragment_provider(nullptr);
  ASSERT_TRUE(expected.is_ok());
  const std::uint64_t query_bytes = probe.stats().bytes_cached;
  ASSERT_GT(query_bytes, 0u);
  service::FragmentCache cache(
      service::FragmentCache::Config{query_bytes / 2, 8});
  store.value().set_fragment_provider(&cache);

  constexpr int kThreads = 4;
  constexpr int kIters = 3;
  std::vector<std::thread> threads;
  std::vector<Status> statuses(kThreads, Status::ok());
  std::vector<std::vector<std::vector<std::uint64_t>>> positions(kThreads);
  std::vector<std::vector<std::uint64_t>> bytes_read(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int iter = 0; iter < kIters; ++iter) {
        auto r = store.value().execute("phi", q, 2);
        if (!r.is_ok()) {
          statuses[t] = r.status();
          return;
        }
        bytes_read[t].push_back(r.value().exec.bytes_read);
        positions[t].push_back(std::move(r.value().positions));
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(statuses[t].is_ok()) << statuses[t].to_string();
    ASSERT_EQ(positions[t].size(), static_cast<std::size_t>(kIters));
    for (int iter = 0; iter < kIters; ++iter) {
      EXPECT_GT(bytes_read[t][iter], 0u) << "thread " << t << " iter " << iter;
      EXPECT_EQ(positions[t][iter], expected.value().positions);
    }
  }
  store.value().set_fragment_provider(nullptr);
}

// ---------------------------------------------------------------- gather

void shuffle(std::vector<std::uint64_t>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.next_below(i)]);
  }
}

/// `n` distinct positions below `volume`, in random order.
std::vector<std::uint64_t> distinct_positions(std::uint64_t volume,
                                              std::size_t n, Rng& rng) {
  std::vector<std::uint64_t> out;
  if (volume <= 4 * static_cast<std::uint64_t>(n)) {
    out.resize(volume);
    std::iota(out.begin(), out.end(), std::uint64_t{0});
    shuffle(out, rng);
    out.resize(n);
  } else {
    std::unordered_set<std::uint64_t> seen;
    while (out.size() < n) {
      const std::uint64_t p = rng.next_below(volume);
      if (seen.insert(p).second) out.push_back(p);
    }
  }
  return out;
}

/// Replace `out`'s contents with `pos` and `vals`.
void fill_arrivals(exec::ArrivalBuffer& out,
                   const std::vector<std::uint64_t>& pos,
                   const std::vector<double>& vals) {
  out.clear();
  std::copy(pos.begin(), pos.end(), out.positions.grow_tail(pos.size()));
  out.positions.commit(pos.size());
  std::copy(vals.begin(), vals.end(), out.values.grow_tail(vals.size()));
  out.values.commit(vals.size());
}

// The whole gather against the pair-sort reference, through one arrival
// buffer, one scratch and one pair of output vectors reused across calls
// that shrink and grow. Volumes straddle the 11-bit digit (one and two
// radix passes), leave a top digit that is constant for nearly every input
// (2^22 + 1), and need more than 32 key bits (2^33 + 5). For 2^11 + 1 and
// 2^22 + 1 the sizes ceil(volume/64) - 1 and ceil(volume/64) sit on either
// side of the dense rule (n * 64 >= volume), so the radix sort and the
// bitmap placement both run at the boundary; 100000 points over 2^11 + 1
// and 2^22 + 1 are dense, and over 2^33 + 5 sparse. Sorted inputs take the
// copy.
TEST(Gather, RadixMatchesPairSortReference) {
  Rng rng(2024);
  exec::ArrivalBuffer arrivals;
  exec::GatherScratch scratch;
  std::vector<std::uint64_t> pos = {5, 1};
  std::vector<double> vals = {0.5};
  const std::uint64_t volumes[] = {
      1, 2, 1u << 11, (1u << 11) + 1, (1u << 22) + 1, (1ull << 33) + 5};
  for (const std::uint64_t volume : volumes) {
    std::vector<std::size_t> sizes = {0, 1, 2, 100000};
    if (volume == (1u << 11) + 1 || volume == (1u << 22) + 1) {
      const auto words = static_cast<std::size_t>((volume + 63) / 64);
      sizes.push_back(words - 1);
      sizes.push_back(words);
    }
    for (const std::size_t size : sizes) {
      const auto n = static_cast<std::size_t>(
          std::min<std::uint64_t>(size, volume));
      const std::vector<std::uint64_t> shuffled =
          distinct_positions(volume, n, rng);
      for (const std::string_view order : {"shuffled", "sorted", "reversed"}) {
        std::vector<std::uint64_t> input = shuffled;
        if (order == "sorted") std::sort(input.begin(), input.end());
        if (order == "reversed") std::sort(input.rbegin(), input.rend());
        for (const bool with_values : {false, true}) {
          std::vector<double> values;
          if (with_values) {
            for (std::size_t k = 0; k < n; ++k) {
              values.push_back(rng.next_double(-1e6, 1e6));
            }
          }
          std::vector<std::uint64_t> ref_pos = input;
          std::vector<double> ref_vals = values;
          exec::detail::scalar::sort_by_position(ref_pos, ref_vals);
          fill_arrivals(arrivals, input, values);
          exec::gather(arrivals, volume, scratch, pos, vals);
          ASSERT_EQ(pos, ref_pos) << "volume " << volume << " n " << n << " "
                                  << order << " values " << with_values;
          ASSERT_EQ(vals, ref_vals) << "volume " << volume << " n " << n
                                    << " " << order;
        }
      }
    }
  }
}

// ------------------------------------------------ region-only grid bitmap

// execute_query with region_bits sets exactly the positions the same query
// returns without it: .hbx on (node bitmaps OR into the grid bitmap, or go
// bit by bit under an SC or a filter) and off, at 1 and 3 ranks, with no
// provider, on a FragmentCache fill, and on a cache hit. Both also equal
// the flat path's answer (.hbx off, one rank, no provider), which decodes
// no node bitmap.
TEST(Engine, RegionBitsMatchPositions) {
  const Grid grid = datagen::gts_like(64, 42);
  MlocConfig cfg = small_config(grid.shape(), NDShape{16, 16}, "mzip");
  cfg.layout.index_fanout = 4;
  pfs::PfsStorage fs;
  auto store = MlocStore::create(&fs, "s", cfg);
  ASSERT_TRUE(store.is_ok()) << store.status().to_string();
  ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());
  MlocStore& st = store.value();
  const VariableState& var = *st.variable("phi").value();
  ASSERT_TRUE(var.hbx.has_value());
  const std::uint64_t volume = grid.shape().volume();

  Bitmap filter(volume);
  Rng rng(99);
  for (std::uint64_t p = 0; p < volume; ++p) {
    if (rng.next_double() < 0.4) filter.set(p);
  }
  Query q;
  q.vc = datagen::random_vc(grid, 0.5, rng);
  q.values_needed = false;
  Query with_sc = q;
  with_sc.sc = Region(2, {8, 4}, {40, 60});

  struct Shape {
    const char* what;
    const Query* query;
    const Bitmap* filter;
  };
  const Shape shapes[] = {{"no SC", &q, nullptr},
                          {"SC", &with_sc, nullptr},
                          {"position filter", &q, &filter}};
  exec::ExecOptions flat;
  flat.use_hbx = false;
  std::vector<std::vector<std::uint64_t>> flat_answers;
  for (const Shape& shape : shapes) {
    auto r =
        exec::execute_query(st, var, *shape.query, 1, shape.filter, flat);
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    flat_answers.push_back(std::move(r.value().positions));
  }
  bool hbx_engaged = false;
  for (const bool use_hbx : {true, false}) {
    exec::ExecOptions opts;
    opts.use_hbx = use_hbx;
    for (std::size_t si = 0; si < std::size(shapes); ++si) {
      const Shape& shape = shapes[si];
      for (const int ranks : {1, 3}) {
        service::FragmentCache cache;
        for (const char* provider : {"none", "fill", "hit"}) {
          SCOPED_TRACE(std::string(shape.what) + ", hbx " +
                       (use_hbx ? "on" : "off") + ", ranks " +
                       std::to_string(ranks) + ", provider " + provider);
          st.set_fragment_provider(
              std::string_view(provider) == "none" ? nullptr : &cache);
          Bitmap bits;
          auto as_bits = exec::execute_query(st, var, *shape.query, ranks,
                                             shape.filter, opts, &bits);
          ASSERT_TRUE(as_bits.is_ok()) << as_bits.status().to_string();
          auto as_positions = exec::execute_query(st, var, *shape.query,
                                                  ranks, shape.filter, opts);
          ASSERT_TRUE(as_positions.is_ok())
              << as_positions.status().to_string();
          ASSERT_EQ(bits.size(), volume);
          std::vector<std::uint64_t> set;
          bits.for_each_set([&](std::uint64_t p) { set.push_back(p); });
          EXPECT_FALSE(set.empty());
          EXPECT_EQ(set, as_positions.value().positions);
          EXPECT_EQ(set, flat_answers[si]);
          EXPECT_TRUE(as_bits.value().positions.empty());
          if (std::string_view(provider) == "fill") {
            EXPECT_GT(as_bits.value().cache.misses, 0u);
          }
          if (std::string_view(provider) == "hit") {
            EXPECT_GT(as_bits.value().cache.hits, 0u);
          }
          hbx_engaged = hbx_engaged || as_bits.value().aligned_bins > 0;
        }
        st.set_fragment_provider(nullptr);  // `cache` goes out of scope
      }
    }
  }
  EXPECT_TRUE(hbx_engaged);
}

// ------------------------------------------------------------ emit pass

// Multiply-shift division against `/` and `%` at the divisors around
// powers of two and the 32-bit edges, at the numerators around each
// divisor and the top of the range, plus random ones.
TEST(Divider, MatchesHardwareDivision) {
  const std::uint32_t divisors[] = {1,     2,     3,           7,
                                    255,   256,   257,         65535,
                                    65537, (1u << 31) + 1, 0xFFFFFFFFu};
  Rng rng(31);
  for (const std::uint32_t d : divisors) {
    const Divider div(d);
    std::vector<std::uint32_t> ns = {0, 1, d - 1, d, d + 1, 0xFFFFFFFFu};
    for (int i = 0; i < 2000; ++i) {
      ns.push_back(static_cast<std::uint32_t>(rng.next_u64()));
    }
    for (const std::uint32_t n : ns) {
      ASSERT_EQ(div.quotient(n), n / d) << n << " / " << d;
      ASSERT_EQ(div.remainder(n), n % d) << n << " % " << d;
    }
  }
}

/// One random grid, chunk and fragment of the differential test.
struct EmitCase {
  NDShape shape;
  Region chunk;
  std::vector<std::uint32_t> local;
  std::vector<double> raw;  ///< full-precision values, one a point
};

EmitCase random_emit_case(int ndims, Rng& rng) {
  // Grid edges of 1, odd values and one above a power of two; chunk edges
  // that leave partial chunks at the grid's far edges.
  const std::uint32_t grid_edges[] = {1, 5, 7, 9, 17};
  const std::uint32_t chunk_edges[] = {1, 2, 3, 4, 8};
  Coord extents{};
  Coord lo{};
  Coord hi{};
  for (int d = 0; d < ndims; ++d) {
    extents[d] = grid_edges[rng.next_below(std::size(grid_edges))];
    const std::uint32_t edge = chunk_edges[rng.next_below(std::size(chunk_edges))];
    const std::uint32_t chunks = (extents[d] + edge - 1) / edge;
    lo[d] = static_cast<std::uint32_t>(rng.next_below(chunks)) * edge;
    hi[d] = std::min(lo[d] + edge, extents[d]);
  }
  EmitCase c{NDShape(ndims, extents), Region(ndims, lo, hi), {}, {}};
  const double density = rng.next_double();
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(), 0.0,
                             -0.0};
  for (std::uint64_t off = 0; off < c.chunk.volume(); ++off) {
    if (rng.next_double() >= density) continue;
    c.local.push_back(static_cast<std::uint32_t>(off));
    c.raw.push_back(rng.next_below(8) == 0
                        ? specials[rng.next_below(std::size(specials))]
                        : rng.next_double(-100.0, 100.0));
  }
  return c;
}

/// An SC that clips each dimension of `chunk` one of five ways: to nothing
/// (an empty window inside the chunk), to one row, to the whole chunk, to
/// a random part of it, or past the chunk on both sides.
Region random_window(const NDShape& shape, const Region& chunk, Rng& rng) {
  Coord lo{};
  Coord hi{};
  for (int d = 0; d < shape.ndims(); ++d) {
    const std::uint32_t clo = chunk.lo(d);
    const std::uint32_t ext = chunk.extent(d);
    switch (rng.next_below(5)) {
      case 0:  // empty
        lo[d] = hi[d] = clo + static_cast<std::uint32_t>(rng.next_below(ext));
        break;
      case 1:  // one row
        lo[d] = clo + static_cast<std::uint32_t>(rng.next_below(ext));
        hi[d] = lo[d] + 1;
        break;
      case 2:  // the whole chunk
        lo[d] = clo;
        hi[d] = chunk.hi(d);
        break;
      case 3: {  // part of it
        const auto a = static_cast<std::uint32_t>(rng.next_below(ext + 1));
        const auto b = static_cast<std::uint32_t>(rng.next_below(ext + 1));
        lo[d] = clo + std::min(a, b);
        hi[d] = clo + std::max(a, b);
        break;
      }
      default:  // past both sides
        lo[d] = clo > 0 ? clo - 1 : 0;
        hi[d] = std::min(chunk.hi(d) + 1, shape.extent(d));
        break;
    }
  }
  return Region(shape.ndims(), lo, hi);
}

std::vector<std::uint64_t> value_bits(const std::vector<double>& v) {
  std::vector<std::uint64_t> bits(v.size());
  if (!v.empty()) std::memcpy(bits.data(), v.data(), v.size() * sizeof(double));
  return bits;
}

// The emit pass against the retained row walk (detail::scalar) over
// random fragments of 1-D to 4-D grids: random SC windows (or none), VCs
// whose bounds are stored values or infinite over values holding NaN and
// ±inf, with and without a position filter, region-only and with values,
// at every (fetch level, requested level) pair. The pass appends through
// one arrival buffer reused by every case, the reference to vectors, both
// behind the same non-empty prefix; positions and value bits must be
// identical.
TEST(EmitPass, MatchesRowWalkReference) {
  Rng rng(2027);
  exec::ArrivalBuffer arrivals;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::size_t kept_points = 0;
  std::size_t dropped_points = 0;
  for (int ndims = 1; ndims <= 4; ++ndims) {
    for (int trial = 0; trial < 150; ++trial) {
      const EmitCase c = random_emit_case(ndims, rng);
      Bitmap filter(c.shape.volume());
      for (std::uint64_t p = 0; p < c.shape.volume(); ++p) {
        if (rng.next_below(2) == 0) filter.set(p);
      }
      std::optional<Region> sc;
      if (rng.next_below(4) != 0) sc = random_window(c.shape, c.chunk, rng);
      std::optional<ValueConstraint> vc;
      const std::uint64_t vc_kind = rng.next_below(4);
      if (vc_kind != 0 && !c.raw.empty()) {
        // Bounds equal to stored values where they are finite.
        double a = c.raw[rng.next_below(c.raw.size())];
        double b = c.raw[rng.next_below(c.raw.size())];
        if (std::isnan(a) || std::isinf(a)) a = 0.0;
        if (std::isnan(b) || std::isinf(b)) b = 50.0;
        if (a > b) std::swap(a, b);
        if (a == b) b = a + 1.0;
        if (vc_kind == 1) vc = ValueConstraint{a, b};
        if (vc_kind == 2) vc = ValueConstraint{-kInf, b};
        if (vc_kind == 3) vc = ValueConstraint{a, kInf};
      }
      for (int fetch = 1; fetch <= plod::kNumGroups; ++fetch) {
        std::vector<double> vals(c.raw.size());
        plod::degrade_into(c.raw, fetch, vals);
        for (int level = 1; level <= fetch; ++level) {
          for (const bool with_filter : {false, true}) {
            for (const bool values_needed : {true, false}) {
              exec::EmitSpec spec;
              spec.shape = &c.shape;
              spec.chunk = c.chunk;
              spec.sc = sc.has_value() ? &*sc : nullptr;
              spec.vc = vc.has_value() ? &*vc : nullptr;
              spec.position_filter = with_filter ? &filter : nullptr;
              spec.values_needed = values_needed;
              spec.level = level;
              std::vector<std::uint64_t> ref_pos = {7, 3};
              std::vector<double> ref_vals;
              if (values_needed) ref_vals = {-1.0, 2.5};
              fill_arrivals(arrivals, ref_pos, ref_vals);
              exec::emit_fragment(spec, c.local, vals, arrivals);
              exec::detail::scalar::emit_fragment(spec, c.local, vals,
                                                  ref_pos, ref_vals);
              const std::span<const std::uint64_t> pos =
                  arrivals.positions.span();
              const std::span<const double> out_vals = arrivals.values.span();
              ASSERT_EQ(std::vector(pos.begin(), pos.end()), ref_pos)
                  << ndims << "-D trial " << trial << " fetch " << fetch
                  << " level " << level << " filter " << with_filter;
              ASSERT_EQ(value_bits({out_vals.begin(), out_vals.end()}),
                        value_bits(ref_vals))
                  << ndims << "-D trial " << trial << " fetch " << fetch
                  << " level " << level << " filter " << with_filter;
              kept_points += pos.size() - 2;
              dropped_points += c.local.size() - (pos.size() - 2);
            }
          }
        }
      }
    }
  }
  // Both outcomes are exercised.
  EXPECT_GT(kept_points, 1000u);
  EXPECT_GT(dropped_points, 1000u);
}

}  // namespace
}  // namespace mloc
