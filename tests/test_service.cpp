// Serving-layer tests: FragmentCache hit/miss accounting and LRU eviction,
// PLoD prefix reuse through the store's FragmentProvider hook, QueryService
// sessions/admission/deadlines/cancellation/priorities, and a multi-thread
// hammer asserting served results are bit-identical to cold execution.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/store.hpp"
#include "datagen/datagen.hpp"
#include "plod/plod.hpp"
#include "service/fragment_cache.hpp"
#include "service/query_service.hpp"

namespace mloc {
namespace {

using service::FragmentCache;
using service::QueryService;
using service::Request;
using service::Response;
using service::ServiceConfig;
using service::SessionId;

MlocConfig small_config(const NDShape& shape, const NDShape& chunk,
                        const std::string& codec = "mzip") {
  MlocConfig cfg;
  cfg.shape = shape;
  cfg.layout.chunk_shape = chunk;
  cfg.layout.num_bins = 16;
  cfg.layout.codec = codec;
  cfg.layout.sample_stride = 7;
  return cfg;
}

Result<MlocStore> make_store(pfs::PfsStorage* fs,
                             const std::string& codec = "mzip") {
  Grid grid = datagen::gts_like(64, 42);
  auto store =
      MlocStore::create(fs, "svc", small_config(grid.shape(), NDShape{16, 16},
                                                codec));
  if (!store.is_ok()) return store;
  MLOC_RETURN_IF_ERROR(store.value().write_variable("phi", grid));
  return store;
}

std::shared_ptr<const FragmentData> make_data(std::uint64_t count,
                                              int depth) {
  auto d = std::make_shared<FragmentData>();
  d->count = count;
  for (int g = 0; g < depth; ++g) {
    d->planes.emplace_back(plod::group_bytes(g) * count, std::uint8_t{0xAB});
  }
  return d;
}

// ------------------------------------------------ FragmentCache directly

TEST(FragmentCache, LruEvictionAtByteBudget) {
  // One shard for a deterministic LRU order; budget fits two entries.
  auto data = make_data(256, 7);  // ~2 KiB each
  FragmentCache cache({/*budget_bytes=*/2 * data->byte_size() + 64,
                       /*shards=*/1});
  const FragmentKey a{"phi", 0, 0}, b{"phi", 1, 0}, c{"phi", 2, 0};
  cache.insert(a, data);
  cache.insert(b, data);
  EXPECT_NE(cache.lookup(a), nullptr);  // touch: b becomes LRU
  cache.insert(c, data);                // evicts b, not a
  EXPECT_NE(cache.lookup(a), nullptr);
  EXPECT_EQ(cache.lookup(b), nullptr);
  EXPECT_NE(cache.lookup(c), nullptr);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_LE(stats.bytes_cached, cache.config().budget_bytes);
}

TEST(FragmentCache, KeepsDeepestPrefix) {
  FragmentCache cache({1 << 20, 1});
  const FragmentKey k{"phi", 3, 7};
  cache.insert(k, make_data(64, 2));
  cache.insert(k, make_data(64, 5));  // upgrade
  auto got = cache.lookup(k);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->depth(), 5);
  cache.insert(k, make_data(64, 3));  // shallower: ignored
  got = cache.lookup(k);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->depth(), 5);
  EXPECT_EQ(cache.stats().upgrades, 1u);
}

// A superseding insert is adopted as the entry itself, not merged into a
// copy.
TEST(FragmentCache, AdoptsSupersedingCandidateByPointer) {
  FragmentCache cache({1 << 20, 1});
  const FragmentKey k{"phi", 3, 7};
  const auto shallow = make_data(64, 2);
  const auto deep = make_data(64, 5);
  cache.insert(k, shallow);
  cache.insert(k, deep);
  EXPECT_EQ(cache.lookup(k).get(), deep.get());
  EXPECT_EQ(cache.stats().insertions, 1u);
  EXPECT_EQ(cache.stats().upgrades, 1u);
  EXPECT_EQ(cache.stats().bytes_cached, deep->byte_size());
}

// A deeper candidate that lacks the entry's positions does not supersede
// it: the entry stays as it was.
TEST(FragmentCache, DeeperCandidateWithoutPositionsLeavesEntry) {
  FragmentCache cache({1 << 20, 1});
  const FragmentKey k{"phi", 3, 7};
  auto with_positions = std::make_shared<FragmentData>(*make_data(64, 2));
  for (std::uint32_t i = 0; i < 64; ++i) {
    with_positions->positions.push_back(2 * i);
  }
  cache.insert(k, with_positions);
  cache.insert(k, make_data(64, 5));
  const auto got = cache.lookup(k);
  EXPECT_EQ(got.get(), with_positions.get());
  EXPECT_EQ(got->depth(), 2);
  EXPECT_EQ(got->positions.size(), 64u);
  EXPECT_EQ(cache.stats().upgrades, 0u);
  EXPECT_EQ(cache.stats().bytes_cached, with_positions->byte_size());
}

TEST(FragmentCache, ZeroBudgetAdmitsNothing) {
  FragmentCache cache({0, 1});
  const FragmentKey k{"phi", 0, 0};
  cache.insert(k, make_data(64, 3));
  EXPECT_EQ(cache.lookup(k), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
}

// ------------------------------------- provider hook through the store

TEST(ServiceCache, HitMissAccountingAndIdenticalResults) {
  pfs::PfsStorage fs;
  auto store = make_store(&fs);
  ASSERT_TRUE(store.is_ok()) << store.status().to_string();
  FragmentCache cache({32 << 20, 4});
  store.value().set_fragment_provider(&cache);

  Query q;
  q.sc = Region(2, {8, 8}, {40, 48});
  auto cold = store.value().execute("phi", q);
  ASSERT_TRUE(cold.is_ok());
  EXPECT_GT(cold.value().cache.misses, 0u);
  EXPECT_EQ(cold.value().cache.hits, 0u);
  EXPECT_EQ(cold.value().cache.bytes_saved, 0u);

  auto warm = store.value().execute("phi", q);
  ASSERT_TRUE(warm.is_ok());
  EXPECT_EQ(warm.value().cache.misses, 0u);
  EXPECT_EQ(warm.value().cache.partial_hits, 0u);
  EXPECT_EQ(warm.value().cache.hits, warm.value().fragments_read);
  EXPECT_GT(warm.value().cache.bytes_saved, 0u);
  // Payload reads disappeared: only index/header bytes remain.
  EXPECT_LT(warm.value().exec.bytes_read, cold.value().exec.bytes_read);

  // Cached fragments must not change the answer in any way.
  EXPECT_EQ(warm.value().positions, cold.value().positions);
  EXPECT_EQ(warm.value().values, cold.value().values);
}

// Every fetched fragment of a cold query is offered once, positions and
// planes together: one insertion each and no upgrade. A deeper query over
// the same region then supersedes each entry once, with no new key.
TEST(ServiceCache, OneInsertionPerFetchedFragment) {
  pfs::PfsStorage fs;
  auto store = make_store(&fs);
  ASSERT_TRUE(store.is_ok());
  FragmentCache cache({32 << 20, 4});
  store.value().set_fragment_provider(&cache);

  Query q;
  q.sc = Region(2, {8, 8}, {40, 48});
  q.plod_level = 3;
  auto cold = store.value().execute("phi", q);
  ASSERT_TRUE(cold.is_ok());
  const std::uint64_t fetched = cold.value().fragments_read;
  EXPECT_GT(fetched, 0u);
  EXPECT_EQ(cold.value().cache.misses, fetched);
  EXPECT_EQ(cache.stats().insertions, fetched);
  EXPECT_EQ(cache.stats().upgrades, 0u);

  q.plod_level = 7;
  auto deeper = store.value().execute("phi", q);
  ASSERT_TRUE(deeper.is_ok());
  EXPECT_EQ(deeper.value().cache.partial_hits, fetched);
  EXPECT_EQ(cache.stats().insertions, fetched);
  EXPECT_EQ(cache.stats().upgrades, fetched);
}

TEST(ServiceCache, PlodPrefixReuse) {
  pfs::PfsStorage fs;
  auto store = make_store(&fs);
  ASSERT_TRUE(store.is_ok());
  FragmentCache cache({32 << 20, 4});
  store.value().set_fragment_provider(&cache);

  Query q;
  q.sc = Region(2, {0, 0}, {32, 32});
  q.plod_level = 3;
  auto l3 = store.value().execute("phi", q);
  ASSERT_TRUE(l3.is_ok());
  EXPECT_GT(l3.value().cache.misses, 0u);

  // Level-2 request is answered entirely by the level-3 prefix entries.
  q.plod_level = 2;
  auto l2 = store.value().execute("phi", q);
  ASSERT_TRUE(l2.is_ok());
  EXPECT_EQ(l2.value().cache.hits, l2.value().fragments_read);
  EXPECT_EQ(l2.value().cache.misses, 0u);
  EXPECT_EQ(l2.value().cache.partial_hits, 0u);

  // Level-7 only fetches the missing planes 3..6 (partial hits), saving
  // exactly the bytes of the cached prefix: the positions and planes 0..2
  // of every fragment in the region.
  q.plod_level = 7;
  auto l7 = store.value().execute("phi", q);
  ASSERT_TRUE(l7.is_ok());
  EXPECT_EQ(l7.value().cache.partial_hits, l7.value().fragments_read);
  EXPECT_EQ(l7.value().cache.misses, 0u);
  const VariableState& var = *store.value().variable("phi").value();
  const std::vector<ChunkId> chunks = var.chunk_grid.chunks_overlapping(*q.sc);
  std::uint64_t prefix_bytes = 0;
  std::uint64_t fragments = 0;
  for (const VariableState::Bin& bin : var.bins) {
    for (const FragmentInfo& f : bin.idx.header()->fragments) {
      if (std::find(chunks.begin(), chunks.end(), f.chunk) == chunks.end()) {
        continue;
      }
      ++fragments;
      prefix_bytes += f.positions.length;
      for (int g = 0; g < 3; ++g) prefix_bytes += f.groups[g].length;
    }
  }
  EXPECT_EQ(l7.value().fragments_read, fragments);
  EXPECT_GT(prefix_bytes, 0u);
  EXPECT_EQ(l7.value().cache.bytes_saved, prefix_bytes);

  // Results at every level match a provider-less store bit for bit.
  pfs::PfsStorage cold_fs;
  auto cold = make_store(&cold_fs);
  ASSERT_TRUE(cold.is_ok());
  for (int level : {2, 3, 7}) {
    q.plod_level = level;
    auto warm_res = store.value().execute("phi", q);
    auto cold_res = cold.value().execute("phi", q);
    ASSERT_TRUE(warm_res.is_ok());
    ASSERT_TRUE(cold_res.is_ok());
    EXPECT_EQ(warm_res.value().positions, cold_res.value().positions);
    EXPECT_EQ(warm_res.value().values, cold_res.value().values);
  }
}

TEST(ServiceCache, WholeValueCodecCaches) {
  pfs::PfsStorage fs;
  auto store = make_store(&fs, "isobar");
  ASSERT_TRUE(store.is_ok());
  FragmentCache cache({32 << 20, 4});
  store.value().set_fragment_provider(&cache);

  Query q;
  q.sc = Region(2, {8, 8}, {24, 24});
  auto cold = store.value().execute("phi", q);
  ASSERT_TRUE(cold.is_ok());
  auto warm = store.value().execute("phi", q);
  ASSERT_TRUE(warm.is_ok());
  EXPECT_EQ(warm.value().cache.hits, warm.value().fragments_read);
  EXPECT_EQ(warm.value().positions, cold.value().positions);
  EXPECT_EQ(warm.value().values, cold.value().values);
}

// ----------------------------------------------------- QueryService

ServiceConfig paused_config() {
  ServiceConfig cfg;
  cfg.num_workers = 2;
  cfg.start_paused = true;
  return cfg;
}

TEST(QueryService, SessionLifecycleAndStats) {
  pfs::PfsStorage fs;
  auto store = make_store(&fs);
  ASSERT_TRUE(store.is_ok());
  QueryService svc(std::move(store).value());

  auto sid = svc.open_session("viz-client");
  ASSERT_TRUE(sid.is_ok());

  Request req;
  req.var = "phi";
  req.query.sc = Region(2, {0, 0}, {16, 16});
  Response resp = svc.run(sid.value(), req);
  ASSERT_TRUE(resp.status.is_ok()) << resp.status.to_string();
  EXPECT_FALSE(resp.result.positions.empty());
  EXPECT_GT(resp.result.times.total(), 0.0);
  EXPECT_EQ(resp.stats.session, sid.value());

  auto sstats = svc.session_stats(sid.value());
  ASSERT_TRUE(sstats.is_ok());
  EXPECT_EQ(sstats.value().label, "viz-client");
  EXPECT_EQ(sstats.value().submitted, 1u);
  EXPECT_EQ(sstats.value().completed, 1u);

  ASSERT_TRUE(svc.close_session(sid.value()).is_ok());
  Response closed = svc.run(sid.value(), req);
  EXPECT_EQ(closed.status.code(), ErrorCode::kFailedPrecondition);
  Response unknown = svc.run(999, req);
  EXPECT_EQ(unknown.status.code(), ErrorCode::kNotFound);

  const auto agg = svc.aggregate();
  EXPECT_EQ(agg.completed, 1u);
  EXPECT_EQ(agg.rejected, 2u);  // closed session + unknown session
  EXPECT_EQ(agg.sessions_opened, 1u);
  EXPECT_EQ(agg.sessions_open, 0u);
}

TEST(QueryService, QueryErrorsPropagate) {
  pfs::PfsStorage fs;
  auto store = make_store(&fs);
  ASSERT_TRUE(store.is_ok());
  QueryService svc(std::move(store).value());
  auto sid = svc.open_session();
  ASSERT_TRUE(sid.is_ok());

  Request bad;
  bad.var = "ghost";
  EXPECT_EQ(svc.run(sid.value(), bad).status.code(), ErrorCode::kNotFound);

  Request degenerate;
  degenerate.var = "phi";
  degenerate.query.vc = ValueConstraint{1.0, 1.0};
  EXPECT_EQ(svc.run(sid.value(), degenerate).status.code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(svc.aggregate().failed, 2u);
}

// A rank count above exec::kMaxRanks (a remote request can carry any int)
// is rejected before anything is sized by it, on every entry point, and
// the session keeps serving.
TEST(QueryService, RankCountAboveMaxRejected) {
  pfs::PfsStorage fs;
  auto store = make_store(&fs);
  ASSERT_TRUE(store.is_ok());
  Query q;
  q.sc = Region(2, {0, 0}, {16, 16});
  for (const int ranks : {exec::kMaxRanks + 1, INT_MAX}) {
    EXPECT_EQ(store.value().plan("phi", q, ranks).status().code(),
              ErrorCode::kInvalidArgument);
    EXPECT_EQ(store.value()
                  .multivar_select({{"phi", ValueConstraint{-1e30, 1e30}}},
                                   MlocStore::Combine::kAnd, "", 7, ranks)
                  .status()
                  .code(),
              ErrorCode::kInvalidArgument);
  }

  QueryService svc(std::move(store).value());
  auto sid = svc.open_session();
  ASSERT_TRUE(sid.is_ok());
  Request req;
  req.var = "phi";
  req.query = q;
  req.num_ranks = INT_MAX;
  EXPECT_EQ(svc.run(sid.value(), req).status.code(),
            ErrorCode::kInvalidArgument);
  req.num_ranks = 4;
  const Response ok = svc.run(sid.value(), req);
  ASSERT_TRUE(ok.status.is_ok()) << ok.status.to_string();
  EXPECT_FALSE(ok.result.positions.empty());
}

TEST(QueryService, DeadlineExpiryWhileQueued) {
  pfs::PfsStorage fs;
  auto store = make_store(&fs);
  ASSERT_TRUE(store.is_ok());
  QueryService svc(std::move(store).value(), paused_config());
  auto sid = svc.open_session();
  ASSERT_TRUE(sid.is_ok());

  Request req;
  req.var = "phi";
  req.query.sc = Region(2, {0, 0}, {16, 16});
  req.deadline_s = 1e-4;
  auto sub = svc.submit(sid.value(), req);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  svc.resume();
  Response resp = sub.response.get();
  EXPECT_EQ(resp.status.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_GE(resp.stats.queue_wait_s, 1e-4);
  EXPECT_EQ(svc.aggregate().expired, 1u);
}

TEST(QueryService, AdmissionControlRejectsWhenFull) {
  pfs::PfsStorage fs;
  auto store = make_store(&fs);
  ASSERT_TRUE(store.is_ok());
  ServiceConfig cfg = paused_config();
  cfg.max_queue_depth = 2;
  QueryService svc(std::move(store).value(), cfg);
  auto sid = svc.open_session();
  ASSERT_TRUE(sid.is_ok());

  Request req;
  req.var = "phi";
  req.query.sc = Region(2, {0, 0}, {16, 16});
  auto a = svc.submit(sid.value(), req);
  auto b = svc.submit(sid.value(), req);
  auto c = svc.submit(sid.value(), req);  // over the limit: rejected now
  Response rejected = c.response.get();
  EXPECT_EQ(rejected.status.code(), ErrorCode::kResourceExhausted);

  svc.resume();
  EXPECT_TRUE(a.response.get().status.is_ok());
  EXPECT_TRUE(b.response.get().status.is_ok());
  const auto agg = svc.aggregate();
  EXPECT_EQ(agg.rejected, 1u);
  EXPECT_EQ(agg.completed, 2u);
  EXPECT_EQ(agg.peak_queue_depth, 2u);
}

TEST(QueryService, CancelQueuedQuery) {
  pfs::PfsStorage fs;
  auto store = make_store(&fs);
  ASSERT_TRUE(store.is_ok());
  QueryService svc(std::move(store).value(), paused_config());
  auto sid = svc.open_session();
  ASSERT_TRUE(sid.is_ok());

  Request req;
  req.var = "phi";
  req.query.sc = Region(2, {0, 0}, {16, 16});
  auto sub = svc.submit(sid.value(), req);
  ASSERT_TRUE(svc.cancel(sub.id).is_ok());
  EXPECT_FALSE(svc.cancel(sub.id).is_ok());  // double cancel
  svc.resume();
  EXPECT_EQ(sub.response.get().status.code(), ErrorCode::kCancelled);
  EXPECT_EQ(svc.aggregate().cancelled, 1u);
  EXPECT_FALSE(svc.cancel(12345).is_ok());  // unknown id
}

TEST(QueryService, ShutdownFailsUndispatchedQueries) {
  pfs::PfsStorage fs;
  auto store = make_store(&fs);
  ASSERT_TRUE(store.is_ok());
  auto svc = std::make_unique<QueryService>(std::move(store).value(),
                                            paused_config());
  auto sid = svc->open_session();
  ASSERT_TRUE(sid.is_ok());
  Request req;
  req.var = "phi";
  auto sub = svc->submit(sid.value(), req);
  svc.reset();  // never resumed
  EXPECT_EQ(sub.response.get().status.code(), ErrorCode::kFailedPrecondition);
}

// ------------------------------------------------------------- hammer

TEST(QueryService, HammerMatchesColdExecution) {
  pfs::PfsStorage fs;
  auto store = make_store(&fs);
  ASSERT_TRUE(store.is_ok());
  const NDShape shape = store.value().config().shape;

  // 64+ mixed VC / SC / PLoD queries, deterministic.
  Grid grid = datagen::gts_like(64, 42);
  Rng rng(20120910);
  std::vector<Request> requests;
  for (int i = 0; i < 72; ++i) {
    Request req;
    req.var = "phi";
    req.num_ranks = 1 + i % 3;
    const int kind = i % 4;
    if (kind == 0) {  // region-only VC query
      req.query.vc = datagen::random_vc(grid, 0.1, rng);
      req.query.values_needed = false;
    } else if (kind == 1) {  // SC value retrieval at a reduced level
      req.query.sc = datagen::random_sc(shape, 0.15, rng);
      req.query.plod_level = 1 + i % 7;
    } else if (kind == 2) {  // combined VC + SC
      req.query.vc = datagen::random_vc(grid, 0.3, rng);
      req.query.sc = datagen::random_sc(shape, 0.4, rng);
    } else {  // full-precision SC, repeated region flavor
      req.query.sc = Region(2, {8, 8}, {40, 56});
      req.query.plod_level = 7 - i % 3;
    }
    requests.push_back(std::move(req));
  }

  // Cold reference results, sequentially, before the store moves into the
  // service (execute is const and leaves no state behind).
  std::vector<QueryResult> expected;
  for (const auto& req : requests) {
    auto res = store.value().execute(req.var, req.query, req.num_ranks);
    ASSERT_TRUE(res.is_ok()) << res.status().to_string();
    expected.push_back(std::move(res).value());
  }

  ServiceConfig cfg;
  cfg.num_workers = 4;
  cfg.cache.budget_bytes = 8 << 20;
  cfg.cache.shards = 4;
  QueryService svc(std::move(store).value(), cfg);

  constexpr int kClients = 4;
  std::vector<std::vector<Response>> responses(kClients);
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      auto sid = svc.open_session("client-" + std::to_string(t));
      ASSERT_TRUE(sid.is_ok());
      std::vector<service::Submission> subs;
      for (std::size_t i = t; i < requests.size(); i += kClients) {
        subs.push_back(svc.submit(sid.value(), requests[i]));
      }
      for (auto& sub : subs) {
        responses[t].push_back(sub.response.get());
      }
    });
  }
  for (auto& c : clients) c.join();

  // Bit-identical positions and values, regardless of thread interleaving
  // and cache state.
  for (int t = 0; t < kClients; ++t) {
    for (std::size_t j = 0; j < responses[t].size(); ++j) {
      const std::size_t i = t + j * kClients;
      const Response& r = responses[t][j];
      ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
      EXPECT_EQ(r.result.positions, expected[i].positions)
          << "query " << i;
      EXPECT_EQ(r.result.values, expected[i].values) << "query " << i;
    }
  }

  const auto agg = svc.aggregate();
  EXPECT_EQ(agg.submitted, requests.size());
  EXPECT_EQ(agg.completed, requests.size());
  EXPECT_GT(agg.cache.hits + agg.cache.partial_hits, 0u);  // reuse happened
  EXPECT_GT(svc.cache_stats().entries, 0u);
}

// ----------------------------------------------------------- live ingest

TEST(QueryService, ReingestInvalidatesCachedFragments) {
  // Regression: before epoch-keyed FragmentKeys, a warm cache kept serving
  // the replaced generation's decompressed payloads after a re-ingest.
  pfs::PfsStorage fs;
  auto store = make_store(&fs);
  ASSERT_TRUE(store.is_ok());
  ServiceConfig cfg;
  cfg.num_workers = 2;
  cfg.cache.budget_bytes = 8 << 20;
  cfg.ingest = {.threads = 2, .write_behind = true};
  QueryService svc(std::move(store).value(), cfg);
  auto sid = svc.open_session("reingest");
  ASSERT_TRUE(sid.is_ok());

  Request req;
  req.var = "phi";
  req.query.sc = Region(2, {0, 0}, {32, 32});
  req.query.values_needed = true;
  Response cold = svc.run(sid.value(), req);
  ASSERT_TRUE(cold.status.is_ok());
  ASSERT_GT(svc.cache_stats().entries, 0u);

  Grid fresh = datagen::gts_like(64, 4242);
  ASSERT_TRUE(svc.ingest("phi", fresh).is_ok());
  EXPECT_EQ(svc.cache_stats().entries, 0u);  // old generation erased

  Response warm = svc.run(sid.value(), req);
  ASSERT_TRUE(warm.status.is_ok());
  ASSERT_EQ(warm.result.values.size(), 1024u);
  for (std::size_t i = 0; i < warm.result.values.size(); ++i) {
    const Coord c = fresh.shape().delinearize(warm.result.positions[i]);
    ASSERT_EQ(warm.result.values[i], fresh.at(c)) << i;
  }

  const auto agg = svc.aggregate();
  EXPECT_EQ(agg.ingests, 1u);
  EXPECT_EQ(agg.ingest_failures, 0u);
  // Cumulative across the store's lifetime: initial write + re-ingest.
  EXPECT_EQ(agg.ingest.cells_routed, 2 * fresh.size());
  EXPECT_TRUE(agg.ingest.write_behind);
}

TEST(QueryService, IngestWhileServingHammer) {
  // Clients query a stable variable while the main thread streams new
  // variables in through the parallel pipeline; every query must succeed
  // and match cold execution.
  pfs::PfsStorage fs;
  auto store = make_store(&fs);
  ASSERT_TRUE(store.is_ok());

  Query q;
  q.sc = Region(2, {8, 8}, {40, 56});
  q.values_needed = true;
  auto expected = store.value().execute("phi", q, 2);
  ASSERT_TRUE(expected.is_ok());

  ServiceConfig cfg;
  cfg.num_workers = 2;
  cfg.cache.budget_bytes = 8 << 20;
  cfg.ingest = {.threads = 2, .write_behind = true};
  QueryService svc(std::move(store).value(), cfg);

  std::vector<std::thread> clients;
  clients.reserve(2);
  for (int t = 0; t < 2; ++t) {
    clients.emplace_back([&, t] {
      auto sid = svc.open_session("hammer-" + std::to_string(t));
      ASSERT_TRUE(sid.is_ok());
      Request req;
      req.var = "phi";
      req.query = q;
      req.num_ranks = 2;
      for (int i = 0; i < 8; ++i) {
        Response resp = svc.run(sid.value(), req);
        ASSERT_TRUE(resp.status.is_ok()) << resp.status.to_string();
        EXPECT_EQ(resp.result.values, expected.value().values);
      }
    });
  }
  for (int round = 0; round < 4; ++round) {
    Grid hot = datagen::gts_like(64, 300 + round);
    ASSERT_TRUE(
        svc.ingest("hot" + std::to_string(round % 2), hot).is_ok());
  }
  for (auto& c : clients) c.join();

  const auto agg = svc.aggregate();
  EXPECT_EQ(agg.ingests, 4u);
  EXPECT_EQ(agg.failed, 0u);
}

}  // namespace
}  // namespace mloc
