// Autotuner tests: trace JSON round-trip and strict parsing, the
// QueryService recorder hook, and the tuner itself — the recommendation
// must never predict worse than the default, must beat a deliberately
// mismatched default, and the predicted cost must be reproducible by
// re-ingesting under the recommended layout.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "datagen/datagen.hpp"
#include "service/query_service.hpp"
#include "tune/tuner.hpp"

namespace mloc::tune {
namespace {

QueryTrace sample_trace() {
  QueryTrace t;
  {
    TracedQuery tq;
    tq.var = "temp";
    tq.num_ranks = 2;
    tq.query.plod_level = 7;
    tq.query.values_needed = true;
    tq.query.vc = ValueConstraint{0.25, 0.75};
    tq.query.sc = Region(2, Coord{0, 0}, Coord{15, 31});
    t.queries.push_back(tq);
  }
  {
    TracedQuery tq;  // minimal: defaults everywhere
    tq.var = "salinity";
    t.queries.push_back(tq);
  }
  return t;
}

TEST(Trace, JsonRoundTrip) {
  const QueryTrace t = sample_trace();
  auto parsed = QueryTrace::from_json(t.to_json());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  ASSERT_EQ(parsed.value().queries.size(), 2u);

  const TracedQuery& a = parsed.value().queries[0];
  EXPECT_EQ(a.var, "temp");
  EXPECT_EQ(a.num_ranks, 2);
  EXPECT_EQ(a.query.plod_level, 7);
  EXPECT_TRUE(a.query.values_needed);
  ASSERT_TRUE(a.query.vc.has_value());
  EXPECT_DOUBLE_EQ(a.query.vc->lo, 0.25);
  EXPECT_DOUBLE_EQ(a.query.vc->hi, 0.75);
  ASSERT_TRUE(a.query.sc.has_value());
  EXPECT_EQ(a.query.sc->ndims(), 2);
  EXPECT_EQ(a.query.sc->hi(1), 31u);

  const TracedQuery& b = parsed.value().queries[1];
  EXPECT_EQ(b.var, "salinity");
  EXPECT_EQ(b.num_ranks, 1);
  EXPECT_FALSE(b.query.vc.has_value());
  EXPECT_FALSE(b.query.sc.has_value());

  // Serialization is canonical: a round-trip re-emits the same bytes.
  EXPECT_EQ(t.to_json(), parsed.value().to_json());
}

TEST(Trace, ParserRejectsMalformedDocuments) {
  const char* bad[] = {
      "",                                              // empty
      "{\"queries\":[",                                // truncated
      "{\"queries\":[{\"ranks\":1}]}",                 // missing var
      "{\"queries\":[{\"var\":\"t\",\"boom\":1}]}",    // unknown key
      "{\"queries\":[{\"var\":\"t\",\"ranks\":0}]}",   // ranks < 1
      "{\"queries\":[{\"var\":\"t\",\"plod_level\":8}]}",
      "{\"queries\":[{\"var\":\"t\",\"sc\":{\"lo\":[0,0],\"hi\":[3]}}]}",
      "{\"queries\":[{\"var\":\"t\",\"sc\":{\"lo\":[5],\"hi\":[3]}}]}",
      "{\"queries\":[]} trailing",                     // trailing content
  };
  for (const char* doc : bad) {
    auto parsed = QueryTrace::from_json(doc);
    EXPECT_FALSE(parsed.is_ok()) << doc;
  }
  EXPECT_TRUE(QueryTrace::from_json("{\"queries\":[]}").is_ok());
}

TEST(Trace, ServiceRecordsSuccessfulSingleVariableQueries) {
  pfs::PfsStorage fs;
  Grid grid = datagen::gts_like(64, 42);
  MlocConfig cfg;
  cfg.shape = grid.shape();
  cfg.layout.chunk_shape = NDShape{16, 16};
  cfg.layout.num_bins = 16;
  auto store = MlocStore::create(&fs, "svc", cfg);
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());

  service::QueryService svc(std::move(store).value());
  TraceRecorder rec;
  svc.set_trace_recorder(&rec);
  auto session = svc.open_session("tune");
  ASSERT_TRUE(session.is_ok());

  service::Request ok_req;
  ok_req.var = "phi";
  ok_req.query.vc = ValueConstraint{0.3, 0.7};
  ok_req.num_ranks = 4;
  EXPECT_TRUE(svc.run(session.value(), ok_req).status.is_ok());

  service::Request bad_req;  // unknown variable: must not be recorded
  bad_req.var = "nope";
  EXPECT_FALSE(svc.run(session.value(), bad_req).status.is_ok());

  const QueryTrace trace = rec.snapshot();
  ASSERT_EQ(trace.queries.size(), 1u);
  EXPECT_EQ(trace.queries[0].var, "phi");
  EXPECT_EQ(trace.queries[0].num_ranks, 4);
  ASSERT_TRUE(trace.queries[0].query.vc.has_value());
  EXPECT_DOUBLE_EQ(trace.queries[0].query.vc->lo, 0.3);

  svc.set_trace_recorder(nullptr);
  EXPECT_TRUE(svc.run(session.value(), ok_req).status.is_ok());
  EXPECT_EQ(rec.size(), 1u);  // detached: no further records
}

// ------------------------------------------------------------- the tuner

/// Store whose default layout is deliberately mismatched with the
/// workload: coarse bins, small chunks, and a level order whose
/// reduced-precision reads scatter into many short runs. The trace is
/// dominated by selective reduced-precision value queries, so seeks (and
/// with finer bins, bytes) drop sharply under better settings.
struct TunerFixture {
  pfs::PfsStorage fs;
  Grid grid;
  Result<MlocStore> store;

  TunerFixture()
      : grid(datagen::gts_like(64, 3)), store(make_store()) {}

  Result<MlocStore> make_store() {
    MlocConfig cfg;
    cfg.shape = grid.shape();
    cfg.layout.chunk_shape = NDShape{16, 16};
    cfg.layout.num_bins = 2;
    cfg.layout.order = LevelOrder::kVMS;
    MLOC_ASSIGN_OR_RETURN(MlocStore s,
                          MlocStore::create(&fs, "tn", cfg));
    MLOC_RETURN_IF_ERROR(s.write_variable("temp", grid));
    return s;
  }

  static QueryTrace workload() {
    QueryTrace t;
    for (int i = 0; i < 4; ++i) {
      TracedQuery tq;
      tq.var = "temp";
      tq.num_ranks = 2;
      tq.query.plod_level = 2;
      tq.query.vc = ValueConstraint{0.40 + 0.02 * i, 0.55 + 0.02 * i};
      t.queries.push_back(tq);
    }
    return t;
  }

  static SearchSpace small_space() {
    SearchSpace space;
    space.bin_counts = {2, 8, 32};
    space.chunk_shapes = {NDShape{16, 16}, NDShape{32, 32}};
    space.interleave_samples = 1;
    space.random_restarts = 1;
    space.max_rounds = 3;
    return space;
  }
};

TEST(Tuner, RecommendationBeatsMismatchedDefault) {
  TunerFixture fx;
  ASSERT_TRUE(fx.store.is_ok()) << fx.store.status().to_string();

  auto tuned = tune_variable(fx.store.value(), "temp",
                             TunerFixture::workload(),
                             TunerFixture::small_space());
  ASSERT_TRUE(tuned.is_ok()) << tuned.status().to_string();
  const TuneResult& r = tuned.value();

  EXPECT_EQ(r.var, "temp");
  EXPECT_EQ(r.trace_queries, 4);
  EXPECT_GT(r.evaluations, 1);
  EXPECT_EQ(r.baseline.num_bins, 2);
  EXPECT_EQ(r.baseline.order, LevelOrder::kVMS);

  // Never worse than the default (the default is in the search space),
  // and for this mismatched setup strictly better.
  EXPECT_LE(r.predicted_cost_tuned, r.predicted_cost_default);
  EXPECT_LT(r.predicted_cost_tuned, 0.8 * r.predicted_cost_default);
  // Selective low-PLoD value queries want finer bins than the default 2.
  EXPECT_GT(r.recommended.num_bins, 2);
  // The recommendation must be ingestible as-is.
  EXPECT_TRUE(
      validate_layout(r.recommended, fx.grid.shape()).is_ok());
}

TEST(Tuner, PredictedTunedCostIsReproducible) {
  TunerFixture fx;
  ASSERT_TRUE(fx.store.is_ok());
  const QueryTrace trace = TunerFixture::workload();

  auto tuned = tune_variable(fx.store.value(), "temp", trace,
                             TunerFixture::small_space());
  ASSERT_TRUE(tuned.is_ok());

  // Re-ingest under the recommended layout and replay the trace through
  // estimate_io_seconds: the summed cost must equal the tuner's prediction.
  pfs::PfsStorage scratch;
  MlocConfig cfg;
  cfg.shape = fx.grid.shape();
  cfg.layout = tuned.value().recommended;
  auto replay = MlocStore::create(&scratch, "replay", cfg);
  ASSERT_TRUE(replay.is_ok());
  ASSERT_TRUE(replay.value().write_variable("temp", fx.grid).is_ok());

  double total = 0.0;
  for (const TracedQuery& tq : trace.queries) {
    auto est = estimate_io_seconds(replay.value(), "temp", tq.query,
                                   tq.num_ranks);
    ASSERT_TRUE(est.is_ok());
    total += est.value();
  }
  EXPECT_NEAR(total, tuned.value().predicted_cost_tuned,
              1e-12 * std::abs(total));
}

TEST(Tuner, RejectsVariablesAbsentFromTrace) {
  TunerFixture fx;
  ASSERT_TRUE(fx.store.is_ok());
  QueryTrace other;
  {
    TracedQuery tq;
    tq.var = "pressure";
    other.queries.push_back(tq);
  }
  auto tuned = tune_variable(fx.store.value(), "temp", other,
                             TunerFixture::small_space());
  ASSERT_FALSE(tuned.is_ok());
  EXPECT_EQ(tuned.status().code(), ErrorCode::kInvalidArgument);
}

TEST(Tuner, ReportJsonCarriesCostsAndLayouts) {
  TuneResult r;
  r.var = "temp";
  r.baseline.num_bins = 2;
  r.recommended.num_bins = 32;
  r.recommended.curve = sfc::CurveKind::kGeneralizedMorton;
  r.recommended.interleave = "yxyx";
  r.predicted_cost_default = 2.0;
  r.predicted_cost_tuned = 0.5;
  r.evaluations = 9;
  r.trace_queries = 4;

  const std::string json = tune_report_json({r});
  EXPECT_NE(json.find("\"var\":\"temp\""), std::string::npos);
  EXPECT_NE(json.find("\"predicted_cost_default\":2"), std::string::npos);
  EXPECT_NE(json.find("\"predicted_cost_tuned\":0.5"), std::string::npos);
  EXPECT_NE(json.find("\"interleave\":\"yxyx\""), std::string::npos);
  EXPECT_NE(json.find("\"curve\":\"generalized-morton\""),
            std::string::npos);
  EXPECT_NE(json.find("\"evaluations\":9"), std::string::npos);
}

}  // namespace
}  // namespace mloc::tune
