// Autotuner end-to-end check: the layout mloc_tune recommends must be
// real, not just cheaper on paper. Builds a GTS-like store under a
// deliberately mismatched default layout, tunes it against a recorded
// workload, re-ingests the variable under the recommendation, and then
// replays the trace on both stores, asserting
//   (a) the plan oracle is exact: for every query, measured PFS bytes
//       and modeled seeks equal MlocStore::plan's prediction (the plan
//       that estimate_io_seconds costs during tuning), and
//   (b) the recommendation wins where it counts: measured modeled I/O
//       under the tuned layout beats the default layout.
// Emits a one-object JSON summary on stdout for CI (`jq` asserts the
// predicted costs ordered the same way the measurements did).
#include <cstdio>
#include <string>

#include "common/bench_common.hpp"
#include "tune/tuner.hpp"

using namespace mloc;
using namespace mloc::bench;

namespace {

/// The recorded workload: mostly selective reduced-precision value
/// retrieval with a few full-precision region scans mixed in.
tune::QueryTrace make_trace(const Dataset& ds, std::uint64_t seed) {
  tune::QueryTrace t;
  Rng rng(seed);
  for (int i = 0; i < 6; ++i) {
    tune::TracedQuery tq;
    tq.var = "v";
    tq.num_ranks = 4;
    tq.query.plod_level = 2;
    tq.query.vc = datagen::random_vc(ds.grid, 0.10, rng);
    t.queries.push_back(tq);
  }
  for (int i = 0; i < 2; ++i) {
    tune::TracedQuery tq;
    tq.var = "v";
    tq.num_ranks = 4;
    tq.query.sc = datagen::random_sc(ds.grid.shape(), 0.05, rng);
    t.queries.push_back(tq);
  }
  return t;
}

/// Replay the trace: estimate-then-execute each query, asserting the
/// oracle's bytes/seeks match execution exactly (the estimate is taken
/// immediately before each execute, so both see the same cache state).
/// Returns total measured modeled I/O seconds.
double replay_and_check(MlocStore& store, const tune::QueryTrace& trace,
                        const char* label) {
  double measured_io = 0.0;
  for (const tune::TracedQuery& tq : trace.queries) {
    auto est = store.plan("v", tq.query, tq.num_ranks);
    MLOC_CHECK_MSG(est.is_ok(), est.status().to_string().c_str());
    auto res = store.execute("v", tq.query, tq.num_ranks);
    MLOC_CHECK_MSG(res.is_ok(), res.status().to_string().c_str());
    if (est.value().stats.bytes_read != res.value().exec.bytes_read ||
        est.value().stats.modeled_seeks != res.value().exec.modeled_seeks) {
      std::fprintf(stderr,
                   "%s: oracle mismatch: predicted %llu B / %llu seeks, "
                   "measured %llu B / %llu seeks\n",
                   label,
                   (unsigned long long)est.value().stats.bytes_read,
                   (unsigned long long)est.value().stats.modeled_seeks,
                   (unsigned long long)res.value().exec.bytes_read,
                   (unsigned long long)res.value().exec.modeled_seeks);
      MLOC_CHECK(false);
    }
    measured_io += res.value().times.io;
  }
  return measured_io;
}

}  // namespace

int main() {
  const ScaleConfig cfg = scale_from_env();
  // Every evaluated layout re-ingests the variable, so the dataset is a
  // scaled-down GTS slice (512^2) rather than the table benchmarks' full
  // grids — large enough that bytes and seeks differentiate layouts,
  // small enough that the ~20-evaluation search runs in seconds.
  const Dataset ds{Grid(datagen::gts_like(512, cfg.seed + 5)),
                   NDShape{64, 64}, "GTS 512^2"};

  // Mismatched default: coarse bins and fine chunks for a workload that
  // is mostly selective low-PLoD value retrieval.
  VariableLayout bad;
  bad.chunk_shape = NDShape{32, 32};
  bad.num_bins = 4;
  bad.order = LevelOrder::kVMS;

  pfs::PfsStorage fs(default_pfs());
  MlocConfig store_cfg;
  store_cfg.shape = ds.grid.shape();
  store_cfg.layout = bad;
  auto store = MlocStore::create(&fs, "tune", store_cfg);
  MLOC_CHECK_MSG(store.is_ok(), store.status().to_string().c_str());
  MLOC_CHECK(store.value().write_variable("v", ds.grid).is_ok());

  const tune::QueryTrace trace = make_trace(ds, cfg.seed + 17);

  tune::SearchSpace space;
  space.seed = cfg.seed;
  space.random_restarts = 1;
  space.interleave_samples = 2;
  space.max_rounds = 4;
  auto tuned = tune::tune_variable(store.value(), "v", trace, space);
  MLOC_CHECK_MSG(tuned.is_ok(), tuned.status().to_string().c_str());
  const tune::TuneResult& r = tuned.value();

  // Re-ingest under the recommendation on identical PFS hardware.
  pfs::PfsStorage tuned_fs(default_pfs());
  MlocConfig tuned_cfg;
  tuned_cfg.shape = ds.grid.shape();
  tuned_cfg.layout = r.recommended;
  auto tuned_store = MlocStore::create(&tuned_fs, "tune", tuned_cfg);
  MLOC_CHECK(tuned_store.is_ok());
  MLOC_CHECK(tuned_store.value().write_variable("v", ds.grid).is_ok());

  const double measured_default =
      replay_and_check(store.value(), trace, "default");
  const double measured_tuned =
      replay_and_check(tuned_store.value(), trace, "tuned");

  std::printf(
      "Layout autotuning on %s — %d traced queries, %d layouts evaluated\n"
      "  default:     %s\n               predicted %.4f s, measured %.4f s\n"
      "  recommended: %s\n               predicted %.4f s, measured %.4f s\n",
      ds.label.c_str(), r.trace_queries, r.evaluations,
      r.baseline.describe().c_str(), r.predicted_cost_default,
      measured_default, r.recommended.describe().c_str(),
      r.predicted_cost_tuned, measured_tuned);

  MLOC_CHECK_MSG(r.predicted_cost_tuned < r.predicted_cost_default,
                 "tuner failed to beat the mismatched default");
  MLOC_CHECK_MSG(measured_tuned < measured_default,
                 "recommendation did not win on measured modeled I/O");

  std::printf(
      "{\"predicted_cost_default\":%.9g,\"predicted_cost_tuned\":%.9g,"
      "\"measured_io_default\":%.9g,\"measured_io_tuned\":%.9g,"
      "\"oracle_exact\":true}\n",
      r.predicted_cost_default, r.predicted_cost_tuned, measured_default,
      measured_tuned);
  return 0;
}
