// Layout autotuner — planner-driven search over per-variable layouts.
//
// The multi-level layout gives every variable independent knobs (bin
// count, level order, curve, chunk shape); the right setting depends on
// the workload, and the paper leaves the choice to "user-defined
// priorities". mloc_tune closes that loop mechanically: replay a recorded
// QueryTrace through estimate_io_seconds against candidate layouts and
// recommend the one with the lowest total modeled I/O.
//
// The oracle is exact, not a proxy: each candidate layout is actually
// ingested into a scratch in-memory store (same PFS cost model as the
// source) and every traced query is planned against it — the same
// side-effect-free ReadPlan costing the engine itself uses, so on a cold
// cache the predicted bytes/seeks match what execution would do
// (bench_tune asserts this). The search is coordinate descent over the
// axes (bins, order, curve incl. sampled generalized-Morton interleaves,
// chunk shape) with seeded random restarts; recommend_order seeds the
// level-order axis from the trace's workload mix.
#pragma once

#include <string>
#include <vector>

#include "core/store.hpp"
#include "tune/trace.hpp"
#include "util/status.hpp"

namespace mloc::tune {

/// Candidate axes the coordinate descent explores. Empty vectors fall back
/// to built-in defaults derived from the grid.
struct SearchSpace {
  std::vector<int> bin_counts;           ///< default {4,8,16,32,64,128}
  std::vector<NDShape> chunk_shapes;     ///< default: powers of two per axis
  /// Hierarchical-index fan-out axis (0 = no .hbx, >=2 builds the tree at
  /// ingest). Default {0, 2, 4, 8}.
  std::vector<int> index_fanouts;
  /// Generalized-Morton interleave patterns sampled per chunk-shape
  /// candidate (on top of row-major/Morton/Hilbert/canonical).
  int interleave_samples = 3;
  int random_restarts = 2;               ///< descent restarts from random points
  std::uint64_t seed = 7;                ///< restart + interleave sampling seed
  int max_rounds = 8;                    ///< descent rounds per start point
};

struct TuneResult {
  std::string var;
  VariableLayout baseline;          ///< the variable's current layout
  VariableLayout recommended;
  double predicted_cost_default = 0.0;  ///< trace cost under `baseline`
  double predicted_cost_tuned = 0.0;    ///< trace cost under `recommended`
  int evaluations = 0;              ///< candidate layouts actually ingested
  int trace_queries = 0;            ///< queries of the trace touching `var`
};

/// Tune one variable of `source` against `trace` (only entries whose var
/// matches are replayed; InvalidArgument when none do). The source store
/// is only read — candidates are ingested into private scratch storage.
/// For lossy double codecs the variable is reconstructed at the stored
/// precision, which is exactly what a re-ingest would see.
[[nodiscard]] Result<TuneResult> tune_variable(const MlocStore& source,
                                               const std::string& var,
                                               const QueryTrace& trace,
                                               const SearchSpace& space = {});

/// JSON report over per-variable results (stable keys, jq-friendly).
[[nodiscard]] std::string tune_report_json(
    const std::vector<TuneResult>& results);

/// Modeled I/O seconds of `q` on `var` granted `num_ranks` processes,
/// without executing it: the PFS makespan of the exact ReadPlan
/// (MlocStore::plan), best over the power-of-two rank counts up to
/// num_ranks. The search oracle above; on cold caches it equals the
/// executed times.io at one rank.
[[nodiscard]] Result<double> estimate_io_seconds(const MlocStore& store,
                                                 const std::string& var,
                                                 const Query& q,
                                                 int num_ranks = 1);

/// Smallest power-of-two rank count (<= max_ranks) whose estimated I/O
/// makespan is within `tolerance` of the max_ranks estimate.
[[nodiscard]] Result<int> recommend_ranks(const MlocStore& store,
                                          const std::string& var,
                                          const Query& q, int max_ranks,
                                          double tolerance = 0.1);

/// Fractions of an exploration workload, summing to ~1.
struct WorkloadProfile {
  double region_queries = 0.0;      ///< VC region-only accesses
  double value_full_precision = 0.0;///< SC value retrieval at PLoD 7
  double value_reduced = 0.0;       ///< SC value retrieval at low PLoD
  int reduced_level = 2;            ///< typical reduced PLoD level
};

/// Level-order recommendation from the seek model (the paper leaves the
/// choice to the user, §IV-D Table VII): V-M-S keeps each byte group
/// contiguous bin-wide (cheap reduced-precision reads, 7 runs for full
/// precision); V-S-M keeps each fragment contiguous (1 run for full
/// precision, one run per fragment for reduced). Workload weights must be
/// finite and non-negative (InvalidArgument otherwise — a NaN/inf weight
/// means the caller's accounting broke and any pick would be arbitrary);
/// negative fragment counts are likewise rejected.
[[nodiscard]] Result<LevelOrder> recommend_order(
    const WorkloadProfile& workload, double avg_fragments_per_bin = 16.0);

}  // namespace mloc::tune
