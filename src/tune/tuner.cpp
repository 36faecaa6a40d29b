#include "tune/tuner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>

#include "array/chunking.hpp"
#include "array/region.hpp"
#include "sfc/hilbert.hpp"
#include "util/rng.hpp"

namespace mloc::tune {
namespace {

/// One point of the curve axis: a kind plus, for generalized Morton, how to
/// materialize a pattern for the current chunk lattice. Patterns depend on
/// the lattice, so sampled candidates are identified by their sampling seed
/// and regenerated whenever the chunk-shape axis moves.
struct CurveCandidate {
  sfc::CurveKind kind = sfc::CurveKind::kHilbert;
  bool canonical = false;        ///< generalized: canonical interleave
  std::uint64_t sample_seed = 0; ///< generalized: shuffle seed (non-canonical)
};

/// Random coverage-valid interleave: give each dimension exactly the bits
/// the lattice needs, then shuffle the slot order.
std::string sample_interleave(const NDShape& lattice, std::uint64_t seed) {
  static constexpr char kDims[] = {'x', 'y', 'z', 'w'};
  std::string slots;
  for (int d = 0; d < lattice.ndims(); ++d) {
    int bits = 1;
    while ((1u << bits) < lattice.extent(d)) ++bits;
    slots.append(static_cast<std::size_t>(bits), kDims[d]);
  }
  Rng rng(seed);
  for (std::size_t i = slots.size(); i > 1; --i) {
    std::swap(slots[i - 1], slots[rng.next_below(i)]);
  }
  return slots;
}

Result<std::string> materialize_interleave(const CurveCandidate& c,
                                           const NDShape& lattice) {
  if (c.kind != sfc::CurveKind::kGeneralizedMorton) return std::string();
  if (c.canonical) return sfc::canonical_interleave(lattice);
  std::string pattern = sample_interleave(lattice, c.sample_seed);
  MLOC_RETURN_IF_ERROR(sfc::validate_interleave(pattern, lattice));
  return pattern;
}

/// Reconstruct the variable's grid from the source store: one whole-domain
/// full-precision value query. Lossless codecs reproduce the original
/// bits; lossy ones yield the stored approximation — exactly the data a
/// re-ingest under a new layout would start from.
Result<Grid> reconstruct_grid(const MlocStore& source,
                              const std::string& var) {
  // A copy, not a reference: GCC 12 reports the Grid's NDShape argument
  // below as maybe-uninitialized when it is copied from a reference.
  const NDShape shape = source.config().shape;
  Query q;
  q.sc = Region::whole(shape);
  q.values_needed = true;
  MLOC_ASSIGN_OR_RETURN(QueryResult res, source.execute(var, q));
  if (res.positions.size() != shape.volume()) {
    return corrupt_data("tune: whole-domain query returned " +
                        std::to_string(res.positions.size()) + " of " +
                        std::to_string(shape.volume()) + " cells");
  }
  std::vector<double> values(shape.volume(), 0.0);
  for (std::size_t i = 0; i < res.positions.size(); ++i) {
    values[res.positions[i]] = res.values[i];
  }
  return Grid(shape, std::move(values));
}

/// Total modeled I/O seconds of the trace under one candidate layout:
/// ingest into private scratch storage and replay every query through the
/// exact-plan oracle (estimate_io_seconds).
Result<double> trace_cost(const pfs::PfsConfig& pfs_cfg, const NDShape& shape,
                          const std::string& var, const Grid& grid,
                          const VariableLayout& layout,
                          const std::vector<const TracedQuery*>& queries) {
  pfs::PfsStorage scratch(pfs_cfg);
  MlocConfig cfg;
  cfg.shape = shape;
  cfg.layout = layout;
  MLOC_ASSIGN_OR_RETURN(MlocStore store,
                        MlocStore::create(&scratch, "tune-scratch", cfg));
  MLOC_RETURN_IF_ERROR(store.write_variable(var, grid, layout));
  double total = 0.0;
  for (const TracedQuery* tq : queries) {
    MLOC_ASSIGN_OR_RETURN(
        const double est,
        estimate_io_seconds(store, var, tq->query, tq->num_ranks));
    total += est;
  }
  return total;
}

std::string layout_key(const VariableLayout& layout) {
  ByteWriter w;
  layout.serialize(w);
  Bytes b = std::move(w).take();
  return {b.begin(), b.end()};
}

std::vector<int> default_bin_counts(const NDShape& shape) {
  std::vector<int> out;
  for (int b : {4, 8, 16, 32, 64, 128}) {
    if (static_cast<std::uint64_t>(b) * 4 <= shape.volume()) out.push_back(b);
  }
  if (out.empty()) out.push_back(2);
  return out;
}

std::vector<NDShape> default_chunk_shapes(const NDShape& shape) {
  // Power-of-two cubes no larger than the grid; always at least two
  // chunks along the longest axis so the curve axis has something to
  // reorder.
  std::vector<NDShape> out;
  for (std::uint32_t side : {8u, 16u, 32u, 64u}) {
    Coord c{};
    bool fits = true, splits = false;
    for (int d = 0; d < shape.ndims(); ++d) {
      if (side > shape.extent(d)) fits = false;
      if (side * 2 <= shape.extent(d)) splits = true;
      c[d] = side;
    }
    if (fits && splits) out.push_back(NDShape(shape.ndims(), c));
  }
  if (out.empty()) {
    Coord c{};
    for (int d = 0; d < shape.ndims(); ++d) {
      c[d] = std::max(1u, shape.extent(d) / 2);
    }
    out.push_back(NDShape(shape.ndims(), c));
  }
  return out;
}

/// Workload mix of the trace, for seeding the level-order axis with the
/// closed-form advisor before the planner-exact search refines it.
WorkloadProfile profile_of(
    const std::vector<const TracedQuery*>& queries) {
  WorkloadProfile w;
  int reduced_level_sum = 0, reduced_n = 0;
  for (const TracedQuery* tq : queries) {
    if (!tq->query.values_needed) {
      w.region_queries += 1.0;
    } else if (tq->query.plod_level < 7) {
      w.value_reduced += 1.0;
      reduced_level_sum += tq->query.plod_level;
      ++reduced_n;
    } else {
      w.value_full_precision += 1.0;
    }
  }
  if (reduced_n > 0) w.reduced_level = reduced_level_sum / reduced_n;
  return w;
}

void append_layout_json(std::string& out, const VariableLayout& l) {
  out += "{\"order\":\"" + std::string(level_order_name(l.order)) + "\",";
  out += "\"curve\":\"" + std::string(sfc::curve_kind_name(l.curve)) + "\",";
  out += "\"interleave\":\"" + l.interleave + "\",";
  out += "\"codec\":\"" + l.codec + "\",";
  out += "\"chunk_shape\":\"" + l.chunk_shape.to_string() + "\",";
  out += "\"num_bins\":" + std::to_string(l.num_bins) + ",";
  out += "\"index_fanout\":" + std::to_string(l.index_fanout) + ",";
  out += "\"sample_stride\":" + std::to_string(l.sample_stride) + "}";
}

void append_cost(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  out += buf;
}

}  // namespace

Result<TuneResult> tune_variable(const MlocStore& source,
                                 const std::string& var,
                                 const QueryTrace& trace,
                                 const SearchSpace& space) {
  MLOC_ASSIGN_OR_RETURN(const std::shared_ptr<const VariableLayout> baseline,
                        source.variable_layout(var));

  std::vector<const TracedQuery*> queries;
  for (const TracedQuery& tq : trace.queries) {
    if (tq.var == var) queries.push_back(&tq);
  }
  if (queries.empty()) {
    return invalid_argument("tune: trace has no queries for variable " + var);
  }

  const NDShape& shape = source.config().shape;
  MLOC_ASSIGN_OR_RETURN(Grid grid, reconstruct_grid(source, var));

  // ---- candidate axes ------------------------------------------------
  std::vector<int> bins =
      space.bin_counts.empty() ? default_bin_counts(shape) : space.bin_counts;
  if (std::find(bins.begin(), bins.end(), baseline->num_bins) == bins.end()) {
    bins.push_back(baseline->num_bins);
  }
  std::vector<NDShape> chunks = space.chunk_shapes.empty()
                                    ? default_chunk_shapes(shape)
                                    : space.chunk_shapes;
  if (std::find(chunks.begin(), chunks.end(), baseline->chunk_shape) ==
      chunks.end()) {
    chunks.push_back(baseline->chunk_shape);
  }
  std::vector<int> fanouts = space.index_fanouts.empty()
                                 ? std::vector<int>{0, 2, 4, 8}
                                 : space.index_fanouts;
  if (std::find(fanouts.begin(), fanouts.end(), baseline->index_fanout) ==
      fanouts.end()) {
    fanouts.push_back(baseline->index_fanout);
  }

  // Level-order axis, advisor-recommended order first so descent starts
  // each round from the closed-form model's pick.
  std::vector<LevelOrder> orders = {LevelOrder::kVMS, LevelOrder::kVSM};
  {
    MLOC_ASSIGN_OR_RETURN(LevelOrder advised,
                          recommend_order(profile_of(queries)));
    if (advised == LevelOrder::kVSM) std::swap(orders[0], orders[1]);
  }

  Rng seed_rng(space.seed);
  std::vector<CurveCandidate> curves = {
      {sfc::CurveKind::kHilbert, false, 0},
      {sfc::CurveKind::kMorton, false, 0},
      {sfc::CurveKind::kRowMajor, false, 0},
      {sfc::CurveKind::kGeneralizedMorton, true, 0},
  };
  for (int i = 0; i < space.interleave_samples; ++i) {
    curves.push_back(
        {sfc::CurveKind::kGeneralizedMorton, false, seed_rng.next_u64()});
  }

  // ---- memoized oracle ----------------------------------------------
  const pfs::PfsConfig& pfs_cfg = source.pfs_config();
  std::map<std::string, double> memo;
  int evaluations = 0;
  auto cost_of = [&](const VariableLayout& layout) -> Result<double> {
    const std::string key = layout_key(layout);
    if (auto it = memo.find(key); it != memo.end()) return it->second;
    MLOC_ASSIGN_OR_RETURN(
        double c, trace_cost(pfs_cfg, shape, var, grid, layout, queries));
    memo.emplace(key, c);
    ++evaluations;
    return c;
  };

  MLOC_ASSIGN_OR_RETURN(const double default_cost, cost_of(*baseline));

  // Apply a curve candidate to a layout whose chunk shape is already set.
  auto with_curve = [&](VariableLayout l,
                        const CurveCandidate& c) -> Result<VariableLayout> {
    const ChunkGrid cg(shape, l.chunk_shape);
    l.curve = c.kind;
    MLOC_ASSIGN_OR_RETURN(l.interleave,
                          materialize_interleave(c, cg.lattice_shape()));
    return l;
  };

  // ---- coordinate descent with random restarts -----------------------
  VariableLayout best = *baseline;
  double best_cost = default_cost;

  const int starts = 1 + std::max(0, space.random_restarts);
  for (int s = 0; s < starts; ++s) {
    VariableLayout cur = *baseline;  // codec and stride stay fixed
    if (s > 0) {
      Rng r(seed_rng.next_u64());
      cur.num_bins = bins[r.next_below(bins.size())];
      cur.chunk_shape = chunks[r.next_below(chunks.size())];
      cur.order = orders[r.next_below(orders.size())];
      cur.index_fanout = fanouts[r.next_below(fanouts.size())];
      MLOC_ASSIGN_OR_RETURN(
          cur, with_curve(cur, curves[r.next_below(curves.size())]));
    }
    auto cur_cost_r = cost_of(cur);
    if (!cur_cost_r.is_ok()) continue;  // degenerate random start
    double cur_cost = cur_cost_r.value();

    for (int round = 0; round < space.max_rounds; ++round) {
      bool improved = false;

      for (LevelOrder o : orders) {
        VariableLayout cand = cur;
        cand.order = o;
        MLOC_ASSIGN_OR_RETURN(double c, cost_of(cand));
        if (c < cur_cost) { cur = cand; cur_cost = c; improved = true; }
      }
      for (int b : bins) {
        VariableLayout cand = cur;
        cand.num_bins = b;
        MLOC_ASSIGN_OR_RETURN(double c, cost_of(cand));
        if (c < cur_cost) { cur = cand; cur_cost = c; improved = true; }
      }
      for (const NDShape& ch : chunks) {
        VariableLayout cand = cur;
        cand.chunk_shape = ch;
        if (cand.curve == sfc::CurveKind::kGeneralizedMorton) {
          // The pattern is lattice-specific: re-canonicalize under the new
          // lattice (sampled refinement happens on the curve axis below).
          const ChunkGrid cg(shape, ch);
          cand.interleave = sfc::canonical_interleave(cg.lattice_shape());
        }
        MLOC_ASSIGN_OR_RETURN(double c, cost_of(cand));
        if (c < cur_cost) { cur = cand; cur_cost = c; improved = true; }
      }
      for (const CurveCandidate& cc : curves) {
        MLOC_ASSIGN_OR_RETURN(VariableLayout cand, with_curve(cur, cc));
        MLOC_ASSIGN_OR_RETURN(double c, cost_of(cand));
        if (c < cur_cost) { cur = cand; cur_cost = c; improved = true; }
      }
      for (int f : fanouts) {
        VariableLayout cand = cur;
        cand.index_fanout = f;
        MLOC_ASSIGN_OR_RETURN(double c, cost_of(cand));
        if (c < cur_cost) { cur = cand; cur_cost = c; improved = true; }
      }

      if (!improved) break;
    }
    if (cur_cost < best_cost) {
      best = cur;
      best_cost = cur_cost;
    }
  }

  TuneResult out;
  out.var = var;
  out.baseline = *baseline;
  out.recommended = best;
  out.predicted_cost_default = default_cost;
  out.predicted_cost_tuned = best_cost;
  out.evaluations = evaluations;
  out.trace_queries = static_cast<int>(queries.size());
  return out;
}

std::string tune_report_json(const std::vector<TuneResult>& results) {
  std::string out = "{\"results\":[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const TuneResult& r = results[i];
    if (i > 0) out += ",";
    out += "\n{\"var\":\"" + r.var + "\",";
    out += "\"trace_queries\":" + std::to_string(r.trace_queries) + ",";
    out += "\"evaluations\":" + std::to_string(r.evaluations) + ",";
    out += "\"predicted_cost_default\":";
    append_cost(out, r.predicted_cost_default);
    out += ",\"predicted_cost_tuned\":";
    append_cost(out, r.predicted_cost_tuned);
    out += ",\"baseline\":";
    append_layout_json(out, r.baseline);
    out += ",\"recommended\":";
    append_layout_json(out, r.recommended);
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

Result<double> estimate_io_seconds(const MlocStore& store,
                                   const std::string& var, const Query& q,
                                   int num_ranks) {
  if (num_ranks < 1) return invalid_argument("tune: num_ranks >= 1");
  // Cost the exact ReadPlan the engine would execute (MlocStore::plan is
  // side-effect-free: it consults the header cache and any attached
  // FragmentProvider but never warms them), so on cold caches this is a
  // prediction of the real plan, not a closed-form approximation.
  //
  // The engine's rank split is not guaranteed monotone in the rank count
  // (a lucky split at fewer ranks can beat an unlucky one at more), but a
  // scheduler granted `num_ranks` processes may always leave some idle.
  // Cost the plan at every power-of-two candidate up to num_ranks and take
  // the best — candidates nest along the power-of-two chain, so more ranks
  // never estimate slower.
  MLOC_ASSIGN_OR_RETURN(exec::PlanSummary sum, store.plan(var, q, num_ranks));
  const pfs::PfsConfig& pfs = store.pfs_config();
  double best = pfs::model_makespan(pfs, sum.planned_io, num_ranks);
  for (int r = 1; r < num_ranks; r *= 2) {
    MLOC_ASSIGN_OR_RETURN(exec::PlanSummary s, store.plan(var, q, r));
    best = std::min(best, pfs::model_makespan(pfs, s.planned_io, r));
  }
  return best;
}

Result<int> recommend_ranks(const MlocStore& store, const std::string& var,
                            const Query& q, int max_ranks, double tolerance) {
  if (max_ranks < 1) return invalid_argument("tune: max_ranks >= 1");
  MLOC_ASSIGN_OR_RETURN(const double at_max,
                        estimate_io_seconds(store, var, q, max_ranks));
  for (int ranks = 1; ranks < max_ranks; ranks *= 2) {
    MLOC_ASSIGN_OR_RETURN(const double est,
                          estimate_io_seconds(store, var, q, ranks));
    if (est <= at_max * (1.0 + tolerance)) return ranks;
  }
  return max_ranks;
}

Result<LevelOrder> recommend_order(const WorkloadProfile& workload,
                                   double avg_fragments_per_bin) {
  // Relative seek cost per bin for each order (byte model of §III-B-5):
  //   V-M-S: reduced-precision read touches `level` group runs; full
  //          precision touches all 7.
  //   V-S-M: full precision streams fragments in one run; reduced
  //          precision seeks once per fragment.
  // The comparison is scale-invariant, so fractions need not sum to 1 —
  // but a negative or non-finite input means the caller's workload
  // accounting is broken, and silently clamping it would launder that bug
  // into a confident recommendation. Reject instead.
  const auto check = [](double w, const char* name) {
    if (!std::isfinite(w) || w < 0.0) {
      return invalid_argument(std::string("recommend_order: ") + name +
                              " must be finite and non-negative");
    }
    return Status::ok();
  };
  MLOC_RETURN_IF_ERROR(check(workload.region_queries, "region_queries"));
  MLOC_RETURN_IF_ERROR(
      check(workload.value_full_precision, "value_full_precision"));
  MLOC_RETURN_IF_ERROR(check(workload.value_reduced, "value_reduced"));
  MLOC_RETURN_IF_ERROR(
      check(avg_fragments_per_bin, "avg_fragments_per_bin"));
  const double region = workload.region_queries;
  const double full = workload.value_full_precision;
  const double reduced = workload.value_reduced;
  // A bin never holds fewer than one fragment.
  const double frags_per_bin = std::max(1.0, avg_fragments_per_bin);
  const double reduced_groups =
      static_cast<double>(std::clamp(workload.reduced_level, 1, 7));
  const double vms =
      reduced * reduced_groups + full * 7.0 + region * 1.0;
  const double vsm = reduced * frags_per_bin + full * 1.0 + region * 1.0;
  return vms <= vsm ? LevelOrder::kVMS : LevelOrder::kVSM;
}

}  // namespace mloc::tune
