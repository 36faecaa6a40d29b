// Hierarchical bitmap index A/B: the same value-query workload planned and
// executed twice on the same store — once through the .hbx tree
// (ExecOptions::use_hbx, the default) and once through the flat per-bin
// positional path (use_hbx = false). Planned I/O is classified by subfile
// (.idx vs .hbx vs .dat) to show the tree's core claim: fully-covered bins
// are answered from aggregate node bitmaps with zero .idx reads, so the
// hierarchical path strictly reduces .idx bytes and never adds modeled
// seeks. Results must stay bit-identical. Counters land in
// BENCH_index.json; CI jq-asserts the reduction and the binary exits
// non-zero on any regression.
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "common/bench_common.hpp"
#include "datagen/datagen.hpp"
#include "util/rng.hpp"

using namespace mloc;
using namespace mloc::bench;

namespace {

constexpr int kRanks = 4;

struct SideTotals {
  std::uint64_t idx_bytes = 0;   ///< planned bytes on .idx subfiles
  std::uint64_t hbx_bytes = 0;   ///< planned bytes on the .hbx subfile
  std::uint64_t dat_bytes = 0;   ///< planned bytes on .dat subfiles
  std::uint64_t modeled_seeks = 0;
  std::uint64_t bytes_read = 0;  ///< executed (merged) bytes
  std::uint64_t aligned_bins = 0;
  double modeled_io_s = 0;
};

struct ConfigResult {
  std::string label;
  int num_bins = 0;
  int fanout = 0;
  int queries = 0;
  SideTotals hier;
  SideTotals flat;
  bool identical = true;
};

/// Split one plan's predicted I/O by subfile kind.
void classify(const exec::PlanSummary& s, const std::set<pfs::FileId>& idx,
              pfs::FileId hbx, SideTotals* out) {
  for (const pfs::IoRecord& r : s.planned_io.records()) {
    if (idx.count(r.file) != 0) {
      out->idx_bytes += r.len;
    } else if (r.file == hbx) {
      out->hbx_bytes += r.len;
    } else {
      out->dat_bytes += r.len;
    }
  }
  out->modeled_seeks += s.stats.modeled_seeks;
}

void json_side(std::FILE* f, const char* key, const SideTotals& t,
               const char* tail) {
  std::fprintf(
      f,
      "      \"%s\": {\"idx_bytes\": %llu, \"hbx_bytes\": %llu, "
      "\"dat_bytes\": %llu, \"modeled_seeks\": %llu, \"bytes_read\": %llu, "
      "\"aligned_bins\": %llu, \"modeled_io_s\": %.9f}%s\n",
      key, static_cast<unsigned long long>(t.idx_bytes),
      static_cast<unsigned long long>(t.hbx_bytes),
      static_cast<unsigned long long>(t.dat_bytes),
      static_cast<unsigned long long>(t.modeled_seeks),
      static_cast<unsigned long long>(t.bytes_read),
      static_cast<unsigned long long>(t.aligned_bins), t.modeled_io_s, tail);
}

}  // namespace

int main() {
  const ScaleConfig cfg = scale_from_env();
  const int queries = std::max(6, cfg.queries_per_cell / 2);
  const Dataset ds = make_gts(false, cfg);
  std::printf("Hierarchical index A/B — value queries on %s, %d per"
              " selectivity cell, %d ranks\n",
              ds.label.c_str(), queries, kRanks);

  struct Config {
    const char* label;
    LevelOrder order;
    sfc::CurveKind curve;
    int num_bins;
    int fanout;
  };
  const std::vector<Config> configs = {
      {"VMS/hilbert  64 bins f4", LevelOrder::kVMS, sfc::CurveKind::kHilbert,
       64, 4},
      {"VSM/morton   96 bins f8", LevelOrder::kVSM, sfc::CurveKind::kMorton,
       96, 8},
      {"VMS/rowmajor 128 bins f2", LevelOrder::kVMS,
       sfc::CurveKind::kRowMajor, 128, 2},
  };
  const double sels[] = {0.05, 0.2, 0.5};

  std::vector<ConfigResult> results;
  for (const Config& c : configs) {
    MlocConfig mc;
    mc.shape = ds.grid.shape();
    mc.layout.chunk_shape = ds.chunk;
    mc.layout.num_bins = c.num_bins;
    mc.layout.codec = kMlocCol;
    mc.layout.order = c.order;
    mc.layout.curve = c.curve;
    mc.layout.index_fanout = c.fanout;

    pfs::PfsStorage fs(default_pfs());
    auto store = MlocStore::create(&fs, "idx", mc);
    MLOC_CHECK_MSG(store.is_ok(), store.status().to_string().c_str());
    MlocStore& st = store.value();
    MLOC_CHECK_MSG(st.write_variable("v", ds.grid).is_ok(),
                   "ingest failed");

    auto var = st.variable("v");
    MLOC_CHECK(var.is_ok());
    MLOC_CHECK_MSG(var.value()->hbx.has_value(),
                   "store built without an index");
    const pfs::FileId hbx_file = var.value()->hbx->file;
    std::set<pfs::FileId> idx_files;
    for (const auto& b : var.value()->bins) idx_files.insert(b.idx.file);

    ConfigResult res;
    res.label = c.label;
    res.num_bins = c.num_bins;
    res.fanout = c.fanout;

    exec::ExecOptions hier_opts;
    exec::ExecOptions flat_opts;
    flat_opts.use_hbx = false;

    // Plan everything first — MlocStore::plan is side-effect-free, so the
    // hierarchical and flat images are costed against identical cache
    // state (cold headers for both sides).
    Rng rng(cfg.seed + 41);
    std::vector<Query> mix;
    for (double sel : sels) {
      for (int i = 0; i < queries; ++i) {
        Query q;
        q.vc = datagen::random_vc(ds.grid, sel, rng);
        q.values_needed = false;
        mix.push_back(q);
      }
    }
    res.queries = static_cast<int>(mix.size());
    for (const Query& q : mix) {
      auto ph = st.plan("v", q, kRanks, hier_opts);
      auto pf = st.plan("v", q, kRanks, flat_opts);
      MLOC_CHECK_MSG(ph.is_ok(), ph.status().to_string().c_str());
      MLOC_CHECK_MSG(pf.is_ok(), pf.status().to_string().c_str());
      classify(ph.value(), idx_files, hbx_file, &res.hier);
      classify(pf.value(), idx_files, hbx_file, &res.flat);
    }

    // Then execute both sides: results must be bit-identical, and the
    // executed byte/seek counters corroborate the planned image.
    for (const Query& q : mix) {
      auto rh = st.execute("v", q, kRanks, hier_opts);
      auto rf = st.execute("v", q, kRanks, flat_opts);
      MLOC_CHECK_MSG(rh.is_ok(), rh.status().to_string().c_str());
      MLOC_CHECK_MSG(rf.is_ok(), rf.status().to_string().c_str());
      res.identical =
          res.identical && rh.value().positions == rf.value().positions;
      res.hier.bytes_read += rh.value().exec.bytes_read;
      res.flat.bytes_read += rf.value().exec.bytes_read;
      res.hier.aligned_bins += rh.value().aligned_bins;
      res.flat.aligned_bins += rf.value().aligned_bins;
      res.hier.modeled_io_s += rh.value().times.io;
      res.flat.modeled_io_s += rf.value().times.io;
    }
    results.push_back(res);
  }

  TablePrinter table("Hierarchical vs flat index resolution (per config)",
                     {".idx KB flat", ".idx KB hier", ".hbx KB hier",
                      "seeks flat", "seeks hier", "aligned bins"});
  for (const ConfigResult& r : results) {
    table.add_row(r.label,
                  {static_cast<double>(r.flat.idx_bytes) / 1024.0,
                   static_cast<double>(r.hier.idx_bytes) / 1024.0,
                   static_cast<double>(r.hier.hbx_bytes) / 1024.0,
                   static_cast<double>(r.flat.modeled_seeks),
                   static_cast<double>(r.hier.modeled_seeks),
                   static_cast<double>(r.hier.aligned_bins)});
  }
  table.print();

  SideTotals total_hier, total_flat;
  bool identical = true;
  for (const ConfigResult& r : results) {
    total_hier.idx_bytes += r.hier.idx_bytes;
    total_hier.hbx_bytes += r.hier.hbx_bytes;
    total_hier.modeled_seeks += r.hier.modeled_seeks;
    total_hier.aligned_bins += r.hier.aligned_bins;
    total_flat.idx_bytes += r.flat.idx_bytes;
    total_flat.modeled_seeks += r.flat.modeled_seeks;
    identical = identical && r.identical;
  }

  // The tree's claim, gated per config: strictly fewer .idx bytes (covered
  // bins skip their positional blobs and fragment tables entirely) and no
  // extra modeled seeks, with bit-identical results.
  bool index_ok = identical;
  for (const ConfigResult& r : results) {
    index_ok = index_ok && r.hier.idx_bytes < r.flat.idx_bytes &&
               r.hier.modeled_seeks <= r.flat.modeled_seeks &&
               r.hier.aligned_bins > 0;
  }

  const char* json_path = std::getenv("MLOC_BENCH_JSON");
  if (json_path == nullptr) json_path = "BENCH_index.json";
  std::FILE* f = std::fopen(json_path, "w");
  MLOC_CHECK_MSG(f != nullptr, "cannot open BENCH_index.json for writing");
  std::fprintf(f, "{\n  \"bench\": \"index\",\n  \"scale\": %.3f,\n",
               cfg.scale);
  std::fprintf(f, "  \"configs\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& r = results[i];
    std::fprintf(f,
                 "    {\"label\": \"%s\", \"num_bins\": %d, \"fanout\": %d, "
                 "\"queries\": %d, \"identical\": %s,\n",
                 r.label.c_str(), r.num_bins, r.fanout, r.queries,
                 r.identical ? "true" : "false");
    json_side(f, "hier", r.hier, ",");
    json_side(f, "flat", r.flat, "");
    std::fprintf(f, "    }%s\n", i + 1 == results.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(
      f,
      "  \"idx_bytes_flat\": %llu,\n  \"idx_bytes_hier\": %llu,\n"
      "  \"hbx_bytes_hier\": %llu,\n  \"modeled_seeks_flat\": %llu,\n"
      "  \"modeled_seeks_hier\": %llu,\n  \"aligned_bins_hier\": %llu,\n"
      "  \"identical\": %s,\n  \"index_ok\": %s\n}\n",
      static_cast<unsigned long long>(total_flat.idx_bytes),
      static_cast<unsigned long long>(total_hier.idx_bytes),
      static_cast<unsigned long long>(total_hier.hbx_bytes),
      static_cast<unsigned long long>(total_flat.modeled_seeks),
      static_cast<unsigned long long>(total_hier.modeled_seeks),
      static_cast<unsigned long long>(total_hier.aligned_bins),
      identical ? "true" : "false", index_ok ? "true" : "false");
  std::fclose(f);

  std::printf("\ntotals: .idx bytes %llu flat -> %llu hier (+%llu .hbx), "
              "seeks %llu -> %llu\n",
              static_cast<unsigned long long>(total_flat.idx_bytes),
              static_cast<unsigned long long>(total_hier.idx_bytes),
              static_cast<unsigned long long>(total_hier.hbx_bytes),
              static_cast<unsigned long long>(total_flat.modeled_seeks),
              static_cast<unsigned long long>(total_hier.modeled_seeks));
  std::printf("wrote %s (index_ok=%s)\n", json_path,
              index_ok ? "true" : "false");

  if (!index_ok) {
    std::fprintf(stderr,
                 "FAIL: hierarchical path did not strictly reduce .idx"
                 " bytes at equal-or-fewer seeks with identical results\n");
    return 1;
  }
  return 0;
}
