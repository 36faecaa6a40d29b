// Ablation: subset-based vs precision-based (PLoD) multiresolution —
// the design argument of paper §III-B-3. At matched I/O budgets the
// subset-based approach misses entire points (fine for visualization),
// while PLoD returns every point at bounded precision (fine for
// analytics). Reported: bytes read, point coverage, and mean-statistic
// error for each resolution setting.
#include <cmath>
#include <cstdio>

#include "analytics/analytics.hpp"
#include "common/bench_common.hpp"
#include "multires/subset.hpp"
#include "plod/plod.hpp"

using namespace mloc;
using namespace mloc::bench;

int main() {
  const ScaleConfig cfg = scale_from_env();
  std::printf("Ablation — subset-based vs precision-based multiresolution\n");

  const Dataset s3d = make_s3d(false, cfg);
  const auto truth = analytics::compute_stats(std::vector<double>(
      s3d.grid.values().begin(), s3d.grid.values().end()));

  // Precision-based store (MLOC-COL, PLoD byte columns).
  pfs::PfsStorage fs1(default_pfs());
  auto plod_store = build_mloc(&fs1, "p", s3d, kMlocCol);
  MLOC_CHECK_MSG(plod_store.is_ok(), plod_store.status().to_string().c_str());

  // Subset-based store (hierarchical Hilbert levels).
  pfs::PfsStorage fs2(default_pfs());
  multires::SubsetStore::Config scfg;
  scfg.shape = s3d.grid.shape();
  scfg.num_levels = 4;
  scfg.codec = "mzip";
  auto subset_store = multires::SubsetStore::create(&fs2, "s", scfg);
  MLOC_CHECK(subset_store.is_ok());
  MLOC_CHECK(subset_store.value().write_variable("v", s3d.grid).is_ok());

  TablePrinter table(
      "Multiresolution ablation on S3D (full-domain read)",
      {"Bytes read (MB)", "Point coverage (%)", "Max pt rel err",
       "Mean-stat error"});

  for (int level = 1; level <= 7; level += 1) {
    if (level > 4 && level < 7) continue;  // keep the table compact
    Query q;
    q.plod_level = level;
    auto res = plod_store.value().execute("v", q, 8);
    MLOC_CHECK(res.is_ok());
    const auto stats = analytics::compute_stats(res.value().values);
    table.add_row(
        "PLoD " + std::to_string(level) + " (" + std::to_string(level + 1) +
            "B)",
        {static_cast<double>(res.value().exec.bytes_read) / 1e6, 100.0,
         plod::level_max_relative_error(level),
         std::abs(stats.mean - truth.mean) / std::abs(truth.mean)},
        "%.3g");
  }

  for (int level = 0; level < 4; ++level) {
    auto res = subset_store.value().read_level("v", level, {}, 8);
    MLOC_CHECK(res.is_ok());
    const auto stats = analytics::compute_stats(res.value().values);
    table.add_row(
        "Subset lvl " + std::to_string(level),
        {static_cast<double>(res.value().exec.bytes_read) / 1e6,
         100.0 * subset_store.value().coverage(level),
         0.0,  // returned points are exact...
         std::abs(stats.mean - truth.mean) / std::abs(truth.mean)},
        "%.3g");
  }

  table.print();
  std::printf(
      "\nExpected (paper's argument): subsets read fewest bytes but miss"
      " most points —\nstatistics drift from sampling error; PLoD covers"
      " 100%% of points with a hard\nper-point bound, so mean-statistics"
      " stay accurate at a fraction of full I/O.\n");
  return 0;
}
