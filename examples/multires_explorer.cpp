// Progressive multiresolution exploration (paper §III-B-3): answer the
// same value query at increasing PLoD levels, reporting I/O saved and the
// accuracy of derived statistics at each precision — the
// "coarse-preview-then-refine" workflow PLoD enables.
//
//   $ ./examples/multires_explorer
#include <cmath>
#include <cstdio>

#include "analytics/analytics.hpp"
#include "core/store.hpp"
#include "datagen/datagen.hpp"
#include "plod/plod.hpp"

using namespace mloc;

int main() {
  std::printf("PLoD progressive refinement on an S3D-like field\n");
  const Grid field = datagen::s3d_like(96, /*seed=*/21);

  pfs::PfsStorage fs;
  MlocConfig cfg;
  cfg.shape = field.shape();
  cfg.layout.chunk_shape = NDShape{32, 32, 32};
  cfg.layout.num_bins = 40;
  cfg.layout.codec = "mzip";  // PLoD byte columns require a byte codec
  auto store = MlocStore::create(&fs, "mr", cfg);
  MLOC_CHECK(store.is_ok());
  MLOC_CHECK(store.value().write_variable("temperature", field).is_ok());

  const Region roi(3, {10, 10, 10}, {80, 80, 80});

  // Full-precision reference for error reporting.
  Query full;
  full.sc = roi;
  auto reference = store.value().execute("temperature", full, 8);
  MLOC_CHECK(reference.is_ok());
  const auto ref_stats = analytics::compute_stats(reference.value().values);

  std::printf("  %-12s %12s %18s %16s %14s\n", "PLoD", "bytes read",
              "modeled I/O + CPU", "max rel error", "mean error");
  for (int level = 1; level <= 7; ++level) {
    Query q;
    q.sc = roi;
    q.plod_level = level;
    auto res = store.value().execute("temperature", q, 8);
    MLOC_CHECK(res.is_ok());
    const double max_err = analytics::max_relative_error(
        reference.value().values, res.value().values);
    const auto stats = analytics::compute_stats(res.value().values);
    const double mean_err =
        std::abs(stats.mean - ref_stats.mean) / std::abs(ref_stats.mean);
    std::printf("  %d (%d bytes) %10.2f MB %16.4fs %15.3g %15.3g\n", level,
                plod::level_bytes(level),
                static_cast<double>(res.value().exec.bytes_read) / 1e6,
                res.value().times.total(), max_err, mean_err);
  }
  std::printf(
      "level 2 (3 bytes) already bounds per-point error below %.3g —\n"
      "the paper's 0.008%% mean-analysis regime — at ~3/8 the I/O.\n",
      plod::level_max_relative_error(2));
  return 0;
}
