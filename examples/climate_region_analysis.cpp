// Climate scenario (paper §III-A-2): "for climate datasets, scientists may
// be mostly interested in queries of temperature values within a certain
// spatial region" — spatially-constrained value retrieval followed by
// statistics, on a store whose order favours full-precision spatial reads
// (V-S-M).
//
//   $ ./examples/climate_region_analysis
#include <cmath>
#include <cstdio>

#include "analytics/analytics.hpp"
#include "core/store.hpp"
#include "datagen/datagen.hpp"

using namespace mloc;

int main() {
  std::printf("S3D-like 3-D field, regional value retrieval + statistics\n");
  const Grid field = datagen::s3d_like(128, /*seed=*/11);

  pfs::PfsStorage fs;
  MlocConfig cfg;
  cfg.shape = field.shape();
  cfg.layout.chunk_shape = NDShape{32, 32, 32};
  cfg.layout.num_bins = 50;
  cfg.layout.codec = "mzip";
  cfg.layout.order = LevelOrder::kVSM;  // spatial access at full precision favored
  auto store = MlocStore::create(&fs, "climate", cfg);
  MLOC_CHECK(store.is_ok());
  MLOC_CHECK(store.value().write_variable("temperature", field).is_ok());

  // Three nested "regions of interest".
  const Region regions[] = {
      Region(3, {0, 0, 0}, {32, 32, 32}),
      Region(3, {16, 16, 16}, {80, 80, 80}),
      Region(3, {0, 0, 0}, {128, 128, 128}),
  };
  for (const Region& roi : regions) {
    Query q;
    q.sc = roi;
    auto res = store.value().execute("temperature", q, 8);
    MLOC_CHECK(res.is_ok());
    const auto stats = analytics::compute_stats(res.value().values);
    std::printf(
        "  region %-28s %8llu pts  mean %7.1f K  sd %6.1f  [%6.1f, %6.1f]"
        "  modeled I/O + CPU %.4fs\n",
        roi.to_string().c_str(), static_cast<unsigned long long>(stats.count),
        stats.mean, std::sqrt(stats.variance), stats.min, stats.max,
        res.value().times.total());
  }

  // Combined constraint: burning cells inside a region.
  Query q;
  q.sc = Region(3, {32, 0, 0}, {96, 128, 128});
  q.vc = ValueConstraint{2000.0, 1e9};
  auto res = store.value().execute("temperature", q, 8);
  MLOC_CHECK(res.is_ok());
  std::printf(
      "  burning cells (T>2000K) in mid-slab: %zu (modeled I/O + CPU %.4fs)\n",
              res.value().positions.size(), res.value().times.total());
  return 0;
}
