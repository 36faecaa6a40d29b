// Fusion scenario (paper §III-A-2): "for fusion simulation datasets
// scientists may mainly be interested in queries of regions with
// temperature values higher than some threshold" — so the store is
// configured VC-first and queried with threshold region queries at several
// selectivities, comparing against a raw sequential scan.
//
//   $ ./examples/fusion_threshold_query
#include <algorithm>
#include <cstdio>
#include <vector>

#include "baselines/seqscan.hpp"
#include "core/store.hpp"
#include "datagen/datagen.hpp"

using namespace mloc;

int main() {
  std::printf("GTS-like fusion field, threshold region queries\n");
  const Grid field = datagen::gts_like(1024, /*seed=*/7);

  pfs::PfsStorage fs;
  MlocConfig cfg;
  cfg.shape = field.shape();
  cfg.layout.chunk_shape = NDShape{128, 128};
  cfg.layout.num_bins = 100;  // VC optimization first: fine-grained binning
  cfg.layout.codec = "isobar";
  auto store = MlocStore::create(&fs, "gts", cfg);
  MLOC_CHECK(store.is_ok());
  MLOC_CHECK(store.value().write_variable("temperature", field).is_ok());

  auto seqscan = baselines::SeqScanStore::create(&fs, "gts_raw", field);
  MLOC_CHECK(seqscan.is_ok());

  // Thresholds at decreasing quantiles of the field ("abnormally high").
  std::vector<double> sorted(field.values().begin(), field.values().end());
  std::sort(sorted.begin(), sorted.end());
  for (double quantile : {0.999, 0.99, 0.9}) {
    const double threshold =
        sorted[static_cast<std::size_t>(quantile * (sorted.size() - 1))];

    Query q;
    q.vc = ValueConstraint{threshold,
                           std::numeric_limits<double>::infinity()};
    q.values_needed = false;
    auto mloc_res = store.value().execute("temperature", q, 8);
    MLOC_CHECK(mloc_res.is_ok());

    auto scan_res = seqscan.value().region_query(*q.vc, false, 8);
    MLOC_CHECK(scan_res.is_ok());
    MLOC_CHECK(scan_res.value().positions == mloc_res.value().positions);

    std::printf(
        "  T > %+.4f (top %4.1f%%): %7zu points | modeled I/O + CPU: MLOC"
        " %.4fs (%5.2f MB read, %llu bins), scan %.4fs (%5.2f MB)\n",
        threshold, 100 * (1 - quantile), mloc_res.value().positions.size(),
        mloc_res.value().times.total(),
        static_cast<double>(mloc_res.value().exec.bytes_read) / 1e6,
        static_cast<unsigned long long>(mloc_res.value().bins_touched),
        scan_res.value().times.total(),
        static_cast<double>(scan_res.value().exec.bytes_read) / 1e6);
  }
  std::printf("answers verified identical against the sequential scan\n");
  return 0;
}
