// Reproduces paper Fig. 8: multiresolution (PLoD) value-query performance
// at 1% selectivity on the large datasets, MLOC-COL, levels 2..7.
// Expected shape: response time grows with PLoD level, driven almost
// entirely by I/O (more byte groups fetched); reconstruction stays flat.
#include <cstdio>

#include "common/bench_common.hpp"

using namespace mloc;
using namespace mloc::bench;

int main() {
  const ScaleConfig cfg = scale_from_env();
  const int queries = std::max(3, cfg.queries_per_cell / 4);
  std::printf("Fig. 8 reproduction — PLoD value queries (1%%) on large"
              " datasets, MLOC-COL, %d queries per point\n", queries);

  const Dataset gts = make_gts(true, cfg);
  const Dataset s3d = make_s3d(true, cfg);
  constexpr int kRanks = 8;

  for (const Dataset* ds : {&gts, &s3d}) {
    pfs::PfsStorage fs(default_pfs());
    auto store = build_mloc(&fs, "f8", *ds, kMlocCol);
    MLOC_CHECK_MSG(store.is_ok(), store.status().to_string().c_str());

    TablePrinter table(
        std::string("Fig 8: PLoD sweep, 1% value queries on ") + ds->label,
        {"I/O (s)", "Decompress (s)", "Reconstruct (s)", "Total (s)",
         "Bytes read (MB)"});
    for (int level = 2; level <= 7; ++level) {
      Rng rng(cfg.seed + 81);  // same queries at every level
      ComponentTimes sum;
      std::uint64_t bytes = 0;
      for (int i = 0; i < queries; ++i) {
        Query q;
        q.sc = datagen::random_sc(ds->grid.shape(), 0.01, rng);
        q.plod_level = level;
        auto res = store.value().execute("v", q, kRanks);
        MLOC_CHECK(res.is_ok());
        sum += res.value().times;
        bytes += res.value().exec.bytes_read;
      }
      sum /= queries;
      table.add_row("PLoD " + std::to_string(level) + " (" +
                        std::to_string(level + 1) + "B)",
                    {sum.io, sum.decompress, sum.reconstruct, sum.total(),
                     static_cast<double>(bytes / queries) / 1e6},
                    "%.4f");
    }
    table.print();
  }

  std::printf(
      "\nPaper Fig. 8 shape: lower PLoD => proportionally less I/O and lower"
      " total;\nreconstruction flat across levels.\n");
  return 0;
}
