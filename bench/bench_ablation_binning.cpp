// Ablation: equal-frequency vs equal-width binning — the paper's §III-B-1
// claim that "MLOC applies equal frequency binning to prevent load
// imbalance". Reports bin-population imbalance and the mean/worst region
// query times under both schemes on a skewed (Gaussian-ish) field.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/bench_common.hpp"

using namespace mloc;
using namespace mloc::bench;

int main() {
  const ScaleConfig cfg = scale_from_env();
  const int queries = std::max(10, cfg.queries_per_cell);
  std::printf("Ablation — equal-frequency vs equal-width binning, %d"
              " queries\n", queries);

  const Dataset gts = make_gts(false, cfg);
  constexpr int kRanks = 8;

  TablePrinter table(
      "Binning ablation on GTS (skewed value distribution)",
      {"max/min bin pop", "mean region q (s)", "worst region q (s)"});

  for (const auto& [label, kind] :
       std::vector<std::pair<std::string, BinningKind>>{
           {"equal-frequency", BinningKind::kEqualFrequency},
           {"equal-width", BinningKind::kEqualWidth}}) {
    pfs::PfsStorage fs(default_pfs());
    MlocConfig mcfg;
    mcfg.shape = gts.grid.shape();
    mcfg.layout.chunk_shape = gts.chunk;
    mcfg.layout.num_bins = 100;
    mcfg.layout.codec = kMlocCol;
    mcfg.layout.binning = kind;
    auto store = MlocStore::create(&fs, "bk", mcfg);
    MLOC_CHECK_MSG(store.is_ok(), store.status().to_string().c_str());
    MLOC_CHECK(store.value().write_variable("v", gts.grid).is_ok());

    // Bin population imbalance from the actual scheme.
    const BinningScheme* scheme = &store.value().variable("v").value()->scheme;
    std::vector<std::uint64_t> pop(scheme->num_bins(), 0);
    for (std::uint64_t i = 0; i < gts.grid.size(); ++i) {
      ++pop[scheme->bin_of(gts.grid.at_linear(i))];
    }
    std::uint64_t mx = 0, mn = ~0ull;
    for (auto p : pop) {
      mx = std::max(mx, p);
      mn = std::min(mn, p == 0 ? 1 : p);  // avoid div by zero display
    }

    Rng rng(cfg.seed + 104);
    double total = 0, worst = 0;
    for (int i = 0; i < queries; ++i) {
      Query q;
      q.vc = datagen::random_vc(gts.grid, 0.02, rng);
      q.values_needed = false;
      auto res = store.value().execute("v", q, kRanks);
      MLOC_CHECK(res.is_ok());
      total += res.value().times.total();
      worst = std::max(worst, res.value().times.total());
    }
    table.add_row(label,
                  {static_cast<double>(mx) / static_cast<double>(mn),
                   total / queries, worst},
                  "%.4f");
  }
  table.print();
  std::printf(
      "\nExpected: equal-width bins are badly imbalanced on skewed data"
      " (dense\ncenter bins hold orders of magnitude more points), making"
      " query cost\nunpredictable — the paper's argument for equal"
      " frequency.\n");
  return 0;
}
