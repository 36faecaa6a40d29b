// Multi-variable access (paper §III-D-4): select the spatial region where
// the temperature satisfies a constraint (region-only pass on variable A),
// then fetch the fuel mass fraction there (value retrieval on variable B
// through the shared position bitmap) — "what are the temperature values
// within New York, where the humidity is above 90%?" pattern.
//
//   $ ./examples/multivar_query
#include <cmath>
#include <cstdio>

#include "analytics/analytics.hpp"
#include "core/store.hpp"
#include "datagen/datagen.hpp"

using namespace mloc;

int main() {
  std::printf("multi-variable query: fuel fraction where T in [2000, 2400)\n");
  const Grid temperature = datagen::s3d_like(96, /*seed=*/31);
  const Grid fuel = datagen::s3d_species_like(temperature, /*seed=*/32);

  pfs::PfsStorage fs;
  MlocConfig cfg;
  cfg.shape = temperature.shape();
  cfg.layout.chunk_shape = NDShape{32, 32, 32};
  cfg.layout.num_bins = 50;
  cfg.layout.codec = "mzip";
  auto store = MlocStore::create(&fs, "mv", cfg);
  MLOC_CHECK(store.is_ok());
  MLOC_CHECK(store.value().write_variable("temperature", temperature).is_ok());
  MLOC_CHECK(store.value().write_variable("fuel", fuel).is_ok());

  const ValueConstraint burning{2000.0, 2400.0};
  auto res = store.value().multivar_select(
      {{"temperature", burning}}, MlocStore::Combine::kAnd, "fuel",
      /*plod_level=*/7, /*num_ranks=*/8);
  MLOC_CHECK(res.is_ok());

  const auto stats = analytics::compute_stats(res.value().values);
  std::printf(
      "  %llu burning cells; fuel fraction there: mean %.5f (sd %.5f)\n",
      static_cast<unsigned long long>(stats.count), stats.mean,
      std::sqrt(stats.variance));
  std::printf("  modeled %s\n", res.value().times.to_string().c_str());

  // Cross-check against the raw grids.
  double expect_sum = 0;
  std::uint64_t expect_n = 0;
  for (std::uint64_t i = 0; i < temperature.size(); ++i) {
    if (burning.matches(temperature.at_linear(i))) {
      expect_sum += fuel.at_linear(i);
      ++expect_n;
    }
  }
  MLOC_CHECK(expect_n == stats.count);
  std::printf("  verified against raw grids: %llu cells, mean %.5f\n",
              static_cast<unsigned long long>(expect_n),
              expect_sum / static_cast<double>(expect_n));
  return 0;
}
