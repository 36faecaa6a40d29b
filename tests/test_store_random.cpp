// Randomized cross-check sweeps: hundreds of random queries against
// brute-force scans across codecs, level orders, dimensionalities, PLoD
// levels, and rank counts — the safety net for the full pipeline. Also
// fuzzes codec decoders with random corruptions (must error or mismatch,
// never crash or hang).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "compress/registry.hpp"
#include "core/store.hpp"
#include "datagen/datagen.hpp"
#include "plod/plod.hpp"
#include "util/rng.hpp"

namespace mloc {
namespace {

struct Truth {
  std::vector<std::uint64_t> positions;
  std::vector<double> values;
};

Truth brute_force(const Grid& grid, const Query& q) {
  // Store semantics: constraints on original values; returned values at
  // the queried PLoD level.
  Truth out;
  std::vector<double> level_values(grid.values().begin(),
                                   grid.values().end());
  if (q.plod_level < 7) {
    auto shredded = plod::shred(level_values);
    level_values = plod::assemble(shredded, q.plod_level).value();
  }
  for (std::uint64_t i = 0; i < grid.size(); ++i) {
    if (q.vc.has_value() && !q.vc->matches(grid.at_linear(i))) continue;
    if (q.sc.has_value() && !q.sc->contains(grid.shape().delinearize(i))) {
      continue;
    }
    out.positions.push_back(i);
    if (q.values_needed) out.values.push_back(level_values[i]);
  }
  return out;
}

Query random_query(const Grid& grid, Rng& rng, bool allow_plod) {
  Query q;
  const int kind = static_cast<int>(rng.next_below(4));
  if (kind == 0 || kind == 2) {
    q.vc = datagen::random_vc(grid, rng.next_double(0.005, 0.3), rng);
  }
  if (kind == 1 || kind == 2) {
    q.sc = datagen::random_sc(grid.shape(), rng.next_double(0.005, 0.3), rng);
  }
  // kind == 3: unconstrained full fetch (rare but legal).
  q.values_needed = rng.next_double() < 0.7;
  if (allow_plod && rng.next_double() < 0.3) {
    q.plod_level = 1 + static_cast<int>(rng.next_below(7));
  }
  return q;
}

class RandomQueries
    : public ::testing::TestWithParam<std::tuple<
          std::string, LevelOrder, int /*ndims*/, std::uint32_t /*edge*/>> {
};

TEST_P(RandomQueries, MatchBruteForceExactly) {
  const auto& [codec, order, ndims, edge] = GetParam();
  const bool lossless = make_double_codec(codec).value()->lossless();
  const bool plod_capable = is_byte_codec(codec);

  // Edges that are not a multiple of the chunk edge leave short rows in
  // the edge chunks, which the engine's row walk must clip.
  Grid grid = (ndims == 2) ? datagen::gts_like(edge, 77)
                           : datagen::s3d_like(edge, 78);
  MlocConfig cfg;
  cfg.shape = grid.shape();
  cfg.layout.chunk_shape = (ndims == 2) ? NDShape{16, 16} : NDShape{8, 8, 8};
  cfg.layout.num_bins = 12;
  cfg.layout.codec = codec;
  cfg.layout.order = order;
  pfs::PfsStorage fs;
  auto store = MlocStore::create(&fs, "r", cfg);
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().write_variable("v", grid).is_ok());

  Rng rng(1234 + static_cast<std::uint64_t>(order) * 7 + ndims);
  const int num_queries = 40;
  for (int i = 0; i < num_queries; ++i) {
    const Query q = random_query(grid, rng, plod_capable);
    const int ranks = 1 + static_cast<int>(rng.next_below(9));
    auto res = store.value().execute("v", q, ranks);
    ASSERT_TRUE(res.is_ok()) << res.status().to_string();

    if (lossless) {
      const Truth truth = brute_force(grid, q);
      ASSERT_EQ(res.value().positions, truth.positions)
          << "query " << i << " codec " << codec;
      if (q.values_needed) {
        ASSERT_EQ(res.value().values, truth.values) << "query " << i;
      }
    } else {
      // Lossy codec: every returned value within the bound; every returned
      // position consistent with the widened constraints.
      const double eps = make_double_codec(codec).value()->max_relative_error();
      for (std::size_t k = 0; k < res.value().positions.size(); ++k) {
        const std::uint64_t p = res.value().positions[k];
        if (q.sc.has_value()) {
          ASSERT_TRUE(q.sc->contains(grid.shape().delinearize(p)));
        }
        if (q.values_needed) {
          const double truth_v = grid.at_linear(p);
          ASSERT_LE(std::abs(res.value().values[k] - truth_v),
                    eps * std::abs(truth_v) + 1e-300);
        }
        if (q.vc.has_value()) {
          const double v = grid.at_linear(p);
          const double margin = 2 * eps * std::abs(v) + 1e-12;
          ASSERT_GE(v, q.vc->lo - margin);
          ASSERT_LT(v, q.vc->hi + margin);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomQueries,
    ::testing::Values(
        std::tuple{std::string("mzip"), LevelOrder::kVMS, 2, 96u},
        std::tuple{std::string("mzip"), LevelOrder::kVSM, 2, 96u},
        std::tuple{std::string("mzip"), LevelOrder::kVMS, 3, 20u},
        std::tuple{std::string("raw"), LevelOrder::kVSM, 3, 20u},
        std::tuple{std::string("isobar"), LevelOrder::kVMS, 2, 96u},
        std::tuple{std::string("isobar"), LevelOrder::kVMS, 3, 20u},
        std::tuple{std::string("isabela:0.001"), LevelOrder::kVMS, 2, 96u},
        std::tuple{std::string("mzip"), LevelOrder::kVMS, 2, 100u}));

// ---------------------------------------------------------- decoder fuzz

class DecoderFuzz : public ::testing::TestWithParam<std::string> {};

TEST_P(DecoderFuzz, RandomCorruptionsNeverCrash) {
  const std::string codec_name = GetParam();
  auto codec = make_double_codec(codec_name).value();
  Rng rng(555);
  std::vector<double> values(3000);
  for (auto& v : values) v = 100.0 + 20.0 * rng.next_gaussian();
  const Bytes good = codec->encode(values).value();

  for (int trial = 0; trial < 200; ++trial) {
    Bytes bad = good;
    const int mutations = 1 + static_cast<int>(rng.next_below(8));
    for (int m = 0; m < mutations; ++m) {
      const auto mode = rng.next_below(3);
      if (mode == 0 && !bad.empty()) {
        bad[rng.next_below(bad.size())] ^=
            static_cast<std::uint8_t>(1 + rng.next_below(255));
      } else if (mode == 1 && bad.size() > 4) {
        bad.resize(rng.next_below(bad.size()));  // truncate
      } else {
        bad.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
      }
    }
    // Must terminate without UB; outcome may be an error or garbage of a
    // plausible size, never a crash/hang.
    auto res = codec->decode(bad);
    if (res.is_ok()) {
      EXPECT_LT(res.value().size(), values.size() * 16 + 1024);
    }
  }
}

TEST_P(DecoderFuzz, RandomGarbageInputsNeverCrash) {
  const std::string codec_name = GetParam();
  auto codec = make_double_codec(codec_name).value();
  Rng rng(556);
  for (int trial = 0; trial < 200; ++trial) {
    Bytes garbage(rng.next_below(512));
    for (auto& b : garbage) {
      b = static_cast<std::uint8_t>(rng.next_below(256));
    }
    auto res = codec->decode(garbage);
    if (res.is_ok()) {
      EXPECT_LT(res.value().size(), 1u << 22);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Codecs, DecoderFuzz,
                         ::testing::Values("mzip", "isobar", "isabela"));

}  // namespace
}  // namespace mloc
