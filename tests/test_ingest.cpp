// Parallel ingestion pipeline tests: byte-identical store output for any
// thread count / write-behind combination across every layout config, store
// bytes pinned to recorded sizes and digests, fsck cleanliness of
// pipeline-written stores, ingest stats accounting, re-ingest freshness
// through the fragment cache, and a concurrent ingest+query hammer for
// TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "core/store.hpp"
#include "datagen/datagen.hpp"
#include "ingest/ingest.hpp"
#include "service/fragment_cache.hpp"
#include "tools/fsck.hpp"
#include "util/hash.hpp"

namespace mloc {
namespace {

MlocConfig small_config(const NDShape& shape, const NDShape& chunk,
                        const std::string& codec,
                        LevelOrder order = LevelOrder::kVMS) {
  MlocConfig cfg;
  cfg.shape = shape;
  cfg.layout.chunk_shape = chunk;
  cfg.layout.num_bins = 16;
  cfg.layout.codec = codec;
  cfg.layout.order = order;
  cfg.layout.sample_stride = 7;
  return cfg;
}

/// One layout over one grid: a GTS-like 2-D field, or an S3D-like 3-D one
/// when `dims` is 3, `edge` cells a side, cut into cubes of `chunk` cells a
/// side (the edge chunks are ragged where `chunk` does not divide `edge`).
struct IngestCase {
  std::string codec;
  LevelOrder order = LevelOrder::kVMS;
  int index_fanout = 0;
  int dims = 2;
  std::uint32_t edge = 64;
  std::uint32_t chunk = 16;
  int num_bins = 16;
};

void PrintTo(const IngestCase& c, std::ostream* os) {
  *os << c.codec << (c.order == LevelOrder::kVMS ? " V-M-S" : " V-S-M")
      << " fanout " << c.index_fanout << ", " << c.dims << "-D edge "
      << c.edge << " in " << c.chunk << "-cell chunks";
}

Result<MlocStore> build_store(pfs::PfsStorage& fs, const IngestCase& c,
                              const ingest::WriteOptions& opts) {
  const Grid grid = c.dims == 3 ? datagen::s3d_like(c.edge, 42)
                                : datagen::gts_like(c.edge, 42);
  Coord chunk{};
  chunk.fill(c.chunk);
  MlocConfig cfg = small_config(grid.shape(), NDShape(c.dims, chunk),
                                c.codec, c.order);
  cfg.layout.index_fanout = c.index_fanout;
  cfg.layout.num_bins = c.num_bins;
  auto store = MlocStore::create(&fs, "s", cfg);
  if (!store.is_ok()) return store;
  MLOC_RETURN_IF_ERROR(store.value().write_variable("phi", grid, opts));
  return store;
}

/// Every file's exact bytes, keyed by name — the byte-identity oracle.
std::map<std::string, Bytes> snapshot(const pfs::PfsStorage& fs) {
  std::map<std::string, Bytes> out;
  for (const auto& [name, size] : fs.listing()) {
    auto id = fs.open(name);
    EXPECT_TRUE(id.is_ok());
    auto bytes = fs.read(id.value(), 0, size);
    EXPECT_TRUE(bytes.is_ok());
    out[name] = std::move(bytes).value();
  }
  return out;
}

// -------------------------------------------------- byte-identity sweeps

class IngestConfigs : public ::testing::TestWithParam<IngestCase> {};

TEST_P(IngestConfigs, ParallelOutputByteIdenticalToSerial) {
  pfs::PfsStorage fs_serial;
  auto serial = build_store(fs_serial, GetParam(), {});
  ASSERT_TRUE(serial.is_ok()) << serial.status().to_string();
  const auto want = snapshot(fs_serial);
  ASSERT_FALSE(want.empty());

  // threads = 1 with write-behind runs the flush as an inline pool task.
  for (const int threads : {1, 2, 8}) {
    for (const bool write_behind : {false, true}) {
      pfs::PfsStorage fs;
      auto store = build_store(
          fs, GetParam(), {.threads = threads, .write_behind = write_behind});
      ASSERT_TRUE(store.is_ok()) << store.status().to_string();
      const auto got = snapshot(fs);
      ASSERT_EQ(got.size(), want.size());
      for (const auto& [name, bytes] : want) {
        auto it = got.find(name);
        ASSERT_NE(it, got.end()) << name;
        EXPECT_EQ(it->second, bytes)
            << name << " differs at threads=" << threads
            << " write_behind=" << write_behind;
      }
    }
  }
}

TEST_P(IngestConfigs, FsckCleanOnPipelineStores) {
  for (const bool write_behind : {false, true}) {
    pfs::PfsStorage fs;
    auto store = build_store(fs, GetParam(),
                             {.threads = 4, .write_behind = write_behind});
    ASSERT_TRUE(store.is_ok()) << store.status().to_string();
    fsck::LayoutVerifier verifier(&fs);
    const fsck::Report report = verifier.verify_store("s");
    EXPECT_TRUE(report.ok()) << report.human();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllLayouts, IngestConfigs,
    ::testing::Values(
        IngestCase{"mzip", LevelOrder::kVMS},
        IngestCase{"mzip", LevelOrder::kVSM},
        IngestCase{"raw", LevelOrder::kVMS},
        IngestCase{"isobar", LevelOrder::kVMS},
        IngestCase{"isabela:0.01", LevelOrder::kVMS},
        // A .hbx whose leaves the fold builds from every chunk's blobs.
        IngestCase{"mzip", LevelOrder::kVMS, /*index_fanout=*/4},
        // 3-D, 40 = 16 + 16 + 8 cells a side: 27 chunks, 19 of them ragged.
        IngestCase{"mzip", LevelOrder::kVMS, 0, /*dims=*/3, /*edge=*/40},
        // 2 x 2 chunks, three of them ragged: fewer chunk tasks than the
        // sweep's 8 workers.
        IngestCase{"mzip", LevelOrder::kVSM, 0, 2, 64, /*chunk=*/48}));

// ---------------------------------------------------- golden store bytes

/// One store file as the digest tables below record it. The digest is
/// FNV-1a 64 over the whole file: every store file ends in a CRC-32 of the
/// bytes before it, so a whole-file CRC-32 reads the same constant for
/// every file.
struct FileDigest {
  std::string name;
  std::uint64_t size = 0;
  std::uint64_t fnv = 0;

  bool operator==(const FileDigest&) const = default;
};

std::vector<FileDigest> digests(const pfs::PfsStorage& fs) {
  std::vector<FileDigest> out;
  for (const auto& [name, bytes] : snapshot(fs)) {
    out.push_back({name, bytes.size(), fnv1a64(bytes)});
  }
  return out;
}

/// A layout and the size and digest of every file its ingest writes.
struct GoldenStore {
  IngestCase layout;
  std::vector<FileDigest> files;
};

void PrintTo(const GoldenStore& g, std::ostream* os) { PrintTo(g.layout, os); }

class IngestGolden : public ::testing::TestWithParam<GoldenStore> {};

// Every file an ingest writes, pinned to the size and digest it had when
// these tables were recorded (before mzip decided the stored form from an
// entropy bound and reused its tokenizer buffers per thread; both are
// meant to leave every byte as it was). 256^2 cells in 64-cell chunks
// and 4 bins give fragments of about 1,024 values, so mzip sees planes
// that code dynamic, planes that code stored, and planes between. A
// change that moves a store byte fails here; on a failure the test
// prints the table it got, for a change that means to move them.
TEST_P(IngestGolden, StoreFilesMatchRecordedSizesAndDigests) {
  const GoldenStore& golden = GetParam();
  for (const int threads : {1, 4}) {
    pfs::PfsStorage fs;
    auto store = build_store(fs, golden.layout,
                             {.threads = threads, .write_behind = true});
    ASSERT_TRUE(store.is_ok()) << store.status().to_string();
    const std::vector<FileDigest> got = digests(fs);
    EXPECT_EQ(got, golden.files) << "threads=" << threads;
    if (got != golden.files) {
      for (const FileDigest& d : got) {
        std::printf("          {\"%s\", %llu, 0x%016llxull},\n",
                    d.name.c_str(), static_cast<unsigned long long>(d.size),
                    static_cast<unsigned long long>(d.fnv));
      }
    }
  }
}

const std::vector<GoldenStore>& golden_stores() {
  static const std::vector<GoldenStore> stores = {
      GoldenStore{{"mzip", LevelOrder::kVMS, /*index_fanout=*/2, 2, 256,
                   64, /*num_bins=*/4},
                  {{"s.meta", 127, 0x55b93199acfa9216ull},
                   {"s/phi.bin0.dat", 115905, 0xd169a20a165c8f73ull},
                   {"s/phi.bin0.idx", 18433, 0x38b70195833de0d3ull},
                   {"s/phi.bin1.dat", 119054, 0x50506ca14aee874cull},
                   {"s/phi.bin1.idx", 18217, 0x65e5f85b4ce1e91aull},
                   {"s/phi.bin2.dat", 118835, 0xfe5091e907f06b1full},
                   {"s/phi.bin2.idx", 18531, 0xb8eef66b4d0a3eabull},
                   {"s/phi.bin3.dat", 114358, 0x1a7f722858beb555ull},
                   {"s/phi.bin3.idx", 18233, 0x8294d953510c5a77ull},
                   {"s/phi.hbx", 46438, 0x213aef3b3b7b31eaull}}},
      GoldenStore{{"mzip", LevelOrder::kVSM, 0, 2, 256, 64, 4},
                  {{"s.meta", 126, 0xa202f46146713522ull},
                   {"s/phi.bin0.dat", 115905, 0xd1c0ce12834114b8ull},
                   {"s/phi.bin0.idx", 18430, 0x1969f63487d6c49eull},
                   {"s/phi.bin1.dat", 119054, 0x8ad89bde714536a2ull},
                   {"s/phi.bin1.idx", 18221, 0x33acd71b4432aebfull},
                   {"s/phi.bin2.dat", 118835, 0xd53fce9ae961731dull},
                   {"s/phi.bin2.idx", 18533, 0x934c52059d1927beull},
                   {"s/phi.bin3.dat", 114358, 0x07ab711887fac63eull},
                   {"s/phi.bin3.idx", 18230, 0xaf28299904e62d14ull}}},
      GoldenStore{{"isobar", LevelOrder::kVMS, 0, 2, 256, 64, 4},
                  {{"s.meta", 130, 0x7fe88a60f4f62913ull},
                   {"s/phi.bin0.dat", 115269, 0x4f7ac2fb718a7b7cull},
                   {"s/phi.bin0.idx", 17197, 0x3523f72a96cb0953ull},
                   {"s/phi.bin1.dat", 117443, 0xedb693539404b98bull},
                   {"s/phi.bin1.idx", 16980, 0xad5ac1b126bec7ffull},
                   {"s/phi.bin2.dat", 116537, 0xee8d009b11ca1cfdull},
                   {"s/phi.bin2.idx", 17296, 0x3e374fa6ca42cf83ull},
                   {"s/phi.bin3.dat", 113645, 0x5f78581ef7166ce1ull},
                   {"s/phi.bin3.idx", 16998, 0x7df909881c8d035full}}},
      GoldenStore{{"isabela:0.01", LevelOrder::kVMS, 0, 2, 256, 64, 4},
                  {{"s.meta", 142, 0xdb5d072d7bc2830dull},
                   {"s/phi.bin0.dat", 30802, 0xcea8115f2ac52f30ull},
                   {"s/phi.bin0.idx", 17191, 0x7882a8db382bb593ull},
                   {"s/phi.bin1.dat", 33233, 0x84c5b72409c12b5cull},
                   {"s/phi.bin1.idx", 16973, 0x412cf987b541aba9ull},
                   {"s/phi.bin2.dat", 31695, 0x434525f3923f3df9ull},
                   {"s/phi.bin2.idx", 17289, 0xf24900cb5cfb5bdbull},
                   {"s/phi.bin3.dat", 30960, 0xb7aa0e16ec3484d4ull},
                   {"s/phi.bin3.idx", 16992, 0x4b2ff7c2c31d232full}}}};
  return stores;
}

INSTANTIATE_TEST_SUITE_P(RecordedStores, IngestGolden,
                         ::testing::ValuesIn(golden_stores()));

// ------------------------------------------------------- stats and reuse

TEST(Ingest, StatsAccountForTheWrite) {
  pfs::PfsStorage fs;
  Grid grid = datagen::gts_like(64, 42);
  auto store = MlocStore::create(
      &fs, "s", small_config(grid.shape(), NDShape{16, 16}, "mzip"));
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value()
                  .write_variable("phi", grid, {.threads = 2})
                  .is_ok());
  const ingest::IngestStats stats = store.value().ingest_stats();
  EXPECT_EQ(stats.cells_routed, grid.size());
  EXPECT_GT(stats.fragments_encoded, 0u);
  EXPECT_EQ(stats.bins_written, 16u);
  EXPECT_GT(stats.bytes_written, 0u);
  EXPECT_GT(stats.wall_s, 0.0);
  EXPECT_GT(stats.partition_s, 0.0);
  EXPECT_GT(stats.encode_s, 0.0);
  EXPECT_EQ(stats.threads, 2);

  // A second, serial write accumulates, its encode time included.
  ASSERT_TRUE(store.value().write_variable("psi", grid).is_ok());
  const ingest::IngestStats two = store.value().ingest_stats();
  EXPECT_EQ(two.cells_routed, 2 * grid.size());
  EXPECT_EQ(two.fragments_encoded, 2 * stats.fragments_encoded);
  EXPECT_EQ(two.bins_written, 32u);
  EXPECT_GT(two.partition_s, stats.partition_s);
  EXPECT_GT(two.encode_s, stats.encode_s);
  EXPECT_EQ(two.threads, 1);  // last write's configuration
}

TEST(Ingest, ReingestServesFreshDataThroughWarmCache) {
  // A query warms the fragment cache; re-writing the variable must not let
  // stale decompressed payloads answer for the new data (epoch bump +
  // provider erase).
  pfs::PfsStorage fs;
  Grid grid = datagen::gts_like(64, 42);
  auto store = MlocStore::create(
      &fs, "s", small_config(grid.shape(), NDShape{16, 16}, "mzip"));
  ASSERT_TRUE(store.is_ok());
  service::FragmentCache cache;
  store.value().set_fragment_provider(&cache);
  ASSERT_TRUE(store.value().write_variable("phi", grid).is_ok());

  Query q;
  q.sc = Region(2, {0, 0}, {16, 16});
  q.values_needed = true;
  auto cold = store.value().execute("phi", q);
  ASSERT_TRUE(cold.is_ok());
  ASSERT_GT(cache.stats().entries, 0u);  // the cache really is warm

  Grid fresh = datagen::gts_like(64, 99);
  ASSERT_TRUE(
      store.value().write_variable("phi", fresh, {.threads = 2}).is_ok());
  EXPECT_EQ(cache.stats().entries, 0u);  // old generation erased

  auto warm = store.value().execute("phi", q);
  ASSERT_TRUE(warm.is_ok());
  ASSERT_EQ(warm.value().values.size(), 256u);
  for (std::size_t i = 0; i < warm.value().values.size(); ++i) {
    const Coord c = fresh.shape().delinearize(warm.value().positions[i]);
    EXPECT_EQ(warm.value().values[i], fresh.at(c)) << i;
  }
}

// ------------------------------------------------------------ TSan hammer

TEST(Ingest, ConcurrentIngestAndQueryHammer) {
  // Queries against a stable variable run from several threads while the
  // main thread repeatedly re-ingests a second variable through the
  // parallel pipeline with write-behind. Every query must succeed: ingest
  // touches only "hot"'s subfiles and the store publishes states under its
  // reader/writer gate.
  pfs::PfsStorage fs;
  Grid grid = datagen::gts_like(64, 42);
  auto store = MlocStore::create(
      &fs, "s", small_config(grid.shape(), NDShape{16, 16}, "mzip"));
  ASSERT_TRUE(store.is_ok());
  service::FragmentCache cache;
  store.value().set_fragment_provider(&cache);
  ASSERT_TRUE(store.value().write_variable("stable", grid).is_ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(3);
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Query q;
      q.sc = Region(2, {0, 0}, {32, 32});
      q.values_needed = true;
      if (t == 1) q.vc = ValueConstraint{-0.5, 0.75};
      while (!stop.load(std::memory_order_relaxed)) {
        auto res = store.value().execute("stable", q, 2);
        if (!res.is_ok()) failures.fetch_add(1);
      }
    });
  }
  for (int round = 0; round < 6; ++round) {
    Grid hot = datagen::gts_like(64, 100 + round);
    ASSERT_TRUE(store.value()
                    .write_variable("hot", hot,
                                    {.threads = 2, .write_behind = true})
                    .is_ok())
        << round;
  }
  stop.store(true);
  for (auto& r : readers) r.join();
  EXPECT_EQ(failures.load(), 0);

  // The hammered store is still structurally sound.
  fsck::LayoutVerifier verifier(&fs);
  const fsck::Report report = verifier.verify_store("s");
  EXPECT_TRUE(report.ok()) << report.human();
}

}  // namespace
}  // namespace mloc
