// Ingestion pipeline throughput: serial vs parallel write_variable sweep
// (1/2/4/8 threads with write-behind) across three layout configs, with a
// built-in byte-identity self-check — every parallel store's files must be
// byte-for-byte equal to the serial store's, CRC footers included — and an
// fsck pass over the 4-thread store. Results land in BENCH_ingest.json
// (`MLOC_BENCH_JSON` overrides the path) so CI can jq-assert the two core
// claims: `parallel_identical == true` and `speedup_4t >= 1.5`. Every run,
// serial and parallel, also records `encode_s`, the encode seconds summed
// over its threads, so a parallel encode that costs more CPU than the
// serial one shows beside its wall time.
//
// Speedups are wall-clock and only meaningful when the host actually has
// the cores, so both this binary's exit status and the CI jq assertion
// enforce the 4t floor only when `host_threads >= 4` (hardware_concurrency
// may also report 0 = unknown); the identity check is load-bearing at any
// core count.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/bench_common.hpp"
#include "core/store.hpp"
#include "ingest/ingest.hpp"
#include "tools/fsck.hpp"
#include "util/timer.hpp"

using namespace mloc;
using namespace mloc::bench;

namespace {

struct LayoutConfig {
  const char* key;    // JSON identifier
  const char* codec;
  LevelOrder order;
};

const std::vector<LayoutConfig> kConfigs = {
    {"mzip-vms", kMlocCol, LevelOrder::kVMS},
    {"mzip-vsm", kMlocCol, LevelOrder::kVSM},
    {"isabela-vms", kMlocIsa, LevelOrder::kVMS},
};

const std::vector<int> kThreadCounts = {2, 4, 8};

/// Every file's exact bytes, keyed by name — the byte-identity oracle.
std::map<std::string, Bytes> snapshot(const pfs::PfsStorage& fs) {
  std::map<std::string, Bytes> out;
  for (const auto& [name, size] : fs.listing()) {
    auto id = fs.open(name);
    MLOC_CHECK_MSG(id.is_ok(), name.c_str());
    auto bytes = fs.read(id.value(), 0, size);
    MLOC_CHECK_MSG(bytes.is_ok(), name.c_str());
    out[name] = std::move(bytes).value();
  }
  return out;
}

struct IngestRun {
  double wall_s = 0;                  // best-of-reps write_variable wall
  ingest::IngestStats stats;          // stats from the best rep
  std::map<std::string, Bytes> files; // store bytes from the last rep
  bool fsck_ok = true;
};

/// Ingest `ds` into a fresh store `reps` times with `opts`; keep the best
/// wall time and the final store's file bytes.
IngestRun run_ingest(const Dataset& ds, const LayoutConfig& lc,
                     const ingest::WriteOptions& opts, int reps,
                     bool run_fsck) {
  IngestRun out;
  out.wall_s = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    pfs::PfsStorage fs(default_pfs());
    MlocConfig cfg;
    cfg.shape = ds.grid.shape();
    cfg.layout.chunk_shape = ds.chunk;
    cfg.layout.num_bins = 64;
    cfg.layout.codec = lc.codec;
    cfg.layout.order = lc.order;
    auto store = MlocStore::create(&fs, "bench", cfg);
    MLOC_CHECK_MSG(store.is_ok(), store.status().to_string().c_str());

    Stopwatch sw;
    Status st = store.value().write_variable("v", ds.grid, opts);
    const double wall = sw.seconds();
    MLOC_CHECK_MSG(st.is_ok(), st.to_string().c_str());
    if (wall < out.wall_s) {
      out.wall_s = wall;
      out.stats = store.value().ingest_stats();
    }
    if (rep + 1 == reps) {
      out.files = snapshot(fs);
      if (run_fsck) {
        fsck::Report report = fsck::LayoutVerifier(&fs).verify_store("bench");
        out.fsck_ok = report.ok();
        if (!out.fsck_ok) {
          std::fprintf(stderr, "fsck failed:\n%s\n", report.human().c_str());
        }
      }
    }
  }
  return out;
}

bool same_files(const std::map<std::string, Bytes>& a,
                const std::map<std::string, Bytes>& b) {
  return a == b;
}

}  // namespace

int main() {
  const ScaleConfig cfg = scale_from_env();
  const char* reps_env = std::getenv("MLOC_INGEST_REPS");
  const int reps = std::max(1, reps_env != nullptr ? std::atoi(reps_env) : 2);
  const int host_threads =
      static_cast<int>(std::thread::hardware_concurrency());
  const Dataset ds = make_gts(false, cfg);
  std::printf("Ingestion pipeline — %s, 64 bins, best of %d rep(s), host"
              " has %d hardware thread(s)\n",
              ds.label.c_str(), reps, host_threads);

  // per config: serial run + one run per parallel thread count.
  std::vector<IngestRun> serial(kConfigs.size());
  std::vector<std::vector<IngestRun>> par(
      kConfigs.size(), std::vector<IngestRun>(kThreadCounts.size()));
  bool all_identical = true;
  bool all_fsck_ok = true;

  TablePrinter table("Ingest wall seconds (lower is better)",
                     {"serial", "2t", "4t", "8t", "4t speedup"});
  for (std::size_t c = 0; c < kConfigs.size(); ++c) {
    serial[c] = run_ingest(ds, kConfigs[c], {}, reps, /*run_fsck=*/false);
    for (std::size_t t = 0; t < kThreadCounts.size(); ++t) {
      const bool fsck_this = kThreadCounts[t] == 4;
      par[c][t] = run_ingest(
          ds, kConfigs[c],
          {.threads = kThreadCounts[t], .write_behind = true}, reps,
          fsck_this);
      const bool identical = same_files(serial[c].files, par[c][t].files);
      all_identical = all_identical && identical;
      all_fsck_ok = all_fsck_ok && par[c][t].fsck_ok;
      if (!identical) {
        std::fprintf(stderr, "FAIL: %s at %d threads is not byte-identical"
                             " to the serial store\n",
                     kConfigs[c].key, kThreadCounts[t]);
      }
    }
    table.add_row(kConfigs[c].key,
                  {serial[c].wall_s, par[c][0].wall_s, par[c][1].wall_s,
                   par[c][2].wall_s, serial[c].wall_s / par[c][1].wall_s},
                  "%.3f");
  }
  table.print();

  // Aggregate speedups: total serial wall over total parallel wall.
  std::vector<double> speedup(kThreadCounts.size(), 0.0);
  double serial_total = 0;
  for (std::size_t c = 0; c < kConfigs.size(); ++c) {
    serial_total += serial[c].wall_s;
  }
  for (std::size_t t = 0; t < kThreadCounts.size(); ++t) {
    double par_total = 0;
    for (std::size_t c = 0; c < kConfigs.size(); ++c) {
      par_total += par[c][t].wall_s;
    }
    speedup[t] = serial_total / par_total;
  }
  std::printf("\naggregate speedup: %.2fx at 2t, %.2fx at 4t, %.2fx at 8t"
              " (identical=%s, fsck=%s)\n",
              speedup[0], speedup[1], speedup[2],
              all_identical ? "yes" : "NO", all_fsck_ok ? "clean" : "DIRTY");

  const char* json_path = std::getenv("MLOC_BENCH_JSON");
  if (json_path == nullptr) json_path = "BENCH_ingest.json";
  std::FILE* f = std::fopen(json_path, "w");
  MLOC_CHECK_MSG(f != nullptr, "cannot open BENCH_ingest.json for writing");
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"ingest\",\n");
  std::fprintf(f, "  \"scale\": %.3f,\n", cfg.scale);
  std::fprintf(f, "  \"reps\": %d,\n", reps);
  std::fprintf(f, "  \"host_threads\": %d,\n", host_threads);
  std::fprintf(f, "  \"grid_cells\": %llu,\n",
               static_cast<unsigned long long>(ds.grid.size()));
  std::fprintf(f, "  \"configs\": [\n");
  for (std::size_t c = 0; c < kConfigs.size(); ++c) {
    std::fprintf(f, "    {\"config\": \"%s\", \"serial_s\": %.6f, "
                    "\"encode_s\": %.6f, \"flush_s\": %.6f, \"parallel\":\n",
                 kConfigs[c].key, serial[c].wall_s,
                 serial[c].stats.encode_s, serial[c].stats.flush_s);
    std::fprintf(f, "      [\n");
    for (std::size_t t = 0; t < kThreadCounts.size(); ++t) {
      const bool identical = same_files(serial[c].files, par[c][t].files);
      std::fprintf(
          f,
          "        {\"threads\": %d, \"wall_s\": %.6f, \"encode_s\": %.6f, "
          "\"speedup\": %.3f, \"identical\": %s, \"fsck_ok\": %s}%s\n",
          kThreadCounts[t], par[c][t].wall_s, par[c][t].stats.encode_s,
          serial[c].wall_s / par[c][t].wall_s, identical ? "true" : "false",
          par[c][t].fsck_ok ? "true" : "false",
          t + 1 == kThreadCounts.size() ? "" : ",");
    }
    std::fprintf(f, "      ]}%s\n", c + 1 == kConfigs.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"parallel_identical\": %s,\n",
               all_identical ? "true" : "false");
  std::fprintf(f, "  \"fsck_ok\": %s,\n", all_fsck_ok ? "true" : "false");
  std::fprintf(f, "  \"speedup_2t\": %.3f,\n", speedup[0]);
  std::fprintf(f, "  \"speedup_4t\": %.3f,\n", speedup[1]);
  std::fprintf(f, "  \"speedup_8t\": %.3f\n", speedup[2]);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", json_path);

  if (!all_identical || !all_fsck_ok) {
    std::fprintf(stderr, "FAIL: parallel ingest output differs from serial"
                         " or fsck found damage\n");
    return 1;
  }
  if (host_threads < 4) {
    std::printf("note: host reports %d hardware thread(s) (0 = unknown);"
                " skipping the 4t speedup floor\n",
                host_threads);
  } else if (speedup[1] < 1.5) {
    std::fprintf(stderr,
                 "FAIL: 4-thread speedup %.2fx is below the 1.5x floor on a"
                 " %d-thread host\n",
                 speedup[1], host_threads);
    return 1;
  }
  return 0;
}
