// Serving-layer throughput: client count x fragment-cache budget sweep on
// a repeated-region exploration workload (the access pattern §II calls
// heterogeneous exploration: clients revisit overlapping regions at mixed
// PLoD levels). Reports queries/sec both in wall-clock terms and in
// modeled I/O time (the PFS cost model's virtual clock alone), p50/p95
// per-query latency on both clocks, the measured decode and reconstruct
// CPU per query beside them, the cache hit ratio and payload bytes never
// re-read. The two clocks are never summed here. A cell whose queries
// read nothing has no modeled I/O throughput (JSON null).
//
// A second section exercises the staged execution engine directly:
// the same query mix runs cold vs warm (shared FragmentCache) and
// coalesced vs naive (ExecOptions::naive_io), and the extent/seek
// counters land in a machine-readable BENCH_engine.json so the perf
// trajectory is tracked across PRs. Exits non-zero if coalescing fails
// to reduce extents — CI runs this as a smoke test of the engine's
// core claim.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "common/bench_common.hpp"
#include "service/query_service.hpp"
#include "util/timer.hpp"

using namespace mloc;
using namespace mloc::bench;

namespace {

/// Nearest-rank percentile over an unsorted sample (sorted in place).
double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

struct CellResult {
  double wall_qps = 0;
  double modeled_qps = 0;  ///< from modeled I/O; +inf when it is all zero
  double p50_modeled_ms = 0;
  double p95_modeled_ms = 0;
  double p50_wall_ms = 0;
  double p95_wall_ms = 0;
  double cpu_ms_per_query = 0;  ///< measured decompress + reconstruct
  double hit_ratio = 0;
  double mib_saved = 0;
};

/// Run `rounds` passes over the fixed region set from `clients` concurrent
/// sessions; every query goes through the service.
CellResult run_cell(service::QueryService& svc, int clients, int rounds,
                    const std::vector<Region>& regions) {
  std::vector<CacheStats> cache(clients);
  std::vector<double> modeled(clients, 0.0);  // modeled I/O seconds
  std::vector<double> cpu(clients, 0.0);      // measured CPU seconds
  std::vector<std::uint64_t> done(clients, 0);
  std::mutex lat_mutex;
  std::vector<double> modeled_lat;  // modeled I/O seconds, per query
  std::vector<double> wall_lat;     // queue wait + store wall, per query

  Stopwatch wall;
  std::vector<std::thread> threads;
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      auto sid = svc.open_session("bench-" + std::to_string(t));
      MLOC_CHECK(sid.is_ok());
      std::vector<double> my_modeled, my_wall;
      for (int r = 0; r < rounds; ++r) {
        for (std::size_t i = 0; i < regions.size(); ++i) {
          service::Request req;
          req.var = "v";
          req.query.sc = regions[i];
          req.query.plod_level = (i + static_cast<std::size_t>(r)) % 2 == 0
                                     ? 3
                                     : 7;
          service::Response resp = svc.run(sid.value(), req);
          MLOC_CHECK_MSG(resp.status.is_ok(),
                         resp.status.to_string().c_str());
          cache[t] += resp.stats.cache;
          const ComponentTimes& times = resp.result.times;
          modeled[t] += times.io;
          cpu[t] += times.decompress + times.reconstruct;
          my_modeled.push_back(times.io);
          my_wall.push_back(resp.stats.queue_wait_s + resp.stats.exec_wall_s);
          ++done[t];
        }
      }
      std::lock_guard lock(lat_mutex);
      modeled_lat.insert(modeled_lat.end(), my_modeled.begin(),
                         my_modeled.end());
      wall_lat.insert(wall_lat.end(), my_wall.begin(), my_wall.end());
    });
  }
  for (auto& th : threads) th.join();
  const double wall_s = wall.seconds();

  CellResult out;
  CacheStats total_cache;
  double total_modeled = 0;
  double total_cpu = 0;
  std::uint64_t n = 0;
  for (int t = 0; t < clients; ++t) {
    total_cache += cache[t];
    total_modeled += modeled[t];
    total_cpu += cpu[t];
    n += done[t];
  }
  out.wall_qps = static_cast<double>(n) / wall_s;
  // Modeled latencies accrue per client; with `clients` concurrent
  // sessions the modeled steady-state throughput is n / (sum / clients).
  out.modeled_qps = total_modeled > 0
                        ? static_cast<double>(n) / (total_modeled / clients)
                        : std::numeric_limits<double>::infinity();
  out.cpu_ms_per_query = total_cpu / static_cast<double>(n) * 1e3;
  out.p50_modeled_ms = percentile(modeled_lat, 0.50) * 1e3;
  out.p95_modeled_ms = percentile(modeled_lat, 0.95) * 1e3;
  out.p50_wall_ms = percentile(wall_lat, 0.50) * 1e3;
  out.p95_wall_ms = percentile(wall_lat, 0.95) * 1e3;
  const std::uint64_t consults =
      total_cache.hits + total_cache.partial_hits + total_cache.misses;
  out.hit_ratio =
      consults == 0
          ? 0.0
          : static_cast<double>(total_cache.hits + total_cache.partial_hits) /
                static_cast<double>(consults);
  out.mib_saved = static_cast<double>(total_cache.bytes_saved) / (1 << 20);
  return out;
}

/// Engine counters for one pass of the query mix through a store.
struct EnginePass {
  ExecStats exec;
  double modeled_io_s = 0;
};

EnginePass run_mix(MlocStore& store, const std::vector<Query>& mix,
                   const exec::ExecOptions& opts) {
  EnginePass out;
  for (const Query& q : mix) {
    auto r = store.execute("v", q, 2, opts);
    MLOC_CHECK_MSG(r.is_ok(), r.status().to_string().c_str());
    out.exec += r.value().exec;
    out.modeled_io_s += r.value().times.io;
  }
  return out;
}

void json_exec(std::FILE* f, const char* key, const EnginePass& p,
               const char* tail) {
  std::fprintf(
      f,
      "    \"%s\": {\"bytes_planned\": %llu, \"bytes_read\": %llu, "
      "\"bytes_from_cache\": %llu, \"bytes_bridged\": %llu, "
      "\"extents_naive\": %llu, "
      "\"extents_coalesced\": %llu, \"modeled_seeks\": %llu, "
      "\"modeled_io_s\": %.9f}%s\n",
      key, static_cast<unsigned long long>(p.exec.bytes_planned),
      static_cast<unsigned long long>(p.exec.bytes_read),
      static_cast<unsigned long long>(p.exec.bytes_from_cache),
      static_cast<unsigned long long>(p.exec.bytes_bridged),
      static_cast<unsigned long long>(p.exec.extents_naive),
      static_cast<unsigned long long>(p.exec.extents_coalesced),
      static_cast<unsigned long long>(p.exec.modeled_seeks), p.modeled_io_s,
      tail);
}

}  // namespace

int main() {
  const ScaleConfig cfg = scale_from_env();
  const int rounds = std::max(2, cfg.queries_per_cell / 5);
  const Dataset ds = make_gts(false, cfg);
  std::printf("Service throughput — repeated-region workload on %s, %d"
              " rounds over 6 regions per client\n",
              ds.label.c_str(), rounds);

  // Six overlapping exploration windows, ~1.5%% of the domain each.
  std::vector<Region> regions;
  const std::uint32_t e0 = ds.grid.shape().extent(0);
  const std::uint32_t e1 = ds.grid.shape().extent(1);
  const std::uint32_t w0 = e0 / 8, w1 = e1 / 8;
  for (std::uint32_t i = 0; i < 6; ++i) {
    const std::uint32_t lo0 = i * e0 / 12, lo1 = e1 / 4 + i * e1 / 16;
    regions.emplace_back(2, Coord{lo0, lo1}, Coord{lo0 + w0, lo1 + w1});
  }

  const std::vector<std::pair<const char*, std::uint64_t>> budgets = {
      {"cold (no cache)", 0},
      {"8 MiB cache", 8ull << 20},
      {"64 MiB cache", 64ull << 20},
  };
  const std::vector<int> client_counts = {1, 2, 4, 8};

  // cold_qps[clients index] for the speedup summary; warm cells also feed
  // the JSON trajectory file.
  std::vector<double> cold_modeled_qps(client_counts.size(), 0);
  std::vector<double> warm_modeled_qps(client_counts.size(), 0);
  std::vector<double> cold_wall_qps(client_counts.size(), 0);
  std::vector<double> warm_wall_qps(client_counts.size(), 0);
  std::vector<double> warm_hit(client_counts.size(), 0);
  std::vector<CellResult> cold_cells(client_counts.size());
  std::vector<CellResult> warm_cells(client_counts.size());

  for (std::size_t b = 0; b < budgets.size(); ++b) {
    pfs::PfsStorage fs(default_pfs());
    auto store = build_mloc(&fs, "svc", ds, kMlocCol);
    MLOC_CHECK_MSG(store.is_ok(), store.status().to_string().c_str());

    service::ServiceConfig svc_cfg;
    svc_cfg.num_workers = 8;
    svc_cfg.cache.budget_bytes = budgets[b].second;
    svc_cfg.cache.shards = 8;
    service::QueryService svc(std::move(store).value(), svc_cfg);

    TablePrinter table(std::string("Service throughput — ") + budgets[b].first,
                       {"q/s (wall)", "q/s (modeled I/O)", "p50 I/O ms",
                        "p95 I/O ms", "CPU ms/q", "hit %", "MiB saved"});
    for (std::size_t c = 0; c < client_counts.size(); ++c) {
      const CellResult cell =
          run_cell(svc, client_counts[c], rounds, regions);
      table.add_row(std::to_string(client_counts[c]) + " clients",
                    {cell.wall_qps, cell.modeled_qps, cell.p50_modeled_ms,
                     cell.p95_modeled_ms, cell.cpu_ms_per_query,
                     cell.hit_ratio * 100.0, cell.mib_saved});
      if (budgets[b].second == 0) {
        cold_modeled_qps[c] = cell.modeled_qps;
        cold_wall_qps[c] = cell.wall_qps;
        cold_cells[c] = cell;
      } else if (b + 1 == budgets.size()) {
        warm_modeled_qps[c] = cell.modeled_qps;
        warm_wall_qps[c] = cell.wall_qps;
        warm_hit[c] = cell.hit_ratio;
        warm_cells[c] = cell;
      }
    }
    table.print();
  }

  std::printf("\nwarm (64 MiB) vs cold speedup, by client count:\n");
  for (std::size_t c = 0; c < client_counts.size(); ++c) {
    std::printf(
        "  %d clients: %5.1fx modeled I/O, %5.2fx wall (warm hit ratio"
        " %.0f%%)\n",
        client_counts[c], warm_modeled_qps[c] / cold_modeled_qps[c],
        warm_wall_qps[c] / cold_wall_qps[c], warm_hit[c] * 100.0);
  }

  // ------------------------------------------------------ engine section
  // Same mix, driven through MlocStore::execute so ExecOptions is under
  // our control: coalesced vs naive scheduling on a cold store, then a
  // cold -> warm pass against a shared FragmentCache.
  std::vector<Query> mix;
  for (std::size_t i = 0; i < regions.size(); ++i) {
    Query q;
    q.sc = regions[i];
    q.plod_level = i % 2 == 0 ? 3 : 7;
    mix.push_back(q);
  }

  pfs::PfsStorage engine_fs(default_pfs());
  auto engine_store = build_mloc(&engine_fs, "engine", ds, kMlocCol,
                                 LevelOrder::kVMS, sfc::CurveKind::kHilbert,
                                 /*num_bins=*/16);
  MLOC_CHECK_MSG(engine_store.is_ok(),
                 engine_store.status().to_string().c_str());
  MlocStore& es = engine_store.value();

  exec::ExecOptions coalesced_opts;
  exec::ExecOptions naive_opts;
  naive_opts.naive_io = true;
  // No fragment provider attached: both passes pay full payload I/O, so
  // the only difference is the schedule.
  const EnginePass naive = run_mix(es, mix, naive_opts);
  const EnginePass coalesced = run_mix(es, mix, coalesced_opts);

  service::FragmentCache engine_cache;
  es.set_fragment_provider(&engine_cache);
  const EnginePass cold = run_mix(es, mix, coalesced_opts);
  const EnginePass warm = run_mix(es, mix, coalesced_opts);
  es.set_fragment_provider(nullptr);

  const bool coalescing_ok =
      coalesced.exec.extents_coalesced < coalesced.exec.extents_naive &&
      coalesced.exec.modeled_seeks < naive.exec.modeled_seeks &&
      coalesced.modeled_io_s <= naive.modeled_io_s;
  // Gap bridging trades bytes for seeks; if the welded gap bytes ever
  // exceed twice the bytes the plan actually needed, the scheduler is
  // reading the store to save seeks — a regression worth failing on.
  const bool bridging_ok =
      coalesced.exec.bytes_bridged <= 2 * coalesced.exec.bytes_planned;

  std::printf("\nEngine (16-bin V-M-S store, %zu-query mix, 2 ranks):\n",
              mix.size());
  std::printf("  extents: %llu naive -> %llu coalesced\n",
              static_cast<unsigned long long>(coalesced.exec.extents_naive),
              static_cast<unsigned long long>(
                  coalesced.exec.extents_coalesced));
  std::printf("  modeled seeks: %llu naive -> %llu coalesced\n",
              static_cast<unsigned long long>(naive.exec.modeled_seeks),
              static_cast<unsigned long long>(coalesced.exec.modeled_seeks));
  std::printf("  warm cache: %.1f MiB served from cache (%.1f MiB read"
              " cold)\n",
              static_cast<double>(warm.exec.bytes_from_cache) / (1 << 20),
              static_cast<double>(cold.exec.bytes_read) / (1 << 20));
  std::printf("  gap bridging: %.2f MiB welded into %.2f MiB planned\n",
              static_cast<double>(coalesced.exec.bytes_bridged) / (1 << 20),
              static_cast<double>(coalesced.exec.bytes_planned) / (1 << 20));

  const char* json_path = std::getenv("MLOC_BENCH_JSON");
  if (json_path == nullptr) json_path = "BENCH_engine.json";
  std::FILE* f = std::fopen(json_path, "w");
  MLOC_CHECK_MSG(f != nullptr, "cannot open BENCH_engine.json for writing");
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"service_throughput\",\n");
  std::fprintf(f, "  \"scale\": %.3f,\n", cfg.scale);
  std::fprintf(f, "  \"host_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"rounds\": %d,\n", rounds);
  std::fprintf(f, "  \"throughput\": [\n");
  for (std::size_t c = 0; c < client_counts.size(); ++c) {
    for (int warm_row = 0; warm_row < 2; ++warm_row) {
      const CellResult& cell = warm_row ? warm_cells[c] : cold_cells[c];
      char modeled_qps[32] = "null";
      if (std::isfinite(cell.modeled_qps)) {
        std::snprintf(modeled_qps, sizeof modeled_qps, "%.3f",
                      cell.modeled_qps);
      }
      std::fprintf(
          f,
          "    {\"clients\": %d, \"cache\": \"%s\", \"wall_qps\": %.3f, "
          "\"modeled_qps\": %s, \"p50_modeled_ms\": %.4f, "
          "\"p95_modeled_ms\": %.4f, \"p50_wall_ms\": %.4f, "
          "\"p95_wall_ms\": %.4f, \"cpu_ms_per_query\": %.4f, "
          "\"hit_ratio\": %.4f}%s\n",
          client_counts[c], warm_row ? "warm64MiB" : "cold", cell.wall_qps,
          modeled_qps, cell.p50_modeled_ms, cell.p95_modeled_ms,
          cell.p50_wall_ms, cell.p95_wall_ms, cell.cpu_ms_per_query,
          cell.hit_ratio,
          c + 1 == client_counts.size() && warm_row == 1 ? "" : ",");
    }
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"engine\": {\n");
  json_exec(f, "naive", naive, ",");
  json_exec(f, "coalesced", coalesced, ",");
  json_exec(f, "cold", cold, ",");
  json_exec(f, "warm", warm, ",");
  std::fprintf(f, "    \"coalescing_ok\": %s,\n",
               coalescing_ok ? "true" : "false");
  std::fprintf(f, "    \"bridging_ok\": %s\n", bridging_ok ? "true" : "false");
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s (coalescing_ok=%s, bridging_ok=%s)\n", json_path,
              coalescing_ok ? "true" : "false", bridging_ok ? "true" : "false");

  if (!coalescing_ok) {
    std::fprintf(stderr,
                 "FAIL: coalescing did not reduce extents/seeks vs the"
                 " naive schedule\n");
    return 1;
  }
  if (!bridging_ok) {
    std::fprintf(stderr,
                 "FAIL: gap bridging read more than 2x the planned bytes\n");
    return 1;
  }
  return 0;
}
