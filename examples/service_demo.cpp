// Serving-layer demo: a QueryService in front of one MLOC store, several
// client threads exploring the same field concurrently. Shows per-query
// ServiceStats (queue wait, cache hits, bytes saved) and the service-wide
// aggregates — the cache turns repeated exploration into index-only I/O.
//
//   $ ./examples/service_demo
#include <cstdio>
#include <numeric>
#include <thread>
#include <vector>

#include "datagen/datagen.hpp"
#include "service/query_service.hpp"

using namespace mloc;

int main() {
  // A 512x512 synthetic field in an MLOC-COL store (PLoD byte columns).
  const Grid field = datagen::gts_like(512, /*seed=*/1);
  pfs::PfsStorage fs;
  MlocConfig cfg;
  cfg.shape = field.shape();
  cfg.layout.chunk_shape = NDShape{64, 64};
  cfg.layout.num_bins = 64;
  cfg.layout.codec = "mzip";
  auto store = MlocStore::create(&fs, "svc_demo", cfg);
  if (!store.is_ok() || !store.value().write_variable("phi", field).is_ok()) {
    std::fprintf(stderr, "store setup failed\n");
    return 1;
  }

  // Service: 4 workers, 16 MiB fragment cache, FIFO admission.
  service::ServiceConfig svc_cfg;
  svc_cfg.num_workers = 4;
  svc_cfg.cache.budget_bytes = 16ull << 20;
  service::QueryService svc(std::move(store).value(), svc_cfg);

  // Three clients explore overlapping regions at mixed PLoD levels — the
  // pattern the fragment cache is built for.
  constexpr int kClients = 3;
  constexpr int kQueriesPerClient = 12;
  // Per client: modeled PFS I/O plus measured decode/reconstruct CPU,
  // summed as the paper's benches sum them (EXPERIMENTS.md, "what time
  // means"); the output labels the sum.
  std::vector<double> modeled(kClients, 0.0);
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&svc, &modeled, t] {
      auto sid = svc.open_session("client-" + std::to_string(t));
      if (!sid.is_ok()) return;
      for (int i = 0; i < kQueriesPerClient; ++i) {
        service::Request req;
        req.var = "phi";
        const std::uint32_t off = 64u * static_cast<std::uint32_t>(i % 3);
        req.query.sc = Region(2, {off, 128}, {256 + off, 384});
        req.query.plod_level = (i % 2 == 0) ? 3 : 7;
        service::Response resp = svc.run(sid.value(), req);
        if (!resp.status.is_ok()) {
          std::fprintf(stderr, "query failed: %s\n",
                       resp.status.to_string().c_str());
          return;
        }
        modeled[t] += resp.result.times.total();
        if (t == 0) {  // one client narrates
          std::printf(
              "  q%-3llu level %d: %6zu values | wait %6.2f us | exec"
              " %7.2f us | modeled I/O + CPU %7.3f ms | cache %llu hit /"
              " %llu partial / %llu miss, %llu KiB saved\n",
              static_cast<unsigned long long>(resp.stats.query_id),
              req.query.plod_level, resp.result.values.size(),
              resp.stats.queue_wait_s * 1e6, resp.stats.exec_wall_s * 1e6,
              resp.result.times.total() * 1e3,
              static_cast<unsigned long long>(resp.stats.cache.hits),
              static_cast<unsigned long long>(resp.stats.cache.partial_hits),
              static_cast<unsigned long long>(resp.stats.cache.misses),
              static_cast<unsigned long long>(resp.stats.cache.bytes_saved >>
                                              10));
        }
      }
      auto s = svc.session_stats(sid.value());
      if (s.is_ok()) {
        std::printf(
            "session %-9s: %llu queries, modeled I/O + CPU %.3f s total\n",
                    s.value().label.c_str(),
                    static_cast<unsigned long long>(s.value().completed),
                    modeled[t]);
      }
    });
  }
  for (auto& c : clients) c.join();

  const auto agg = svc.aggregate();
  const auto cache = svc.cache_stats();
  const double hit_ratio =
      static_cast<double>(agg.cache.hits + agg.cache.partial_hits) /
      static_cast<double>(agg.cache.hits + agg.cache.partial_hits +
                          agg.cache.misses + 1e-12);
  std::printf(
      "\naggregate: %llu submitted, %llu completed | avg queue wait %.2f us"
      " | modeled I/O + CPU %.3f s total\n",
      static_cast<unsigned long long>(agg.submitted),
      static_cast<unsigned long long>(agg.completed),
      agg.total_queue_wait_s / static_cast<double>(agg.completed) * 1e6,
      std::accumulate(modeled.begin(), modeled.end(), 0.0));
  std::printf(
      "cache: %.0f%% warm fragment ratio, %llu entries, %llu KiB resident,"
      " %llu evictions, %llu MiB of payload reads avoided\n",
      hit_ratio * 100.0, static_cast<unsigned long long>(cache.entries),
      static_cast<unsigned long long>(cache.bytes_cached >> 10),
      static_cast<unsigned long long>(cache.evictions),
      static_cast<unsigned long long>(agg.cache.bytes_saved >> 20));
  return 0;
}
