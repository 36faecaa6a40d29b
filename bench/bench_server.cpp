// Wire-server load generator: replays a mixed VC / SC / multivar query
// trace against a Server over localhost from hundreds of simulated
// concurrent clients (real connections, pipelined in-flight queries),
// once over plain TCP and once over the negotiated shared-memory fast
// path, and gates three properties:
//
//   * fidelity — every served response's positions/values arrays are
//     byte-identical to QueryService::run() in-process on the same
//     store, over both transports;
//   * overhead — served TCP throughput stays above a floor fraction of
//     the in-process throughput for the same total work and worker
//     count (MLOC_SERVER_FLOOR, default 0.25);
//   * fast path — shm throughput beats TCP by at least MLOC_SHM_FLOOR
//     (default 1.15x): skipping the response copy, CRC, and loopback
//     socket for bulk payloads must actually show up in q/s.
//
// Latency accounting: client round-trip conflates three things — time
// in the admission queue (a function of offered load, not transport),
// query execution, and the wire itself. Each response carries
// queue_wait_s and exec_wall_s from the service, so percentiles are
// reported separately for round-trip, queue wait, and execution.
// Samples completing inside the warmup window (the first
// MLOC_SERVER_WARMUP fraction of the pass wall, default 0.10) are
// excluded from percentile math: connection setup and cold caches
// otherwise dominate the tail.
//
// Emits BENCH_server.json (host_threads, clients, qps in-process / tcp / shm,
// shm_vs_tcp, split percentiles, identical_ok, throughput_ok, shm_ok)
// and exits non-zero when any gate fails — CI runs this as the server
// smoke test.
//
// Knobs (env): MLOC_SERVER_CLIENTS (default 512 connections),
// MLOC_SERVER_QUERIES_PER_CLIENT (default 4), MLOC_SERVER_THREADS
// (driver threads, default 8), MLOC_SERVER_WORKERS (service workers,
// default 4), MLOC_SERVER_FLOOR, MLOC_SHM_FLOOR, MLOC_SERVER_WARMUP,
// MLOC_SERVER_SHM_RING_KB (per-client ring, default 2048),
// MLOC_BENCH_JSON (output path).
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/bench_common.hpp"
#include "datagen/datagen.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "service/query_service.hpp"
#include "util/timer.hpp"

using namespace mloc;

namespace {

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : std::atoi(v);
}

double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : std::atof(v);
}

/// Nearest-rank percentile over an unsorted sample (sorted in place).
double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx =
      static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

/// Lift the soft fd limit to the hard limit; 512 connections plus epoll
/// and store fds can exceed a conservative default soft limit.
void raise_fd_limit() {
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) == 0 && rl.rlim_cur < rl.rlim_max) {
    rl.rlim_cur = rl.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &rl);
  }
}

/// The mixed trace: exploration-style templates covering value-constrained
/// retrieval (with and without values), region windows at mixed PLoD
/// levels, combined constraints, and multi-variable selection.
std::vector<service::Request> make_trace() {
  std::vector<service::Request> t;
  {
    service::Request r;  // narrow VC, full values
    r.var = "v";
    r.query.vc = ValueConstraint{0.20, 0.35};
    t.push_back(r);
  }
  {
    service::Request r;  // VC, positions only
    r.var = "v";
    r.query.vc = ValueConstraint{0.60, 0.70};
    r.query.values_needed = false;
    t.push_back(r);
  }
  {
    service::Request r;  // region window, coarse precision
    r.var = "v";
    r.query.sc = Region(2, Coord{32, 32}, Coord{96, 96});
    r.query.plod_level = 3;
    t.push_back(r);
  }
  {
    service::Request r;  // overlapping window, full precision
    r.var = "w";
    r.query.sc = Region(2, Coord{64, 48}, Coord{128, 112});
    t.push_back(r);
  }
  {
    service::Request r;  // VC restricted to a region
    r.var = "v";
    r.query.vc = ValueConstraint{0.10, 0.50};
    r.query.sc = Region(2, Coord{0, 0}, Coord{128, 128});
    r.query.plod_level = 5;
    t.push_back(r);
  }
  {
    service::Request r;  // multivar AND with value fetch
    r.var = "v";
    service::MultivarSpec mv;
    mv.preds.push_back({"v", ValueConstraint{0.30, 0.60}});
    mv.preds.push_back({"w", ValueConstraint{0.40, 0.80}});
    mv.combine = MlocStore::Combine::kAnd;
    mv.fetch_var = "v";
    r.multivar = std::move(mv);
    t.push_back(r);
  }
  {
    service::Request r;  // multivar OR, positions only
    r.var = "w";
    service::MultivarSpec mv;
    mv.preds.push_back({"v", ValueConstraint{0.00, 0.05}});
    mv.preds.push_back({"w", ValueConstraint{0.95, 1.00}});
    mv.combine = MlocStore::Combine::kOr;
    r.multivar = std::move(mv);
    t.push_back(r);
  }
  {
    service::Request r;  // wide VC at coarse precision
    r.var = "w";
    r.query.vc = ValueConstraint{0.00, 0.40};
    r.query.plod_level = 2;
    t.push_back(r);
  }
  return t;
}

Result<MlocStore> build_store(pfs::PfsStorage* fs) {
  MlocConfig cfg;
  cfg.shape = NDShape{256, 256};
  cfg.layout.chunk_shape = NDShape{64, 64};
  cfg.layout.num_bins = 16;
  cfg.layout.codec = "mzip";
  auto store = MlocStore::create(fs, "net", cfg);
  if (!store.is_ok()) return store;
  MLOC_RETURN_IF_ERROR(
      store.value().write_variable("v", datagen::gts_like(256, 7)));
  MLOC_RETURN_IF_ERROR(
      store.value().write_variable("w", datagen::gts_like(256, 19)));
  return store;
}

/// A QueryService plus the storage its store borrows (their lifetimes are
/// tied; the service alone would dangle).
struct ServiceBox {
  explicit ServiceBox(int workers) : fs(bench::default_pfs()) {
    auto store = build_store(&fs);
    MLOC_CHECK_MSG(store.is_ok(), store.status().to_string().c_str());
    service::ServiceConfig cfg;
    cfg.num_workers = workers;
    cfg.max_queue_depth = 1 << 16;  // admission must not throttle the bench
    cfg.cache.budget_bytes = 64ull << 20;
    svc = std::make_unique<service::QueryService>(std::move(store).value(),
                                                  cfg);
  }

  pfs::PfsStorage fs;
  std::unique_ptr<service::QueryService> svc;
};

/// One query's ground truth, captured from QueryService::run in-process.
struct Expected {
  std::vector<std::uint64_t> positions;
  std::vector<double> values;
};

/// One collected response, timed against the pass start so warmup
/// samples can be excluded after the fact.
struct Sample {
  double rtt_s = 0;         ///< client submit -> response collected
  double queue_wait_s = 0;  ///< admission queue (from the service)
  double exec_wall_s = 0;   ///< query execution (from the service)
  double done_s = 0;        ///< completion time since pass start
};

/// Round-trip / queue / exec percentiles over the steady-state window.
struct LatencySplit {
  double p50 = 0, p95 = 0, p99 = 0;              // round-trip, ms
  double queue_p50 = 0, queue_p95 = 0, queue_p99 = 0;
  double exec_p50 = 0, exec_p95 = 0, exec_p99 = 0;
  std::uint64_t samples = 0;           ///< steady-state samples used
  std::uint64_t warmup_excluded = 0;   ///< samples inside the warmup window
};

struct ServedPass {
  double qps = 0;
  double wall_s = 0;
  std::uint64_t collected = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t transport_errors = 0;
  std::uint64_t shm_clients = 0;    ///< connections that negotiated a ring
  std::uint64_t shm_responses = 0;  ///< responses with stats.via_shm set
  std::uint64_t shm_fallbacks = 0;  ///< server-side ring-full -> TCP frame
  LatencySplit lat;
};

LatencySplit split_latencies(std::vector<Sample>& samples, double wall_s,
                             double warmup_frac) {
  LatencySplit out;
  const double cutoff = wall_s * warmup_frac;
  std::vector<double> rtt, queue, exec;
  rtt.reserve(samples.size());
  for (const Sample& s : samples) {
    if (s.done_s < cutoff) {
      ++out.warmup_excluded;
      continue;
    }
    rtt.push_back(s.rtt_s);
    queue.push_back(s.queue_wait_s);
    exec.push_back(s.exec_wall_s);
  }
  // A tiny run can complete entirely inside the warmup window; report
  // over everything rather than an empty set.
  if (rtt.empty()) {
    out.warmup_excluded = 0;
    for (const Sample& s : samples) {
      rtt.push_back(s.rtt_s);
      queue.push_back(s.queue_wait_s);
      exec.push_back(s.exec_wall_s);
    }
  }
  out.samples = rtt.size();
  out.p50 = percentile(rtt, 0.50) * 1e3;
  out.p95 = percentile(rtt, 0.95) * 1e3;
  out.p99 = percentile(rtt, 0.99) * 1e3;
  out.queue_p50 = percentile(queue, 0.50) * 1e3;
  out.queue_p95 = percentile(queue, 0.95) * 1e3;
  out.queue_p99 = percentile(queue, 0.99) * 1e3;
  out.exec_p50 = percentile(exec, 0.50) * 1e3;
  out.exec_p95 = percentile(exec, 0.95) * 1e3;
  out.exec_p99 = percentile(exec, 0.99) * 1e3;
  return out;
}

/// One full served pass: a fresh service + server, the whole client
/// fleet, every query checked against `expected`. With `use_shm` each
/// client offers a ring after opening its session (best-effort — a
/// refusal keeps that client on TCP, and the shm_clients count exposes
/// how many actually negotiated).
ServedPass run_served(const char* label, bool use_shm,
                      std::uint64_t ring_bytes,
                      const std::vector<service::Request>& trace,
                      const std::vector<Expected>& expected, int clients,
                      int per_client, int threads, int workers,
                      double warmup_frac) {
  ServiceBox box(workers);
  net::ServerConfig srv_cfg;
  srv_cfg.num_loops = 2;
  net::Server server(*box.svc, srv_cfg);
  {
    Status st = server.start();
    MLOC_CHECK_MSG(st.is_ok(), st.to_string().c_str());
  }

  using Clock = std::chrono::steady_clock;
  const std::uint64_t total =
      static_cast<std::uint64_t>(clients) * per_client;
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> transport_errors{0};
  std::atomic<std::uint64_t> shm_clients{0};
  std::atomic<std::uint64_t> shm_responses{0};
  std::mutex sample_mutex;
  std::vector<Sample> samples;  // one entry per served query
  samples.reserve(total);

  Stopwatch wall;
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> drivers;
  for (int t = 0; t < threads; ++t) {
    drivers.emplace_back([&, t] {
      const int conn_lo = clients * t / threads;
      const int conn_hi = clients * (t + 1) / threads;
      const int nconns = conn_hi - conn_lo;
      if (nconns <= 0) return;

      // This thread's slice of the fleet: every connection opens a session
      // and pipelines its whole batch before anything is collected, so all
      // of the slice's queries are genuinely in flight at once.
      std::vector<std::unique_ptr<net::Client>> conns;
      conns.reserve(static_cast<std::size_t>(nconns));
      for (int c = 0; c < nconns; ++c) {
        auto cl = std::make_unique<net::Client>();
        if (!cl->connect("127.0.0.1", server.port()).is_ok() ||
            !cl->open_session("load-" + std::to_string(conn_lo + c))
                 .is_ok()) {
          transport_errors.fetch_add(1);
          return;
        }
        if (use_shm && cl->enable_shm(ring_bytes).is_ok()) {
          shm_clients.fetch_add(1);
        }
        conns.push_back(std::move(cl));
      }

      struct Sent {
        std::uint64_t id = 0;
        std::size_t template_idx = 0;
        Clock::time_point at;
      };
      std::vector<std::vector<Sent>> sent(conns.size());
      for (std::size_t c = 0; c < conns.size(); ++c) {
        for (int q = 0; q < per_client; ++q) {
          const std::size_t k =
              (static_cast<std::size_t>(conn_lo + c) * per_client + q) %
              trace.size();
          auto id = conns[c]->send_query(trace[k]);
          if (!id.is_ok()) {
            transport_errors.fetch_add(1);
            return;
          }
          sent[c].push_back({id.value(), k, Clock::now()});
        }
      }

      std::vector<Sample> my;
      my.reserve(conns.size() * static_cast<std::size_t>(per_client));
      for (std::size_t c = 0; c < conns.size(); ++c) {
        for (const Sent& s : sent[c]) {
          auto resp = conns[c]->wait(s.id);
          if (!resp.is_ok() || !resp.value().status.is_ok()) {
            transport_errors.fetch_add(1);
            continue;
          }
          const Clock::time_point now = Clock::now();
          Sample sample;
          sample.rtt_s = std::chrono::duration<double>(now - s.at).count();
          sample.queue_wait_s = resp.value().stats.queue_wait_s;
          sample.exec_wall_s = resp.value().stats.exec_wall_s;
          sample.done_s = std::chrono::duration<double>(now - t0).count();
          my.push_back(sample);
          if (resp.value().stats.via_shm) shm_responses.fetch_add(1);
          const Expected& e = expected[s.template_idx];
          if (resp.value().result.positions != e.positions ||
              resp.value().result.values != e.values) {
            mismatches.fetch_add(1);
          }
        }
        (void)conns[c]->close_session();
      }
      std::lock_guard lock(sample_mutex);
      samples.insert(samples.end(), my.begin(), my.end());
    });
  }
  for (auto& th : drivers) th.join();

  ServedPass pass;
  pass.wall_s = wall.seconds();
  pass.collected = samples.size();
  pass.qps = static_cast<double>(samples.size()) / pass.wall_s;
  pass.mismatches = mismatches.load();
  pass.transport_errors = transport_errors.load();
  pass.shm_clients = shm_clients.load();
  pass.shm_responses = shm_responses.load();
  const net::ServerStats st = server.stats();
  pass.shm_fallbacks = st.shm_fallbacks;
  server.shutdown();
  pass.lat = split_latencies(samples, pass.wall_s, warmup_frac);

  std::printf(
      "%s:  %.0f q/s — rtt p50 %.2f / p95 %.2f / p99 %.2f ms "
      "(queue p50 %.2f, exec p50 %.2f; %llu warmup samples excluded)\n",
      label, pass.qps, pass.lat.p50, pass.lat.p95, pass.lat.p99,
      pass.lat.queue_p50, pass.lat.exec_p50,
      static_cast<unsigned long long>(pass.lat.warmup_excluded));
  if (use_shm) {
    std::printf(
        "       shm: %llu/%d clients negotiated, %llu/%llu responses via "
        "ring, %llu ring-full fallbacks\n",
        static_cast<unsigned long long>(pass.shm_clients), clients,
        static_cast<unsigned long long>(pass.shm_responses),
        static_cast<unsigned long long>(pass.collected),
        static_cast<unsigned long long>(pass.shm_fallbacks));
  }
  return pass;
}

void print_pass_json(std::FILE* f, const char* prefix,
                     const ServedPass& pass) {
  const LatencySplit& l = pass.lat;
  std::fprintf(f, "  \"%s_qps\": %.3f,\n", prefix, pass.qps);
  std::fprintf(f, "  \"%s_p50_ms\": %.4f,\n", prefix, l.p50);
  std::fprintf(f, "  \"%s_p95_ms\": %.4f,\n", prefix, l.p95);
  std::fprintf(f, "  \"%s_p99_ms\": %.4f,\n", prefix, l.p99);
  std::fprintf(f, "  \"%s_queue_p50_ms\": %.4f,\n", prefix, l.queue_p50);
  std::fprintf(f, "  \"%s_queue_p95_ms\": %.4f,\n", prefix, l.queue_p95);
  std::fprintf(f, "  \"%s_queue_p99_ms\": %.4f,\n", prefix, l.queue_p99);
  std::fprintf(f, "  \"%s_exec_p50_ms\": %.4f,\n", prefix, l.exec_p50);
  std::fprintf(f, "  \"%s_exec_p95_ms\": %.4f,\n", prefix, l.exec_p95);
  std::fprintf(f, "  \"%s_exec_p99_ms\": %.4f,\n", prefix, l.exec_p99);
  std::fprintf(f, "  \"%s_warmup_excluded\": %llu,\n", prefix,
               static_cast<unsigned long long>(l.warmup_excluded));
}

}  // namespace

int main() {
  raise_fd_limit();
  const int clients = std::max(1, env_int("MLOC_SERVER_CLIENTS", 512));
  const int per_client =
      std::max(1, env_int("MLOC_SERVER_QUERIES_PER_CLIENT", 4));
  const int threads = std::max(1, env_int("MLOC_SERVER_THREADS", 8));
  const int workers = std::max(1, env_int("MLOC_SERVER_WORKERS", 4));
  const double floor = env_double("MLOC_SERVER_FLOOR", 0.25);
  const double shm_floor = env_double("MLOC_SHM_FLOOR", 1.15);
  const double warmup_frac = env_double("MLOC_SERVER_WARMUP", 0.10);
  const std::uint64_t ring_bytes =
      static_cast<std::uint64_t>(
          std::max(4, env_int("MLOC_SERVER_SHM_RING_KB", 2048)))
      << 10;
  const std::vector<service::Request> trace = make_trace();
  const std::uint64_t total =
      static_cast<std::uint64_t>(clients) * per_client;

  std::printf(
      "Server load test: %d clients x %d queries (%llu total, %zu-template "
      "trace), %d driver threads, %d service workers, %llu KiB shm rings\n",
      clients, per_client, static_cast<unsigned long long>(total),
      trace.size(), threads, workers,
      static_cast<unsigned long long>(ring_bytes >> 10));

  // ------------------------------------------------ ground truth, in-process
  std::vector<Expected> expected(trace.size());
  {
    ServiceBox box(workers);
    service::QueryService& svc = *box.svc;
    auto sid = svc.open_session("truth");
    MLOC_CHECK(sid.is_ok());
    for (std::size_t i = 0; i < trace.size(); ++i) {
      service::Response r = svc.run(sid.value(), trace[i]);
      MLOC_CHECK_MSG(r.status.is_ok(), r.status.to_string().c_str());
      expected[i].positions = std::move(r.result.positions);
      expected[i].values = std::move(r.result.values);
    }
  }

  // ------------------------------------------------ in-process baseline
  double inproc_qps = 0;
  {
    ServiceBox box(workers);
    service::QueryService& svc = *box.svc;
    std::atomic<std::uint64_t> mismatches{0};
    Stopwatch wall;
    std::vector<std::thread> drivers;
    for (int t = 0; t < threads; ++t) {
      drivers.emplace_back([&, t] {
        auto sid = svc.open_session("baseline-" + std::to_string(t));
        MLOC_CHECK(sid.is_ok());
        const std::uint64_t lo = total * t / threads;
        const std::uint64_t hi = total * (t + 1) / threads;
        for (std::uint64_t q = lo; q < hi; ++q) {
          const std::size_t k = q % trace.size();
          service::Response r = svc.run(sid.value(), trace[k]);
          MLOC_CHECK_MSG(r.status.is_ok(), r.status.to_string().c_str());
          if (r.result.positions != expected[k].positions ||
              r.result.values != expected[k].values) {
            mismatches.fetch_add(1);
          }
        }
      });
    }
    for (auto& th : drivers) th.join();
    inproc_qps = static_cast<double>(total) / wall.seconds();
    MLOC_CHECK_MSG(mismatches.load() == 0,
                   "in-process responses diverged across repetitions");
  }
  std::printf("in-process: %.0f q/s\n", inproc_qps);

  // ------------------------------------------------ served, both transports
  const ServedPass tcp =
      run_served("tcp   ", /*use_shm=*/false, ring_bytes, trace, expected,
                 clients, per_client, threads, workers, warmup_frac);
  const ServedPass shm =
      run_served("shm   ", /*use_shm=*/true, ring_bytes, trace, expected,
                 clients, per_client, threads, workers, warmup_frac);

  const bool identical_ok =
      tcp.mismatches == 0 && tcp.transport_errors == 0 &&
      tcp.collected == total && shm.mismatches == 0 &&
      shm.transport_errors == 0 && shm.collected == total;
  const double ratio = inproc_qps > 0 ? tcp.qps / inproc_qps : 0.0;
  const bool throughput_ok = tcp.qps >= floor * inproc_qps;
  const double shm_vs_tcp = tcp.qps > 0 ? shm.qps / tcp.qps : 0.0;
  const bool shm_ok = shm_vs_tcp >= shm_floor;

  std::printf(
      "served:     tcp %.0f q/s (%.2fx in-process, floor %.2f); shm %.0f "
      "q/s (%.2fx tcp, floor %.2f)\n",
      tcp.qps, ratio, floor, shm.qps, shm_vs_tcp, shm_floor);
  std::printf(
      "fidelity:   %llu+%llu/%llu responses collected, %llu mismatches, "
      "%llu transport errors\n",
      static_cast<unsigned long long>(tcp.collected),
      static_cast<unsigned long long>(shm.collected),
      static_cast<unsigned long long>(total),
      static_cast<unsigned long long>(tcp.mismatches + shm.mismatches),
      static_cast<unsigned long long>(tcp.transport_errors +
                                      shm.transport_errors));

  const char* json_path = std::getenv("MLOC_BENCH_JSON");
  if (json_path == nullptr) json_path = "BENCH_server.json";
  std::FILE* f = std::fopen(json_path, "w");
  MLOC_CHECK_MSG(f != nullptr, "cannot open BENCH_server.json for writing");
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"server\",\n");
  std::fprintf(f, "  \"host_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"clients\": %d,\n", clients);
  std::fprintf(f, "  \"queries_per_client\": %d,\n", per_client);
  std::fprintf(f, "  \"total_queries\": %llu,\n",
               static_cast<unsigned long long>(total));
  std::fprintf(f, "  \"driver_threads\": %d,\n", threads);
  std::fprintf(f, "  \"service_workers\": %d,\n", workers);
  std::fprintf(f, "  \"shm_ring_kb\": %llu,\n",
               static_cast<unsigned long long>(ring_bytes >> 10));
  std::fprintf(f, "  \"warmup_frac\": %.4f,\n", warmup_frac);
  std::fprintf(f, "  \"inproc_qps\": %.3f,\n", inproc_qps);
  // server_qps keeps its original meaning (served TCP throughput) so
  // existing dashboards and jq gates keep working.
  std::fprintf(f, "  \"server_qps\": %.3f,\n", tcp.qps);
  std::fprintf(f, "  \"server_vs_inproc\": %.4f,\n", ratio);
  std::fprintf(f, "  \"throughput_floor\": %.4f,\n", floor);
  print_pass_json(f, "tcp", tcp);
  print_pass_json(f, "shm", shm);
  std::fprintf(f, "  \"shm_vs_tcp\": %.4f,\n", shm_vs_tcp);
  std::fprintf(f, "  \"shm_floor\": %.4f,\n", shm_floor);
  std::fprintf(f, "  \"shm_clients\": %llu,\n",
               static_cast<unsigned long long>(shm.shm_clients));
  std::fprintf(f, "  \"shm_responses\": %llu,\n",
               static_cast<unsigned long long>(shm.shm_responses));
  std::fprintf(f, "  \"shm_fallbacks\": %llu,\n",
               static_cast<unsigned long long>(shm.shm_fallbacks));
  std::fprintf(f, "  \"mismatches\": %llu,\n",
               static_cast<unsigned long long>(tcp.mismatches +
                                               shm.mismatches));
  std::fprintf(f, "  \"transport_errors\": %llu,\n",
               static_cast<unsigned long long>(tcp.transport_errors +
                                               shm.transport_errors));
  std::fprintf(f, "  \"identical_ok\": %s,\n",
               identical_ok ? "true" : "false");
  std::fprintf(f, "  \"throughput_ok\": %s,\n",
               throughput_ok ? "true" : "false");
  std::fprintf(f, "  \"shm_ok\": %s\n", shm_ok ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s (identical_ok=%s, throughput_ok=%s, shm_ok=%s)\n",
              json_path, identical_ok ? "true" : "false",
              throughput_ok ? "true" : "false", shm_ok ? "true" : "false");

  if (!identical_ok) {
    std::fprintf(stderr,
                 "FAIL: served responses were not byte-identical to the "
                 "in-process baseline\n");
    return 1;
  }
  if (!throughput_ok) {
    std::fprintf(stderr,
                 "FAIL: served throughput %.0f q/s fell below %.2f x "
                 "in-process (%.0f q/s)\n",
                 tcp.qps, floor, inproc_qps);
    return 1;
  }
  if (!shm_ok) {
    std::fprintf(stderr,
                 "FAIL: shm throughput %.0f q/s is only %.2fx tcp "
                 "(%.0f q/s); floor %.2fx\n",
                 shm.qps, shm_vs_tcp, tcp.qps, shm_floor);
    return 1;
  }
  return 0;
}
