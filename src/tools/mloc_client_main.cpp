// mloc_client — command-line client for a running mloc_server.
//
//   mloc_client ping  --port P [--host H]
//   mloc_client query --port P [--host H] [--var NAME] [--vc LO:HI]
//               [--sc LO:HI[,LO:HI...]] [--plod L] [--ranks R]
//               [--region-only] [--select VAR:LO:HI ...] [--combine and|or]
//               [--fetch VAR] [--deadline S] [--repeat N]
//               [--shm | --no-shm] [--shm-ring-kb KB]
//   mloc_client stats --port P [--host H]
//   mloc_client session-stats --port P [--host H]
//   mloc_client vars  --port P [--host H]
//
// `query` opens a session, runs the request (pipelined --repeat times),
// and prints the result summary the way mloc_cli does, plus the serving
// stats that only exist behind the service (queue wait, cache hits).
// Multi-variable selection: repeat --select VAR:LO:HI per predicate;
// --fetch retrieves a variable's values at the surviving positions.
//
// Shared memory: by default `query` offers the server the shm fast path
// (net/shm.hpp) and silently stays on TCP if the server refuses —
// --no-shm skips the offer, --shm makes a refusal fatal (for scripts
// that must assert the fast path), --shm-ring-kb sizes the ring
// (default 4096).
//
// Exit codes: 0 ok, 1 a failed connection or query, 2 bad usage (every
// option is checked before connecting, see tools/cli.hpp).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "net/client.hpp"
#include "service/query_service.hpp"
#include "tools/cli.hpp"

using namespace mloc;

namespace {

/// Prints `why` (when set) and the usage text; exit code 2.
int usage(const Status& why = Status::ok()) {
  if (!why.is_ok()) {
    std::fprintf(stderr, "error: %s\n", why.to_string().c_str());
  }
  std::fprintf(
      stderr,
      "usage:\n"
      "  mloc_client ping  --port P [--host H]\n"
      "  mloc_client query --port P [--host H] [--var NAME] [--vc LO:HI]\n"
      "              [--sc LO:HI[,LO:HI...]] [--plod L] [--ranks R]\n"
      "              [--region-only] [--select VAR:LO:HI ...]\n"
      "              [--combine and|or] [--fetch VAR] [--deadline S]\n"
      "              [--repeat N] [--shm | --no-shm] [--shm-ring-kb KB]\n"
      "      --shm          require the shared-memory fast path (a server\n"
      "                     refusal is fatal); default is best-effort\n"
      "      --no-shm       stay on TCP, skip the shm offer entirely\n"
      "      --shm-ring-kb  response ring size in KiB (default 4096)\n"
      "  mloc_client stats --port P [--host H]\n"
      "  mloc_client session-stats --port P [--host H]\n"
      "  mloc_client vars  --port P [--host H]\n");
  return 2;
}

int fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.to_string().c_str());
  return 1;
}

/// Connects to --host/--port; returns the exit code of a failure, else 0.
int connect(const cli::Args& args, net::Client* client) {
  auto port = args.get_int("port", 0, 1, 65535);
  if (!port.is_ok()) return usage(port.status());
  if (port.value() == 0) return usage(invalid_argument("--port is required"));
  const Status st = client->connect(args.get("host", "127.0.0.1"),
                                    static_cast<std::uint16_t>(port.value()));
  return st.is_ok() ? 0 : fail(st);
}

void print_response(const service::Response& resp) {
  if (!resp.status.is_ok()) {
    std::printf("query failed: %s\n", resp.status.to_string().c_str());
    return;
  }
  const QueryResult& r = resp.result;
  std::printf(
      "%zu qualifying points; %llu bins touched (%llu aligned), %.2f MB "
      "read\n",
      r.positions.size(), static_cast<unsigned long long>(r.bins_touched),
      static_cast<unsigned long long>(r.aligned_bins),
      static_cast<double>(r.exec.bytes_read) / 1e6);
  if (!r.values.empty()) {
    double sum = 0, mn = r.values[0], mx = mn;
    for (double v : r.values) {
      sum += v;
      mn = std::min(mn, v);
      mx = std::max(mx, v);
    }
    std::printf("values: mean %.6g, min %.6g, max %.6g\n",
                sum / static_cast<double>(r.values.size()), mn, mx);
  }
  std::printf(
      "serving: queue %.3f ms, exec %.3f ms, cache %llu hits / %llu "
      "misses, via %s\n",
      resp.stats.queue_wait_s * 1e3, resp.stats.exec_wall_s * 1e3,
      static_cast<unsigned long long>(resp.stats.cache.hits),
      static_cast<unsigned long long>(resp.stats.cache.misses),
      resp.stats.via_shm ? "shm" : "tcp");
}

int cmd_ping(const cli::Args& args) {
  net::Client c;
  if (const int rc = connect(args, &c); rc != 0) return rc;
  if (Status st = c.ping(); !st.is_ok()) return fail(st);
  std::printf("pong\n");
  return 0;
}

int cmd_query(const cli::Args& args) {
  auto parsed = cli::parse_request(args);
  if (!parsed.is_ok()) return usage(parsed.status());
  auto repeat = args.get_int("repeat", 1, 1, 1 << 20);
  if (!repeat.is_ok()) return usage(repeat.status());
  auto ring_kb = args.get_int("shm-ring-kb", 4096, 1, 1 << 22);
  if (!ring_kb.is_ok()) return usage(ring_kb.status());
  net::Client c;
  if (const int rc = connect(args, &c); rc != 0) return rc;
  if (auto sid = c.open_session("mloc_client"); !sid.is_ok()) {
    return fail(sid.status());
  }
  if (!args.has_flag("no-shm")) {
    const Status st =
        c.enable_shm(static_cast<std::uint64_t>(ring_kb.value()) << 10);
    // Best-effort by default: a refused offer just keeps TCP. --shm is
    // for scripts that need to *assert* the fast path.
    if (!st.is_ok() && args.has_flag("shm")) return fail(st);
  }

  std::vector<std::uint64_t> ids;
  ids.reserve(static_cast<std::size_t>(repeat.value()));
  for (std::int64_t i = 0; i < repeat.value(); ++i) {
    auto id = c.send_query(parsed.value());
    if (!id.is_ok()) return fail(id.status());
    ids.push_back(id.value());
  }
  int rc = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    auto resp = c.wait(ids[i]);
    if (!resp.is_ok()) return fail(resp.status());
    if (ids.size() > 1) std::printf("-- response %zu --\n", i + 1);
    print_response(resp.value());
    if (!resp.value().status.is_ok()) rc = 1;
  }
  (void)c.close_session();
  return rc;
}

int cmd_stats(const cli::Args& args) {
  net::Client c;
  if (const int rc = connect(args, &c); rc != 0) return rc;
  auto snap = c.stats();
  if (!snap.is_ok()) return fail(snap.status());
  const service::AggregateStats& a = snap.value().agg;
  const service::FragmentCache::Stats& fc = snap.value().cache;
  std::printf("service:\n");
  std::printf("  submitted   %llu (completed %llu, failed %llu, expired %llu,"
              " cancelled %llu)\n",
              static_cast<unsigned long long>(a.submitted),
              static_cast<unsigned long long>(a.completed),
              static_cast<unsigned long long>(a.failed),
              static_cast<unsigned long long>(a.expired),
              static_cast<unsigned long long>(a.cancelled));
  std::printf("  in service  queued %llu, executing %llu\n",
              static_cast<unsigned long long>(a.queued),
              static_cast<unsigned long long>(a.executing));
  std::printf("  rejected    %llu\n",
              static_cast<unsigned long long>(a.rejected));
  std::printf("  sessions    %llu open / %llu opened\n",
              static_cast<unsigned long long>(a.sessions_open),
              static_cast<unsigned long long>(a.sessions_opened));
  std::printf("  queue wait  %.3f s total; exec %.3f s total\n",
              a.total_queue_wait_s, a.total_exec_wall_s);
  std::printf("fragment cache:\n");
  std::printf("  %llu lookups (%llu hits, %llu misses), %llu entries,"
              " %.2f MB\n",
              static_cast<unsigned long long>(fc.lookups),
              static_cast<unsigned long long>(fc.hits),
              static_cast<unsigned long long>(fc.misses),
              static_cast<unsigned long long>(fc.entries),
              static_cast<double>(fc.bytes_cached) / 1e6);
  return 0;
}

int cmd_vars(const cli::Args& args) {
  net::Client c;
  if (const int rc = connect(args, &c); rc != 0) return rc;
  auto vars = c.list_variables();
  if (!vars.is_ok()) return fail(vars.status());
  std::printf("%zu variable(s):\n", vars.value().size());
  for (const MlocStore::VariableDesc& v : vars.value()) {
    std::printf("  %-16s epoch %llu  %s%s\n", v.name.c_str(),
                static_cast<unsigned long long>(v.epoch),
                v.layout.describe().c_str(),
                v.plod_capable ? "" : " (no PLoD)");
  }
  return 0;
}

int cmd_session_stats(const cli::Args& args) {
  net::Client c;
  if (const int rc = connect(args, &c); rc != 0) return rc;
  if (auto sid = c.open_session("mloc_client"); !sid.is_ok()) {
    return fail(sid.status());
  }
  auto stats = c.session_stats();
  if (!stats.is_ok()) return fail(stats.status());
  const service::SessionStats& s = stats.value();
  std::printf("session '%s' (%s): submitted %llu, completed %llu, failed "
              "%llu, rejected %llu\n",
              s.label.c_str(), s.open ? "open" : "closed",
              static_cast<unsigned long long>(s.submitted),
              static_cast<unsigned long long>(s.completed),
              static_cast<unsigned long long>(s.failed),
              static_cast<unsigned long long>(s.rejected));
  (void)c.close_session();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed = cli::parse_args(argc, argv, /*with_command=*/true);
  if (!parsed.is_ok()) return usage(parsed.status());
  const cli::Args& args = parsed.value();
  if (args.command == "ping") return cmd_ping(args);
  if (args.command == "query") return cmd_query(args);
  if (args.command == "stats") return cmd_stats(args);
  if (args.command == "session-stats") return cmd_session_stats(args);
  if (args.command == "vars") return cmd_vars(args);
  return usage();
}
