// mloc_server — serve an on-disk MLOC store over the wire protocol.
//
//   mloc_server --store DIR [--host H] [--port P] [--loops N]
//               [--workers N] [--queue-depth N] [--cache-mb MB]
//               [--grace SECONDS] [--port-file PATH]
//               [--no-shm] [--max-shm-ring-mb MB]
//
// Shared memory: co-located clients may negotiate a per-connection shm
// ring for response payloads (they request it; --no-shm refuses all
// offers, --max-shm-ring-mb clamps the per-connection ring size).
//
// Binds (ephemeral port by default), prints "mloc_server listening on
// HOST:PORT", and serves until SIGINT/SIGTERM. On a signal it stops
// accepting, drains in-flight queries up to --grace seconds, closes
// sessions, and exits 0 — so an orchestrator's TERM always produces a
// clean stop. --port-file writes the bound port to a file, which is how
// scripts using an ephemeral port discover it. A malformed or out-of-range
// option (say --workers 0) is a usage error, exit 2, before the store is
// opened (tools/cli.hpp); a store that fails to open or a failed bind
// exits 1.
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <string>

#include <unistd.h>

#include "net/server.hpp"
#include "pfs/pfs.hpp"
#include "service/query_service.hpp"
#include "tools/cli.hpp"

using namespace mloc;

namespace {

// Signal handlers may only touch async-signal-safe state: write one byte
// to a self-pipe and let main() do the real shutdown.
int g_signal_pipe[2] = {-1, -1};

void on_signal(int) {
  const char byte = 1;
  [[maybe_unused]] ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

/// Prints `why` and the usage text; exit code 2.
int usage(const Status& why) {
  std::fprintf(stderr, "error: %s\n", why.to_string().c_str());
  std::fprintf(
      stderr,
      "usage: mloc_server --store DIR [--host H] [--port P]\n"
      "       [--loops N] [--workers N] [--queue-depth N]\n"
      "       [--cache-mb MB] [--grace SECONDS] [--port-file PATH]\n"
      "       [--no-shm] [--max-shm-ring-mb MB]\n"
      "  --no-shm              refuse shared-memory transport offers;\n"
      "                        co-located clients stay on TCP\n"
      "  --max-shm-ring-mb MB  clamp per-connection shm ring size\n"
      "                        (default 64)\n");
  return 2;
}

int fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.to_string().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = cli::parse_args(argc, argv, /*with_command=*/false);
  if (!args.is_ok()) return usage(args.status());
  auto parsed = cli::parse_serve(args.value());
  if (!parsed.is_ok()) return usage(parsed.status());
  const cli::ServeOptions& opts = parsed.value();

  // The store borrows the storage; keep both alive for the process.
  auto fs = pfs::PfsStorage::load_from_dir(opts.store_dir);
  if (!fs.is_ok()) return fail(fs.status());
  auto opened = MlocStore::open(&fs.value(), "store");
  if (!opened.is_ok()) return fail(opened.status());
  service::QueryService svc(std::move(opened).value(), opts.service);
  net::Server server(svc, opts.server);
  if (Status st = server.start(); !st.is_ok()) return fail(st);

  std::printf("mloc_server listening on %s:%u\n", opts.server.host.c_str(),
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);
  if (!opts.port_file.empty()) {
    if (FILE* f = std::fopen(opts.port_file.c_str(), "w"); f != nullptr) {
      std::fprintf(f, "%u\n", static_cast<unsigned>(server.port()));
      std::fclose(f);
    } else {
      std::fprintf(stderr, "error: cannot write %s\n", opts.port_file.c_str());
      return 1;
    }
  }

  if (::pipe(g_signal_pipe) != 0) return fail(io_error("pipe failed"));
  struct sigaction sa{};
  sa.sa_handler = on_signal;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  char byte = 0;
  while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }

  std::printf("mloc_server draining (grace %.1fs)\n",
              opts.server.drain_grace_s);
  std::fflush(stdout);
  server.shutdown();

  const net::ServerStats st = server.stats();
  std::printf(
      "mloc_server stopped: %llu connections, %llu frames in, %llu frames "
      "out, %llu protocol errors, %llu responses dropped, %llu shm / %llu "
      "tcp responses\n",
      static_cast<unsigned long long>(st.connections_accepted),
      static_cast<unsigned long long>(st.frames_received),
      static_cast<unsigned long long>(st.frames_sent),
      static_cast<unsigned long long>(st.protocol_errors),
      static_cast<unsigned long long>(st.responses_dropped),
      static_cast<unsigned long long>(st.responses_shm),
      static_cast<unsigned long long>(st.responses_tcp));
  return 0;
}
