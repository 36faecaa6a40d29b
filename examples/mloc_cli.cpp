// mloc_cli — command-line front end over the MLOC public API, with stores
// persisted to host directories (pfs::PfsStorage::save_to_dir/load_from_dir).
//
//   mloc_cli build --out DIR [--dataset gts|s3d|velocity] [--edge N]
//            [--chunk C] [--bins B] [--codec NAME] [--order vms|vsm]
//            [--index-fanout F] [--seed S] [--var NAME] [--threads T]
//            [--write-behind]
//   mloc_cli info  --store DIR
//   mloc_cli query --store DIR [--var NAME] [--vc LO:HI]
//            [--sc LO:HI[,LO:HI...]] [--plod L] [--ranks R] [--region-only]
//   mloc_cli plan  --store DIR (same query options) [--max-ranks N]
//
// `build` defaults --chunk to 128 (gts) or 32 (3-D), capped at --edge.
// A malformed option is a usage error (exit 2, tools/cli.hpp); a query the
// store refuses exits 1.
// `plan` costs a query without running it: the recommended rank count and
// the plan's bins, fragments, seeks, bytes and modeled I/O seconds.
//
// Examples:
//   mloc_cli build --out /tmp/gts --dataset gts --edge 1024 --codec isobar
//   mloc_cli query --store /tmp/gts --vc 0.5:1.0 --region-only
//   mloc_cli query --store /tmp/gts --sc 100:200,300:400 --plod 2
//   mloc_cli plan  --store /tmp/gts --vc 0.4:0.6 --max-ranks 16
#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>

#include "compress/registry.hpp"
#include "core/store.hpp"
#include "datagen/datagen.hpp"
#include "tools/cli.hpp"
#include "tune/tuner.hpp"

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
      "  mloc_cli build --out DIR [--dataset gts|s3d|velocity] [--edge N]\n"
      "           [--chunk C] [--bins B] [--codec NAME] [--order vms|vsm]\n"
      "           [--index-fanout F] [--seed S] [--var NAME] [--threads T]\n"
      "           [--write-behind]\n"
      "  mloc_cli info  --store DIR\n"
      "  mloc_cli query --store DIR [--var NAME] [--vc LO:HI]\n"
      "           [--sc LO:HI[,LO:HI...]] [--plod L] [--ranks R]"
      " [--region-only]\n"
      "  mloc_cli plan  --store DIR (same query options) [--max-ranks N]\n");
  return 2;
}

int fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.to_string().c_str());
  return 1;
}

int cmd_build(const cli::Args& args) {
  const std::string out = args.get("out");
  if (out.empty()) return usage();
  const std::string dataset = args.get("dataset", "gts");
  constexpr std::int64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();
  constexpr std::int64_t kMaxInt = std::numeric_limits<int>::max();
  auto seed = args.get_int("seed", 1, 0,
                           std::numeric_limits<std::int64_t>::max());
  auto edge = args.get_int("edge", dataset == "gts" ? 1024 : 96, 1, kMaxU32);
  auto bins = args.get_int("bins", 100, 1, kMaxInt);
  auto fanout = args.get_int("index-fanout", 0, 0, kMaxInt);
  auto threads = args.get_int("threads", 1, 1, 256);
  for (const Status& st : {seed.status(), edge.status(), bins.status(),
                           fanout.status(), threads.status()}) {
    if (!st.is_ok()) return usage(st);
  }
  auto chunk = args.get_int(
      "chunk", std::min<std::int64_t>(dataset == "gts" ? 128 : 32, edge.value()),
      1, kMaxU32);
  if (!chunk.is_ok()) return usage(chunk.status());
  const auto edge_u = static_cast<std::uint32_t>(edge.value());
  const auto chunk_u = static_cast<std::uint32_t>(chunk.value());

  Grid grid;
  if (dataset == "gts") {
    grid = datagen::gts_like(edge_u, static_cast<std::uint64_t>(seed.value()));
  } else if (dataset == "s3d") {
    grid = datagen::s3d_like(edge_u, static_cast<std::uint64_t>(seed.value()));
  } else if (dataset == "velocity") {
    grid = datagen::s3d_velocity_like(edge_u,
                                      static_cast<std::uint64_t>(seed.value()));
  } else {
    return usage(invalid_argument("unknown dataset: " + dataset));
  }

  MlocConfig cfg;
  cfg.shape = grid.shape();
  cfg.layout.chunk_shape = (grid.shape().ndims() == 2)
                        ? NDShape{chunk_u, chunk_u}
                        : NDShape{chunk_u, chunk_u, chunk_u};
  cfg.layout.num_bins = static_cast<int>(bins.value());
  cfg.layout.codec = args.get("codec", "mzip");
  cfg.layout.order =
      args.get("order", "vms") == "vsm" ? LevelOrder::kVSM : LevelOrder::kVMS;
  cfg.layout.index_fanout = static_cast<int>(fanout.value());

  pfs::PfsStorage fs;
  auto store = MlocStore::create(&fs, "store", cfg);
  if (!store.is_ok()) return fail(store.status());
  const std::string var = args.get("var", "v");
  ingest::WriteOptions wopts;
  wopts.threads = static_cast<int>(threads.value());
  wopts.write_behind = args.has_flag("write-behind");
  if (Status s = store.value().write_variable(var, grid, wopts); !s.is_ok()) {
    return fail(s);
  }
  if (Status s = fs.save_to_dir(out); !s.is_ok()) return fail(s);
  const ingest::IngestStats ist = store.value().ingest_stats();
  std::printf(
      "built %s %s store: %llu points, %.2f MB data + %.2f MB index -> %s\n"
      "ingest: %d thread(s)%s, %.3fs wall (partition %.3fs, encode %.3fs,"
      " fold %.3fs, flush %.3fs), %llu fragments\n",
      dataset.c_str(), cfg.layout.codec.c_str(),
      static_cast<unsigned long long>(grid.size()),
      static_cast<double>(store.value().data_bytes()) / 1e6,
      static_cast<double>(store.value().index_bytes()) / 1e6, out.c_str(),
      ist.threads, ist.write_behind ? " + write-behind" : "", ist.wall_s,
      ist.partition_s, ist.encode_s, ist.fold_s, ist.flush_s,
      static_cast<unsigned long long>(ist.fragments_encoded));
  return 0;
}

int cmd_info(const cli::Args& args) {
  const std::string dir = args.get("store");
  if (dir.empty()) return usage();
  // The store borrows the storage; keep both in this scope.
  auto fs = pfs::PfsStorage::load_from_dir(dir);
  if (!fs.is_ok()) return fail(fs.status());
  auto opened = MlocStore::open(&fs.value(), "store");
  if (!opened.is_ok()) return fail(opened.status());
  const MlocStore& store = opened.value();
  const MlocConfig& cfg = store.config();
  std::printf("store %s\n", dir.c_str());
  std::printf("  shape       %s, chunks %s\n", cfg.shape.to_string().c_str(),
              cfg.layout.chunk_shape.to_string().c_str());
  std::printf("  bins        %d (equal frequency)\n", cfg.layout.num_bins);
  if (cfg.layout.index_fanout > 1) {
    std::printf("  bin index   hierarchical, fanout %d (.hbx)\n",
                cfg.layout.index_fanout);
  }
  std::printf("  codec       %s (%s)\n", cfg.layout.codec.c_str(),
              is_byte_codec(cfg.layout.codec) ? "PLoD byte columns" : "whole values");
  std::printf("  level order %s\n",
              std::string(level_order_name(cfg.layout.order)).c_str());
  std::printf("  data        %.2f MB, index %.2f MB\n",
              static_cast<double>(store.data_bytes()) / 1e6,
              static_cast<double>(store.index_bytes()) / 1e6);
  std::printf("  variables  ");
  for (const auto& v : store.variables()) std::printf(" %s", v.c_str());
  std::printf("\n");
  return 0;
}

int cmd_query(const cli::Args& args) {
  const std::string dir = args.get("store");
  if (dir.empty()) return usage();
  auto parsed = cli::parse_query(args);
  if (!parsed.is_ok()) return usage(parsed.status());
  const Query& q = parsed.value();
  auto ranks = args.get_int("ranks", 8, 1, exec::kMaxRanks);
  if (!ranks.is_ok()) return usage(ranks.status());

  auto fs = pfs::PfsStorage::load_from_dir(dir);
  if (!fs.is_ok()) return fail(fs.status());
  auto opened = MlocStore::open(&fs.value(), "store");
  if (!opened.is_ok()) return fail(opened.status());
  const MlocStore& store = opened.value();
  const std::string var =
      args.get("var", store.variables().empty() ? "v" : store.variables()[0]);

  auto res = store.execute(var, q, static_cast<int>(ranks.value()));
  if (!res.is_ok()) return fail(res.status());
  std::printf("%zu qualifying points; %llu bins touched (%llu aligned),"
              " %.2f MB read\n",
              res.value().positions.size(),
              static_cast<unsigned long long>(res.value().bins_touched),
              static_cast<unsigned long long>(res.value().aligned_bins),
              static_cast<double>(res.value().exec.bytes_read) / 1e6);
  std::printf("modeled %s\n", res.value().times.to_string().c_str());
  if (q.values_needed && !res.value().values.empty()) {
    double sum = 0, mn = res.value().values[0], mx = mn;
    for (double v : res.value().values) {
      sum += v;
      mn = std::min(mn, v);
      mx = std::max(mx, v);
    }
    std::printf("values: mean %.6g, min %.6g, max %.6g\n",
                sum / static_cast<double>(res.value().values.size()), mn, mx);
  }
  return 0;
}

int cmd_plan(const cli::Args& args) {
  const std::string dir = args.get("store");
  if (dir.empty()) return usage();
  auto parsed = cli::parse_query(args);
  if (!parsed.is_ok()) return usage(parsed.status());
  const Query& q = parsed.value();
  auto max_ranks_arg = args.get_int("max-ranks", 128, 1, exec::kMaxRanks);
  if (!max_ranks_arg.is_ok()) return usage(max_ranks_arg.status());
  const int max_ranks = static_cast<int>(max_ranks_arg.value());

  auto fs = pfs::PfsStorage::load_from_dir(dir);
  if (!fs.is_ok()) return fail(fs.status());
  auto opened = MlocStore::open(&fs.value(), "store");
  if (!opened.is_ok()) return fail(opened.status());
  const MlocStore& store = opened.value();
  const std::string var =
      args.get("var", store.variables().empty() ? "v" : store.variables()[0]);

  auto ranks = tune::recommend_ranks(store, var, q, max_ranks);
  if (!ranks.is_ok()) return fail(ranks.status());
  auto plan = store.plan(var, q, ranks.value());
  if (!plan.is_ok()) return fail(plan.status());
  auto io_s = tune::estimate_io_seconds(store, var, q, ranks.value());
  if (!io_s.is_ok()) return fail(io_s.status());
  const exec::PlanSummary& sum = plan.value();
  std::printf("plan for %s (recommended ranks: %d of max %d)\n", var.c_str(),
              ranks.value(), max_ranks);
  std::printf("  bins touched    %llu (%llu aligned)\n",
              static_cast<unsigned long long>(sum.bins_touched),
              static_cast<unsigned long long>(sum.aligned_bins));
  std::printf("  est fragments   %llu, est seeks %llu\n",
              static_cast<unsigned long long>(sum.fragments_to_fetch),
              static_cast<unsigned long long>(sum.stats.modeled_seeks));
  std::printf("  est bytes       %.2f MB\n",
              static_cast<double>(sum.stats.bytes_read) / 1e6);
  std::printf("  est result size %.0f points\n", sum.est_points);
  std::printf("  est I/O time    %.4f s\n", io_s.value());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed = cli::parse_args(argc, argv, /*with_command=*/true);
  if (!parsed.is_ok()) return usage(parsed.status());
  const cli::Args& args = parsed.value();
  if (args.command == "build") return cmd_build(args);
  if (args.command == "info") return cmd_info(args);
  if (args.command == "query") return cmd_query(args);
  if (args.command == "plan") return cmd_plan(args);
  return usage();
}
