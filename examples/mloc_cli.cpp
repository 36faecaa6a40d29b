// mloc_cli — command-line front end over the MLOC public API, with stores
// persisted to host directories (pfs::PfsStorage::save_to_dir/load_from_dir).
//
//   mloc_cli build --out DIR [--dataset gts|s3d|velocity] [--edge N]
//            [--chunk C] [--bins B] [--codec NAME] [--order vms|vsm]
//            [--seed S] [--var NAME] [--threads T] [--write-behind]
//   mloc_cli info  --store DIR
//   mloc_cli query --store DIR [--var NAME] [--vc LO:HI]
//            [--sc LO:HI[,LO:HI...]] [--plod L] [--ranks R] [--region-only]
//   mloc_cli plan  --store DIR (same query options) [--max-ranks N]
//
// `build` defaults --chunk to 128 (gts) or 32 (3-D), capped at --edge.
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
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "compress/registry.hpp"
#include "core/store.hpp"
#include "datagen/datagen.hpp"
#include "tune/tuner.hpp"

using namespace mloc;

namespace {

struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  std::vector<std::string> flags;

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback = "") const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  [[nodiscard]] bool has_flag(const std::string& name) const {
    for (const auto& f : flags) {
      if (f == name) return true;
    }
    return false;
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) continue;
    token = token.substr(2);
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      args.options[token] = argv[++i];
    } else {
      args.flags.push_back(token);
    }
  }
  return args;
}

int usage() {
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

int cmd_build(const Args& args) {
  const std::string out = args.get("out");
  if (out.empty()) return usage();
  const std::string dataset = args.get("dataset", "gts");
  const auto seed =
      static_cast<std::uint64_t>(std::atoll(args.get("seed", "1").c_str()));
  const auto edge = static_cast<std::uint32_t>(
      std::atoi(args.get("edge", dataset == "gts" ? "1024" : "96").c_str()));
  const std::uint32_t default_chunk =
      std::min<std::uint32_t>(dataset == "gts" ? 128 : 32, edge);
  const auto chunk = static_cast<std::uint32_t>(std::atoi(
      args.get("chunk", std::to_string(default_chunk)).c_str()));

  Grid grid;
  if (dataset == "gts") {
    grid = datagen::gts_like(edge, seed);
  } else if (dataset == "s3d") {
    grid = datagen::s3d_like(edge, seed);
  } else if (dataset == "velocity") {
    grid = datagen::s3d_velocity_like(edge, seed);
  } else {
    std::fprintf(stderr, "unknown dataset: %s\n", dataset.c_str());
    return 2;
  }

  MlocConfig cfg;
  cfg.shape = grid.shape();
  cfg.layout.chunk_shape = (grid.shape().ndims() == 2)
                        ? NDShape{chunk, chunk}
                        : NDShape{chunk, chunk, chunk};
  cfg.layout.num_bins = std::atoi(args.get("bins", "100").c_str());
  cfg.layout.codec = args.get("codec", "mzip");
  cfg.layout.order =
      args.get("order", "vms") == "vsm" ? LevelOrder::kVSM : LevelOrder::kVMS;
  cfg.layout.index_fanout = std::atoi(args.get("index-fanout", "0").c_str());

  pfs::PfsStorage fs;
  auto store = MlocStore::create(&fs, "store", cfg);
  if (!store.is_ok()) return fail(store.status());
  const std::string var = args.get("var", "v");
  ingest::WriteOptions wopts;
  wopts.threads = std::max(1, std::atoi(args.get("threads", "1").c_str()));
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

int cmd_info(const Args& args) {
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

bool parse_range(const std::string& text, double* lo, double* hi) {
  const auto colon = text.find(':');
  if (colon == std::string::npos) return false;
  *lo = std::atof(text.substr(0, colon).c_str());
  *hi = std::atof(text.substr(colon + 1).c_str());
  return true;
}

Result<Query> parse_query(const Args& args, const MlocStore& store) {
  Query q;
  if (const std::string vc = args.get("vc"); !vc.empty()) {
    double lo = 0, hi = 0;
    if (!parse_range(vc, &lo, &hi)) {
      return invalid_argument("--vc expects LO:HI");
    }
    q.vc = ValueConstraint{lo, hi};
  }
  if (const std::string sc = args.get("sc"); !sc.empty()) {
    Coord lo{}, hi{};
    int dim = 0;
    std::size_t begin = 0;
    while (begin <= sc.size() && dim < NDShape::kMaxDims) {
      const std::size_t comma = sc.find(',', begin);
      const std::string part = sc.substr(
          begin, comma == std::string::npos ? std::string::npos
                                            : comma - begin);
      double dlo = 0, dhi = 0;
      if (!parse_range(part, &dlo, &dhi)) {
        return invalid_argument("--sc expects LO:HI[,LO:HI...]");
      }
      lo[dim] = static_cast<std::uint32_t>(dlo);
      hi[dim] = static_cast<std::uint32_t>(dhi);
      ++dim;
      if (comma == std::string::npos) break;
      begin = comma + 1;
    }
    if (dim != store.config().shape.ndims()) {
      return invalid_argument("--sc needs " +
                              std::to_string(store.config().shape.ndims()) +
                              " dimensions");
    }
    q.sc = Region(dim, lo, hi);
  }
  q.plod_level = std::atoi(args.get("plod", "7").c_str());
  q.values_needed = !args.has_flag("region-only");
  return q;
}

int cmd_query(const Args& args) {
  const std::string dir = args.get("store");
  if (dir.empty()) return usage();
  auto fs = pfs::PfsStorage::load_from_dir(dir);
  if (!fs.is_ok()) return fail(fs.status());
  auto opened = MlocStore::open(&fs.value(), "store");
  if (!opened.is_ok()) return fail(opened.status());
  const MlocStore& store = opened.value();

  auto parsed = parse_query(args, store);
  if (!parsed.is_ok()) return fail(parsed.status());
  const Query& q = parsed.value();
  const int ranks = std::atoi(args.get("ranks", "8").c_str());
  const std::string var =
      args.get("var", store.variables().empty() ? "v" : store.variables()[0]);

  auto res = store.execute(var, q, ranks);
  if (!res.is_ok()) return fail(res.status());
  std::printf("%zu qualifying points; %llu bins touched (%llu aligned),"
              " %.2f MB read\n",
              res.value().positions.size(),
              static_cast<unsigned long long>(res.value().bins_touched),
              static_cast<unsigned long long>(res.value().aligned_bins),
              static_cast<double>(res.value().bytes_read) / 1e6);
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

int cmd_plan(const Args& args) {
  const std::string dir = args.get("store");
  if (dir.empty()) return usage();
  auto fs = pfs::PfsStorage::load_from_dir(dir);
  if (!fs.is_ok()) return fail(fs.status());
  auto opened = MlocStore::open(&fs.value(), "store");
  if (!opened.is_ok()) return fail(opened.status());
  const MlocStore& store = opened.value();

  auto parsed = parse_query(args, store);
  if (!parsed.is_ok()) return fail(parsed.status());
  const Query& q = parsed.value();
  const std::string var =
      args.get("var", store.variables().empty() ? "v" : store.variables()[0]);
  const int max_ranks = std::atoi(args.get("max-ranks", "128").c_str());

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
  const Args args = parse_args(argc, argv);
  if (args.command == "build") return cmd_build(args);
  if (args.command == "info") return cmd_info(args);
  if (args.command == "query") return cmd_query(args);
  if (args.command == "plan") return cmd_plan(args);
  return usage();
}
