#include "tools/cli.hpp"

#include <algorithm>
#include <charconv>
#include <initializer_list>
#include <limits>
#include <type_traits>

namespace mloc::cli {

namespace {

/// Upper bound on --workers and --loops (threads each).
constexpr std::int64_t kMaxThreads = 256;

/// `text`, all of it, as a T. No sign on unsigned types, no leading blank.
template <class T>
bool read_number(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

const std::string* last_value(const Args& args, std::string_view key) {
  for (auto it = args.options.rbegin(); it != args.options.rend(); ++it) {
    if (it->first == key) return &it->second;
  }
  return nullptr;
}

/// Option `key` read in full as a T in [min, max]; `fallback` when
/// absent, an error when given as a bare flag.
template <class T>
Result<T> get_number(const Args& args, std::string_view key, T fallback,
                     T min, T max) {
  const std::string name = "--" + std::string(key);
  if (args.has_flag(key)) return invalid_argument(name + " needs a value");
  const std::string* text = last_value(args, key);
  if (text == nullptr) return fallback;
  T v{};
  const bool read = read_number(*text, &v);
  const bool in_range = v >= min && v <= max;  // never for NaN
  if (!read || !in_range) {
    return invalid_argument(
        name + " expects " +
        (std::is_integral_v<T> ? "an integer in [" + std::to_string(min) +
                                     ", " + std::to_string(max) + "]"
                               : std::string("a finite number")) +
        ", got '" + *text + "'");
  }
  return v;
}

/// Integer option `key` into *out, as get_int checks it.
template <class T>
Status read_int(const Args& args, std::string_view key, T* out,
                std::int64_t fallback, std::int64_t min, std::int64_t max) {
  MLOC_ASSIGN_OR_RETURN(const std::int64_t v,
                        args.get_int(key, fallback, min, max));
  *out = static_cast<T>(v);
  return Status::ok();
}

/// "VAR:LO:HI", one --select predicate.
Result<MlocStore::VarConstraint> parse_select(std::string_view text) {
  const std::size_t colon = text.find(':');
  if (colon == 0 || colon == std::string_view::npos) {
    return invalid_argument("--select expects VAR:LO:HI, got '" +
                            std::string(text) + "'");
  }
  MlocStore::VarConstraint pred;
  pred.var = std::string(text.substr(0, colon));
  MLOC_ASSIGN_OR_RETURN(pred.vc, parse_value_range(text.substr(colon + 1)));
  return pred;
}

}  // namespace

std::string Args::get(std::string_view key, std::string fallback) const {
  if (const std::string* v = last_value(*this, key); v != nullptr) return *v;
  return fallback;
}

std::vector<std::string> Args::get_all(std::string_view key) const {
  std::vector<std::string> out;
  for (const auto& [k, v] : options) {
    if (k == key) out.push_back(v);
  }
  return out;
}

bool Args::has_flag(std::string_view name) const {
  return std::find(flags.begin(), flags.end(), name) != flags.end();
}

Result<std::int64_t> Args::get_int(std::string_view key, std::int64_t fallback,
                                   std::int64_t min, std::int64_t max) const {
  return get_number(*this, key, fallback, min, max);
}

Result<double> Args::get_double(std::string_view key, double fallback) const {
  constexpr double kMax = std::numeric_limits<double>::max();
  return get_number(*this, key, fallback, -kMax, kMax);
}

Result<Args> parse_args(int argc, const char* const* argv,
                        bool with_command) {
  Args args;
  int i = 1;
  if (with_command && argc >= 2) args.command = argv[i++];
  for (; i < argc; ++i) {
    const std::string_view token = argv[i];
    if (!token.starts_with("--") || token.size() == 2) {
      return invalid_argument("unexpected argument '" + std::string(token) +
                              "'");
    }
    std::string key(token.substr(2));
    if (i + 1 < argc && !std::string_view(argv[i + 1]).starts_with("--")) {
      args.options.emplace_back(std::move(key), argv[++i]);
    } else {
      args.flags.push_back(std::move(key));
    }
  }
  return args;
}

Result<ValueConstraint> parse_value_range(std::string_view text) {
  const std::size_t colon = text.find(':');
  ValueConstraint vc;
  if (colon == std::string_view::npos ||
      !read_number(text.substr(0, colon), &vc.lo) ||
      !read_number(text.substr(colon + 1), &vc.hi)) {
    return invalid_argument("expected LO:HI, got '" + std::string(text) + "'");
  }
  return vc;
}

Result<Region> parse_region(std::string_view text) {
  Coord lo{}, hi{};
  int dims = 0;
  std::size_t begin = 0;
  while (true) {
    const std::size_t comma = text.find(',', begin);
    const std::string_view part = text.substr(
        begin, comma == std::string_view::npos ? comma : comma - begin);
    const std::size_t colon = part.find(':');
    if (dims == NDShape::kMaxDims || colon == std::string_view::npos ||
        !read_number(part.substr(0, colon), &lo[dims]) ||
        !read_number(part.substr(colon + 1), &hi[dims]) ||
        lo[dims] > hi[dims]) {
      return invalid_argument(
          "expected LO:HI[,LO:HI...] with at most " +
          std::to_string(NDShape::kMaxDims) +
          " parts of integers 0 <= LO <= HI < 2^32, got '" +
          std::string(text) + "'");
    }
    ++dims;
    if (comma == std::string_view::npos) break;
    begin = comma + 1;
  }
  return Region(dims, lo, hi);
}

Result<Query> parse_query(const Args& args) {
  Query q;
  if (const std::string vc = args.get("vc"); !vc.empty()) {
    MLOC_ASSIGN_OR_RETURN(q.vc, parse_value_range(vc));
  }
  if (const std::string sc = args.get("sc"); !sc.empty()) {
    MLOC_ASSIGN_OR_RETURN(q.sc, parse_region(sc));
  }
  MLOC_RETURN_IF_ERROR(read_int(args, "plod", &q.plod_level, 7, 1, 7));
  q.values_needed = !args.has_flag("region-only");
  return q;
}

Result<service::Request> parse_request(const Args& args) {
  service::Request req;
  req.var = args.get("var", "v");
  MLOC_ASSIGN_OR_RETURN(req.query, parse_query(args));
  MLOC_RETURN_IF_ERROR(
      read_int(args, "ranks", &req.num_ranks, 0, 0, exec::kMaxRanks));
  MLOC_ASSIGN_OR_RETURN(req.deadline_s, args.get_double("deadline", -1));

  const std::vector<std::string> selects = args.get_all("select");
  if (selects.empty()) return req;
  service::MultivarSpec mv;
  for (const std::string& text : selects) {
    MLOC_ASSIGN_OR_RETURN(MlocStore::VarConstraint pred, parse_select(text));
    mv.preds.push_back(std::move(pred));
  }
  const std::string combine = args.get("combine", "and");
  if (combine != "and" && combine != "or") {
    return invalid_argument("--combine expects and|or, got '" + combine + "'");
  }
  mv.combine =
      combine == "or" ? MlocStore::Combine::kOr : MlocStore::Combine::kAnd;
  mv.fetch_var = args.get("fetch");
  req.multivar = std::move(mv);
  return req;
}

Result<ServeOptions> parse_serve(const Args& args) {
  ServeOptions o;
  o.store_dir = args.get("store");
  if (o.store_dir.empty()) return invalid_argument("--store is required");
  o.port_file = args.get("port-file");
  o.server.host = args.get("host", "127.0.0.1");
  o.server.enable_shm = !args.has_flag("no-shm");
  std::int64_t cache_mb = 0, ring_mb = 0;
  for (const Status& st : {
           read_int(args, "workers", &o.service.num_workers, 4, 1, kMaxThreads),
           read_int(args, "queue-depth", &o.service.max_queue_depth, 1024, 1,
                    1 << 24),
           read_int(args, "cache-mb", &cache_mb, 64, 0, 1 << 20),
           read_int(args, "port", &o.server.port, 0, 0, 65535),
           read_int(args, "loops", &o.server.num_loops, 2, 1, kMaxThreads),
           // At least one MiB: the server clamps offered rings to
           // [kShmMinRingBytes, this].
           read_int(args, "max-shm-ring-mb", &ring_mb, 64, 1, 1 << 20)}) {
    MLOC_RETURN_IF_ERROR(st);
  }
  o.service.cache.budget_bytes = static_cast<std::uint64_t>(cache_mb) << 20;
  o.server.max_shm_ring_bytes = static_cast<std::uint64_t>(ring_mb) << 20;
  MLOC_ASSIGN_OR_RETURN(o.server.drain_grace_s, args.get_double("grace", 5));
  if (o.server.drain_grace_s < 0) {
    return invalid_argument("--grace expects seconds >= 0");
  }
  return o;
}

}  // namespace mloc::cli
