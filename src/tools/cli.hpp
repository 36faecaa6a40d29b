// Command-line parsing shared by mloc_cli, mloc_client and mloc_server.
//
// One argument model and one checked parser for every number, value range,
// region and multi-variable predicate the tools take. Malformed input comes
// back as an InvalidArgument Status, which each tool reports as a usage
// error (exit 2) before it opens a store, connects, or starts a thread.
// Whether a well-formed query makes sense for a given store (its dimension
// count, a PLoD level its codec lacks, an empty value range) stays the
// store's call.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/server.hpp"
#include "query/query.hpp"
#include "service/query_service.hpp"
#include "util/status.hpp"

namespace mloc::cli {

/// `[command] --key value ... --flag ...`: a token after `--key` that does
/// not start with "--" is its value; otherwise `--key` is a flag.
struct Args {
  std::string command;  ///< argv[1] when parsed with a command
  std::vector<std::pair<std::string, std::string>> options;  ///< in order
  std::vector<std::string> flags;

  /// The last value given for `key`, or `fallback`.
  [[nodiscard]] std::string get(std::string_view key,
                                std::string fallback = "") const;
  /// Every value given for `key`, in order (a repeatable option).
  [[nodiscard]] std::vector<std::string> get_all(std::string_view key) const;
  [[nodiscard]] bool has_flag(std::string_view name) const;
  /// Integer option in [min, max]; `fallback` when absent. A numeric
  /// option given as a bare flag is an error.
  [[nodiscard]] Result<std::int64_t> get_int(std::string_view key,
                                             std::int64_t fallback,
                                             std::int64_t min,
                                             std::int64_t max) const;
  /// Finite number option; `fallback` when absent.
  [[nodiscard]] Result<double> get_double(std::string_view key,
                                          double fallback) const;
};

/// Split argv into Args; with `with_command`, argv[1] is the command. A
/// bare token that is neither an option's value nor an option is an error.
[[nodiscard]] Result<Args> parse_args(int argc, const char* const* argv,
                                      bool with_command);

/// "LO:HI", the --vc form: two numbers read in full.
[[nodiscard]] Result<ValueConstraint> parse_value_range(std::string_view text);

/// "LO:HI[,LO:HI...]", the --sc form: one to NDShape::kMaxDims parts whose
/// bounds are unsigned 32-bit integers with LO <= HI.
[[nodiscard]] Result<Region> parse_region(std::string_view text);

/// The query options of mloc_cli and mloc_client: --vc, --sc, --plod and
/// --region-only.
[[nodiscard]] Result<Query> parse_query(const Args& args);

/// mloc_client's request: parse_query plus --var, --ranks, --deadline and
/// the multi-variable --select (repeatable), --combine and --fetch.
[[nodiscard]] Result<service::Request> parse_request(const Args& args);

/// mloc_server's options, checked before anything is opened or started.
struct ServeOptions {
  std::string store_dir;  ///< --store (required)
  std::string port_file;  ///< --port-file
  service::ServiceConfig service;
  net::ServerConfig server;
};
[[nodiscard]] Result<ServeOptions> parse_serve(const Args& args);

}  // namespace mloc::cli
