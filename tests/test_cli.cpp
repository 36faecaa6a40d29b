// Command-line parser tests (tools/cli.hpp, shared by mloc_cli, mloc_client
// and mloc_server): well-formed options parse to the values the tools use,
// and every malformed one — bad numbers, inverted or negative regions,
// out-of-range counts — comes back as InvalidArgument, which the tools
// report as a usage error (exit 2). Nothing here starts a service, a
// thread pool or a socket: the count checks are tested on the parser.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "tools/cli.hpp"

namespace mloc {
namespace {

/// `argv` after the program name, parsed as a tool would.
cli::Args args_of(std::vector<const char*> argv, bool with_command = true) {
  argv.insert(argv.begin(), "tool");
  auto parsed = cli::parse_args(static_cast<int>(argv.size()), argv.data(),
                                with_command);
  EXPECT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  return parsed.is_ok() ? parsed.value() : cli::Args{};
}

using Argv = std::vector<const char*>;

TEST(CliArgs, SplitsCommandOptionsAndFlags) {
  const cli::Args a =
      args_of({"query", "--vc", "0.4:0.6", "--region-only", "--select",
               "a:0:1", "--select", "b:2:3", "--vc", "-1:1"});
  EXPECT_EQ(a.command, "query");
  EXPECT_EQ(a.get("vc"), "-1:1");  // the last one wins; "-1:1" is a value
  EXPECT_TRUE(a.has_flag("region-only"));
  EXPECT_FALSE(a.has_flag("vc"));
  EXPECT_EQ(a.get_all("select"), (std::vector<std::string>{"a:0:1", "b:2:3"}));
  EXPECT_EQ(a.get("fetch", "none"), "none");
}

TEST(CliArgs, RejectsAStrayToken) {
  for (const Argv& argv : {Argv{"tool", "query", "--vc", "0:1", "stray"},
                           Argv{"tool", "query", "--"},
                           Argv{"tool", "query", "-v"}}) {
    EXPECT_EQ(cli::parse_args(static_cast<int>(argv.size()), argv.data(),
                              /*with_command=*/true)
                  .status()
                  .code(),
              ErrorCode::kInvalidArgument)
        << argv.back();
  }
}

TEST(CliArgs, NumbersAreReadInFullAndRangeChecked) {
  const cli::Args a = args_of({"--n", "12", "--neg", "-3", "--huge",
                               "99999999999999999999", "--word", "7x",
                               "--x", "1.5", "--inf", "inf", "--bare"},
                              /*with_command=*/false);
  EXPECT_EQ(a.get_int("n", 0, 0, 100).value(), 12);
  EXPECT_EQ(a.get_int("neg", 0, -5, 5).value(), -3);
  EXPECT_EQ(a.get_int("absent", 7, 0, 100).value(), 7);
  EXPECT_EQ(a.get_double("x", 0).value(), 1.5);
  EXPECT_EQ(a.get_double("absent", -1).value(), -1);
  const std::int64_t max = std::numeric_limits<std::int64_t>::max();
  for (const Status& st :
       {a.get_int("n", 0, 13, 100).status(), a.get_int("n", 0, 0, 11).status(),
        a.get_int("neg", 0, 0, 100).status(),
        a.get_int("huge", 0, 0, max).status(),
        a.get_int("word", 0, 0, 100).status(),
        a.get_int("x", 0, 0, 100).status(),
        a.get_int("bare", 0, 0, 100).status(),
        a.get_double("word", 0).status(), a.get_double("inf", 0).status(),
        a.get_double("bare", 0).status()}) {
    EXPECT_EQ(st.code(), ErrorCode::kInvalidArgument) << st.to_string();
  }
}

TEST(CliRegion, ParsesOneToMaxDimsParts) {
  auto r = cli::parse_region("8:40,0:4294967295");
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_TRUE(r.value() == Region(2, {8, 0}, {40, 4294967295u}));
  auto four = cli::parse_region("0:1,2:3,4:5,6:7");
  ASSERT_TRUE(four.is_ok());
  EXPECT_EQ(four.value().ndims(), NDShape::kMaxDims);
  // An empty extent is still a region; the query decides what it selects.
  EXPECT_TRUE(cli::parse_region("5:5").is_ok());
}

TEST(CliRegion, MalformedRegionsAreInvalidArgument) {
  for (const char* text :
       {"40:8", "40:8,0:8", "-5:8", "0:-1", "a:8", "0:8,x:9", "1.5:8",
        "+1:8", " 1:8", "0:4294967296", "0:99999999999999999999",
        "0:1,0:1,0:1,0:1,0:1", "8", "", ",", "0:8,", "0:8:9"}) {
    EXPECT_EQ(cli::parse_region(text).status().code(),
              ErrorCode::kInvalidArgument)
        << "'" << text << "'";
  }
}

TEST(CliValueRange, ParsesNumbersAndRejectsTheRest) {
  auto vc = cli::parse_value_range("-0.5:1e3");
  ASSERT_TRUE(vc.is_ok());
  EXPECT_EQ(vc.value().lo, -0.5);
  EXPECT_EQ(vc.value().hi, 1000.0);
  // A well-formed but empty range parses; the store refuses it.
  EXPECT_TRUE(cli::parse_value_range("5:5").is_ok());
  for (const char* text : {"0.4", "x:1", "0:y", "0:1:2", ":1", "0:", ""}) {
    EXPECT_EQ(cli::parse_value_range(text).status().code(),
              ErrorCode::kInvalidArgument)
        << "'" << text << "'";
  }
}

TEST(CliQuery, InvertedOrNegativeRegionsAreUsageErrors) {
  // Both query tools go through parse_query; none of these may reach
  // Region's lo <= hi precondition or a negative-to-unsigned conversion.
  for (const char* sc : {"40:8", "40:8,0:8", "-5:8", "0:8,-1:4"}) {
    const cli::Args a = args_of({"query", "--sc", sc});
    EXPECT_EQ(cli::parse_query(a).status().code(),
              ErrorCode::kInvalidArgument)
        << sc;
    EXPECT_EQ(cli::parse_request(a).status().code(),
              ErrorCode::kInvalidArgument)
        << sc;
  }
}

TEST(CliRequest, BuildsAMultivariableRequest) {
  auto req = cli::parse_request(args_of(
      {"query", "--var", "phi", "--vc", "0.4:0.6", "--sc", "8:40,8:40",
       "--plod", "3", "--region-only", "--ranks", "2", "--deadline", "0.5",
       "--select", "a:0.1:0.2", "--select", "b:0.3:0.4", "--combine", "or",
       "--fetch", "phi"}));
  ASSERT_TRUE(req.is_ok()) << req.status().to_string();
  const service::Request& r = req.value();
  EXPECT_EQ(r.var, "phi");
  ASSERT_TRUE(r.query.vc.has_value());
  EXPECT_EQ(r.query.vc->lo, 0.4);
  EXPECT_EQ(r.query.vc->hi, 0.6);
  ASSERT_TRUE(r.query.sc.has_value());
  EXPECT_TRUE(*r.query.sc == Region(2, {8, 8}, {40, 40}));
  EXPECT_EQ(r.query.plod_level, 3);
  EXPECT_FALSE(r.query.values_needed);
  EXPECT_EQ(r.num_ranks, 2);
  EXPECT_EQ(r.deadline_s, 0.5);
  ASSERT_TRUE(r.multivar.has_value());
  ASSERT_EQ(r.multivar->preds.size(), 2u);
  EXPECT_EQ(r.multivar->preds[1].var, "b");
  EXPECT_EQ(r.multivar->preds[1].vc.lo, 0.3);
  EXPECT_EQ(r.multivar->preds[1].vc.hi, 0.4);
  EXPECT_EQ(r.multivar->combine, MlocStore::Combine::kOr);
  EXPECT_EQ(r.multivar->fetch_var, "phi");

  // Defaults: variable "v", full precision, one rank, no deadline.
  auto plain = cli::parse_request(args_of({"query"}));
  ASSERT_TRUE(plain.is_ok());
  EXPECT_EQ(plain.value().var, "v");
  EXPECT_EQ(plain.value().query.plod_level, 7);
  EXPECT_TRUE(plain.value().query.values_needed);
  EXPECT_EQ(plain.value().num_ranks, 0);
  EXPECT_LT(plain.value().deadline_s, 0);
  EXPECT_FALSE(plain.value().multivar.has_value());
}

TEST(CliRequest, MalformedOptionsAreInvalidArgument) {
  for (const Argv& argv :
       {Argv{"query", "--vc", "0.4"}, Argv{"query", "--plod", "9"},
        Argv{"query", "--plod", "0"}, Argv{"query", "--ranks", "-1"},
        Argv{"query", "--ranks", "65537"}, Argv{"query", "--deadline", "soon"},
        Argv{"query", "--select", "a:0.1"}, Argv{"query", "--select", ":0:1"},
        Argv{"query", "--select", "a:0:1", "--combine", "xor"}}) {
    EXPECT_EQ(cli::parse_request(args_of(argv)).status().code(),
              ErrorCode::kInvalidArgument)
        << argv[1] << " " << argv[2];
  }
}

TEST(CliServe, DefaultsAndOverrides) {
  auto d = cli::parse_serve(args_of({"--store", "/s"}, false));
  ASSERT_TRUE(d.is_ok()) << d.status().to_string();
  EXPECT_EQ(d.value().store_dir, "/s");
  EXPECT_EQ(d.value().service.num_workers, 4);
  EXPECT_EQ(d.value().service.max_queue_depth, 1024u);
  EXPECT_EQ(d.value().service.cache.budget_bytes, 64ull << 20);
  EXPECT_EQ(d.value().server.host, "127.0.0.1");
  EXPECT_EQ(d.value().server.port, 0);
  EXPECT_EQ(d.value().server.num_loops, 2);
  EXPECT_EQ(d.value().server.drain_grace_s, 5.0);
  EXPECT_TRUE(d.value().server.enable_shm);
  EXPECT_EQ(d.value().server.max_shm_ring_bytes, 64ull << 20);

  auto o = cli::parse_serve(args_of(
      {"--store", "/s", "--workers", "3", "--queue-depth", "64", "--cache-mb",
       "0", "--host", "0.0.0.0", "--port", "9070", "--loops", "1", "--grace",
       "0.5", "--no-shm", "--max-shm-ring-mb", "8", "--port-file", "/p"},
      false));
  ASSERT_TRUE(o.is_ok()) << o.status().to_string();
  EXPECT_EQ(o.value().port_file, "/p");
  EXPECT_EQ(o.value().service.num_workers, 3);
  EXPECT_EQ(o.value().service.max_queue_depth, 64u);
  EXPECT_EQ(o.value().service.cache.budget_bytes, 0u);
  EXPECT_EQ(o.value().server.host, "0.0.0.0");
  EXPECT_EQ(o.value().server.port, 9070);
  EXPECT_EQ(o.value().server.num_loops, 1);
  EXPECT_EQ(o.value().server.drain_grace_s, 0.5);
  EXPECT_FALSE(o.value().server.enable_shm);
  EXPECT_EQ(o.value().server.max_shm_ring_bytes, 8ull << 20);
}

TEST(CliServe, OutOfRangeCountsAreUsageErrors) {
  for (const Argv& argv :
       {Argv{"--store", "/s", "--workers", "0"},
        Argv{"--store", "/s", "--queue-depth", "0"},
        Argv{"--store", "/s", "--workers", "100000"},
        Argv{"--store", "/s", "--loops", "0"},
        Argv{"--store", "/s", "--port", "65536"},
        Argv{"--store", "/s", "--max-shm-ring-mb", "0"},
        Argv{"--store", "/s", "--grace", "-1"},
        Argv{"--store", "/s", "--cache-mb", "lots"},
        Argv{"--store", "/s", "--workers"}, Argv{"--workers", "4"}}) {
    EXPECT_EQ(cli::parse_serve(args_of(argv, false)).status().code(),
              ErrorCode::kInvalidArgument)
        << argv[argv.size() - 2] << " " << argv.back();
  }
}

}  // namespace
}  // namespace mloc
