// The bench sweep engine's --json report: flag parsing, schema fields,
// and well-formedness (tests/json_check.h is the same validator the
// telemetry-export tests trust). tools/ci.sh collects these reports
// into BENCH_dsp_core.json, so the shape checked here is load-bearing.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_util.h"
#include "json_check.h"

namespace wearlock::bench {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(BenchJsonTest, ParseBenchArgsAcceptsJsonFlag) {
  const char* argv_c[] = {"bench",  "--quick",       "--threads", "2",
                          "--json", "/tmp/out.json", "--seed",    "7"};
  std::vector<std::string> storage(argv_c, argv_c + 8);
  std::vector<char*> argv;
  for (auto& s : storage) argv.push_back(s.data());
  const BenchOptions options =
      ParseBenchArgs(static_cast<int>(argv.size()), argv.data(), 99);
  EXPECT_TRUE(options.quick);
  EXPECT_EQ(options.threads, 2u);
  EXPECT_EQ(options.base_seed, 7u);
  EXPECT_EQ(options.json_path, "/tmp/out.json");
}

TEST(BenchJsonTest, JsonPathDefaultsToEmpty) {
  const char* argv_c[] = {"bench"};
  std::vector<std::string> storage(argv_c, argv_c + 1);
  std::vector<char*> argv;
  for (auto& s : storage) argv.push_back(s.data());
  const BenchOptions options = ParseBenchArgs(1, argv.data(), 99);
  EXPECT_TRUE(options.json_path.empty());
  EXPECT_EQ(options.base_seed, 99u);
}

TEST(BenchJsonTest, WriteJsonReportIsWellFormedAndCarriesTheSchema) {
  BenchOptions options;
  options.threads = 2;
  options.quick = true;
  options.base_seed = 42;
  SweepRunner runner(options);
  const auto results = runner.Run(
      4, [](sim::TaskContext& ctx) { return static_cast<int>(ctx.index); });
  ASSERT_EQ(results.size(), 4u);

  const std::string path =
      ::testing::TempDir() + "bench_json_test_report.json";
  ASSERT_TRUE(runner.WriteJsonReport("bench_json_test", path));
  const std::string text = ReadFile(path);
  std::remove(path.c_str());

  wearlock::testing::JsonChecker checker;
  EXPECT_TRUE(checker.Check(text)) << checker.error() << "\n" << text;
  EXPECT_NE(text.find("\"bench\":\"bench_json_test\""), std::string::npos);
  EXPECT_NE(text.find("\"threads\":2"), std::string::npos);
  EXPECT_NE(text.find("\"seed\":42"), std::string::npos);
  EXPECT_NE(text.find("\"wall_ms\":"), std::string::npos);
  EXPECT_NE(text.find("\"per_point_ms\":["), std::string::npos);
  // Provenance stamp: git SHA (or "unknown"), host width, env, quick.
  EXPECT_NE(text.find("\"provenance\":{"), std::string::npos);
  const std::size_t sha_at = text.find("\"git_sha\":\"");
  ASSERT_NE(sha_at, std::string::npos);
  const std::size_t sha_begin = sha_at + std::strlen("\"git_sha\":\"");
  const std::string sha =
      text.substr(sha_begin, text.find('"', sha_begin) - sha_begin);
  EXPECT_TRUE(std::regex_match(
      sha, std::regex("([0-9a-f]{7,40}(-dirty)?|unknown)")))
      << sha;
  EXPECT_NE(text.find("\"hardware_concurrency\":"), std::string::npos);
  EXPECT_NE(text.find("\"wearlock_threads_env\":"), std::string::npos);
  EXPECT_NE(text.find("\"quick\":true"), std::string::npos);
}

TEST(BenchJsonTest, ReportStampsTheReportedThreadCount) {
  // fleet_throughput times one 8-thread campaign per point on a
  // one-worker runner: the report must say 8, not the runner's 1.
  BenchOptions options;
  options.threads = 1;
  SweepRunner runner(options);
  runner.Run(2, [](sim::TaskContext& ctx) { return ctx.index; });
  EXPECT_EQ(runner.reported_threads(), 1u);
  runner.set_reported_threads(8);
  EXPECT_EQ(runner.thread_count(), 1u);
  EXPECT_EQ(runner.reported_threads(), 8u);

  const std::string path =
      ::testing::TempDir() + "bench_json_test_threads.json";
  ASSERT_TRUE(runner.WriteJsonReport("fleet_throughput", path));
  const std::string text = ReadFile(path);
  std::remove(path.c_str());
  EXPECT_NE(text.find("\"bench\":\"fleet_throughput\",\"threads\":8,"),
            std::string::npos)
      << text;
}

TEST(BenchJsonTest, WriteJsonReportFailsOnUnwritablePath) {
  SweepRunner runner(BenchOptions{});
  EXPECT_FALSE(
      runner.WriteJsonReport("x", "/nonexistent-dir/bench_json_x.json"));
}

}  // namespace
}  // namespace wearlock::bench
