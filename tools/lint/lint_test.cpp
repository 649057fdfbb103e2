// wearlock-lint unit tests: every rule gets positive fixtures (the
// violation fires, with the right rule id and line) and negative
// fixtures (idiomatic code stays clean), plus suppression and output
// format coverage. Fixtures are embedded strings lexed via
// SourceFile::FromString, so the suite runs with no filesystem setup.
#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "lint.h"
#include "rules.h"
#include "source.h"
#include "tests/json_check.h"

namespace wearlock::lint {
namespace {

std::vector<Diagnostic> RunAllOn(const std::string& path,
                                 const std::string& content) {
  std::vector<SourceFile> files;
  files.push_back(SourceFile::FromString(path, content));
  return RunLint(files).diagnostics;
}

bool HasRule(const std::vector<Diagnostic>& diags, const std::string& rule) {
  for (const Diagnostic& d : diags) {
    if (d.rule == rule) return true;
  }
  return false;
}

// -- tokenizer --------------------------------------------------------

TEST(SourceFileTest, BlanksCommentsAndStrings) {
  const SourceFile f = SourceFile::FromString(
      "src/dsp/x.cpp",
      "int a; // rand() in a comment\n"
      "const char* s = \"rand()\";\n"
      "/* std::cout in a block\n   comment */ int b;\n");
  EXPECT_EQ(f.code().find("rand"), std::string::npos);
  EXPECT_EQ(f.code().find("cout"), std::string::npos);
  EXPECT_NE(f.code().find("int a;"), std::string::npos);
  EXPECT_NE(f.code().find("int b;"), std::string::npos);
  // Comment text is retrievable per line.
  EXPECT_NE(f.CommentOn(1).find("rand() in a comment"), std::string::npos);
}

TEST(SourceFileTest, RawStringsAreBlanked) {
  const SourceFile f = SourceFile::FromString(
      "src/dsp/x.cpp", "auto s = R\"(std::cout << rand())\";\nint a;\n");
  EXPECT_EQ(f.code().find("cout"), std::string::npos);
  EXPECT_NE(f.code().find("int a;"), std::string::npos);
}

TEST(SourceFileTest, RecordsIncludesWithLines) {
  const SourceFile f = SourceFile::FromString(
      "src/modem/sync.cpp",
      "#include \"modem/sync.h\"\n\n#include <vector>\n"
      "#include \"dsp/fft.h\"\n");
  ASSERT_EQ(f.includes().size(), 3u);
  EXPECT_EQ(f.includes()[0].path, "modem/sync.h");
  EXPECT_EQ(f.includes()[0].line, 1);
  EXPECT_FALSE(f.includes()[0].angled);
  EXPECT_EQ(f.includes()[1].path, "vector");
  EXPECT_TRUE(f.includes()[1].angled);
  EXPECT_EQ(f.includes()[2].path, "dsp/fft.h");
  EXPECT_EQ(f.includes()[2].line, 4);
}

TEST(SourceFileTest, LayerAndSrcRelativePath) {
  EXPECT_EQ(SourceFile::FromString("src/obs/log.cpp", "").Layer(), "obs");
  EXPECT_EQ(SourceFile::FromString("/root/repo/src/dsp/fft.h", "").Layer(),
            "dsp");
  EXPECT_EQ(SourceFile::FromString("dsp/fft.h", "").Layer(), "dsp");
  EXPECT_EQ(
      SourceFile::FromString("src/obs/log.cpp", "").SrcRelativePath(),
      "obs/log.cpp");
}

// -- determinism ------------------------------------------------------

TEST(DeterminismTest, FlagsWallClockAndAmbientRandomness) {
  const char* positives[] = {
      "auto t = std::chrono::system_clock::now();",
      "auto t = std::chrono::steady_clock::now();",
      "int r = rand();",
      "srand(42);",
      "std::time_t t = time(nullptr);",
      "std::random_device rd;",
  };
  for (const char* snippet : positives) {
    const auto diags =
        RunAllOn("src/dsp/x.cpp", std::string("void f() { ") + snippet +
                                      " (void)0; }\n");
    EXPECT_TRUE(HasRule(diags, "determinism")) << snippet;
  }
}

TEST(DeterminismTest, CleanCodeAndLookalikesPass) {
  const auto diags = RunAllOn(
      "src/dsp/x.cpp",
      "#include \"dsp/fft.h\"\n"
      "void f(sim::Rng& rng) {\n"
      "  auto t = clock.now_ms();      // virtual clock is fine\n"
      "  double x = rng.Uniform();\n"
      "  auto tp = other.time_point;   // 'time_point' is not 'time('\n"
      "  Retime(4);                    // suffix match must not fire\n"
      "}\n");
  EXPECT_TRUE(diags.empty()) << diags.size();
}

TEST(DeterminismTest, NolintSuppressesOnSameLine) {
  const auto diags = RunAllOn(
      "src/sim/x.cpp",
      "double HostMs() {\n"
      "  return ms(std::chrono::steady_clock::now());  "
      "// NOLINT(determinism): host-latency probe\n"
      "}\n");
  EXPECT_FALSE(HasRule(diags, "determinism"));
}

TEST(DeterminismTest, FlagsStdEnginesAndDistributionsInLibraryCode) {
  const char* positives[] = {
      "std::normal_distribution<double> d(0.0, 1.0);",
      "std::uniform_int_distribution<int> d(0, 9);",
      "std::mt19937 e(1);",
      "std::mt19937_64 e(1);",
      "std::minstd_rand0 e(1);",
      "std::ranlux48 e(1);",
      "std::knuth_b e(1);",
      "std::default_random_engine e;",
      "double u = std::generate_canonical<double, 53>(e);",
  };
  for (const char* snippet : positives) {
    const auto diags =
        RunAllOn("src/audio/noise.cpp",
                 std::string("void f() { ") + snippet + " (void)0; }\n");
    EXPECT_TRUE(HasRule(diags, "determinism")) << snippet;
  }
}

TEST(DeterminismTest, StdRandomIsAllowedInRngAndOutsideTheLibrary) {
  // sim::Rng is the one generator; tests and benches keep std:: engines
  // as oracles. The in-repo engine's own name is not a std:: engine.
  const std::string code =
      "void f() {\n"
      "  std::mt19937_64 oracle(1);\n"
      "  std::normal_distribution<double> dist(0.0, 1.0);\n"
      "  (void)dist(oracle);\n"
      "}\n";
  for (const char* path : {"src/sim/rng.cpp", "src/sim/rng.h",
                           "tests/rng_test.cpp", "bench/perf_kernels.cpp"}) {
    EXPECT_FALSE(HasRule(RunAllOn(path, code), "determinism")) << path;
  }
  EXPECT_FALSE(HasRule(RunAllOn("src/sim/x.cpp",
                                "void f() { sim::Mt19937_64 e(1); "
                                "auto my_distribution_count = 0; }\n"),
                       "determinism"));
}

TEST(DeterminismTest, NolintSuppressesAStdDistribution) {
  const auto diags = RunAllOn(
      "src/audio/noise.cpp",
      "void f(E& e) {\n"
      "  std::normal_distribution<double> d;  // NOLINT(determinism): probe\n"
      "  (void)d(e);\n"
      "}\n");
  EXPECT_FALSE(HasRule(diags, "determinism"));
}

// -- banned-api -------------------------------------------------------

TEST(BannedApiTest, FlagsStdioAndUnsafeCalls) {
  struct Case {
    const char* snippet;
  };
  const char* positives[] = {
      "std::cout << 1;",
      "std::cerr << err;",
      "printf(\"%d\", x);",
      "fprintf(stderr, \"x\");",
      "puts(msg);",
      "sprintf(buf, \"%d\", x);",
      "strcpy(dst, src);",
      "int v = atoi(s);",
      "int* p = new int(3);",
      "delete p;",
      "delete[] arr;",
  };
  for (const char* snippet : positives) {
    const auto diags = RunAllOn(
        "src/modem/x.cpp", std::string("void f() { ") + snippet + " }\n");
    EXPECT_TRUE(HasRule(diags, "banned-api")) << snippet;
  }
}

TEST(BannedApiTest, SafeVariantsAndDeletedFunctionsPass) {
  const auto diags = RunAllOn(
      "src/modem/x.cpp",
      "struct T {\n"
      "  T(const T&) = delete;\n"
      "  T& operator=(const T&) =\n"
      "      delete;\n"
      "};\n"
      "void f(char* buf, int n) {\n"
      "  snprintf(buf, 8, \"%d\", n);  // bounded: allowed\n"
      "  auto p = std::make_unique<int>(3);\n"
      "  int renewed = n;  // 'new' inside an identifier\n"
      "}\n");
  EXPECT_FALSE(HasRule(diags, "banned-api"));
}

TEST(BannedApiTest, LogSinkIsExemptFromStdioOnly) {
  const auto stdio = RunAllOn("src/obs/log.cpp",
                              "void f() { fprintf(stderr, \"x\"); }\n");
  EXPECT_FALSE(HasRule(stdio, "banned-api"));
  const auto unsafe =
      RunAllOn("src/obs/log.cpp", "void f() { sprintf(b, \"x\"); }\n");
  EXPECT_TRUE(HasRule(unsafe, "banned-api"));
  // Any other file in obs still may not print.
  const auto other = RunAllOn("src/obs/trace.cpp",
                              "void f() { fprintf(stderr, \"x\"); }\n");
  EXPECT_TRUE(HasRule(other, "banned-api"));
}

// -- header-hygiene ---------------------------------------------------

TEST(HeaderHygieneTest, PragmaOnceAndIfndefGuardsPass) {
  EXPECT_TRUE(RunAllOn("src/dsp/a.h",
                       "// comment first is fine\n#pragma once\nint F();\n")
                  .empty());
  EXPECT_TRUE(RunAllOn("src/dsp/b.h",
                       "#ifndef WL_B_H\n#define WL_B_H\nint F();\n#endif\n")
                  .empty());
}

TEST(HeaderHygieneTest, MissingOrLateGuardFails) {
  const auto no_guard = RunAllOn("src/dsp/a.h", "int F();\n");
  ASSERT_TRUE(HasRule(no_guard, "header-hygiene"));
  const auto include_first =
      RunAllOn("src/dsp/b.h", "#include \"dsp/fft.h\"\n#pragma once\n");
  EXPECT_TRUE(HasRule(include_first, "header-hygiene"));
  // Sources are exempt.
  EXPECT_FALSE(HasRule(RunAllOn("src/dsp/a.cpp", "int F() { return 1; }\n"),
                       "header-hygiene"));
}

TEST(HeaderHygieneTest, HeaderTuNameManglesPathsLikeCMake) {
  EXPECT_EQ(HeaderTuName("audio/medium.h"), "hdr_audio_medium_h.cpp");
  EXPECT_EQ(HeaderTuName("obs/log.h"), "hdr_obs_log_h.cpp");
}

// -- shared-state -----------------------------------------------------

TEST(SharedStateTest, FlagsMutableGlobalsAndStatics) {
  const char* positives[] = {
      "int g_counter = 0;",
      "static double g_scale = 1.0;",
      "namespace { std::string g_name; }",
      "void f() { static int calls = 0; ++calls; }",
      "struct S { static int live_count; };",
  };
  for (const char* snippet : positives) {
    const auto diags =
        RunAllOn("src/modem/x.cpp", std::string(snippet) + "\n");
    EXPECT_TRUE(HasRule(diags, "shared-state")) << snippet;
  }
}

TEST(SharedStateTest, ConstAtomicThreadLocalAndSyncTypesPass) {
  const auto diags = RunAllOn(
      "src/modem/x.cpp",
      "#include <atomic>\n"
      "const int kLimit = 8;\n"
      "constexpr double kPi = 3.14;\n"
      "static const char* const kName = \"x\";\n"
      "std::atomic<int> g_hits{0};\n"
      "std::mutex g_mu;\n"
      "thread_local int t_depth = 0;\n"
      "namespace { static const int kTable[] = {1, 2}; }\n"
      "int Add(int a, int b);\n"
      "static int Helper();\n"
      "class C {\n"
      "  int member_ = 0;        // instance state: fine\n"
      "  mutable std::mutex mu_;\n"
      "  static constexpr int kMax = 4;\n"
      "};\n"
      "void f() { int local = 3; (void)local; }\n");
  EXPECT_FALSE(HasRule(diags, "shared-state")) << diags[0].message;
}

TEST(SharedStateTest, DefaultedAndDeletedFunctionsPass) {
  const auto diags = RunAllOn(
      "src/protocol/x.cpp",
      "UnlockSession::~UnlockSession() = default;\n"
      "Widget::Widget(const Widget&) = delete;\n"
      "Widget& Widget::operator=(Widget&&) = default;\n");
  EXPECT_FALSE(HasRule(diags, "shared-state")) << diags[0].message;
}

TEST(SharedStateTest, MutablePointerToConstIsStillFlagged) {
  // West const qualifies the pointee, not the pointer.
  const auto diags =
      RunAllOn("src/modem/x.cpp", "static const char* g_label = \"a\";\n");
  EXPECT_TRUE(HasRule(diags, "shared-state"));
  // Const pointer binding passes.
  const auto ok = RunAllOn("src/modem/x.cpp",
                           "static const char* const g_label = \"a\";\n");
  EXPECT_FALSE(HasRule(ok, "shared-state"));
}

TEST(SharedStateTest, GuardedByAnnotationNamesARealIdentifier) {
  const auto ok = RunAllOn(
      "src/obs/x.cpp",
      "std::mutex g_mu;\n"
      "int g_value = 0;  // lint: guarded-by(g_mu)\n");
  EXPECT_FALSE(HasRule(ok, "shared-state"));

  const auto bogus = RunAllOn(
      "src/obs/x.cpp", "int g_value = 0;  // lint: guarded-by(g_ghost)\n");
  ASSERT_TRUE(HasRule(bogus, "shared-state"));
  EXPECT_NE(bogus[0].message.find("g_ghost"), std::string::npos);
}

// -- hot-path-alloc ---------------------------------------------------

TEST(HotPathAllocTest, FlagsAllocationsInAnnotatedFunctions) {
  const char* positives[] = {
      "out.push_back(x);",
      "buf.resize(n);",
      "auto* p = new double[n];",
      "std::vector<double> tmp(n);",
      "std::vector<int> tmp{1, 2};",
  };
  for (const char* snippet : positives) {
    const auto diags = RunAllOn(
        "src/dsp/x.cpp", std::string("// lint: hot-path\nvoid F() { ") +
                             snippet + " }\n");
    EXPECT_TRUE(HasRule(diags, "hot-path-alloc")) << snippet;
  }
}

TEST(HotPathAllocTest, UnannotatedFunctionsAndCleanBodiesPass) {
  // The same allocations are fine without the annotation.
  EXPECT_FALSE(HasRule(
      RunAllOn("src/dsp/x.cpp", "void F(std::vector<double>& out) "
                                "{ out.push_back(1.0); }\n"),
      "hot-path-alloc"));
  // Workspace borrowing, span params and vector-typed references pass.
  EXPECT_FALSE(HasRule(
      RunAllOn("src/dsp/x.cpp",
               "// lint: hot-path\n"
               "void F(std::span<const double> x, Workspace& ws) {\n"
               "  std::vector<double>& s = ws.RealBuf(RSlot::kCorrX, 8);\n"
               "  for (double v : x) s[0] += v;\n"
               "  renewed += 1;  // 'new' inside an identifier\n"
               "}\n"),
      "hot-path-alloc"));
  // The annotation only covers the next function.
  EXPECT_FALSE(HasRule(
      RunAllOn("src/dsp/x.cpp",
               "// lint: hot-path\n"
               "void Hot() { int a = 0; (void)a; }\n"
               "void Cold(std::vector<double>& v) { v.resize(3); }\n"),
      "hot-path-alloc"));
}

TEST(HotPathAllocTest, NolintSuppressesAColdBranch) {
  const auto diags = RunAllOn(
      "src/dsp/x.cpp",
      "// lint: hot-path\n"
      "void F(std::vector<double>& out) {\n"
      "  out.resize(3);  // NOLINT(hot-path-alloc): cold fallback\n"
      "}\n");
  EXPECT_FALSE(HasRule(diags, "hot-path-alloc"));
}

TEST(HotPathAllocTest, DiagnosticPointsAtTheAllocationLine) {
  const auto diags = RunAllOn(
      "src/dsp/x.cpp",
      "// lint: hot-path\n"
      "void F(std::vector<double>& out) {\n"
      "  double a = 0.0;\n"
      "  out.push_back(a);\n"
      "}\n");
  ASSERT_TRUE(HasRule(diags, "hot-path-alloc"));
  EXPECT_EQ(diags[0].line, 4);
}

// -- layer-dag --------------------------------------------------------

TEST(LayerDagTest, UpwardIncludeIsFlagged) {
  const auto diags = RunAllOn("src/dsp/fft.cpp",
                              "#include \"modem/sync.h\"\nvoid F();\n");
  ASSERT_TRUE(HasRule(diags, "layer-dag"));
  EXPECT_EQ(diags[0].line, 1);
  EXPECT_NE(diags[0].message.find("'dsp' must not include 'modem'"),
            std::string::npos);
}

TEST(LayerDagTest, ArchitectureEdgesPass) {
  const auto diags = RunAllOn(
      "src/protocol/session.cpp",
      "#include \"protocol/session.h\"\n"
      "#include \"audio/scene.h\"\n"
      "#include \"crypto/hotp.h\"\n"
      "#include \"modem/modem.h\"\n"
      "#include \"obs/trace.h\"\n"
      "#include \"sensors/dtw.h\"\n"
      "#include \"sim/clock.h\"\n"
      "#include <vector>\n");
  EXPECT_FALSE(HasRule(diags, "layer-dag"));
  // obs is importable from the bottom of the stack...
  EXPECT_FALSE(HasRule(
      RunAllOn("src/sim/clock.cpp", "#include \"obs/instrument.h\"\n"),
      "layer-dag"));
  // ...but imports nothing itself.
  EXPECT_TRUE(HasRule(
      RunAllOn("src/obs/trace.cpp", "#include \"sim/clock.h\"\n"),
      "layer-dag"));
}

TEST(LayerDagTest, ObsStaysLeafLevel) {
  // The telemetry pipeline (record/rollup/sketch) lives in src/obs and
  // describes every layer's outcomes - the temptation is to include
  // protocol or modem types directly. The DAG forbids it: obs is the
  // leaf every layer may include, so it may include nothing above it.
  for (const char* include :
       {"protocol/session.h", "modem/constellation.h", "audio/noise.h",
        "sensors/dtw.h", "sim/executor.h"}) {
    const auto diags =
        RunAllOn("src/obs/record.cpp",
                 "#include \"" + std::string(include) + "\"\nvoid F();\n");
    EXPECT_TRUE(HasRule(diags, "layer-dag")) << include;
  }
  // Intra-obs composition (the pipeline's own stack) stays legal.
  EXPECT_FALSE(HasRule(RunAllOn("src/obs/rollup.cpp",
                                "#include \"obs/rollup.h\"\n"
                                "#include \"obs/record.h\"\n"
                                "#include \"obs/sketch.h\"\n"
                                "#include \"obs/json.h\"\n"),
                       "layer-dag"));
}

TEST(LayerDagTest, NonRootedIncludeIsFlagged) {
  const auto diags = RunAllOn("src/protocol/watch.h",
                              "#pragma once\n#include \"messages.h\"\n");
  ASSERT_TRUE(HasRule(diags, "layer-dag"));
  EXPECT_NE(diags[0].message.find("not rooted at src/"), std::string::npos);
}

TEST(LayerDagTest, IncludeCycleIsDetected) {
  std::vector<SourceFile> files;
  files.push_back(SourceFile::FromString(
      "src/dsp/a.h", "#pragma once\n#include \"dsp/b.h\"\n"));
  files.push_back(SourceFile::FromString(
      "src/dsp/b.h", "#pragma once\n#include \"dsp/a.h\"\n"));
  const auto result = RunLint(files);
  ASSERT_TRUE(HasRule(result.diagnostics, "layer-dag"));
  bool cycle_reported = false;
  for (const Diagnostic& d : result.diagnostics) {
    if (d.message.find("include cycle") != std::string::npos) {
      cycle_reported = true;
      EXPECT_NE(d.message.find("dsp/a.h"), std::string::npos);
      EXPECT_NE(d.message.find("dsp/b.h"), std::string::npos);
    }
  }
  EXPECT_TRUE(cycle_reported);
}

// -- suppression + output ---------------------------------------------

TEST(SuppressionTest, RequiresMatchingRuleId) {
  // Wrong id: not suppressed.
  EXPECT_TRUE(HasRule(
      RunAllOn("src/dsp/x.cpp",
               "void f() { int r = rand(); }  // NOLINT(banned-api)\n"),
      "determinism"));
  // Bare NOLINT without a rule id: not honoured.
  EXPECT_TRUE(HasRule(RunAllOn("src/dsp/x.cpp",
                               "void f() { int r = rand(); }  // NOLINT\n"),
                      "determinism"));
  // Matching id, comma list: suppressed.
  EXPECT_FALSE(HasRule(
      RunAllOn("src/dsp/x.cpp",
               "void f() { int r = rand(); }  "
               "// NOLINT(determinism, banned-api)\n"),
      "determinism"));
  // NOLINTNEXTLINE on the line above.
  EXPECT_FALSE(HasRule(
      RunAllOn("src/dsp/x.cpp",
               "// NOLINTNEXTLINE(determinism): seeded fixture\n"
               "void f() { int r = rand(); }\n"),
      "determinism"));
}

TEST(SuppressionTest, SuppressedCountIsReported) {
  std::vector<SourceFile> files;
  files.push_back(SourceFile::FromString(
      "src/dsp/x.cpp",
      "void f() { int r = rand(); }  // NOLINT(determinism)\n"));
  const LintResult result = RunLint(files);
  EXPECT_EQ(result.suppressed, 1u);
  EXPECT_TRUE(result.diagnostics.empty());
}

TEST(OutputTest, TextFormatIsMachineReadable) {
  std::vector<SourceFile> files;
  files.push_back(
      SourceFile::FromString("src/dsp/x.cpp", "void f() { srand(1); }\n"));
  const LintResult result = RunLint(files);
  std::ostringstream os;
  WriteText(result, os);
  EXPECT_NE(os.str().find("src/dsp/x.cpp:1: determinism: "),
            std::string::npos);
}

TEST(OutputTest, JsonOutputIsWellFormed) {
  std::vector<SourceFile> files;
  files.push_back(SourceFile::FromString(
      "src/dsp/x.cpp",
      "void f() { srand(1); std::cout << \"hi\\n\"; }\n"));
  files.push_back(SourceFile::FromString("src/dsp/ok.cpp", "void g();\n"));
  const LintResult result = RunLint(files);
  ASSERT_GE(result.diagnostics.size(), 2u);
  std::ostringstream os;
  WriteJson(result, os);
  testing::JsonChecker checker;
  EXPECT_TRUE(checker.Check(os.str())) << checker.error();
  EXPECT_NE(os.str().find("\"files_scanned\":2"), std::string::npos);
}

TEST(OutputTest, RuleCatalogueCoversEveryRule) {
  std::vector<std::string> ids;
  for (const RuleInfo& rule : AllRules()) ids.push_back(rule.id);
  for (const char* expected :
       {"layer-dag", "determinism", "banned-api", "header-hygiene",
        "shared-state", "hot-path-alloc", "guarded-by", "modeled-time",
        "slot-ownership", "discarded-outcome", "test-only-export"}) {
    EXPECT_NE(std::find(ids.begin(), ids.end(), expected), ids.end())
        << expected;
  }
}

TEST(OutputTest, SarifOutputIsWellFormedJson) {
  std::vector<SourceFile> files;
  files.push_back(
      SourceFile::FromString("src/dsp/x.cpp", "void f() { srand(1); }\n"));
  const LintResult result = RunLint(files);
  ASSERT_FALSE(result.diagnostics.empty());
  std::ostringstream os;
  WriteSarif(result, os);
  testing::JsonChecker checker;
  EXPECT_TRUE(checker.Check(os.str())) << checker.error();
  EXPECT_NE(os.str().find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(os.str().find("\"ruleId\":\"determinism\""), std::string::npos);
}

// -- guarded-by (use-site) --------------------------------------------

// The flow-aware core: byte-identical access statements classified by
// the scope they sit in - a per-line scanner cannot tell these apart.
constexpr const char* kGuardedFixture =
    "#include <mutex>\n"
    "std::mutex g_mu;\n"
    "int g_value = 0;  // lint: guarded-by(g_mu)\n"
    "void Good() {\n"
    "  const std::lock_guard<std::mutex> lock(g_mu);\n"
    "  g_value = 1;\n"
    "}\n"
    "void Bad() {\n"
    "  g_value = 2;\n"
    "}\n";

TEST(GuardedByTest, AccessOutsideLockScopeIsFlagged) {
  const auto diags = RunAllOn("src/obs/x.cpp", kGuardedFixture);
  ASSERT_TRUE(HasRule(diags, "guarded-by"));
  // Only the unguarded access (line 9) fires; the guarded one passes.
  for (const Diagnostic& d : diags) {
    if (d.rule == "guarded-by") {
      EXPECT_EQ(d.line, 9);
    }
  }
}

TEST(GuardedByTest, LockScopeEndsAtItsBrace) {
  // Same statement twice; only the one after the guard's scope closes
  // is a violation. Lexically the two lines are indistinguishable.
  const auto diags = RunAllOn(
      "src/obs/x.cpp",
      "#include <mutex>\n"
      "std::mutex g_mu;\n"
      "int g_value = 0;  // lint: guarded-by(g_mu)\n"
      "void F() {\n"
      "  {\n"
      "    const std::lock_guard<std::mutex> lock(g_mu);\n"
      "    g_value = 1;\n"
      "  }\n"
      "  g_value = 1;\n"
      "}\n");
  ASSERT_TRUE(HasRule(diags, "guarded-by"));
  for (const Diagnostic& d : diags) {
    if (d.rule == "guarded-by") {
      EXPECT_EQ(d.line, 9);
    }
  }
}

TEST(GuardedByTest, ScopedAndUniqueLocksCountDeferDoesNot) {
  EXPECT_FALSE(HasRule(
      RunAllOn("src/obs/x.cpp",
               "#include <mutex>\n"
               "std::mutex g_mu;\n"
               "int g_value = 0;  // lint: guarded-by(g_mu)\n"
               "void F() {\n"
               "  const std::scoped_lock guard(g_mu);\n"
               "  g_value = 1;\n"
               "}\n"),
      "guarded-by"));
  // defer_lock means the mutex is NOT held at construction.
  EXPECT_TRUE(HasRule(
      RunAllOn("src/obs/x.cpp",
               "#include <mutex>\n"
               "std::mutex g_mu;\n"
               "int g_value = 0;  // lint: guarded-by(g_mu)\n"
               "void F() {\n"
               "  std::unique_lock<std::mutex> lk(g_mu, std::defer_lock);\n"
               "  g_value = 1;\n"
               "}\n"),
      "guarded-by"));
}

TEST(GuardedByTest, MemberNamesAndOtherMutexesDoNotConfuse) {
  // `other.g_value` is a different entity; a lock on the WRONG mutex
  // does not license the access.
  const auto diags = RunAllOn(
      "src/obs/x.cpp",
      "#include <mutex>\n"
      "std::mutex g_mu;\n"
      "std::mutex g_other_mu;\n"
      "int g_value = 0;  // lint: guarded-by(g_mu)\n"
      "void WrongLock() {\n"
      "  const std::lock_guard<std::mutex> lock(g_other_mu);\n"
      "  g_value = 1;\n"
      "}\n"
      "void Member(S& other) {\n"
      "  other.g_value = 2;  // member of another object: fine\n"
      "}\n");
  ASSERT_TRUE(HasRule(diags, "guarded-by"));
  for (const Diagnostic& d : diags) {
    if (d.rule == "guarded-by") {
      EXPECT_EQ(d.line, 7);
    }
  }
}

TEST(GuardedByTest, NolintSuppresses) {
  EXPECT_FALSE(HasRule(
      RunAllOn("src/obs/x.cpp",
               "#include <mutex>\n"
               "std::mutex g_mu;\n"
               "int g_value = 0;  // lint: guarded-by(g_mu)\n"
               "void Init() {\n"
               "  g_value = 1;  // NOLINT(guarded-by): pre-thread init\n"
               "}\n"),
      "guarded-by"));
}

// -- modeled-time (taint) ---------------------------------------------

TEST(ModeledTimeTest, DirectHostTimeIntoAccumulatorIsFlagged) {
  const auto diags = RunAllOn(
      "src/protocol/x.cpp",
      "void F(sim::VirtualClock& clock) {\n"
      "  double proto_ms = 0.0;\n"
      "  const double host_ms = sim::TimeHostMs([&] { Work(); });\n"
      "  proto_ms += host_ms;\n"
      "}\n");
  ASSERT_TRUE(HasRule(diags, "modeled-time"));
}

TEST(ModeledTimeTest, LaunderingThroughIntermediatesIsCaught) {
  // The taint crosses two plain assignments before reaching the budget
  // comparison - exactly what a lexical rule cannot follow.
  const auto diags = RunAllOn(
      "src/protocol/x.cpp",
      "bool F() {\n"
      "  const double t0 = sim::TimeHostMs([&] { Work(); });\n"
      "  const double scaled = t0 * 0.5;\n"
      "  const double padded = scaled + 1.0;\n"
      "  return padded >= stage_budget_ms;\n"
      "}\n");
  ASSERT_TRUE(HasRule(diags, "modeled-time"));
  EXPECT_EQ(diags[0].line, 5);
}

TEST(ModeledTimeTest, SinkFunctionCallWithTaintedArgIsFlagged) {
  const auto diags = RunAllOn(
      "src/protocol/x.cpp",
      "void F() {\n"
      "  double proto_ms = 0.0;\n"
      "  auto charge = [&](double ms) { proto_ms += ms; };\n"
      "  const double host_ms = sim::TimeHostMs([&] { Work(); });\n"
      "  charge(host_ms);\n"
      "}\n");
  ASSERT_TRUE(HasRule(diags, "modeled-time"));
  EXPECT_EQ(diags[0].line, 5);
}

TEST(ModeledTimeTest, MemberSinkFunctionCallWithTaintedArgIsFlagged) {
  // The attempt machine's spelling: a member coroutine that writes the
  // member accumulator, defined out of class and called from a stage.
  const auto diags = RunAllOn(
      "src/protocol/x.cpp",
      "sim::CoTask<> Machine::Charge(sim::Millis ms) {\n"
      "  proto_ms_ += ms;\n"
      "  co_await Wait(ms);\n"
      "}\n"
      "sim::CoTask<> Machine::Stage() {\n"
      "  const sim::Millis drift_host_ms = sim::TimeHostMs([&] { Work(); });\n"
      "  co_await Charge(drift_host_ms);\n"
      "  co_await Wait(drift_host_ms);\n"
      "}\n");
  ASSERT_EQ(diags.size(), 1u);  // Wait is not a sink
  EXPECT_EQ(diags[0].rule, "modeled-time");
  EXPECT_EQ(diags[0].line, 7);
}

TEST(ModeledTimeTest, MemberAccumulatorIsEnforced) {
  const auto diags = RunAllOn(
      "src/protocol/x.cpp",
      "void Machine::Stage() {\n"
      "  const double host_ms = sim::TimeHostMs([&] { Work(); });\n"
      "  proto_ms_ += host_ms;\n"
      "}\n");
  ASSERT_TRUE(HasRule(diags, "modeled-time"));
  EXPECT_EQ(diags[0].line, 3);
}

TEST(ModeledTimeTest, SessionRecordFieldWriteIsFlagged) {
  const auto diags = RunAllOn(
      "src/protocol/x.cpp",
      "void F() {\n"
      "  obs::SessionRecord r;\n"
      "  const double host_ms = sim::TimeHostMs([&] { Work(); });\n"
      "  r.total_ms = host_ms;\n"
      "}\n");
  ASSERT_TRUE(HasRule(diags, "modeled-time"));
}

TEST(ModeledTimeTest, ModeledMetricTagIsFlagged) {
  const auto diags = RunAllOn(
      "src/protocol/x.cpp",
      "void F() {\n"
      "  const double host_ms = sim::TimeHostMs([&] { Work(); });\n"
      "  WL_HIST(\"unlock.modeled_ms\", host_ms);\n"
      "}\n");
  ASSERT_TRUE(HasRule(diags, "modeled-time"));
}

TEST(ModeledTimeTest, AnnotatedAccumulatorIsEnforced) {
  const auto diags = RunAllOn(
      "src/protocol/x.cpp",
      "void F() {\n"
      "  double stage_ms = 0.0;  // lint: modeled-time\n"
      "  const double host_ms = sim::TimeHostMs([&] { Work(); });\n"
      "  stage_ms += host_ms;\n"
      "}\n");
  ASSERT_TRUE(HasRule(diags, "modeled-time"));
}

TEST(ModeledTimeTest, SeedDerivedTimeAndLatencyReportsPass) {
  const auto diags = RunAllOn(
      "src/protocol/x.cpp",
      "void F(sim::WirelessLink& link) {\n"
      "  double proto_ms = 0.0;\n"
      "  proto_ms += link.SampleMessageDelay();   // seed-derived: fine\n"
      "  const double host_ms = sim::TimeHostMs([&] { Work(); });\n"
      "  report_latency_ms = host_ms;             // latency report\n"
      "  WL_HIST(\"unlock.host_ms\", host_ms);    // untagged metric\n"
      "  if (proto_ms >= stage_budget_ms) return; // modeled vs budget\n"
      "}\n");
  EXPECT_FALSE(HasRule(diags, "modeled-time"));
}

TEST(ModeledTimeTest, NolintSuppresses) {
  EXPECT_FALSE(HasRule(
      RunAllOn("src/protocol/x.cpp",
               "void F() {\n"
               "  double proto_ms = 0.0;\n"
               "  const double host_ms = sim::TimeHostMs([&] { Work(); });\n"
               "  proto_ms += host_ms;  // NOLINT(modeled-time): calibration\n"
               "}\n"),
      "modeled-time"));
}

// -- slot-ownership ---------------------------------------------------

namespace {

std::vector<Diagnostic> RunWithManifest(const std::string& path,
                                        const std::string& content) {
  LintOptions options;
  options.slot_manifest["CSlot::kCorrX"] = {"CrossCorrelateFftInto"};
  options.slot_manifest["RSlot::kCount"] = {"*"};
  std::vector<SourceFile> files;
  files.push_back(SourceFile::FromString(path, content));
  return RunLint(files, options).diagnostics;
}

}  // namespace

TEST(SlotOwnershipTest, NonOwnerReferenceIsFlagged) {
  // Byte-identical statements; only the enclosing function differs.
  const auto diags = RunWithManifest(
      "src/dsp/x.cpp",
      "void CrossCorrelateFftInto(Workspace& ws) {\n"
      "  auto& fx = ws.ComplexZeroed(CSlot::kCorrX, 8);\n"
      "}\n"
      "void Rogue(Workspace& ws) {\n"
      "  auto& fx = ws.ComplexZeroed(CSlot::kCorrX, 8);\n"
      "}\n");
  ASSERT_TRUE(HasRule(diags, "slot-ownership"));
  for (const Diagnostic& d : diags) {
    if (d.rule == "slot-ownership") {
      EXPECT_EQ(d.line, 5);
      EXPECT_NE(d.message.find("Rogue"), std::string::npos);
    }
  }
}

TEST(SlotOwnershipTest, WildcardUnknownSlotAndNoManifest) {
  // "*" allows any context (the kCount sentinel in array bounds).
  EXPECT_FALSE(HasRule(
      RunWithManifest("src/dsp/x.cpp",
                      "constexpr std::size_t kN =\n"
                      "    static_cast<std::size_t>(RSlot::kCount);\n"),
      "slot-ownership"));
  // A slot missing from the manifest is itself a finding.
  EXPECT_TRUE(HasRule(
      RunWithManifest("src/dsp/x.cpp",
                      "void F(Workspace& ws) {\n"
                      "  auto& b = ws.ComplexBuf(CSlot::kMystery, 4);\n"
                      "}\n"),
      "slot-ownership"));
  // Without a manifest the rule has nothing to enforce.
  EXPECT_FALSE(HasRule(RunAllOn("src/dsp/x.cpp",
                                "void F(Workspace& ws) {\n"
                                "  auto& b = ws.ComplexBuf(CSlot::kCorrX, 4);\n"
                                "}\n"),
                       "slot-ownership"));
}

TEST(SlotOwnershipTest, NolintSuppresses) {
  EXPECT_FALSE(HasRule(
      RunWithManifest(
          "src/dsp/x.cpp",
          "void Rogue(Workspace& ws) {\n"
          "  auto& fx = ws.ComplexZeroed(\n"
          "      CSlot::kCorrX, 8);  // NOLINT(slot-ownership): migration\n"
          "}\n"),
      "slot-ownership"));
}

// -- discarded-outcome ------------------------------------------------

TEST(DiscardedOutcomeTest, BareExpressionStatementIsFlagged) {
  const auto diags = RunAllOn(
      "src/protocol/x.cpp",
      "void F(sim::WirelessLink& link) {\n"
      "  link.TrySendMessageDelay();\n"
      "}\n");
  ASSERT_TRUE(HasRule(diags, "discarded-outcome"));
  EXPECT_EQ(diags[0].line, 2);
}

TEST(DiscardedOutcomeTest, ConsumedOrExplicitlyDiscardedPasses) {
  const auto diags = RunAllOn(
      "src/protocol/x.cpp",
      "void F(sim::WirelessLink& link) {\n"
      "  auto d = link.TrySendMessageDelay();\n"
      "  if (link.TrySendMessageDelay()) { Use(); }\n"
      "  (void)link.TrySendFileDelay(64);\n"
      "  return link.TrySendMessageDelay();\n"
      "}\n");
  EXPECT_FALSE(HasRule(diags, "discarded-outcome"));
}

TEST(DiscardedOutcomeTest, QualifiedParseIsCoveredUnqualifiedIsNot) {
  EXPECT_TRUE(HasRule(RunAllOn("src/sim/x.cpp",
                               "void F(const std::string& spec) {\n"
                               "  sim::FaultPlan::Parse(spec);\n"
                               "}\n"),
                      "discarded-outcome"));
  // Some other type's Parse is not an outcome API.
  EXPECT_FALSE(HasRule(RunAllOn("src/sim/x.cpp",
                                "void F(Config& c, const std::string& s) {\n"
                                "  c.Parse(s);\n"
                                "}\n"),
                       "discarded-outcome"));
}

TEST(DiscardedOutcomeTest, ChannelHardeningApisAreCovered) {
  // The channel pack's outcome carriers: a dropped parse result, sense
  // report, drift estimate or backoff delay silently skips hardening.
  EXPECT_TRUE(HasRule(RunAllOn("src/audio/x.cpp",
                               "void F(const std::string& spec) {\n"
                               "  audio::ImpairmentPlan::Parse(spec);\n"
                               "}\n"),
                      "discarded-outcome"));
  EXPECT_TRUE(HasRule(RunAllOn("src/protocol/x.cpp",
                               "void F(const Spec& s, const Samples& c) {\n"
                               "  SenseChannel(s, c);\n"
                               "}\n"),
                      "discarded-outcome"));
  EXPECT_TRUE(HasRule(RunAllOn("src/protocol/x.cpp",
                               "void F(Rec& r, const Spec& s) {\n"
                               "  modem::EstimateDrift(r, s, 2048);\n"
                               "  modem::CompensateRate(r, 300.0);\n"
                               "}\n"),
                      "discarded-outcome"));
  EXPECT_TRUE(HasRule(RunAllOn("src/protocol/x.cpp",
                               "void F() {\n"
                               "  BackoffMs(2, kBaseMs, kMaxMs);\n"
                               "}\n"),
                      "discarded-outcome"));
  EXPECT_FALSE(HasRule(
      RunAllOn("src/protocol/x.cpp",
               "void F(const Spec& s, const Samples& c, Rec& r) {\n"
               "  const auto sense = SenseChannel(s, c);\n"
               "  if (modem::EstimateDrift(r, s, 2048).valid) { Use(); }\n"
               "  auto fixed = modem::CompensateRate(r, 300.0);\n"
               "  const auto plan = audio::ImpairmentPlan::Parse(\"sro=50\");\n"
               "}\n"),
      "discarded-outcome"));
}

TEST(DiscardedOutcomeTest, NolintSuppresses) {
  EXPECT_FALSE(HasRule(
      RunAllOn("src/protocol/x.cpp",
               "void F(sim::WirelessLink& link) {\n"
               "  link.TrySendMessageDelay();  // NOLINT(discarded-outcome)\n"
               "}\n"),
      "discarded-outcome"));
}

// -- test-only-export -------------------------------------------------

/// Lint a small tree: a header declaring Used() and Spare(), its .cpp
/// defining both, a test calling both, plus `extra` files.
std::vector<Diagnostic> RunExportTree(
    std::vector<std::pair<std::string, std::string>> extra) {
  std::vector<std::pair<std::string, std::string>> tree = {
      {"src/dsp/x.h",
       "#pragma once\n"
       "namespace wearlock::dsp {\n"
       "class Meter {\n"
       " public:\n"
       "  explicit Meter(int n);\n"
       "  int Used() const;\n"
       "  int Spare() const { return n_; }\n"
       " private:\n"
       "  int n_;\n"
       "};\n"
       "}  // namespace wearlock::dsp\n"},
      {"src/dsp/x.cpp",
       "#include \"dsp/x.h\"\n"
       "namespace wearlock::dsp {\n"
       "Meter::Meter(int n) : n_(n) {}\n"
       "int Meter::Used() const { return n_ + 1; }\n"
       "}  // namespace wearlock::dsp\n"},
      {"tests/x_test.cpp",
       "TEST(Meter, Reads) {\n"
       "  const dsp::Meter m(2);\n"
       "  EXPECT_EQ(m.Used() + m.Spare(), 5);\n"
       "}\n"},
      {"bench/x.cpp", "int main() { return dsp::Meter(1).Used(); }\n"},
  };
  tree.insert(tree.end(), extra.begin(), extra.end());
  std::vector<SourceFile> files;
  for (const auto& [path, content] : tree) {
    files.push_back(SourceFile::FromString(path, content));
  }
  return RunLint(files).diagnostics;
}

TEST(TestOnlyExportTest, FunctionOnlyTestsCallIsFlagged) {
  const auto diags = RunExportTree({});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "test-only-export");
  EXPECT_EQ(diags[0].file, "src/dsp/x.h");
  EXPECT_EQ(diags[0].line, 7);
  EXPECT_NE(diags[0].message.find("'Spare'"), std::string::npos);
}

TEST(TestOnlyExportTest, CallFromItsOwnCppCounts) {
  EXPECT_TRUE(RunExportTree({{"src/dsp/y.cpp",
                              "#include \"dsp/x.h\"\n"
                              "namespace wearlock::dsp {\n"
                              "int Twice(const Meter& m) {\n"
                              "  return 2 * m.Spare();\n"
                              "}\n"
                              "}  // namespace wearlock::dsp\n"}})
                  .empty());
}

TEST(TestOnlyExportTest, HarnessOrExampleCallCounts) {
  EXPECT_TRUE(RunExportTree({{"wlbench/harness/fleet.cpp",
                              "int Probe(const dsp::Meter& m) {\n"
                              "  return m.Spare();\n"
                              "}\n"}})
                  .empty());
  EXPECT_TRUE(
      RunExportTree({{"examples/demo.cpp",
                      "int main() { return dsp::Meter(3).Spare(); }\n"}})
          .empty());
}

TEST(TestOnlyExportTest, HarnessIsReadForReferencesOnly) {
  // steady_clock would be a determinism finding anywhere else.
  EXPECT_TRUE(RunExportTree({{"wlbench/harness/spans.cpp",
                              "auto t = std::chrono::steady_clock::now();\n"
                              "int Probe(const dsp::Meter& m) {\n"
                              "  return m.Spare();\n"
                              "}\n"}})
                  .empty());
}

TEST(TestOnlyExportTest, NolintMarksATestSeam) {
  std::vector<SourceFile> files;
  files.push_back(SourceFile::FromString(
      "src/dsp/x.h",
      "#pragma once\n"
      "// NOLINTNEXTLINE(test-only-export): pins the shared tables.\n"
      "int Seam();\n"));
  files.push_back(
      SourceFile::FromString("tests/x_test.cpp", "TEST(X, Y) { Seam(); }\n"));
  const LintResult result = RunLint(files);
  EXPECT_TRUE(result.diagnostics.empty());
  EXPECT_EQ(result.suppressed, 1u);
}

TEST(TestOnlyExportTest, RunsOnlyWhenTheScanIncludesTests) {
  // A partial scan cannot tell test-only from unread.
  EXPECT_FALSE(HasRule(RunAllOn("src/dsp/x.h", "#pragma once\nint Lone();\n"),
                       "test-only-export"));
}

TEST(TestOnlyExportTest, CallsAndLanguageHooksAreNotDeclarations) {
  std::vector<SourceFile> files;
  files.push_back(SourceFile::FromString(
      "src/sim/x.h",
      "#pragma once\n"
      "#define WL_TWICE(x) Twice(x)\n"
      "struct Promise {\n"
      "  void unhandled_exception() {}\n"
      "  std::function<audio::Samples(double)> render;\n"
      "};\n"
      "int Twice(int x);\n"
      "inline int Four() { return Twice(2); }\n"));
  files.push_back(
      SourceFile::FromString("tests/x_test.cpp", "TEST(X, Y) { Four(); }\n"));
  const auto diags = RunLint(files).diagnostics;
  ASSERT_EQ(diags.size(), 1u) << diags[0].message;
  EXPECT_NE(diags[0].message.find("'Four'"), std::string::npos);
}

// -- baseline + parallel driver ---------------------------------------

TEST(BaselineTest, BaselinedFindingsAreAbsorbedAndCounted) {
  std::vector<SourceFile> files;
  files.push_back(SourceFile::FromString(
      "/abs/checkout/src/dsp/x.cpp", "void f() { srand(1); }\n"));
  LintOptions options;
  // Keys are repo-relative, so they match the absolute-path invocation.
  options.baseline = {"src/dsp/x.cpp:1: determinism",
                      "src/dsp/gone.cpp:9: banned-api"};
  const LintResult result = RunLint(files, options);
  EXPECT_TRUE(result.diagnostics.empty());
  EXPECT_EQ(result.baselined, 1u);
  // The unmatched entry is reported stale so the file shrinks over time.
  ASSERT_EQ(result.stale_baseline.size(), 1u);
  EXPECT_EQ(result.stale_baseline[0], "src/dsp/gone.cpp:9: banned-api");
}

TEST(BaselineTest, KeyNormalisesPathAndRoundTripsThroughWriter) {
  EXPECT_EQ(BaselineKey({"/r/checkout/src/dsp/x.cpp", 3, "determinism", "m"}),
            "src/dsp/x.cpp:3: determinism");
  EXPECT_EQ(BaselineKey({"tools/lint/main.cpp", 7, "banned-api", "m"}),
            "tools/lint/main.cpp:7: banned-api");
  std::vector<SourceFile> files;
  files.push_back(
      SourceFile::FromString("src/dsp/x.cpp", "void f() { srand(1); }\n"));
  const LintResult result = RunLint(files);
  std::ostringstream os;
  WriteBaseline(result, os);
  EXPECT_NE(os.str().find("src/dsp/x.cpp:1: determinism\n"),
            std::string::npos);
}

TEST(ParallelTest, DiagnosticsAreByteIdenticalAcrossThreadCounts) {
  // Many files, several findings each, analysed at 1/2/8 threads: the
  // sorted output must not depend on scheduling.
  std::vector<SourceFile> files;
  for (int i = 0; i < 24; ++i) {
    files.push_back(SourceFile::FromString(
        "src/dsp/f" + std::to_string(i) + ".cpp",
        "void f() { srand(1); int* p = new int(3); }\n"));
  }
  std::string reference;
  for (int threads : {1, 2, 8}) {
    LintOptions options;
    options.threads = threads;
    const LintResult result = RunLint(files, options);
    std::ostringstream os;
    WriteText(result, os);
    if (reference.empty()) {
      reference = os.str();
    } else {
      EXPECT_EQ(reference, os.str()) << "threads=" << threads;
    }
  }
  EXPECT_NE(reference.find("src/dsp/f23.cpp"), std::string::npos);
}

// -- the real tree ----------------------------------------------------

// The acceptance bar: `wearlock-lint src/` exits 0 on this repo. The
// ctest entry wearlock_lint_src runs the real binary over the real
// tree; this fixture-level suite stays hermetic.

}  // namespace
}  // namespace wearlock::lint
