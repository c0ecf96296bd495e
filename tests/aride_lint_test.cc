// Tests for tools/aride_lint: golden fixtures (one per rule, asserting the
// exact rule IDs and lines that fire), the layer-dag analyzer against both
// the real tree and a synthetic back-edge, and the --fix guard rewrite.
//
// ARIDE_LINT_TESTDATA and ARIDE_LINT_SOURCE_ROOT are compile definitions
// set in tests/CMakeLists.txt.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "aride_lint/layering.h"
#include "aride_lint/lexer.h"
#include "aride_lint/rules.h"
#include "gtest/gtest.h"

namespace aride_lint {
namespace {

namespace fs = std::filesystem;

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Lints a fixture file under a simulated repo path and returns (rule, line)
// pairs sorted by line.
std::vector<std::pair<std::string, int>> LintFixture(
    const std::string& fixture, const std::string& simulated_path) {
  const fs::path path = fs::path(ARIDE_LINT_TESTDATA) / fixture;
  FileInfo info = MakeFileInfo(simulated_path, ReadFile(path));
  std::vector<std::pair<std::string, int>> got;
  for (const Diagnostic& d : RunFileRules(info)) {
    got.emplace_back(d.rule, d.line);
  }
  std::sort(got.begin(), got.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second < b.second : a.first < b.first;
  });
  return got;
}

TEST(BannedApiGolden, FiresOnExactLines) {
  const auto got = LintFixture("banned_api.cc", "src/fixture/banned_api.cc");
  const std::vector<std::pair<std::string, int>> want = {
      {"banned-api", 3},   // #include <cassert>
      {"banned-api", 10},  // assert(...)
      {"banned-api", 11},  // std::printf
      {"banned-api", 12},  // std::cout
      {"banned-api", 13},  // std::cerr
      {"banned-api", 14},  // std::rand
      {"banned-api", 15},  // srand
      {"banned-api", 16},  // system_clock
      {"banned-api", 23},  // std::getenv
  };
  EXPECT_EQ(got, want);
}

TEST(BannedApiGolden, OutsideSrcOnlyGlobalBansApply) {
  // Under a bench/ path the stdout/assert/getenv bans don't apply, but the
  // nondeterminism bans (rand, system_clock) still do.
  const auto got = LintFixture("banned_api.cc", "bench/banned_api.cc");
  const std::vector<std::pair<std::string, int>> want = {
      {"banned-api", 14},  // std::rand
      {"banned-api", 15},  // srand
      {"banned-api", 16},  // system_clock
  };
  EXPECT_EQ(got, want);
}

TEST(FloatEqGolden, FiresOnExactLines) {
  const auto got = LintFixture("float_eq.cc", "src/fixture/float_eq.cc");
  const std::vector<std::pair<std::string, int>> want = {
      {"raw-unit-double", 3},  // double bid (v3 rule, same fixture)
      {"raw-unit-double", 3},  // double price
      {"raw-unit-double", 3},  // double utility
      {"float-eq", 5},         // bid == price
      {"float-eq", 6},         // utility != 0.0
      {"float-eq", 7},         // payments[0] == bid
  };
  EXPECT_EQ(got, want);
}

TEST(GuardStyleGolden, WrongGuardReportedAndFixed) {
  const std::string sim_path = "src/fixture/guard_style.h";
  const auto got = LintFixture("guard_style.h", sim_path);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].first, "guard-style");
  EXPECT_EQ(got[0].second, 4);  // the #ifndef line

  // --fix rewrites the guard to the expected name; the result lints clean.
  const fs::path path = fs::path(ARIDE_LINT_TESTDATA) / "guard_style.h";
  FileInfo info = MakeFileInfo(sim_path, ReadFile(path));
  std::string fixed;
  ASSERT_TRUE(FixGuardStyle(info, &fixed));
  EXPECT_NE(fixed.find("AUCTIONRIDE_FIXTURE_GUARD_STYLE_H_"),
            std::string::npos);
  FileInfo fixed_info = MakeFileInfo(sim_path, std::move(fixed));
  EXPECT_TRUE(RunFileRules(fixed_info).empty());
}

TEST(CheckSideEffectsGolden, FiresOnExactLines) {
  const auto got = LintFixture("check_side_effects.cc",
                               "src/fixture/check_side_effects.cc");
  const std::vector<std::pair<std::string, int>> want = {
      {"raw-unit-double", 3},     // double pay (v3 rule, same fixture)
      {"check-side-effects", 5},  // ARIDE_DCHECK(n++ > 0)
      {"check-side-effects", 6},  // ARIDE_CHECK_GE(pay -= 1.0, ...)
      {"check-side-effects", 8},  // ARIDE_CHECK_NEAR(..., pay *= 2.0, ...)
  };
  EXPECT_EQ(got, want);
}

TEST(LayerDagGolden, BackEdgeFixtureRejected) {
  const fs::path path =
      fs::path(ARIDE_LINT_TESTDATA) / "layering_back_edge.h";
  FileInfo info =
      MakeFileInfo("src/common/layering_back_edge.h", ReadFile(path));
  LayerGraph graph;
  graph.AddFile(info);
  const std::vector<Diagnostic> diags = graph.Check();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "layer-dag");
  EXPECT_EQ(diags[0].line, 7);  // the #include "auction/types.h" line
  EXPECT_NE(diags[0].message.find("common"), std::string::npos);
  EXPECT_NE(diags[0].message.find("auction"), std::string::npos);
}

TEST(LayerDagGolden, EngineBackEdgeFixtureRejected) {
  const fs::path path =
      fs::path(ARIDE_LINT_TESTDATA) / "layering_engine_back_edge.h";
  FileInfo info =
      MakeFileInfo("src/engine/layering_engine_back_edge.h", ReadFile(path));
  LayerGraph graph;
  graph.AddFile(info);
  const std::vector<Diagnostic> diags = graph.Check();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "layer-dag");
  EXPECT_EQ(diags[0].line, 8);  // the #include "sim/simulator.h" line
  EXPECT_NE(diags[0].message.find("engine"), std::string::npos);
  EXPECT_NE(diags[0].message.find("sim"), std::string::npos);
}

TEST(UnorderedIterationGolden, FiresOnExactLines) {
  const auto got = LintFixture("unordered_iteration.cc",
                               "src/fixture/unordered_iteration.cc");
  const std::vector<std::pair<std::string, int>> want = {
      {"unordered-iteration", 16},  // range-for over by_id
      {"unordered-iteration", 17},  // range-for over seen
      {"unordered-iteration", 18},  // range-for through the Cache alias
      {"unordered-iteration", 19},  // explicit by_id.begin() walk
  };
  EXPECT_EQ(got, want);
}

TEST(UnorderedIterationGolden, OutsideSrcExempt) {
  EXPECT_TRUE(LintFixture("unordered_iteration.cc",
                          "bench/unordered_iteration.cc")
                  .empty());
}

TEST(RawLockGolden, FiresOnExactLines) {
  const auto got = LintFixture("raw_lock.cc", "src/fixture/raw_lock.cc");
  const std::vector<std::pair<std::string, int>> want = {
      {"raw-lock", 10},  // s.mu.lock()
      {"raw-lock", 11},  // s.mu.unlock()
      {"raw-lock", 12},  // p->mu.try_lock()
      {"raw-lock", 13},  // p->mu.unlock()
  };
  EXPECT_EQ(got, want);
}

TEST(RawLockGolden, OutsideSrcExempt) {
  EXPECT_TRUE(LintFixture("raw_lock.cc", "tests/raw_lock.cc").empty());
}

TEST(NakedThreadGolden, FiresOnExactLines) {
  const auto got =
      LintFixture("naked_thread.cc", "src/fixture/naked_thread.cc");
  const std::vector<std::pair<std::string, int>> want = {
      {"naked-thread", 9},   // std::thread t(...)
      {"naked-thread", 10},  // std::async
      {"naked-thread", 11},  // t.detach()
      {"naked-thread", 15},  // std::jthread
  };
  EXPECT_EQ(got, want);
}

TEST(NakedThreadGolden, ExecLayerExempt) {
  // src/exec/ is where the pool lives; spawning threads there is its job.
  EXPECT_TRUE(
      LintFixture("naked_thread.cc", "src/exec/naked_thread.cc").empty());
}

TEST(NakedThreadGolden, OutsideSrcExempt) {
  EXPECT_TRUE(
      LintFixture("naked_thread.cc", "tools/naked_thread.cc").empty());
}

TEST(NondetSourceGolden, FiresOnExactLines) {
  const std::vector<std::pair<std::string, int>> want = {
      {"nondet-source", 14},  // std::hash<const NondetVehicle*>
      {"nondet-source", 16},  // std::less<NondetVehicle*>
      {"nondet-source", 17},  // std::uintptr_t
      {"nondet-source", 18},  // &a < &b
  };
  // The rule guards the decision-making layers, auction and planner alike.
  EXPECT_EQ(
      LintFixture("nondet_source.cc", "src/auction/nondet_source.cc"), want);
  EXPECT_EQ(
      LintFixture("nondet_source.cc", "src/planner/nondet_source.cc"), want);
}

TEST(NondetSourceGolden, OtherLayersExempt) {
  EXPECT_TRUE(
      LintFixture("nondet_source.cc", "src/sim/nondet_source.cc").empty());
}

TEST(StaleNolint, ConsumedVersusStale) {
  const fs::path path = fs::path(ARIDE_LINT_TESTDATA) / "stale_nolint.cc";
  FileInfo info =
      MakeFileInfo("src/fixture/stale_nolint.cc", ReadFile(path));
  SuppressionUsage usage;
  std::vector<Diagnostic> diags = RunFileRules(info, &usage);
  // The only surviving regular finding: printf on line 13 (its suppression
  // names the wrong rule, float-eq).
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "banned-api");
  EXPECT_EQ(diags[0].line, 13);
  // Line 7's suppression consumed a finding; it is the only usage entry.
  EXPECT_EQ(usage, SuppressionUsage({{7, "banned-api"}}));

  std::vector<Diagnostic> stale =
      CheckStaleSuppressions(info.path, info.lex, usage);
  std::vector<std::pair<std::string, int>> got;
  for (const Diagnostic& d : stale) got.emplace_back(d.rule, d.line);
  std::sort(got.begin(), got.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  const std::vector<std::pair<std::string, int>> want = {
      {"stale-nolint", 8},   // banned-api entry, nothing fired
      {"stale-nolint", 9},   // wildcard entry, nothing fired
      {"stale-nolint", 13},  // float-eq entry while banned-api fired
  };
  EXPECT_EQ(got, want);
}

TEST(StaleNolint, ConsumedSuppressionIsNotStale) {
  // raw_lock.cc line 17 suppresses a raw-lock that really fires; after the
  // rules run, its entry must be consumed and the stale pass silent on it.
  const fs::path path = fs::path(ARIDE_LINT_TESTDATA) / "raw_lock.cc";
  FileInfo info = MakeFileInfo("src/fixture/raw_lock.cc", ReadFile(path));
  SuppressionUsage usage;
  (void)RunFileRules(info, &usage);
  EXPECT_EQ(usage, SuppressionUsage({{17, "raw-lock"}}));
  EXPECT_TRUE(CheckStaleSuppressions(info.path, info.lex, usage).empty());
}

// The declared order must accept every include edge in the real tree: this
// is the "tree stays layered" regression test.
TEST(LayerDag, AcceptsCurrentTree) {
  const fs::path src = fs::path(ARIDE_LINT_SOURCE_ROOT) / "src";
  ASSERT_TRUE(fs::exists(src)) << src;
  LayerGraph graph;
  int files = 0;
  for (fs::recursive_directory_iterator it(src), end; it != end; ++it) {
    if (!it->is_regular_file()) continue;
    const std::string ext = it->path().extension().string();
    if (ext != ".h" && ext != ".cc") continue;
    const std::string rel =
        fs::relative(it->path(), fs::path(ARIDE_LINT_SOURCE_ROOT))
            .generic_string();
    graph.AddFile(MakeFileInfo(rel, ReadFile(it->path())));
    ++files;
  }
  EXPECT_GT(files, 50);  // sanity: the walk actually saw the tree
  const std::vector<Diagnostic> diags = graph.Check();
  for (const Diagnostic& d : diags) {
    ADD_FAILURE() << d.file << ":" << d.line << ": " << d.message;
  }
}

TEST(LayerDag, SyntheticCommonToAuctionBackEdgeRejected) {
  LayerGraph graph;
  graph.AddEdge("common", "auction", "src/common/bad.cc", 12);
  const std::vector<Diagnostic> diags = graph.Check();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "layer-dag");
  EXPECT_EQ(diags[0].file, "src/common/bad.cc");
  EXPECT_EQ(diags[0].line, 12);
}

TEST(LayerDag, CycleReportedWithChain) {
  LayerGraph graph;
  graph.AddEdge("auction", "sim", "src/auction/a.cc", 1);
  graph.AddEdge("sim", "auction", "src/sim/b.cc", 2);
  const std::vector<Diagnostic> diags = graph.Check();
  bool saw_cycle = false;
  for (const Diagnostic& d : diags) {
    if (d.message.find("cycle") != std::string::npos) {
      saw_cycle = true;
      EXPECT_NE(d.message.find("auction"), std::string::npos);
      EXPECT_NE(d.message.find("sim"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_cycle);
}

TEST(LayerDag, SuppressedBackEdgeConsumesEntry) {
  LayerGraph graph;
  graph.AddFile(MakeFileInfo(
      "src/common/bad.h",
      "#include \"auction/types.h\"  // NOLINT-ARIDE(layer-dag): test\n"));
  std::map<std::string, SuppressionUsage> usage;
  EXPECT_TRUE(graph.Check(&usage).empty());
  EXPECT_EQ(usage["src/common/bad.h"],
            SuppressionUsage({{1, "layer-dag"}}));
}

TEST(LayerDag, SuppressionOnLegalIncludeStaysUnconsumed) {
  // A NOLINT on a perfectly legal downward include consumes nothing, so
  // the stale pass will flag it.
  LayerGraph graph;
  graph.AddFile(MakeFileInfo(
      "src/auction/ok.h",
      "#include \"common/check.h\"  // NOLINT-ARIDE(layer-dag): useless\n"));
  std::map<std::string, SuppressionUsage> usage;
  EXPECT_TRUE(graph.Check(&usage).empty());
  EXPECT_TRUE(usage["src/auction/ok.h"].empty());
}

TEST(LayerDag, UnknownDirectoryDiagnosed) {
  LayerGraph graph;
  graph.AddEdge("mystery", "common", "src/mystery/a.cc", 3);
  const std::vector<Diagnostic> diags = graph.Check();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("no declared layer"), std::string::npos);
}

TEST(RawUnitDoubleGolden, FiresOnExactLines) {
  const auto got =
      LintFixture("raw_unit_double.cc", "src/fixture/raw_unit_double.cc");
  const std::vector<std::pair<std::string, int>> want = {
      {"raw-unit-double", 4},   // double bid (money vocabulary)
      {"raw-unit-double", 5},   // now_s (_s time suffix)
      {"raw-unit-double", 6},   // detour_m (_m distance suffix)
      {"raw-unit-double", 7},   // wait_seconds (whole-word tail)
      {"raw-unit-double", 8},   // radius_km (_km suffix)
      {"raw-unit-double", 18},  // parameter pickup_s
      {"raw-unit-double", 18},  // parameter trip_m
      // line 21 (double fare) is consumed by its NOLINT-ARIDE suppression;
      // the rate knobs (9-12) and bare letters (13-14) never fire.
  };
  EXPECT_EQ(got, want);
}

TEST(RawUnitDoubleGolden, OnlySrcIsChecked) {
  EXPECT_TRUE(
      LintFixture("raw_unit_double.cc", "bench/raw_unit_double.cc").empty());
  EXPECT_TRUE(
      LintFixture("raw_unit_double.cc", "tools/raw_unit_double.cc").empty());
}

TEST(UnitSuffixGolden, FiresOnExactLines) {
  const auto got = LintFixture("unit_suffix.cc", "src/fixture/unit_suffix.cc");
  const std::vector<std::pair<std::string, int>> want = {
      {"unsafe-unit-cast", 11},  // trip_m names its unit: cast rule only
      {"unit-suffix", 12},       // horizon: escaped value, no unit in name
      {"unsafe-unit-cast", 12},
      {"unit-suffix", 13},  // window: escape inside a larger expression
      {"unsafe-unit-cast", 13},
      // line 14 (plain = 3.0) has no escape: no finding.
  };
  EXPECT_EQ(got, want);
}

TEST(UnsafeUnitCastGolden, FiresOnExactLines) {
  const auto got =
      LintFixture("unsafe_unit_cast.cc", "src/fixture/unsafe_unit_cast.cc");
  const std::vector<std::pair<std::string, int>> want = {
      {"unsafe-unit-cast", 10},  // quote.value() without a justification
      // line 12 is consumed by its NOLINT-ARIDE suppression; line 13 uses
      // 'value' as a plain identifier, not a member call.
  };
  EXPECT_EQ(got, want);
}

TEST(UnsafeUnitCastGolden, WhitelistAndGeometryExempt) {
  // Serialization/telemetry whitelist: wholesale raw by policy.
  EXPECT_TRUE(
      LintFixture("unsafe_unit_cast.cc", "src/obs/unsafe_unit_cast.cc")
          .empty());
  // Geometry kernels sit below the unit wall.
  EXPECT_TRUE(
      LintFixture("unsafe_unit_cast.cc", "src/spatial/unsafe_unit_cast.cc")
          .empty());
  EXPECT_TRUE(
      LintFixture("raw_unit_double.cc", "src/roadnet/raw_unit_double.cc")
          .empty());
}

TEST(MoneyIdentifier, Classification) {
  EXPECT_TRUE(IsMoneyIdentifier("bid"));
  EXPECT_TRUE(IsMoneyIdentifier("bid0"));
  EXPECT_TRUE(IsMoneyIdentifier("h_cost_before"));
  EXPECT_TRUE(IsMoneyIdentifier("Payment"));
  EXPECT_TRUE(IsMoneyIdentifier("total_utility"));
  EXPECT_FALSE(IsMoneyIdentifier("n_payments"));
  EXPECT_FALSE(IsMoneyIdentifier("payment_count"));
  EXPECT_FALSE(IsMoneyIdentifier("bid_idx"));
  EXPECT_FALSE(IsMoneyIdentifier("bid_index"));
  EXPECT_FALSE(IsMoneyIdentifier("bid_rank"));
  EXPECT_FALSE(IsMoneyIdentifier("price_ranks"));
  EXPECT_FALSE(IsMoneyIdentifier("order"));
  EXPECT_FALSE(IsMoneyIdentifier("size"));
  EXPECT_FALSE(IsMoneyIdentifier("payload"));
}

TEST(ExpectedGuardTest, Paths) {
  EXPECT_EQ(ExpectedGuard("src/geo/point.h"), "AUCTIONRIDE_GEO_POINT_H_");
  EXPECT_EQ(ExpectedGuard("tests/testutil.h"),
            "AUCTIONRIDE_TESTS_TESTUTIL_H_");
  EXPECT_EQ(ExpectedGuard("tools/aride_lint/lexer.h"),
            "AUCTIONRIDE_TOOLS_ARIDE_LINT_LEXER_H_");
}

TEST(Lexer, StringsCommentsAndSuppressions) {
  const std::string src =
      "int a = 1; // NOLINT-ARIDE(float-eq)\n"
      "/* NOLINT-ARIDE(banned-api) */ int b;\n"
      "// NOLINTNEXTLINE-ARIDE(guard-style,layer-dag)\n"
      "int c;\n"
      "const char* s = \"assert(x) // not code\";\n"
      "int d; // NOLINT-ARIDE(*)\n"
      "int e; // NOLINT-ARIDE\n"
      "// prose that mentions NOLINT-ARIDE(float-eq) mid-comment\n"
      "int f;\n";
  LexedFile lex = Lex(src);
  EXPECT_TRUE(IsSuppressed(lex, 1, "float-eq"));
  EXPECT_FALSE(IsSuppressed(lex, 1, "banned-api"));
  EXPECT_TRUE(IsSuppressed(lex, 2, "banned-api"));
  EXPECT_TRUE(IsSuppressed(lex, 4, "guard-style"));
  EXPECT_TRUE(IsSuppressed(lex, 4, "layer-dag"));
  EXPECT_FALSE(IsSuppressed(lex, 3, "guard-style"));
  EXPECT_TRUE(IsSuppressed(lex, 6, "anything"));  // explicit (*) wildcard
  // A marker without a rule list, and a marker that does not start the
  // comment, are prose — neither registers a suppression.
  EXPECT_FALSE(IsSuppressed(lex, 7, "anything"));
  EXPECT_FALSE(IsSuppressed(lex, 8, "float-eq"));
  EXPECT_FALSE(IsSuppressed(lex, 9, "float-eq"));
  // MatchSuppression prefers the exact rule id over the wildcard and
  // returns the entry that consumed the finding (stale-nolint bookkeeping).
  EXPECT_EQ(MatchSuppression(lex, 1, "float-eq"), "float-eq");
  EXPECT_EQ(MatchSuppression(lex, 6, "anything"), "*");
  EXPECT_EQ(MatchSuppression(lex, 5, "float-eq"), "");
  // The string literal is one token; "assert" inside it never lexes as an
  // identifier.
  for (const Token& t : lex.tokens) {
    EXPECT_FALSE(t.kind == TokKind::kIdentifier && t.text == "assert");
  }
}

TEST(Lexer, RawStringsAndMultiCharOperators) {
  const std::string src = "auto s = R\"(printf(== !=))\"; a <<= b == c;\n";
  LexedFile lex = Lex(src);
  int eq_tokens = 0;
  for (const Token& t : lex.tokens) {
    if (t.kind == TokKind::kPunct && t.text == "==") ++eq_tokens;
    EXPECT_FALSE(t.kind == TokKind::kIdentifier && t.text == "printf");
  }
  EXPECT_EQ(eq_tokens, 1);  // only the one outside the raw string
}

}  // namespace
}  // namespace aride_lint
