// razorlint's own contract: every rule fires on its positive fixture, stays
// silent on its negative fixture, scoping and suppression semantics hold,
// the layer map is a DAG — and the real tree is clean, which is what lets
// CI fail the build on any new unsuppressed diagnostic.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "razorlint.hpp"

namespace {

using razorlint::Diagnostic;

std::string fixture(const std::string& name) {
  return std::string(RAZORBUS_SOURCE_DIR) + "/tests/lint_fixtures/" + name;
}

// Lint a fixture under a chosen virtual path (rule scoping and the wallclock
// whitelist key off the repo-relative path, not the on-disk location).
std::vector<Diagnostic> lint_as(const std::string& name, const std::string& vpath) {
  return razorlint::lint_path(fixture(name), vpath);
}

int count_rule(const std::vector<Diagnostic>& diags, const std::string& rule) {
  return static_cast<int>(
      std::count_if(diags.begin(), diags.end(),
                    [&](const Diagnostic& d) { return d.rule == rule; }));
}

std::string render(const std::vector<Diagnostic>& diags) {
  std::string out;
  for (const Diagnostic& d : diags) out += razorlint::format(d) + "\n";
  return out;
}

// ----------------------------------------------------------------- float-eq

TEST(FloatEq, FiresOnLiteralComparisons) {
  const auto diags = lint_as("float_eq_bad.cpp", "tests/fixture.cpp");
  EXPECT_EQ(count_rule(diags, "float-eq"), 3) << render(diags);
  EXPECT_EQ(diags.size(), 3u) << render(diags);
}

TEST(FloatEq, SilentOnToleranceIdiomAndJustifiedAllow) {
  const auto diags = lint_as("float_eq_ok.cpp", "tests/fixture.cpp");
  EXPECT_TRUE(diags.empty()) << render(diags);
}

// ------------------------------------------------------------- no-wallclock

TEST(NoWallclock, FiresOnChronoClocksAndCTimeCalls) {
  const auto diags = lint_as("wallclock_bad.cpp", "tests/fixture.cpp");
  EXPECT_EQ(count_rule(diags, "no-wallclock"), 3) << render(diags);
}

TEST(NoWallclock, SilentOnMethodsNamedClockOrTime) {
  const auto diags = lint_as("wallclock_ok.cpp", "tests/fixture.cpp");
  EXPECT_TRUE(diags.empty()) << render(diags);
}

TEST(NoWallclock, WhitelistedBenchTimerPathIsExempt) {
  // The same violating content is clean under a whitelisted virtual path:
  // the bench harness is SUPPOSED to read steady_clock.
  const auto diags = lint_as("wallclock_bad.cpp", "bench/bench_common.cpp");
  EXPECT_EQ(count_rule(diags, "no-wallclock"), 0) << render(diags);
}

TEST(NoWallclock, EveryWhitelistedPathExists) {
  // A whitelist entry outlives its file silently and would exempt whatever
  // later takes its name: every entry must name a file in the tree.
  for (const std::string& path : razorlint::wallclock_whitelist())
    EXPECT_TRUE(std::filesystem::is_regular_file(std::string(RAZORBUS_SOURCE_DIR) + "/" +
                                                 path))
        << path;
}

// ------------------------------------------------------------ no-raw-random

TEST(NoRawRandom, FiresOnStdEnginesRandomDeviceAndCRand) {
  const auto diags = lint_as("raw_random_bad.cpp", "tests/fixture.cpp");
  EXPECT_EQ(count_rule(diags, "no-raw-random"), 3) << render(diags);
}

TEST(NoRawRandom, SilentOnUtilRngIdiomAndJustifiedAllow) {
  const auto diags = lint_as("raw_random_ok.cpp", "tests/fixture.cpp");
  EXPECT_TRUE(diags.empty()) << render(diags);
}

// --------------------------------------------------- no-unordered-iteration

TEST(NoUnorderedIteration, FiresOnRangeForOverUnorderedMap) {
  const auto diags = lint_as("unordered_iteration_bad.cpp", "tests/fixture.cpp");
  EXPECT_EQ(count_rule(diags, "no-unordered-iteration"), 1) << render(diags);
}

TEST(NoUnorderedIteration, SilentOnOrderedIterationAndPointLookups) {
  const auto diags = lint_as("unordered_iteration_ok.cpp", "tests/fixture.cpp");
  EXPECT_TRUE(diags.empty()) << render(diags);
}

// -------------------------------------------------------- no-mutable-static

TEST(NoMutableStatic, FiresOnAllThreeShapesInLibraryCode) {
  const auto diags = lint_as("mutable_static_bad.cpp", "src/util/fixture.cpp");
  EXPECT_EQ(count_rule(diags, "no-mutable-static"), 3) << render(diags);
}

TEST(NoMutableStatic, SilentOnConstantsAndJustifiedAllow) {
  const auto diags = lint_as("mutable_static_ok.cpp", "src/util/fixture.cpp");
  EXPECT_TRUE(diags.empty()) << render(diags);
}

TEST(NoMutableStatic, ScopedToLibraryCodeOnly) {
  // The same content outside src/ is a test/bench concern, not a library
  // one — the rule stays silent there.
  const auto diags = lint_as("mutable_static_bad.cpp", "tests/fixture.cpp");
  EXPECT_EQ(count_rule(diags, "no-mutable-static"), 0) << render(diags);
}

// ---------------------------------------------------------------- layer-dag

TEST(LayerDag, FiresOnUpwardUnprefixedAndForeignIncludes) {
  const auto diags = lint_as("layer_dag_bad.cpp", "src/util/fixture.cpp");
  EXPECT_EQ(count_rule(diags, "layer-dag"), 3) << render(diags);
}

TEST(LayerDag, SilentOnDownwardEdges) {
  const auto diags = lint_as("layer_dag_ok.cpp", "src/razor/fixture.cpp");
  EXPECT_TRUE(diags.empty()) << render(diags);
}

TEST(LayerDag, ScopedToLibraryCodeOnly) {
  // bench/tests/examples/tools sit above the library and may include any
  // layer.
  const auto diags = lint_as("layer_dag_bad.cpp", "bench/fixture.cpp");
  EXPECT_EQ(count_rule(diags, "layer-dag"), 0) << render(diags);
}

TEST(LayerDag, LayerMapIsAcyclic) {
  EXPECT_EQ(razorlint::layer_dag_cycle(), "");
}

// ------------------------------------------------------------- suppressions

TEST(Suppressions, MalformedAllowsAreDiagnosedAndSuppressNothing) {
  const auto diags = lint_as("suppression_bad.cpp", "tests/fixture.cpp");
  // Two bad allow() comments (missing justification, unknown rule) — and the
  // float-eq they failed to cover still fires.
  EXPECT_EQ(count_rule(diags, "suppression"), 2) << render(diags);
  EXPECT_EQ(count_rule(diags, "float-eq"), 1) << render(diags);
}

// -------------------------------------------------------------- whole tree

TEST(Tree, AllSixRulesAreRegistered) {
  const auto& names = razorlint::rule_names();
  ASSERT_EQ(names.size(), 6u);
  for (const char* expected :
       {"float-eq", "no-wallclock", "no-raw-random", "no-unordered-iteration",
        "no-mutable-static", "layer-dag"})
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
}

TEST(Tree, FixturesAreExcludedFromTheWalk) {
  const auto sources = razorlint::collect_sources(RAZORBUS_SOURCE_DIR);
  ASSERT_FALSE(sources.empty());
  for (const std::string& path : sources)
    EXPECT_EQ(path.find("lint_fixtures"), std::string::npos) << path;
  // The walk does cover this very test and the library proper.
  EXPECT_NE(std::find(sources.begin(), sources.end(), "tests/lint_test.cpp"),
            sources.end());
  EXPECT_NE(std::find(sources.begin(), sources.end(), "src/bus/simulator.cpp"),
            sources.end());
}

TEST(Tree, RepositoryIsCleanUnderAllRules) {
  // The acceptance gate: the full tree lints clean, so any new diagnostic is
  // a regression this test (and the CI lint job) catches.
  const auto diags = razorlint::lint_tree(RAZORBUS_SOURCE_DIR);
  EXPECT_TRUE(diags.empty()) << render(diags);
}

}  // namespace
