/**
 * @file
 * dlvp-analyze rule tests: each rule class is demonstrated by a
 * fixture that trips it and a clean fixture that doesn't, plus the
 * acceptance check that the real source tree lints clean.
 *
 * Fixtures live in tests/fixtures/analyze/ and are never compiled;
 * they are parsed through the dlvp_analyze library, so the tests see
 * exactly what the dlvp-analyze binary sees.
 */

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analyze.hh"

using dlvp::analyze::AnalyzeConfig;
using dlvp::analyze::Finding;
using dlvp::analyze::runAnalysis;
using dlvp::analyze::stripCommentsAndStrings;
using dlvp::analyze::suggestRule;

namespace
{

std::string
fixture(const std::string &name)
{
    return std::string(DLVP_ANALYZE_FIXTURE_DIR) + "/" + name;
}

std::vector<Finding>
lintFile(const std::string &path, const std::string &rule)
{
    AnalyzeConfig config;
    config.files = {path};
    config.rules = {rule};
    return runAnalysis(config);
}

bool
anyMessageContains(const std::vector<Finding> &findings,
                   const std::string &needle)
{
    return std::any_of(findings.begin(), findings.end(),
                       [&](const Finding &f) {
                           return f.message.find(needle) !=
                                  std::string::npos;
                       });
}

} // namespace

// ---------------------------------------------------------------------
// Comment/string stripping
// ---------------------------------------------------------------------

TEST(AnalyzeStrip, RemovesCommentsAndStringContents)
{
    const std::string src = "int a; // rand()\n"
                            "const char *s = \"time(0)\";\n"
                            "/* srand(1)\n   abort() */ int b;\n";
    const std::string out = stripCommentsAndStrings(src);
    EXPECT_EQ(out.find("rand"), std::string::npos);
    EXPECT_EQ(out.find("time"), std::string::npos);
    EXPECT_EQ(out.find("srand"), std::string::npos);
    EXPECT_EQ(out.find("abort"), std::string::npos);
    EXPECT_NE(out.find("int a;"), std::string::npos);
    EXPECT_NE(out.find("int b;"), std::string::npos);
    // Line structure is preserved for line-number reporting.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'),
              std::count(src.begin(), src.end(), '\n'));
}

TEST(AnalyzeStrip, HandlesEscapesAndRawStrings)
{
    const std::string src =
        "const char *a = \"quote \\\" rand()\";\n"
        "const char *b = R\"(abort() exit(1))\";\n"
        "char c = '\\'';\n"
        "int keep = 1;\n";
    const std::string out = stripCommentsAndStrings(src);
    EXPECT_EQ(out.find("rand"), std::string::npos);
    EXPECT_EQ(out.find("abort"), std::string::npos);
    EXPECT_EQ(out.find("exit"), std::string::npos);
    EXPECT_NE(out.find("int keep = 1;"), std::string::npos);
}

// ---------------------------------------------------------------------
// determinism
// ---------------------------------------------------------------------

TEST(AnalyzeDeterminism, FlagsRandTimeUnorderedIterAndPointerKeys)
{
    const auto findings =
        lintFile(fixture("det_bad.cc"), "determinism");
    EXPECT_TRUE(anyMessageContains(findings, "'srand()'"));
    EXPECT_TRUE(anyMessageContains(findings, "'time()'"));
    EXPECT_TRUE(anyMessageContains(findings, "'rand()'"));
    EXPECT_TRUE(anyMessageContains(findings, "range-for over "
                                             "unordered container"));
    EXPECT_TRUE(anyMessageContains(findings, "pointer-keyed"));
    EXPECT_TRUE(anyMessageContains(findings, "high_resolution_clock"));
    EXPECT_GE(findings.size(), 6u);
    for (const Finding &f : findings)
        EXPECT_EQ(f.rule, "determinism") << f.message;
}

// The sweep engine and the sampler must never derive simulated
// behavior from wall time or unordered iteration: their rows are
// pinned bit-identical across job counts (test_sweep.cc,
// test_mega.cc), so any determinism finding in these sources is a
// real bug, not style.
TEST(AnalyzeDeterminism, SweepAndSamplerSourcesAreClean)
{
    namespace fs = std::filesystem;
    const fs::path root = DLVP_ANALYZE_REPO_ROOT;
    AnalyzeConfig config;
    config.rules = {"determinism"};
    for (const char *f :
         {"src/sim/sweep.hh", "src/sim/sweep.cc", "src/sim/sampler.hh",
          "src/sim/sampler.cc", "src/sim/sample_spec.hh",
          "src/trace/trace_v2.hh", "src/trace/trace_v2.cc",
          "src/trace/mega.hh", "src/trace/mega.cc"}) {
        const fs::path p = root / f;
        ASSERT_TRUE(fs::exists(p)) << p;
        config.files.push_back(p.string());
    }
    const auto findings = runAnalysis(config);
    for (const Finding &f : findings)
        ADD_FAILURE() << f.file << ":" << f.line << ": " << f.message;
}

TEST(AnalyzeDeterminism, CleanFixtureHasNoFindings)
{
    const auto findings =
        lintFile(fixture("det_clean.cc"), "determinism");
    EXPECT_TRUE(findings.empty())
        << findings.front().file << ":" << findings.front().line
        << ": " << findings.front().message;
}

// ---------------------------------------------------------------------
// spec-state
// ---------------------------------------------------------------------

TEST(AnalyzeSpecState, FlagsUntrackedAndHalfTrackedMembers)
{
    const auto findings =
        lintFile(fixture("spec_bad.hh"), "spec-state");
    // ghost_: no snapshot, no restore. halfway_: snapshot only.
    EXPECT_TRUE(anyMessageContains(findings,
                                   "'ghost_' has no snapshot site"));
    EXPECT_TRUE(anyMessageContains(findings,
                                   "'ghost_' has no restore site"));
    EXPECT_TRUE(anyMessageContains(findings,
                                   "'halfway_' has no restore site"));
    EXPECT_EQ(findings.size(), 3u);
}

TEST(AnalyzeSpecState, RecoveredMembersAreClean)
{
    const auto findings =
        lintFile(fixture("spec_good.hh"), "spec-state");
    EXPECT_TRUE(findings.empty()) << findings.front().message;
}

// ---------------------------------------------------------------------
// error-taxonomy
// ---------------------------------------------------------------------

TEST(AnalyzeErrorTaxonomy, FlagsForeignThrowAbortAndExit)
{
    const auto findings =
        lintFile(fixture("taxonomy_bad.cc"), "error-taxonomy");
    EXPECT_TRUE(anyMessageContains(findings, "non-RunError"));
    EXPECT_TRUE(anyMessageContains(findings, "'abort()'"));
    EXPECT_TRUE(anyMessageContains(findings, "'exit()'"));
    EXPECT_EQ(findings.size(), 3u);
}

TEST(AnalyzeErrorTaxonomy, RunErrorRethrowAtexitAndSuppressionPass)
{
    const auto findings =
        lintFile(fixture("taxonomy_good.cc"), "error-taxonomy");
    EXPECT_TRUE(findings.empty())
        << findings.front().file << ":" << findings.front().line
        << ": " << findings.front().message;
}

// The serve daemon must stay inside both disciplines: cache keys and
// cached rows are only sound if nothing in the serve path consults
// wall clocks or unordered iteration (determinism), and a daemon that
// abort()s or throws foreign types turns an injected fault into an
// outage instead of a structured row (error-taxonomy).
TEST(AnalyzeErrorTaxonomy, ServeSourcesAreClean)
{
    namespace fs = std::filesystem;
    const fs::path root = DLVP_ANALYZE_REPO_ROOT;
    AnalyzeConfig config;
    config.rules = {"determinism", "error-taxonomy"};
    for (const char *f :
         {"src/serve/json.hh", "src/serve/json.cc",
          "src/serve/wire.hh", "src/serve/wire.cc",
          "src/serve/cache.hh", "src/serve/cache.cc",
          "src/serve/client.hh", "src/serve/client.cc",
          "src/serve/server.hh", "src/serve/server.cc",
          "tools/dlvp_serve.cc"}) {
        const fs::path p = root / f;
        ASSERT_TRUE(fs::exists(p)) << p;
        config.files.push_back(p.string());
    }
    const auto findings = runAnalysis(config);
    for (const Finding &f : findings)
        ADD_FAILURE() << f.file << ":" << f.line << ": " << f.message;
}

// ---------------------------------------------------------------------
// layering
// ---------------------------------------------------------------------

namespace
{

std::string
shippedLayersManifest()
{
    namespace fs = std::filesystem;
    return (fs::path(DLVP_ANALYZE_REPO_ROOT) / "tools" / "analyze" /
            "layers.txt")
        .string();
}

} // namespace

// The acceptance back-edge: a core-layer file including a serve
// header must be rejected by the *shipped* manifest, not a synthetic
// one — this is the edge the DAG exists to forbid.
TEST(AnalyzeLayering, ShippedManifestRejectsCoreToServeBackEdge)
{
    AnalyzeConfig config;
    config.rootPath = fixture("layering");
    config.layersPath = shippedLayersManifest();
    config.files = {fixture("layering/src/core/uses_serve.cc")};
    config.rules = {"layering"};
    const auto findings = runAnalysis(config);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "layering");
    EXPECT_EQ(findings[0].line, 5u);
    EXPECT_TRUE(anyMessageContains(
        findings, "'core' may not include 'serve/server.hh'"));
}

TEST(AnalyzeLayering, DownwardIncludeIsClean)
{
    AnalyzeConfig config;
    config.rootPath = fixture("layering");
    config.layersPath = shippedLayersManifest();
    config.files = {fixture("layering/src/serve/uses_core.cc")};
    config.rules = {"layering"};
    const auto findings = runAnalysis(config);
    EXPECT_TRUE(findings.empty())
        << findings.front().file << ":" << findings.front().line
        << ": " << findings.front().message;
}

TEST(AnalyzeLayering, CyclicManifestIsRejected)
{
    AnalyzeConfig config;
    config.layersPath = fixture("layers_cycle.txt");
    config.rules = {"layering"};
    const auto findings = runAnalysis(config);
    EXPECT_TRUE(anyMessageContains(findings,
                                   "dependency cycle in the layering "
                                   "manifest"));
    EXPECT_TRUE(anyMessageContains(
        findings, "depends on 'nowhere', which the manifest does "
                  "not declare"));
    for (const Finding &f : findings)
        EXPECT_EQ(f.rule, "layering") << f.message;
}

// The shipped manifest itself must be well-formed: no diagnostics
// even with no files to scan.
TEST(AnalyzeLayering, ShippedManifestIsWellFormed)
{
    AnalyzeConfig config;
    config.layersPath = shippedLayersManifest();
    config.rules = {"layering"};
    const auto findings = runAnalysis(config);
    EXPECT_TRUE(findings.empty())
        << findings.front().message;
}

// ---------------------------------------------------------------------
// lock-discipline
// ---------------------------------------------------------------------

TEST(AnalyzeLockDiscipline, FlagsUnlockedGuardedAccess)
{
    const auto findings =
        lintFile(fixture("lock_bad.cc"), "lock-discipline");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "lock-discipline");
    EXPECT_TRUE(anyMessageContains(findings, "'balance_'"));
    EXPECT_TRUE(anyMessageContains(findings, "'peek'"));
    EXPECT_TRUE(anyMessageContains(findings, "DLVP_REQUIRES"));
}

TEST(AnalyzeLockDiscipline, LockScopesRequiresAndCtorAreClean)
{
    const auto findings =
        lintFile(fixture("lock_clean.cc"), "lock-discipline");
    EXPECT_TRUE(findings.empty())
        << findings.front().file << ":" << findings.front().line
        << ": " << findings.front().message;
}

// ---------------------------------------------------------------------
// hot-path
// ---------------------------------------------------------------------

TEST(AnalyzeHotPath, FlagsDirectAndTransitiveBannedCalls)
{
    const auto findings =
        lintFile(fixture("hot_bad.cc"), "hot-path");
    EXPECT_TRUE(anyMessageContains(findings, "I/O 'printf'"));
    EXPECT_TRUE(anyMessageContains(findings, "'push_back'"));
    EXPECT_TRUE(anyMessageContains(findings, "via 'record'"));
    for (const Finding &f : findings)
        EXPECT_EQ(f.rule, "hot-path") << f.message;
}

TEST(AnalyzeHotPath, AllocationFreeBodyAndThrowSpanAreClean)
{
    const auto findings =
        lintFile(fixture("hot_clean.cc"), "hot-path");
    EXPECT_TRUE(findings.empty())
        << findings.front().file << ":" << findings.front().line
        << ": " << findings.front().message;
}

// ---------------------------------------------------------------------
// stale-suppression
// ---------------------------------------------------------------------

TEST(AnalyzeStaleSuppression, FlagsUnusedAllowAndUnknownRule)
{
    AnalyzeConfig config;
    config.files = {fixture("stale_bad.cc")};
    config.rules = {"determinism", "stale-suppression"};
    const auto findings = runAnalysis(config);
    ASSERT_EQ(findings.size(), 2u);
    EXPECT_TRUE(anyMessageContains(
        findings, "suppression of 'determinism' silences nothing"));
    EXPECT_TRUE(anyMessageContains(
        findings, "unknown rule 'determinsm'"));
    EXPECT_TRUE(anyMessageContains(
        findings, "did you mean 'determinism'?"));
    for (const Finding &f : findings)
        EXPECT_EQ(f.rule, "stale-suppression") << f.message;
}

TEST(AnalyzeStaleSuppression, UsedSuppressionIsClean)
{
    AnalyzeConfig config;
    config.files = {fixture("stale_clean.cc")};
    config.rules = {"determinism", "stale-suppression"};
    const auto findings = runAnalysis(config);
    EXPECT_TRUE(findings.empty())
        << findings.front().file << ":" << findings.front().line
        << ": " << findings.front().message;
}

// ---------------------------------------------------------------------
// did-you-mean
// ---------------------------------------------------------------------

TEST(AnalyzeSuggestRule, SuggestsNearMissesAndRejectsGarbage)
{
    EXPECT_EQ(suggestRule("lock-dicipline"), "lock-discipline");
    EXPECT_EQ(suggestRule("determinsm"), "determinism");
    EXPECT_EQ(suggestRule("hotpath"), "hot-path");
    EXPECT_EQ(suggestRule("qqqqqqqqqq"), "");
}

// ---------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------

TEST(AnalyzeJson, EmitsSchemaEscapedFieldsAndCount)
{
    std::vector<Finding> findings = {
        {"determinism", "a\"b.cc", 3, "uses 'rand()'\nbadly"},
    };
    std::ostringstream os;
    dlvp::analyze::printFindingsJson(findings, os);
    const std::string out = os.str();
    EXPECT_NE(out.find("\"schema\":\"dlvp-analyze-v1\""),
              std::string::npos);
    EXPECT_NE(out.find("\"rule\":\"determinism\""),
              std::string::npos);
    EXPECT_NE(out.find("a\\\"b.cc"), std::string::npos);
    EXPECT_NE(out.find("\\n"), std::string::npos);
    EXPECT_NE(out.find("\"count\":1"), std::string::npos);
    // Raw newlines would break line-oriented consumers.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 1);
}

// ---------------------------------------------------------------------
// Acceptance: the shipped source tree lints clean
// ---------------------------------------------------------------------

// Every rule family — the per-file PR-5 set plus layering,
// lock-discipline, hot-path, and stale-suppression — over every
// scanned top-level directory. config.rules stays empty so a rule
// added later is covered here by default.
TEST(AnalyzeRepo, SourceTreeIsClean)
{
    AnalyzeConfig config;
    namespace fs = std::filesystem;
    const fs::path root = DLVP_ANALYZE_REPO_ROOT;
    for (const char *sub : {"src", "tools", "bench", "examples"}) {
        if (!fs::exists(root / sub))
            continue;
        for (const auto &entry :
             fs::recursive_directory_iterator(root / sub)) {
            if (!entry.is_regular_file())
                continue;
            const std::string ext = entry.path().extension().string();
            if (ext == ".cc" || ext == ".hh" || ext == ".cpp")
                config.files.push_back(entry.path().string());
        }
    }
    std::sort(config.files.begin(), config.files.end());
    ASSERT_FALSE(config.files.empty());
    config.rootPath = root.string();
    config.layersPath = shippedLayersManifest();

    const auto findings = runAnalysis(config);
    for (const Finding &f : findings)
        ADD_FAILURE() << f.file << ":" << f.line << ": [" << f.rule
                      << "] " << f.message;
    EXPECT_TRUE(findings.empty());
}
