/**
 * @file
 * End-to-end tests of the fault-tolerance layer (ctest label
 * "fault"): deterministic fault injection (common/fault_inject.hh)
 * drives every recovery path — per-job isolation, bounded retry,
 * trace-store failure caching, core watchdogs, the sweep deadline —
 * and the hard contract that fault-free rows of a faulty sweep are
 * bit-identical to a clean run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault_inject.hh"
#include "common/run_error.hh"
#include "core/core.hh"
#include "sim/configs.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "trace/workloads.hh"

namespace
{

using namespace dlvp;
using namespace dlvp::sim;
using common::ErrorKind;
using common::FaultPlan;
using common::RunError;

/** Scoped global fault plan; restores the empty plan on exit. */
struct PlanGuard
{
    explicit PlanGuard(const std::string &spec)
    {
        FaultPlan::setGlobal(spec);
    }
    ~PlanGuard() { FaultPlan::clearGlobal(); }
};

SweepSpec
gridSpec(TraceStore &store, unsigned jobs = 2)
{
    SweepSpec spec;
    spec.configs = {{"dlvp", dlvpConfig()}, {"vtage", vtageConfig()}};
    spec.workloads = {"perlbmk", "mcf", "crafty"};
    spec.insts = 8000;
    spec.core = baselineCore();
    spec.baseline = baselineVp();
    spec.jobs = jobs;
    spec.store = &store;
    spec.retryBackoffMs = 0; // keep tests fast
    return spec;
}

void
expectRowsIdentical(const SweepRow &a, const SweepRow &b)
{
    EXPECT_TRUE(a.baseline == b.baseline) << a.workload;
    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t ci = 0; ci < a.results.size(); ++ci)
        EXPECT_TRUE(a.results[ci] == b.results[ci])
            << a.workload << " config " << ci;
}

// ---- FaultPlan parsing ----

TEST(FaultPlan, ParsesEveryRuleKind)
{
    const auto plan = FaultPlan::parse(
        "build:mcf@2;stall:vpr/dlvp=50;trunc:128;flip:7.3;seed=42");
    EXPECT_FALSE(plan.empty());
    EXPECT_EQ(plan.seed(), 42u);
    EXPECT_EQ(plan.stallMs("vpr", "dlvp"), 50u);
    EXPECT_EQ(plan.stallMs("vpr", "vtage"), 0u);
    EXPECT_EQ(plan.stallMs("mcf", "dlvp"), 0u);
}

TEST(FaultPlan, EmptySpecIsEmptyPlan)
{
    EXPECT_TRUE(FaultPlan::parse("").empty());
    EXPECT_TRUE(FaultPlan{}.empty());
}

TEST(FaultPlan, RejectsMalformedSpecs)
{
    for (const char *bad :
         {"build", "build:", "bogus:mcf", "stall:mcf", "flip:12",
          "flip:1.9", "trunc:xyz", "build:mcf@0", "seed",
          // The batched-column lane rule is gone; a stale plan that
          // still names it must fail loudly, not inject nothing.
          "lane:mcf"}) {
        EXPECT_THROW((void)FaultPlan::parse(bad), RunError) << bad;
    }
    try {
        (void)FaultPlan::parse("bogus:mcf");
        FAIL();
    } catch (const RunError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Internal);
    }
}

TEST(FaultPlan, RejectsSignedAndWrappingNumbers)
{
    // strtoull-style wrapping would turn each of these into a rule
    // with a huge operand that never fires — a malformed plan
    // silently degrading to "no faults injected".
    for (const char *bad :
         {"trunc:-1", "flip:-1.3", "flip:3.-1", "stall:mcf=-5",
          "build:mcf@-2", "seed=-7", "trunc:+4", "trunc: 4",
          "trunc:18446744073709551616",       // 2^64, overflows
          "trunc:99999999999999999999999"}) { // way past 2^64
        EXPECT_THROW((void)FaultPlan::parse(bad), RunError) << bad;
    }
    // The maximum representable value itself still parses.
    EXPECT_FALSE(
        FaultPlan::parse("trunc:18446744073709551615").empty());
}

TEST(FaultPlan, RejectsStallBeyondSleepRange)
{
    // stallMs() feeds a 32-bit sleep; wider values would truncate to
    // an arbitrary different delay.
    EXPECT_THROW((void)FaultPlan::parse("stall:mcf=4294967296"),
                 RunError);
    EXPECT_EQ(FaultPlan::parse("stall:mcf=4294967295")
                  .stallMs("mcf", "dlvp"),
              4294967295u);
}

TEST(FaultPlan, NthBuildCountsPerRule)
{
    const auto plan = FaultPlan::parse("build:mcf@2");
    EXPECT_FALSE(plan.failBuild("mcf"));   // 1st build survives
    EXPECT_TRUE(plan.failBuild("mcf"));    // 2nd fails
    EXPECT_FALSE(plan.failBuild("mcf"));   // 3rd survives again
    EXPECT_FALSE(plan.failBuild("crafty")); // other keys untouched
}

TEST(FaultPlan, WildcardMatchesEveryWorkload)
{
    const auto plan = FaultPlan::parse("build:*");
    EXPECT_TRUE(plan.failBuild("mcf"));
    EXPECT_TRUE(plan.failBuild("crafty"));
}

TEST(FaultPlan, CorruptTruncatesAndFlips)
{
    const auto plan = FaultPlan::parse("trunc:4;flip:1.0");
    std::string bytes = "abcdefgh";
    EXPECT_TRUE(plan.corrupt(bytes));
    EXPECT_EQ(bytes, std::string("a") + static_cast<char>('b' ^ 1) +
                         "cd");
}

// ---- structured errors ----

TEST(RunError, KindNamesAreStable)
{
    EXPECT_STREQ(common::errorKindName(ErrorKind::TraceBuild),
                 "trace_build");
    EXPECT_STREQ(common::errorKindName(ErrorKind::SimDeadlock),
                 "sim_deadlock");
    EXPECT_STREQ(common::errorKindName(ErrorKind::IoCorrupt),
                 "io_corrupt");
}

TEST(RunError, UnknownWorkloadIsTraceBuildError)
{
    try {
        (void)trace::WorkloadRegistry::build("no-such-workload", 100);
        FAIL() << "unknown workload must throw";
    } catch (const RunError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::TraceBuild);
        EXPECT_TRUE(e.transient()) << e.describe();
    }
}

// ---- per-job isolation ----

TEST(FaultSweep, MidGridFailureCompletesRemainingRows)
{
    TraceStore clean_store;
    auto clean_spec = gridSpec(clean_store);
    const auto clean = runSweep(clean_spec);

    PlanGuard guard("build:mcf");
    TraceStore store;
    auto spec = gridSpec(store);
    const auto result = runSweep(spec);

    ASSERT_EQ(result.rows.size(), 3u);
    // The faulty row is structured, not fatal.
    const auto &mcf = result.rows[1];
    EXPECT_EQ(mcf.workload, "mcf");
    EXPECT_EQ(mcf.status(), JobStatus::Failed);
    EXPECT_FALSE(mcf.baselineOutcome.ok());
    EXPECT_EQ(mcf.baselineOutcome.errorKind, ErrorKind::TraceBuild);
    EXPECT_NE(mcf.baselineOutcome.error.find("injected"),
              std::string::npos);
    // Retry happened (trace_build is transient) and also failed.
    EXPECT_EQ(mcf.baselineOutcome.attempts, 2u);

    // Fault-free rows are bit-identical to the clean run.
    EXPECT_EQ(result.rows[0].status(), JobStatus::Ok);
    EXPECT_EQ(result.rows[2].status(), JobStatus::Ok);
    expectRowsIdentical(result.rows[0], clean.rows[0]);
    expectRowsIdentical(result.rows[2], clean.rows[2]);

    // Means skip the dead row instead of asserting on zero cycles.
    EXPECT_GT(result.geomeanSpeedup(0), 0.0);
    EXPECT_EQ(result.failedJobs(), 3u); // baseline + 2 configs
}

TEST(FaultSweep, TransientFailureIsRetriedBitIdentically)
{
    TraceStore clean_store;
    auto clean_spec = gridSpec(clean_store);
    const auto clean = runSweep(clean_spec);

    // Only the first build attempt of crafty fails; the in-job retry
    // rebuilds and must reproduce the clean stats exactly (the
    // per-job seed is derived from names, not attempt count).
    PlanGuard guard("build:crafty@1");
    TraceStore store;
    auto spec = gridSpec(store, /*jobs=*/1);
    const auto result = runSweep(spec);

    const auto &crafty = result.rows[2];
    EXPECT_EQ(crafty.workload, "crafty");
    EXPECT_EQ(crafty.status(), JobStatus::Retried);
    EXPECT_TRUE(crafty.baselineOutcome.ok());
    EXPECT_EQ(result.failedJobs(), 0u);
    expectRowsIdentical(crafty, clean.rows[2]);
    // Exactly one cell paid the retry.
    unsigned retried = 0;
    for (const auto &row : result.rows) {
        if (row.baselineOutcome.status == JobStatus::Retried)
            ++retried;
        for (const auto &o : row.outcomes)
            if (o.status == JobStatus::Retried)
                ++retried;
    }
    EXPECT_EQ(retried, 1u);
}

TEST(FaultSweep, StatusesAreDeterministicAcrossJobCounts)
{
    PlanGuard guard("build:mcf");
    TraceStore s1, s4;
    auto spec1 = gridSpec(s1, 1);
    auto spec4 = gridSpec(s4, 4);
    const auto r1 = runSweep(spec1);
    const auto r4 = runSweep(spec4);
    ASSERT_EQ(r1.rows.size(), r4.rows.size());
    for (std::size_t wi = 0; wi < r1.rows.size(); ++wi) {
        EXPECT_EQ(r1.rows[wi].status(), r4.rows[wi].status());
        if (r1.rows[wi].status() == JobStatus::Ok)
            expectRowsIdentical(r1.rows[wi], r4.rows[wi]);
    }
}

// ---- trace store failure caching ----

TEST(FaultStore, FailedSlotIsEvictedSoRetryRebuilds)
{
    PlanGuard guard("build:mcf@1");
    TraceStore store;
    EXPECT_THROW((void)store.acquire("mcf", 4000), RunError);
    EXPECT_EQ(store.failedBuildAttempts("mcf", 4000), 1u);
    // The failed slot must not be cache-hit: the next acquire
    // rebuilds (and the plan only kills attempt 1).
    auto tr = store.acquire("mcf", 4000);
    EXPECT_EQ(tr->size(), 4000u);
    EXPECT_EQ(store.buildCount(), 2u);
    // Success resets the failure budget.
    EXPECT_EQ(store.failedBuildAttempts("mcf", 4000), 0u);
}

TEST(FaultStore, RebuildAttemptsAreBounded)
{
    PlanGuard guard("build:mcf");
    TraceStore store;
    for (unsigned i = 0; i < TraceStore::kMaxBuildAttempts + 2; ++i)
        EXPECT_THROW((void)store.acquire("mcf", 4000), RunError);
    // Builds stop at the attempt cap; later acquires rethrow the
    // cached failure instead of re-running a doomed build.
    EXPECT_EQ(store.buildCount(),
              std::size_t{TraceStore::kMaxBuildAttempts});
    EXPECT_EQ(store.failedBuildAttempts("mcf", 4000),
              TraceStore::kMaxBuildAttempts);
    // An explicit evict clears the pinned failure so an operator can
    // force another attempt.
    store.evict("mcf", 4000);
    EXPECT_THROW((void)store.acquire("mcf", 4000), RunError);
    EXPECT_EQ(store.buildCount(),
              std::size_t{TraceStore::kMaxBuildAttempts} + 1);
}

// ---- core watchdogs ----

TEST(Watchdog, TinyNoCommitBudgetRaisesSimDeadlock)
{
    TraceStore store;
    auto tr = store.acquire("mcf", 4000);
    core::CoreParams params = baselineCore();
    params.maxNoCommitCycles = 3; // commit latency alone exceeds this
    try {
        core::OoOCore core(params, baselineVp(), *tr);
        (void)core.run();
        FAIL() << "expected sim_deadlock";
    } catch (const RunError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::SimDeadlock);
        EXPECT_NE(std::string(e.what()).find("no commit"),
                  std::string::npos);
    }
}

TEST(Watchdog, TinyWallBudgetRaisesSimTimeout)
{
    TraceStore store;
    auto tr = store.acquire("mcf", 60000);
    core::CoreParams params = baselineCore();
    params.maxWallMs = 1e-3; // expired by the first sampled check
    try {
        core::OoOCore core(params, baselineVp(), *tr);
        (void)core.run();
        FAIL() << "expected sim_timeout";
    } catch (const RunError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::SimTimeout);
    }
}

TEST(Watchdog, DeadlockSurfacesAsFailedSweepRow)
{
    TraceStore store;
    auto spec = gridSpec(store, 1);
    spec.workloads = {"mcf"};
    spec.core.maxNoCommitCycles = 3;
    const auto result = runSweep(spec);
    ASSERT_EQ(result.rows.size(), 1u);
    EXPECT_EQ(result.rows[0].status(), JobStatus::Failed);
    EXPECT_EQ(result.rows[0].baselineOutcome.errorKind,
              ErrorKind::SimDeadlock);
    // Deterministic faults are not retried.
    EXPECT_EQ(result.rows[0].baselineOutcome.attempts, 1u);
}

// ---- sweep deadline ----

TEST(Deadline, ExpiredDeadlineCancelsQueuedJobsCleanly)
{
    TraceStore store;
    auto spec = gridSpec(store, 2);
    spec.deadlineMs = 1e-3; // expired before any job starts
    const auto result = runSweep(spec);
    ASSERT_EQ(result.rows.size(), 3u);
    for (const auto &row : result.rows) {
        EXPECT_EQ(row.status(), JobStatus::Timeout) << row.workload;
        EXPECT_EQ(row.baselineOutcome.errorKind,
                  ErrorKind::SimTimeout);
        for (const auto &o : row.outcomes)
            EXPECT_EQ(o.status, JobStatus::Timeout);
    }
    // Cancelled cells still ran their bookkeeping: no leaked traces.
    EXPECT_EQ(store.cachedCount(), 0u);
    EXPECT_EQ(result.failedJobs(), 9u);
}

TEST(Deadline, GenerousDeadlineChangesNothing)
{
    TraceStore clean_store, dl_store;
    auto clean_spec = gridSpec(clean_store);
    const auto clean = runSweep(clean_spec);
    auto spec = gridSpec(dl_store);
    spec.deadlineMs = 10.0 * 60.0 * 1000.0;
    const auto result = runSweep(spec);
    ASSERT_EQ(result.rows.size(), clean.rows.size());
    for (std::size_t wi = 0; wi < clean.rows.size(); ++wi) {
        EXPECT_EQ(result.rows[wi].status(), JobStatus::Ok);
        expectRowsIdentical(result.rows[wi], clean.rows[wi]);
    }
}

// ---- JSON report ----

TEST(FaultJson, PartialGridIsReportableWithStatuses)
{
    PlanGuard guard("build:mcf");
    TraceStore store;
    auto spec = gridSpec(store);
    const auto result = runSweep(spec);
    std::ostringstream os;
    writeSweepJson(os, result);
    const std::string s = os.str();
    EXPECT_NE(s.find("\"schema\": \"dlvp-sweep-v1\""),
              std::string::npos);
    EXPECT_NE(s.find("\"status\": \"ok\""), std::string::npos);
    EXPECT_NE(s.find("\"status\": \"failed\""), std::string::npos);
    EXPECT_NE(s.find("\"error_kind\": \"trace_build\""),
              std::string::npos);
    EXPECT_NE(s.find("\"failed_jobs\": 3"), std::string::npos);
    // Healthy rows still carry their stats and telemetry.
    EXPECT_NE(s.find("\"wall_ms\""), std::string::npos);
    // Structural sanity: balanced braces/brackets, even quote count.
    long depth = 0, quotes = 0;
    bool in_string = false, escaped = false;
    for (const char c : s) {
        if (escaped) {
            escaped = false;
            continue;
        }
        if (c == '\\') {
            escaped = true;
        } else if (c == '"') {
            in_string = !in_string;
            ++quotes;
        } else if (!in_string && (c == '{' || c == '[')) {
            ++depth;
        } else if (!in_string && (c == '}' || c == ']')) {
            --depth;
            EXPECT_GE(depth, 0);
        }
    }
    EXPECT_EQ(depth, 0);
    EXPECT_EQ(quotes % 2, 0);
    EXPECT_FALSE(in_string);
}

// ---- randomized fault storm (flush-storm style) ----

TEST(FaultStorm, RandomPlansNeverCrashAndSpareHealthyRows)
{
    const std::vector<std::string> all = {"perlbmk", "mcf", "crafty",
                                          "vpr"};
    // Clean reference, one store per run to keep builds independent.
    TraceStore clean_store;
    SweepSpec clean_spec;
    clean_spec.configs = {{"dlvp", dlvpConfig()}};
    clean_spec.workloads = all;
    clean_spec.insts = 6000;
    clean_spec.core = baselineCore();
    clean_spec.baseline = baselineVp();
    clean_spec.jobs = 2;
    clean_spec.store = &clean_store;
    const auto clean = runSweep(clean_spec);

    std::mt19937_64 rng(FaultPlan::parse("seed=20260805").seed());
    for (int round = 0; round < 6; ++round) {
        // Random subset of workloads fails (possibly empty).
        std::vector<bool> dead(all.size());
        std::string plan;
        for (std::size_t i = 0; i < all.size(); ++i) {
            dead[i] = (rng() & 3) == 0;
            if (dead[i]) {
                if (!plan.empty())
                    plan += ';';
                plan += "build:";
                plan += all[i];
            }
        }
        PlanGuard guard(plan);
        TraceStore store;
        auto spec = clean_spec;
        spec.store = &store;
        spec.retryBackoffMs = 0;
        spec.jobs = 1 + static_cast<unsigned>(rng() % 4);
        const auto result = runSweep(spec);
        ASSERT_EQ(result.rows.size(), all.size());
        for (std::size_t i = 0; i < all.size(); ++i) {
            if (dead[i]) {
                EXPECT_EQ(result.rows[i].status(), JobStatus::Failed)
                    << "round " << round << " " << all[i];
                EXPECT_EQ(result.rows[i].baselineOutcome.errorKind,
                          ErrorKind::TraceBuild);
            } else {
                EXPECT_EQ(result.rows[i].status(), JobStatus::Ok)
                    << "round " << round << " " << all[i];
                expectRowsIdentical(result.rows[i], clean.rows[i]);
            }
        }
    }
}

// ---- cache:/conn: rules (the dlvp-serve fault surface) ----

TEST(FaultPlan, ParsesCacheAndConnRules)
{
    const auto plan = FaultPlan::parse(
        "cache:kill-journal@1;conn:drop;cache:flip-entry");
    EXPECT_FALSE(plan.empty());
    // kill-journal is @1: fires on the first consult only.
    EXPECT_TRUE(plan.cacheOp("kill-journal"));
    EXPECT_FALSE(plan.cacheOp("kill-journal"));
    // flip-entry is unnumbered: fires every time.
    EXPECT_TRUE(plan.cacheOp("flip-entry"));
    EXPECT_TRUE(plan.cacheOp("flip-entry"));
    // Ops not in the plan never fire; kinds don't cross-match.
    EXPECT_FALSE(plan.cacheOp("kill-entry"));
    EXPECT_FALSE(plan.cacheOp("drop"));
    EXPECT_TRUE(plan.connOp("drop"));
    EXPECT_FALSE(plan.connOp("kill-journal"));
}

TEST(FaultPlan, CacheRuleCountsAreDeterministicPerRule)
{
    const auto plan = FaultPlan::parse("conn:trunc@3");
    EXPECT_FALSE(plan.connOp("trunc"));
    EXPECT_FALSE(plan.connOp("trunc"));
    EXPECT_TRUE(plan.connOp("trunc"));
    EXPECT_FALSE(plan.connOp("trunc"));
}

TEST(FaultPlan, RejectsMalformedCacheAndConnRules)
{
    for (const char *bad :
         {"cache:", "conn:", "cache:@1", "cache:kill-entry@0",
          "cache:Kill-Entry", "conn:drop@", "cache:kill entry",
          "conn:drop@x", "cache:kill_entry"}) {
        EXPECT_THROW((void)FaultPlan::parse(bad), RunError) << bad;
    }
    // The documented ops all parse.
    EXPECT_FALSE(FaultPlan::parse("cache:kill-entry;cache:kill-"
                                  "rename;cache:kill-journal;"
                                  "cache:trunc-entry;cache:flip-"
                                  "entry;conn:drop;conn:trunc;"
                                  "conn:garble")
                     .empty());
}

// ---- retry backoff (sim/sweep.cc) ----

TEST(RetryBackoff, ZeroBaseAndFirstAttemptSleepNothing)
{
    EXPECT_EQ(retryDelayMs(0, 5, 123), 0u);
    EXPECT_EQ(retryDelayMs(10, 0, 123), 0u);
    EXPECT_EQ(retryDelayMs(10, 1, 123), 0u);
}

TEST(RetryBackoff, ExponentialIsCappedWithJitterInRange)
{
    const std::uint64_t seed = jobSeed("mcf", "dlvp");
    for (unsigned attempt = 2; attempt < 40; ++attempt) {
        const unsigned d = retryDelayMs(5, attempt, seed);
        const std::uint64_t uncapped =
            std::uint64_t{5}
            << std::min(attempt - 2, 20u); // pre-cap exponential
        const std::uint64_t cap =
            std::min(uncapped, kMaxRetryBackoffMs);
        EXPECT_LE(d, cap) << "attempt " << attempt;
        EXPECT_GE(d, cap / 2) << "attempt " << attempt;
        EXPECT_GT(d, 0u) << "attempt " << attempt;
    }
    // An uncapped doubling would be 5 << 30 ms ≈ 62 days by attempt
    // 32; the cap keeps every delay within the bounded ceiling.
    EXPECT_LE(retryDelayMs(5, 32, seed), kMaxRetryBackoffMs);
}

TEST(RetryBackoff, JitterIsDeterministicPerSeedAndSpreadsAcrossSeeds)
{
    // Same (seed, attempt) → same delay, under any schedule.
    for (unsigned attempt = 2; attempt < 12; ++attempt)
        EXPECT_EQ(retryDelayMs(5, attempt, jobSeed("mcf", "dlvp")),
                  retryDelayMs(5, attempt, jobSeed("mcf", "dlvp")));
    // Different jobs should not all sleep the same amount (that
    // thundering herd is what the jitter exists to break up).
    std::vector<unsigned> delays;
    for (const char *w : {"mcf", "vpr", "gzip", "crafty", "parser",
                          "twolf", "gap", "eon"})
        delays.push_back(retryDelayMs(40, 6, jobSeed(w, "dlvp")));
    std::sort(delays.begin(), delays.end());
    const auto uniques = static_cast<std::size_t>(
        std::unique(delays.begin(), delays.end()) - delays.begin());
    EXPECT_GE(uniques, 3u);
}

} // namespace
