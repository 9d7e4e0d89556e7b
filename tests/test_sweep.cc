/**
 * @file
 * Tests for the parallel sweep engine (sim/sweep.hh) and its
 * substrate: the thread pool, the build-once thread-safe trace
 * store, and the hard requirement that parallel sweeps are
 * bit-identical to serial ones.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "sim/configs.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"

namespace
{

using namespace dlvp;
using namespace dlvp::sim;

// ---- thread pool ----

TEST(ThreadPool, RunsAllJobsAndReturnsValues)
{
    ThreadPool pool(4);
    std::vector<std::future<int>> futs;
    for (int i = 0; i < 100; ++i)
        futs.push_back(pool.submit([i] { return i * i; }));
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(futs[i].get(), i * i);
}

TEST(ThreadPool, PropagatesExceptions)
{
    ThreadPool pool(2);
    auto ok = pool.submit([] { return 7; });
    // Deliberately foreign type: exercises exception normalization.
    auto bad = pool.submit( // dlvp-analyze: allow(error-taxonomy)
        []() -> int { throw std::runtime_error("boom"); });
    EXPECT_EQ(ok.get(), 7);
    EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ThreadPool, SingleThreadExecutesFifo)
{
    ThreadPool pool(1);
    std::vector<int> order;
    std::vector<std::future<void>> futs;
    for (int i = 0; i < 16; ++i)
        futs.push_back(pool.submit([&order, i] { order.push_back(i); }));
    for (auto &f : futs)
        f.get();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, DefaultJobsHonorsEnv)
{
    setenv("DLVP_JOBS", "3", 1);
    EXPECT_EQ(ThreadPool::defaultJobs(), 3u);
    setenv("DLVP_JOBS", "0", 1); // invalid: fall back to hardware
    EXPECT_GE(ThreadPool::defaultJobs(), 1u);
    unsetenv("DLVP_JOBS");
    EXPECT_GE(ThreadPool::defaultJobs(), 1u);
}

// ---- trace store ----

TEST(TraceStore, ConcurrentAcquiresBuildOnce)
{
    TraceStore store;
    std::vector<std::thread> threads;
    std::vector<std::shared_ptr<const trace::Trace>> got(8);
    for (int i = 0; i < 8; ++i)
        threads.emplace_back([&store, &got, i] {
            got[i] = store.acquire("mcf", 8000);
        });
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(store.buildCount(), 1u)
        << "eight concurrent acquires must share one build";
    for (int i = 1; i < 8; ++i)
        EXPECT_EQ(got[0].get(), got[i].get())
            << "all acquirers share the same trace object";
    EXPECT_EQ(got[0]->size(), 8000u);
}

TEST(TraceStore, EvictionDoesNotInvalidateInFlightUsers)
{
    TraceStore store;
    auto held = store.acquire("crafty", 6000);
    EXPECT_EQ(store.cachedCount(), 1u);
    EXPECT_TRUE(store.evict("crafty", 6000));
    EXPECT_EQ(store.cachedCount(), 0u);
    // The refcounted reference must stay fully usable.
    EXPECT_EQ(held->size(), 6000u);
    Simulator sim(baselineCore(), 6000, &store);
    const auto stats = sim.run(*held, baselineVp());
    EXPECT_GT(stats.cycles, 0u);
    // Re-acquire rebuilds (the store no longer holds it).
    auto again = store.acquire("crafty", 6000);
    EXPECT_EQ(store.buildCount(), 2u);
    EXPECT_NE(held.get(), again.get());
}

TEST(TraceStore, EvictUnknownKeyIsSafe)
{
    TraceStore store;
    EXPECT_FALSE(store.evict("no-such-workload", 1000));
    EXPECT_FALSE(store.evict("mcf", 999999));
}

TEST(TraceStore, DistinctInstCountsAreDistinctEntries)
{
    TraceStore store;
    auto a = store.acquire("mcf", 4000);
    auto b = store.acquire("mcf", 5000);
    EXPECT_EQ(store.buildCount(), 2u);
    EXPECT_EQ(a->size(), 4000u);
    EXPECT_EQ(b->size(), 5000u);
}

TEST(Simulator, EvictUnknownNameIsSafe)
{
    Simulator s(baselineCore(), 5000);
    s.evict("never-built"); // must not crash or throw
}

// ---- determinism ----

SweepSpec
smallSpec(unsigned jobs)
{
    SweepSpec spec;
    // Every non-baseline catalog config, so the parallel-vs-serial
    // check covers variants that no golden row pins.
    for (const ConfigDesc &c : configCatalog())
        if (std::string(c.name) != "baseline")
            spec.configs.push_back({c.name, c.make()});
    spec.workloads = {"perlbmk", "mcf", "crafty", "vpr"};
    spec.insts = 12000;
    spec.core = baselineCore();
    spec.baseline = baselineVp();
    spec.jobs = jobs;
    return spec;
}

TEST(Sweep, ParallelIsBitIdenticalToSerial)
{
    TraceStore serial_store, parallel_store;
    auto s1 = smallSpec(1);
    s1.store = &serial_store;
    auto s8 = smallSpec(8);
    s8.store = &parallel_store;
    const auto serial = runSweep(s1);
    const auto parallel = runSweep(s8);
    ASSERT_EQ(serial.rows.size(), parallel.rows.size());
    for (std::size_t wi = 0; wi < serial.rows.size(); ++wi) {
        const auto &a = serial.rows[wi];
        const auto &b = parallel.rows[wi];
        EXPECT_EQ(a.workload, b.workload);
        EXPECT_TRUE(a.baseline == b.baseline)
            << "baseline CoreStats differ on " << a.workload;
        ASSERT_TRUE(a.baselineOutcome.ok() && b.baselineOutcome.ok())
            << a.workload;
        ASSERT_EQ(a.results.size(), b.results.size());
        for (std::size_t ci = 0; ci < a.results.size(); ++ci) {
            ASSERT_TRUE(a.cellOk(ci) && b.cellOk(ci))
                << "row " << a.workload << " config "
                << s1.configs[ci].name << " failed";
            EXPECT_TRUE(a.results[ci] == b.results[ci])
                << "row " << a.workload << " config "
                << s1.configs[ci].name
                << " differs between 1 and 8 threads";
        }
    }
}

TEST(Sweep, JobSeedDependsOnlyOnNames)
{
    EXPECT_EQ(jobSeed("mcf", "dlvp"), jobSeed("mcf", "dlvp"));
    EXPECT_NE(jobSeed("mcf", "dlvp"), jobSeed("mcf", "vtage"));
    EXPECT_NE(jobSeed("mcf", "dlvp"), jobSeed("vpr", "dlvp"));
    // Concatenation boundary must matter.
    EXPECT_NE(deriveSeed("ab", "c"), deriveSeed("a", "bc"));
}

TEST(Sweep, EvictsTracesAsWorkloadsFinish)
{
    TraceStore store;
    auto spec = smallSpec(4);
    spec.store = &store;
    (void)runSweep(spec);
    EXPECT_EQ(store.cachedCount(), 0u)
        << "each workload's trace is evicted after its last job";
    EXPECT_EQ(store.buildCount(), spec.workloads.size())
        << "each trace built exactly once despite every job sharing it";
}

TEST(Sweep, ProgressCounterReachesTotal)
{
    TraceStore store;
    auto spec = smallSpec(4);
    spec.workloads = {"perlbmk", "mcf"};
    spec.store = &store;
    std::atomic<std::size_t> max_done{0}, calls{0};
    spec.progress = [&](std::size_t done, std::size_t total) {
        EXPECT_LE(done, total);
        std::size_t prev = max_done.load();
        while (done > prev &&
               !max_done.compare_exchange_weak(prev, done)) {
        }
        ++calls;
    };
    (void)runSweep(spec);
    // 2 workloads x (baseline + every config) jobs.
    const std::size_t jobs = 2 * (1 + spec.configs.size());
    EXPECT_EQ(max_done.load(), jobs);
    EXPECT_EQ(calls.load(), jobs);
}

// ---- JSON report ----

TEST(Sweep, JsonReportHasSchemaRowsAndSummary)
{
    TraceStore store;
    auto spec = smallSpec(4);
    spec.workloads = {"perlbmk", "mcf"};
    spec.store = &store;
    const auto result = runSweep(spec);
    std::ostringstream os;
    writeSweepJson(os, result);
    const auto s = os.str();
    EXPECT_NE(s.find("\"schema\": \"dlvp-sweep-v1\""),
              std::string::npos);
    EXPECT_NE(s.find("\"insts\": 12000"), std::string::npos);
    EXPECT_NE(s.find("\"workload\": \"perlbmk\""), std::string::npos);
    EXPECT_NE(s.find("\"config\": \"vtage\""), std::string::npos);
    EXPECT_NE(s.find("\"amean_speedup\""), std::string::npos);
    EXPECT_NE(s.find("\"geomean_speedup\""), std::string::npos);
    EXPECT_NE(s.find("\"cycles\""), std::string::npos);
    // Wall-clock telemetry rides along with every stats row.
    EXPECT_NE(s.find("\"wall_ms\""), std::string::npos);
    EXPECT_NE(s.find("\"mips\""), std::string::npos);
    EXPECT_NE(s.find("\"pages\""), std::string::npos);
}

TEST(Sweep, HugeDeadlineIsNoDeadline)
{
    // A budget past the clock's range is no deadline at all: it must
    // not overflow into one that expired before the first cell.
    TraceStore store;
    auto spec = smallSpec(2);
    spec.workloads = {"mcf"};
    spec.store = &store;
    spec.deadlineMs = 1e300;
    spec.core.maxWallMs = 1e300;
    const auto result = runSweep(spec);
    ASSERT_EQ(result.rows.size(), 1u);
    EXPECT_EQ(result.rows[0].baselineOutcome.status, JobStatus::Ok)
        << result.rows[0].baselineOutcome.error;
    for (const auto &o : result.rows[0].outcomes)
        EXPECT_EQ(o.status, JobStatus::Ok) << o.error;
    EXPECT_EQ(result.failedJobs(), 0u);
}

TEST(Sweep, RowsCarryRunPerfTelemetry)
{
    TraceStore store;
    auto spec = smallSpec(4);
    spec.workloads = {"perlbmk"};
    spec.store = &store;
    const auto result = runSweep(spec);
    ASSERT_EQ(result.rows.size(), 1u);
    const auto &row = result.rows[0];
    ASSERT_EQ(row.perf.size(), spec.configs.size());
    EXPECT_GT(row.baselinePerf.wallMs, 0.0);
    EXPECT_GT(row.baselinePerf.mips, 0.0);
    EXPECT_GT(row.baselinePerf.pagesTouched, 0u);
    for (const auto &p : row.perf) {
        EXPECT_GT(p.wallMs, 0.0);
        EXPECT_GT(p.mips, 0.0);
        EXPECT_GT(p.pagesTouched, 0u);
    }
}

} // namespace
