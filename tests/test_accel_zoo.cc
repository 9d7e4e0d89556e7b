/**
 * @file
 * Predictor-zoo tests (ctest label "zoo"): unit behaviour of the
 * post-registry accelerators (BALCVP, Hermes), the LoadAccelerator
 * registry round-trip — every registered key constructs, snapshots,
 * and restores its speculative state under a synthetic flush storm —
 * 1-vs-8-thread sweep bit-identity for the new configurations, and the
 * partitioned tournament's coverage against the naive one.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/run_error.hh"
#include "pred/accel.hh"
#include "pred/balcvp.hh"
#include "pred/hermes.hh"
#include "sim/configs.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "trace/instruction.hh"

namespace
{

using namespace dlvp;
using namespace dlvp::pred;

// ---------------------------------------------------------------------
// BALCVP
// ---------------------------------------------------------------------

constexpr Addr kPc = 0x400100;

/** Commit the same value often enough to clear the eq threshold. */
void
stabilize(Balcvp &b, Addr pc, unsigned dest, std::uint64_t value,
          unsigned times = 8)
{
    for (unsigned i = 0; i < times; ++i)
        b.train(pc, dest, value);
}

TEST(BalcvpTest, ColdLookupDoesNotPredict)
{
    Balcvp b{BalcvpParams{}};
    EXPECT_FALSE(b.predict(kPc, 0).valid);
    EXPECT_EQ(b.specDepth(), 0u);
}

TEST(BalcvpTest, PredictsAfterStableCommittedValues)
{
    Balcvp b{BalcvpParams{}};
    stabilize(b, kPc, 0, 42);
    const auto p = b.predict(kPc, 0);
    ASSERT_TRUE(p.valid);
    EXPECT_EQ(p.value, 42u);
    EXPECT_EQ(b.specDepth(), 1u);
    b.resolve();
    EXPECT_EQ(b.specDepth(), 0u);
}

TEST(BalcvpTest, ConflictingCommitHalvesConfidence)
{
    Balcvp b{BalcvpParams{}};
    stabilize(b, kPc, 0, 42);
    ASSERT_TRUE(b.predict(kPc, 0).valid);
    b.resolve();

    // One conflicting committed value (a store retired between two
    // executions of the load) halves eq and bumps ne — below the
    // prediction bar in one step.
    b.train(kPc, 0, 43);
    EXPECT_FALSE(b.predict(kPc, 0).valid);

    // Confidence rebuilds slowly, now around the new value.
    stabilize(b, kPc, 0, 43);
    const auto p = b.predict(kPc, 0);
    ASSERT_TRUE(p.valid);
    EXPECT_EQ(p.value, 43u);
}

TEST(BalcvpTest, DestinationsAreIndependent)
{
    Balcvp b{BalcvpParams{}};
    stabilize(b, kPc, 0, 7);
    EXPECT_TRUE(b.predict(kPc, 0).valid);
    EXPECT_FALSE(b.predict(kPc, 1).valid);
}

TEST(BalcvpTest, SpecDistanceGateWithholdsBeyondRewindDepth)
{
    BalcvpParams params;
    params.maxSpecDistance = 4;
    Balcvp b{params};
    stabilize(b, kPc, 0, 42);

    for (unsigned i = 0; i < 4; ++i)
        EXPECT_TRUE(b.predict(kPc, 0).valid) << "speculation " << i;
    // Beyond the recovery model's rewind depth: withhold.
    EXPECT_FALSE(b.predict(kPc, 0).valid);
    b.resolve();
    EXPECT_TRUE(b.predict(kPc, 0).valid);
    b.flushResync();
    EXPECT_EQ(b.specDepth(), 0u);
}

TEST(BalcvpTest, SnapshotRestoreRewindsDepth)
{
    Balcvp b{BalcvpParams{}};
    stabilize(b, kPc, 0, 42);
    (void)b.predict(kPc, 0);
    (void)b.predict(kPc, 0);
    const std::uint32_t snap = b.snapshotSpecDepth();
    EXPECT_EQ(snap, 2u);
    (void)b.predict(kPc, 0);
    (void)b.predict(kPc, 0);
    EXPECT_EQ(b.specDepth(), 4u);
    b.restoreSpecDepth(snap);
    EXPECT_EQ(b.specDepth(), 2u);
}

// ---------------------------------------------------------------------
// Hermes
// ---------------------------------------------------------------------

TEST(HermesTest, DefaultBiasPredictsSlow)
{
    Hermes h{HermesParams{}};
    // Zero weights sit exactly at the activation threshold.
    EXPECT_TRUE(h.predictSlow(kPc, 0, 0));
}

TEST(HermesTest, LearnsFastLoadsAndStopsAtTheta)
{
    Hermes h{HermesParams{}};
    // Each fast observation moves 3 feature weights + bias by -1, so
    // the sum drops by 4: four updates reach -16, past theta (14).
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_TRUE(h.trainLatency(kPc, 0, 0, 3)) << "update " << i;
    EXPECT_FALSE(h.predictSlow(kPc, 0, 0));
    // Correct classification outside the theta margin: no write.
    EXPECT_FALSE(h.trainLatency(kPc, 0, 0, 3));
}

TEST(HermesTest, RelearnsSlowLoads)
{
    Hermes h{HermesParams{}};
    for (unsigned i = 0; i < 4; ++i)
        h.trainLatency(kPc, 0, 0, 3);
    ASSERT_FALSE(h.predictSlow(kPc, 0, 0));
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_TRUE(h.trainLatency(kPc, 0, 0, 200)) << "update " << i;
    EXPECT_TRUE(h.predictSlow(kPc, 0, 0));
}

TEST(HermesTest, ValuePredictionRequiresLvpConfidence)
{
    Hermes h{HermesParams{}};
    EXPECT_FALSE(h.predictValue(kPc, 0).valid);
    EXPECT_EQ(h.specInflight(), 0u);
    // The embedded LVP's FPC needs ~64 agreeing observations; its
    // stochastic increments are deterministic under the fixed seed.
    for (unsigned i = 0; i < 2000; ++i)
        h.trainValue(kPc, 0, 7);
    const auto p = h.predictValue(kPc, 0);
    ASSERT_TRUE(p.valid);
    EXPECT_EQ(p.value, 7u);
    EXPECT_EQ(h.specInflight(), 1u);
    h.resolve();
    EXPECT_EQ(h.specInflight(), 0u);
}

TEST(HermesTest, SpecInflightGateAndSnapshotRestore)
{
    HermesParams params;
    params.maxSpecInflight = 2;
    Hermes h{params};
    for (unsigned i = 0; i < 2000; ++i)
        h.trainValue(kPc, 0, 7);

    EXPECT_TRUE(h.predictValue(kPc, 0).valid);
    const std::uint32_t snap = h.snapshotSpecInflight();
    EXPECT_EQ(snap, 1u);
    EXPECT_TRUE(h.predictValue(kPc, 0).valid);
    // Budget exhausted: gate off until resolution or flush.
    EXPECT_FALSE(h.predictValue(kPc, 0).valid);
    h.restoreSpecInflight(snap);
    EXPECT_EQ(h.specInflight(), 1u);
    EXPECT_TRUE(h.predictValue(kPc, 0).valid);
    h.flushResync();
    EXPECT_EQ(h.specInflight(), 0u);
}

// ---------------------------------------------------------------------
// Registry round-trip
// ---------------------------------------------------------------------

trace::TraceInst
syntheticLoad(Addr pc)
{
    trace::TraceInst inst;
    inst.pc = pc;
    inst.cls = trace::OpClass::Load;
    inst.numDests = 2;
    inst.destBase = 4;
    inst.memSize = 8;
    inst.memAddr = 0x20000 + (pc & 0xff0);
    return inst;
}

TEST(AccelRegistry, CatalogConstructsEveryKey)
{
    const auto catalog = acceleratorCatalog();
    ASSERT_FALSE(catalog.empty());
    // Strictly ascending: no key twice, and list-predictors prints
    // the table in key order.
    for (std::size_t i = 1; i < catalog.size(); ++i)
        EXPECT_LT(std::string(catalog[i - 1].key), catalog[i].key);
    for (const AccelInfo &info : catalog) {
        SCOPED_TRACE(info.key);
        auto accel = makeAccelerator(info.key, AccelParams{});
        ASSERT_NE(accel, nullptr);
        EXPECT_NE(std::string(info.description), "");
        // The spec-state token must round-trip even when untouched.
        const std::uint64_t token = accel->specStateToken();
        accel->restoreSpecState(token);
        EXPECT_EQ(accel->specStateToken(), token);
    }
}

TEST(AccelRegistry, UnknownKeyThrowsRunError)
{
    EXPECT_THROW((void)makeAccelerator("no-such-accel", AccelParams{}),
                 common::RunError);
}

/**
 * Synthetic flush storm over every registered accelerator: interleave
 * fetch-time predictions, execute/commit training, snapshot/restore,
 * and full flushes, asserting the snapshot token always round-trips
 * and a full flush always lands back on the empty-pipeline token.
 */
TEST(AccelRegistry, SpecStateSurvivesFlushStorm)
{
    for (const AccelInfo &info : acceleratorCatalog()) {
        SCOPED_TRACE(info.key);
        auto accel = makeAccelerator(info.key, AccelParams{});
        std::uint64_t lookups = 0, writes = 0;
        AccelStats stats{lookups, writes};

        accel->flushResync();
        const std::uint64_t empty = accel->specStateToken();

        std::array<std::uint64_t, trace::kMaxDests> actuals{};
        actuals[0] = 11;
        actuals[1] = 22;
        for (unsigned iter = 0; iter < 200; ++iter) {
            const trace::TraceInst inst =
                syntheticLoad(kPc + (iter % 4) * 16);
            const AccelFetchContext ctx{iter * 3, iter * 5};

            AccelValuePredictions vpred;
            if (accel->predictsValues())
                accel->predictValues(inst, ctx, vpred, stats);
            if (accel->predictsAddresses())
                (void)accel->predictAddress(inst, 0, ctx, stats);

            if (accel->trainsAtExecute()) {
                AccelExecInfo ei;
                ei.inst = &inst;
                ei.addrTrainable = true;
                ei.ghr = ctx.ghr;
                ei.lph = ctx.lph;
                ei.l1dWay = 0;
                ei.latency = (iter % 3 == 0) ? 100 : 4;
                ei.valueMask = vpred.mask;
                ei.probeValues = &actuals;
                ei.values = &vpred.values;
                ei.actualValues = &actuals;
                accel->trainAtExecute(ei, stats);
            }
            if (accel->trainsAtCommit()) {
                AccelCommitInfo ci;
                ci.inst = &inst;
                ci.ghr = ctx.ghr;
                ci.valueMask = vpred.mask;
                ci.probeValues = &actuals;
                ci.values = &vpred.values;
                ci.actualValues = &actuals;
                accel->trainAtCommit(ci, stats);
            }

            // A snapshot taken at any depth must restore losslessly.
            if (iter % 7 == 0) {
                const std::uint64_t token = accel->specStateToken();
                accel->restoreSpecState(token);
                EXPECT_EQ(accel->specStateToken(), token)
                    << "iteration " << iter;
            }
            // A full flush drains everything speculative.
            if (iter % 13 == 0) {
                accel->flushResync();
                EXPECT_EQ(accel->specStateToken(), empty)
                    << "iteration " << iter;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Sweep determinism for the zoo configurations
// ---------------------------------------------------------------------

sim::SweepSpec
zooSpec(unsigned jobs)
{
    sim::SweepSpec spec;
    spec.configs = {{"balcvp", sim::balcvpConfig()},
                    {"hermes", sim::hermesConfig()}};
    spec.workloads = {"perlbmk", "mcf"};
    spec.insts = 8000;
    spec.core = sim::baselineCore();
    spec.baseline = sim::baselineVp();
    spec.jobs = jobs;
    return spec;
}

TEST(ZooSweep, ParallelIsBitIdenticalToSerial)
{
    sim::TraceStore serial_store, parallel_store;
    auto s1 = zooSpec(1);
    s1.store = &serial_store;
    auto s8 = zooSpec(8);
    s8.store = &parallel_store;
    const auto serial = sim::runSweep(s1);
    const auto parallel = sim::runSweep(s8);
    ASSERT_EQ(serial.rows.size(), parallel.rows.size());
    for (std::size_t wi = 0; wi < serial.rows.size(); ++wi) {
        const auto &a = serial.rows[wi];
        const auto &b = parallel.rows[wi];
        EXPECT_EQ(a.workload, b.workload);
        ASSERT_EQ(a.results.size(), b.results.size());
        for (std::size_t ci = 0; ci < a.results.size(); ++ci)
            EXPECT_TRUE(a.results[ci] == b.results[ci])
                << a.workload << " config " << ci
                << " differs between 1 and 8 threads";
    }
}

// ---------------------------------------------------------------------
// Partitioned tournament
// ---------------------------------------------------------------------

TEST(PartitionedTournament, RunsAndCoversAtLeastAsMuch)
{
    sim::Simulator s(sim::baselineCore(), 80000);
    const auto naive = s.run("pdfjs", sim::tournamentConfig());
    const auto part =
        s.run("pdfjs", sim::partitionedTournamentConfig());
    EXPECT_EQ(naive.committedInsts, part.committedInsts);
    // Partitioning frees VTAGE capacity; combined coverage must not
    // collapse (it usually grows on overlap-heavy workloads).
    EXPECT_GT(part.coverage(), naive.coverage() * 0.9);
    EXPECT_GT(part.accuracy(), 0.95);
}

} // namespace
