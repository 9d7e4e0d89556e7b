/**
 * @file
 * Directed tests of the DLVP machinery in the core: probe/PVT
 * delivery, chain collapse, LSCD on in-flight conflicts, way
 * misprediction, prefetch-on-miss, oracle replay, and PAQ behaviour.
 */

#include <gtest/gtest.h>

#include "core/core.hh"
#include "sim/configs.hh"
#include "trace/kernel_ctx.hh"

namespace
{

using namespace dlvp;
using namespace dlvp::trace;
using core::CoreParams;
using core::CoreStats;
using core::OoOCore;
using core::RecoveryMode;
using core::VpConfig;

CoreStats
runWith(const Trace &t, const VpConfig &vp)
{
    OoOCore c(CoreParams{}, vp, t);
    return c.run();
}

/**
 * Pointer ring: one load per step whose address is the previous
 * load's value; four static sites over four fixed addresses, so PAP
 * becomes confident quickly.
 */
Trace
pointerRing(int steps)
{
    Trace t;
    KernelCtx ctx(t, 42);
    const Addr base = 0x1000000;
    for (int i = 0; i < 4; ++i)
        ctx.mem().write(base + i * 64, base + ((i + 1) % 4) * 64, 8);
    ctx.sealInitialImage();
    Val cur = ctx.imm(0, base);
    Addr a = base;
    for (int it = 0; it < steps; ++it) {
        cur = ctx.load(4 + (it % 4) * 4, a, cur);
        a = cur.v;
    }
    return t;
}

TEST(CoreDlvp, CollapsesPointerChain)
{
    const auto t = pointerRing(20000);
    const auto base = runWith(t, sim::baselineVp());
    const auto dlvp = runWith(t, sim::dlvpConfig());
    EXPECT_EQ(base.committedInsts, dlvp.committedInsts);
    EXPECT_GT(dlvp.coverage(), 0.3);
    EXPECT_DOUBLE_EQ(dlvp.accuracy(), 1.0);
    EXPECT_LT(static_cast<double>(dlvp.cycles),
              static_cast<double>(base.cycles) * 0.8)
        << "value prediction must break the serial chain";
}

TEST(CoreDlvp, ProbesUseLaneBubbles)
{
    const auto t = pointerRing(5000);
    const auto s = runWith(t, sim::dlvpConfig());
    EXPECT_GT(s.probes, 0u);
    EXPECT_GT(s.probeHits, 0u);
    EXPECT_EQ(s.probeHits + s.probeMisses, s.probes);
}

TEST(CoreDlvp, PaqAccounting)
{
    const auto t = pointerRing(5000);
    const auto s = runWith(t, sim::dlvpConfig());
    // Every prediction allocates a PAQ entry; entries either probe or
    // drop. In this all-load stream some drops are expected; the
    // paper reports <0.1% on balanced workloads.
    EXPECT_EQ(s.paqAllocs,
              s.probes + s.paqDrops + /*squashed*/ (s.paqAllocs -
                                                    s.probes -
                                                    s.paqDrops));
    EXPECT_GT(s.paqAllocs, 0u);
}

Trace inflightConflictLoop(int iters);

TEST(CoreDlvp, LscdCatchesInflightConflict)
{
    // store X then reload X a few micro-ops later, forever: the
    // address is perfectly predictable but the value is written by an
    // in-flight store -> LSCD must capture the load PC and suppress
    // further predictions.
    const Trace t = inflightConflictLoop(10000);
    const auto s = runWith(t, sim::dlvpConfig());
    EXPECT_GT(s.lscdInserts, 0u);
    EXPECT_GT(s.lscdBlocked, 100u);
    // With LSCD the flush count stays bounded: in this trace every
    // load is conflicting, so the only predictions that slip through
    // are the ones that trigger (re-)insertion.
    EXPECT_LT(s.vpFlushes, 200u);
    EXPECT_LT(s.vpPredictedLoads, 200u)
        << "LSCD must suppress nearly all predictions here";
}

/** In-flight conflict loop with enough ALU work to leave LS bubbles. */
Trace
inflightConflictLoop(int iters)
{ // (declared above for use by earlier tests)
    Trace t;
    KernelCtx ctx(t, 7);
    ctx.mem().write(0x2000, 0, 8);
    ctx.sealInitialImage();
    for (int i = 0; i < iters; ++i) {
        Val d = ctx.imm(0, i);
        ctx.store(1, 0x2000, i, Val{}, d);
        Val v = ctx.load(2, 0x2000, Val{});
        Val w = ctx.alu(3, v.v + 1, v);
        for (int k = 0; k < 6; ++k)
            w = ctx.alu(4 + k, w.v + k, w);
    }
    return t;
}

TEST(CoreDlvp, LscdDisabledFloodsFlushes)
{
    const Trace t = inflightConflictLoop(8000);
    auto vp = sim::dlvpConfig();
    vp.useLscd = false;
    const auto with = runWith(t, sim::dlvpConfig());
    const auto without = runWith(t, vp);
    EXPECT_GT(without.vpFlushes, with.vpFlushes * 3)
        << "LSCD is what keeps in-flight conflicts from flushing";
}

TEST(CoreDlvp, CommittedConflictPredictsCorrectly)
{
    // The Challenge-#1 pattern DLVP exists for: value changes between
    // reads, but the store commits long before the next read. A
    // last-value predictor goes stale; the DLVP probe reads the
    // committed cache and stays correct.
    Trace t;
    KernelCtx ctx(t, 7);
    ctx.mem().write(0x2000, 0, 8);
    ctx.sealInitialImage();
    for (int i = 0; i < 60; ++i) {
        Val v = ctx.load(0, 0x2000, Val{});
        Val d = ctx.alu(1, v.v + 1, v);
        ctx.store(2, 0x2000, v.v + 1, Val{}, d);
        // Spacer: push the store out of the window before the next
        // iteration's load is fetched.
        Val spin[4] = {ctx.imm(3, 0), ctx.imm(3, 1), ctx.imm(3, 2),
                       ctx.imm(3, 3)};
        for (int k = 0; k < 400; ++k)
            spin[k & 3] = ctx.alu(4 + (k & 7), k, spin[k & 3]);
    }
    const auto s = runWith(t, sim::dlvpConfig());
    EXPECT_GT(s.vpPredictedLoads, 20u);
    EXPECT_DOUBLE_EQ(s.accuracy(), 1.0)
        << "committed-store conflicts must not mispredict";
    EXPECT_EQ(s.lscdInserts, 0u);
}

TEST(CoreDlvp, PrefetchOnProbeMiss)
{
    // Fixed, confidently-predicted addresses whose lines keep being
    // evicted by a sweep: the probe misses and issues a prefetch when
    // the feature is on.
    Trace t;
    KernelCtx ctx(t, 9);
    ctx.mem().write(0x100000, 7, 8);
    ctx.sealInitialImage();
    for (int pass = 0; pass < 1500; ++pass) {
        Val p = ctx.imm(0, 0x100000);
        Val v = ctx.load(2, 0x100000, p);
        Val w = ctx.alu(3, v.v, v);
        for (int k = 0; k < 6; ++k)
            w = ctx.alu(4 + k, w.v, w);
        // Evictor: sweep addresses over a tiny direct-mapped L1 so
        // the predicted line is periodically evicted.
        const Addr e = 0x200000 + (pass % 8) * 64;
        Val q = ctx.imm(12, e);
        ctx.load(14, e, q);
    }
    core::CoreParams small;
    small.memory.l1d = {"l1d", 512, 1, 64, 2};
    small.memory.enablePrefetcher = false;
    auto on = sim::dlvpConfig();
    on.dlvpPrefetch = true;
    auto off = sim::dlvpConfig();
    off.dlvpPrefetch = false;
    OoOCore c_on(small, on, t);
    const auto with = c_on.run();
    OoOCore c_off(small, off, t);
    const auto without = c_off.run();
    EXPECT_GT(with.probeMisses, 0u);
    EXPECT_GT(with.dlvpPrefetches, 0u);
    EXPECT_EQ(without.dlvpPrefetches, 0u);
}

TEST(CoreDlvp, OracleReplaySuppressesFlushes)
{
    // In-flight-conflict stream without LSCD: flush mode pays pipe
    // flushes, oracle replay converts them into no-predictions.
    const Trace t = inflightConflictLoop(8000);
    auto flush = sim::dlvpConfig();
    flush.useLscd = false;
    auto replay = flush;
    replay.recovery = RecoveryMode::OracleReplay;
    const auto f = runWith(t, flush);
    const auto r = runWith(t, replay);
    EXPECT_GT(f.vpFlushes, 0u);
    EXPECT_EQ(r.vpFlushes, 0u);
    EXPECT_GT(r.vpReplays, 0u);
    EXPECT_LE(r.cycles, f.cycles)
        << "replay recovery can only help (§5.2.4)";
}

TEST(CoreDlvp, WayPredictionTracksStableBlocks)
{
    const auto t = pointerRing(20000);
    const auto s = runWith(t, sim::dlvpConfig());
    // Ring blocks never move: way mispredictions "almost never
    // happen" (§3.2.2).
    EXPECT_EQ(s.wayMispredicts, 0u);
}

/**
 * One L1D set, five blocks: site 0 loads A, sites 1-4 load four
 * blocks of A's set and evict it, site 5 reloads A into another way,
 * and a spacer lets it all retire before site 0 comes round again.
 * A's way moves every iteration, so a trained way hint goes stale.
 */
Trace
wayShuffle(int iters)
{
    // 64 KB, 4-way, 64 B lines: blocks 16 KB apart share a set.
    const Addr a = 0x100000;
    const Addr setStride = 16 * 1024;
    Trace t;
    KernelCtx ctx(t, 5);
    for (unsigned k = 0; k < 5; ++k)
        ctx.mem().write(a + k * setStride, 7 + k, 8);
    ctx.sealInitialImage();
    for (int i = 0; i < iters; ++i) {
        Val w = ctx.load(0, a, Val{});
        for (unsigned k = 1; k <= 4; ++k)
            w = ctx.load(static_cast<int>(k), a + k * setStride, w);
        w = ctx.load(5, a, w);
        for (int k = 0; k < 40; ++k)
            w = ctx.alu(8 + (k & 7), w.v + k, w);
    }
    return t;
}

TEST(CoreDlvp, WayPredictionOffHasNoWayMispredicts)
{
    const auto t = wayShuffle(3000);
    const auto on = runWith(t, sim::dlvpConfig());
    ASSERT_GT(on.wayMispredicts, 0u)
        << "the trace must move A between ways";
    auto vp = sim::dlvpConfig();
    vp.pap.wayPrediction = false;
    const auto off = runWith(t, vp);
    EXPECT_GT(off.probes, 0u);
    EXPECT_EQ(off.wayMispredicts, 0u)
        << "without way prediction every probe searches all ways";
}

/**
 * Site 20 loads one of two addresses, chosen by which of sites 10/11
 * (different load-path bits) ran four loads earlier: only a history
 * longer than the three filler loads tells the two apart. Each
 * iteration has 17 loads, so a 16-bit history never sees the previous
 * iteration's choice and every load's path is fixed by its own.
 */
Trace
pathCorrelated(int iters)
{
    const Addr x[2] = {0x200000, 0x300000};
    Trace t;
    KernelCtx ctx(t, 9);
    ctx.mem().write(x[0], 1, 8);
    ctx.mem().write(x[1], 2, 8);
    ctx.mem().write(0x400000, 3, 8);
    ctx.sealInitialImage();
    for (int i = 0; i < iters; ++i) {
        const unsigned r = static_cast<unsigned>(ctx.rng().below(2));
        Val w = ctx.load(10 + static_cast<int>(r), 0x400000, Val{});
        for (int k = 0; k < 3; ++k)
            w = ctx.load(13 + k, 0x400000, w);
        w = ctx.load(20, x[r], w);
        for (int k = 0; k < 12; ++k)
            w = ctx.load(24 + k, 0x400000, w);
    }
    return t;
}

TEST(CoreDlvp, PapHistoryWidthReachesTheCore)
{
    const auto t = pathCorrelated(4000);
    auto wide = sim::dlvpConfig();
    wide.pap.histBits = 16;
    auto narrow = wide;
    narrow.pap.histBits = 2;
    const auto w = runWith(t, wide);
    const auto n = runWith(t, narrow);
    EXPECT_FALSE(w == n)
        << "the core's load-path history must take PAP's width";
    EXPECT_GT(w.vpCorrectLoads, n.vpCorrectLoads)
        << "a 2-bit path cannot see which site chose the address";
}

TEST(CoreDlvp, MultiDestLoadPredictedWithOneEntry)
{
    // An LDM with stable values: DLVP predicts the base address and
    // the probe returns every destination.
    Trace t;
    KernelCtx ctx(t, 11);
    for (unsigned i = 0; i < 6; ++i)
        ctx.mem().write(0x3000 + i * 8, 100 + i, 8);
    ctx.sealInitialImage();
    for (int it = 0; it < 6000; ++it) {
        Val p = ctx.imm(0, 0x3000);
        auto regs = ctx.loadMulti(2, 0x3000, p, 6);
        ctx.alu(3, regs[0].v + regs[5].v, regs[0], regs[5]);
    }
    const auto s = runWith(t, sim::dlvpConfig());
    EXPECT_GT(s.coverage(), 0.4);
    EXPECT_DOUBLE_EQ(s.accuracy(), 1.0);
}

TEST(CoreDlvp, AtomicsNeverPredicted)
{
    Trace t;
    KernelCtx ctx(t, 13);
    ctx.mem().write(0x4000, 0, 8);
    ctx.sealInitialImage();
    for (int i = 0; i < 3000; ++i) {
        Val v = ctx.atomic(0, 0x4000, i, Val{});
        ctx.alu(1, v.v, v);
    }
    const auto s = runWith(t, sim::dlvpConfig());
    EXPECT_EQ(s.vpPredictedLoads, 0u)
        << "address prediction skips atomics (§3.2.2)";
}

TEST(CoreDlvp, StatsConsistency)
{
    const auto t = pointerRing(20000);
    const auto s = runWith(t, sim::dlvpConfig());
    EXPECT_LE(s.vpCorrectLoads, s.vpPredictedLoads);
    EXPECT_LE(s.vpPredictedLoads, s.committedLoads);
    EXPECT_EQ(s.addrPredCorrect + s.addrPredWrong,
              s.addrPredCorrect + s.addrPredWrong);
    EXPECT_LE(s.probeHits, s.probes);
}

} // namespace
