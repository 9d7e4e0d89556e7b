/**
 * @file
 * Unit and property tests for the set-associative cache model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"

namespace
{

using namespace dlvp;
using mem::Cache;
using mem::CacheParams;

CacheParams
smallCache()
{
    return {"test", 1024, 2, 64, 2}; // 8 sets x 2 ways x 64B
}

TEST(Cache, ColdMissThenHit)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x103f)); // same block
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, SetIndexing)
{
    Cache c(smallCache());
    // 8 sets, 64B blocks: addresses 0x0 and 0x200 map to the same set
    // (0x200 = 8 * 64), different tags.
    c.access(0x0);
    c.access(0x200);
    EXPECT_TRUE(c.contains(0x0));
    EXPECT_TRUE(c.contains(0x200));
    // Third distinct tag in the same 2-way set evicts the LRU (0x0).
    c.access(0x400);
    EXPECT_FALSE(c.contains(0x0));
    EXPECT_TRUE(c.contains(0x200));
    EXPECT_TRUE(c.contains(0x400));
}

TEST(Cache, LruPreservesRecentlyUsed)
{
    Cache c(smallCache());
    c.access(0x0);
    c.access(0x200);
    c.access(0x0); // touch: 0x200 becomes LRU
    c.access(0x400);
    EXPECT_TRUE(c.contains(0x0));
    EXPECT_FALSE(c.contains(0x200));
}

TEST(Cache, WayOfTracksPlacement)
{
    Cache c(smallCache());
    EXPECT_EQ(c.wayOf(0x0), -1);
    c.access(0x0);
    const int w = c.wayOf(0x0);
    EXPECT_GE(w, 0);
    EXPECT_LT(w, 2);
    // Re-access must not move the block.
    c.access(0x0);
    EXPECT_EQ(c.wayOf(0x0), w);
}

TEST(Cache, ProbeDoesNotFill)
{
    Cache c(smallCache());
    const auto r = c.probe(0x1000, -1);
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(c.contains(0x1000));
}

TEST(Cache, ProbeHitsAndReportsWay)
{
    Cache c(smallCache());
    c.access(0x1000);
    const auto r = c.probe(0x1000, -1);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.way, c.wayOf(0x1000));
}

TEST(Cache, WayMispredictionDetected)
{
    Cache c(smallCache());
    c.access(0x1000);
    const int w = c.wayOf(0x1000);
    const auto wrong = c.probe(0x1000, w ^ 1);
    EXPECT_FALSE(wrong.hit);
    EXPECT_TRUE(wrong.wayMispredict);
    const auto right = c.probe(0x1000, w);
    EXPECT_TRUE(right.hit);
    EXPECT_FALSE(right.wayMispredict);
}

TEST(Cache, ProbeUpdatesLru)
{
    Cache c(smallCache());
    c.access(0x0);
    c.access(0x200);
    c.probe(0x0, -1); // touch via probe
    c.access(0x400);  // evicts 0x200, not 0x0
    EXPECT_TRUE(c.contains(0x0));
    EXPECT_FALSE(c.contains(0x200));
}

TEST(Cache, FillInstalls)
{
    Cache c(smallCache());
    const int w = c.fill(0x3000);
    EXPECT_GE(w, 0);
    EXPECT_TRUE(c.contains(0x3000));
    EXPECT_EQ(c.hits(), 0u) << "fill is not a demand access";
}

TEST(Cache, Invalidate)
{
    Cache c(smallCache());
    c.access(0x1000);
    c.invalidate(0x1000);
    EXPECT_FALSE(c.contains(0x1000));
    c.invalidate(0x9999); // no-op on absent blocks
}

TEST(Cache, BlockAddrMasks)
{
    Cache c(smallCache());
    EXPECT_EQ(c.blockAddr(0x1234), 0x1200u);
    EXPECT_EQ(c.blockAddr(0x1200), 0x1200u);
}

TEST(Cache, ResetStatsKeepsContents)
{
    Cache c(smallCache());
    c.access(0x1000);
    c.resetStats();
    EXPECT_EQ(c.misses(), 0u);
    EXPECT_TRUE(c.contains(0x1000));
}

/** Property: a direct-mapped cache holds exactly one tag per set. */
TEST(Cache, DirectMappedConflicts)
{
    Cache c({"dm", 512, 1, 64, 1}); // 8 sets x 1 way
    c.access(0x0);
    c.access(0x200); // same set
    EXPECT_FALSE(c.contains(0x0));
    EXPECT_TRUE(c.contains(0x200));
}

/** Property: capacity is respected under random access streams. */
class CacheCapacity : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CacheCapacity, NeverExceedsCapacity)
{
    const unsigned assoc = GetParam();
    Cache c({"cap", 64 * 16 * assoc, assoc, 64, 1});
    Rng rng(assoc);
    // Access far more blocks than fit, then count residents.
    std::vector<Addr> blocks;
    for (int i = 0; i < 500; ++i) {
        const Addr a = rng.below(1 << 20) << 6;
        c.access(a);
        blocks.push_back(a);
    }
    unsigned resident = 0;
    std::set<Addr> uniq(blocks.begin(), blocks.end());
    for (const Addr a : uniq)
        if (c.contains(a))
            ++resident;
    EXPECT_LE(resident, 16u * assoc);
}

INSTANTIATE_TEST_SUITE_P(Assocs, CacheCapacity,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

/**
 * Property: an LRU cache of N blocks always hits on a cyclic working
 * set of <= N blocks mapping to the same set, and always misses when
 * the set is one larger than the associativity.
 */
TEST(Cache, LruCyclicSweep)
{
    Cache c({"lru", 4 * 64, 4, 64, 1}); // 1 set x 4 ways
    for (int round = 0; round < 3; ++round)
        for (Addr b = 0; b < 4; ++b)
            c.access(b * 64);
    EXPECT_EQ(c.misses(), 4u) << "only cold misses for a fitting set";

    Cache c2({"lru2", 4 * 64, 4, 64, 1});
    std::uint64_t misses_before = 0;
    for (int round = 0; round < 3; ++round)
        for (Addr b = 0; b < 5; ++b)
            c2.access(b * 64);
    misses_before = c2.misses();
    EXPECT_EQ(misses_before, 15u)
        << "LRU thrash: a 5-block cyclic sweep misses every time";
}

/**
 * Drive @p c with a seeded mix of demand accesses, way-predicted
 * probes, fills and invalidations, and log everything it reports:
 * hits, ways, way mispredictions and the final counters. Half the
 * blocks pile into set 0, so its LRU victims are exercised too.
 */
std::vector<std::uint64_t>
cacheProbeLog(Cache &c, std::uint64_t seed)
{
    const Addr block = c.params().blockBytes;
    const std::uint64_t lines = std::uint64_t{c.numSets()} *
                                c.params().assoc;
    Rng rng(seed);
    std::vector<std::uint64_t> log;
    for (int i = 0; i < 20000; ++i) {
        const Addr a =
            rng.below(2) == 0
                ? rng.below(2 * c.params().assoc) * c.numSets() * block
                : rng.below(std::min<std::uint64_t>(2 * lines, 4096)) *
                      block;
        switch (rng.below(5)) {
        case 0:
        case 1:
            log.push_back(c.access(a));
            break;
        case 2: {
            const int way =
                static_cast<int>(rng.below(c.params().assoc + 1)) - 1;
            const Cache::ProbeResult r = c.probe(a, way);
            log.push_back(r.hit);
            log.push_back(static_cast<std::uint64_t>(r.way));
            log.push_back(r.wayMispredict);
            break;
        }
        case 3:
            log.push_back(static_cast<std::uint64_t>(c.fill(a)));
            break;
        default:
            c.invalidate(a);
            log.push_back(static_cast<std::uint64_t>(c.wayOf(a)));
            break;
        }
    }
    log.push_back(c.hits());
    log.push_back(c.misses());
    return log;
}

/**
 * clear() returns a used cache to its constructed state: one probe
 * sequence observes the same hits, misses, ways and counters after a
 * clear as on a fresh cache. clear() hands the line array's pages back
 * to the kernel instead of zeroing them; the L3-sized case spans many
 * pages.
 */
TEST(Cache, ClearMatchesFreshConstruction)
{
    for (const CacheParams &p :
         {smallCache(), CacheParams{"l3", 8 * 1024 * 1024, 16, 128, 32}}) {
        Cache fresh(p);
        const auto expected = cacheProbeLog(fresh, 1);
        Cache used(p);
        (void)cacheProbeLog(used, 2);
        used.clear();
        EXPECT_EQ(cacheProbeLog(used, 1), expected) << p.name;
    }
}

/** Next block of each PC's strided load stream. */
using Streams = std::array<std::uint64_t, 16>;

/**
 * Drive @p m with strided and random loads from a few PCs (so the
 * stride prefetcher issues fills), store commits, instruction fetches
 * and DLVP probes, and log every latency, hit flag and way it reports
 * plus the per-level counters. Each PC's stream resumes at
 * @p streams, so a run can continue the strides an earlier run
 * trained.
 */
std::vector<std::uint64_t>
hierarchyProbeLog(mem::MemoryHierarchy &m, std::uint64_t seed,
                  Streams &streams)
{
    Rng rng(seed);
    std::vector<std::uint64_t> log;
    Cycle now = 0;
    for (int i = 0; i < 20000; ++i) {
        now += rng.below(4);
        const unsigned k = static_cast<unsigned>(rng.below(16));
        const Addr pc = 0x400000 + 4 * k;
        // Loads follow their PC's stream (one in eight strays); stores
        // and probes hit the streams' neighbourhood at random.
        const Addr base = 0x10000000 + 0x100000 * k;
        Addr addr = base + 64 * rng.below(streams[k] + 4);
        switch (rng.below(4)) {
        case 0:
        case 1: {
            if (rng.below(8) != 0)
                addr = base + 64 * streams[k]++;
            const mem::AccessResult r = m.loadAccess(pc, addr, now);
            log.push_back(r.latency);
            log.push_back(r.l1Hit);
            log.push_back(r.tlbMiss);
            break;
        }
        case 2:
            m.storeCommit(addr, now);
            log.push_back(static_cast<std::uint64_t>(m.l1dWayOf(addr)));
            break;
        default: {
            log.push_back(m.fetchAccess(pc + 0x1000 * rng.below(64), now));
            const int way = static_cast<int>(rng.below(5)) - 1;
            const Cache::ProbeResult r = m.probe(addr, way);
            log.push_back(r.hit);
            log.push_back(static_cast<std::uint64_t>(r.way));
            log.push_back(r.wayMispredict);
            break;
        }
        }
    }
    log.push_back(m.prefetchesIssued());
    log.push_back(m.tlbMisses());
    for (Cache *c : {&m.l1d(), &m.l2(), &m.l3()}) {
        log.push_back(c->hits());
        log.push_back(c->misses());
    }
    return log;
}

/**
 * clear() returns a used hierarchy to its constructed state: caches,
 * TLB, prefetcher training, pending prefetch fills and counters. The
 * same traffic then sees the same latencies, hits and ways as on a
 * fresh hierarchy, even where it continues the strides the used
 * hierarchy's prefetcher was trained on.
 */
TEST(Hierarchy, ClearMatchesFreshConstruction)
{
    mem::MemoryHierarchy used(mem::HierarchyParams{});
    Streams streams{};
    (void)hierarchyProbeLog(used, 2, streams);
    used.clear();
    Streams resumed = streams;
    const auto afterClear = hierarchyProbeLog(used, 1, resumed);

    mem::MemoryHierarchy fresh(mem::HierarchyParams{});
    EXPECT_EQ(hierarchyProbeLog(fresh, 1, streams), afterClear);
    EXPECT_GT(fresh.prefetchesIssued(), 0u);
}

} // namespace
