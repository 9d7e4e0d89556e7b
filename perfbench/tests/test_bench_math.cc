/**
 * @file
 * Tests of the benchmark's own math (bench_math.hh): every formula a
 * reported metric or output check depends on. Run with
 * `python3 perfbench/run.py --selftest`.
 */

#include <gtest/gtest.h>

#include <vector>

#include "bench_math.hh"
#include "gauge.hh"

namespace perfbench
{
namespace
{

TEST(BenchMath, MedianOddEvenAndEmpty)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(BenchMath, NearestRankIsExactOnIntegerProducts)
{
    // 0.99 * 1000 is not exactly 990 in binary; the rank must be.
    EXPECT_EQ(nearestRank(1000, 0.99), 990u);
    EXPECT_EQ(nearestRank(100, 0.90), 90u);
    EXPECT_EQ(nearestRank(101, 0.90), 91u);
    EXPECT_EQ(nearestRank(20, 0.5), 10u);
    EXPECT_EQ(nearestRank(1, 0.99), 1u);
    EXPECT_EQ(nearestRank(5, 1.0), 5u);
}

TEST(BenchMath, PercentileNeedsTenSamplesBeyond)
{
    EXPECT_EQ(samplesBeyond(1000, 0.99), 10u);
    EXPECT_TRUE(percentileSupported(1000, 0.99));
    EXPECT_FALSE(percentileSupported(999, 0.99));
    EXPECT_TRUE(percentileSupported(100, 0.90));
    EXPECT_FALSE(percentileSupported(99, 0.90));
    EXPECT_TRUE(percentileSupported(20, 0.50));
    EXPECT_FALSE(percentileSupported(19, 0.50));
    EXPECT_FALSE(percentileSupported(0, 0.50));
}

TEST(BenchMath, PercentileIsNearestRank)
{
    std::vector<double> v;
    for (int i = 1000; i >= 1; --i)
        v.push_back(i);
    EXPECT_DOUBLE_EQ(percentile(v, 0.99), 990.0);
    EXPECT_DOUBLE_EQ(percentile(v, 0.50), 500.0);
    EXPECT_DOUBLE_EQ(percentile(v, 1.0), 1000.0);
    EXPECT_DOUBLE_EQ(percentile({7.0}, 0.9), 7.0);
}

TEST(BenchMath, MipsIsRatioOfSumsNotMeanOfRatios)
{
    MipsSum m;
    m.add(1000000, 1.0); // 1 MIPS
    m.add(9000000, 1.0); // 9 MIPS
    EXPECT_DOUBLE_EQ(m.mips(), 5.0);
    MipsSum skew;
    skew.add(1000000, 1.0);  // 1 MIPS over one second
    skew.add(1000000, 0.01); // 100 MIPS over 10 ms
    // A mean of ratios would read 50.5.
    EXPECT_NEAR(skew.mips(), 2.0 / 1.01, 1e-12);
    EXPECT_DOUBLE_EQ(MipsSum{}.mips(), 0.0);
}

TEST(BenchMath, RatioBases)
{
    EXPECT_DOUBLE_EQ(ratio(3.0, 4.0), 0.75);
    EXPECT_DOUBLE_EQ(ratio(3.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(perKilo(5, 10000), 0.5);
    EXPECT_DOUBLE_EQ(perKilo(5, 0), 0.0);
}

TEST(BenchMath, HostSlowdownIsMedianSliceOverReference)
{
    EXPECT_DOUBLE_EQ(slowdownOf({2e-3, 1e-3, 9e-3}, 1e-3), 2.0);
    EXPECT_DOUBLE_EQ(slowdownOf({1e-3, 3e-3}, 4e-3), 0.5);
    EXPECT_DOUBLE_EQ(slowdownOf({}, 1e-3), 1.0);
}

TEST(BenchMath, GaugeRecordsSlicesAndRanges)
{
    HostGauge g;
    EXPECT_DOUBLE_EQ(g.slowdown(0, 0), 1.0);
    g.sample(3);
    EXPECT_EQ(g.count(), 3u);
    EXPECT_GT(g.totalSeconds(), 0.0);
    EXPECT_GT(g.slowdown(0, 3), 0.0);
    // Empty or out-of-range spans read as no slowdown.
    EXPECT_DOUBLE_EQ(g.slowdown(2, 2), 1.0);
    EXPECT_DOUBLE_EQ(g.slowdown(1, 4), 1.0);
}

TEST(BenchMath, DigestCoversEveryCounter)
{
    const dlvp::core::CoreStats base;
    const std::uint64_t d0 = statsDigest(base);
    EXPECT_EQ(statsDigest(base), d0);
#define PERFBENCH_FLIP(f)                                                 \
    {                                                                     \
        dlvp::core::CoreStats s;                                          \
        s.f = 1;                                                          \
        EXPECT_NE(statsDigest(s), d0) << #f;                              \
    }
    DLVP_CORE_STATS_FIELDS(PERFBENCH_FLIP)
#undef PERFBENCH_FLIP
    // Field order matters: the same value in two fields differs.
    dlvp::core::CoreStats a, b;
    a.cycles = 7;
    b.committedInsts = 7;
    EXPECT_NE(statsDigest(a), statsDigest(b));
}

TEST(BenchMath, ConservationLaws)
{
    dlvp::core::CoreStats s;
    s.vpEligibleLoads = 10;
    s.vpPredictedLoads = 8;
    s.vpCorrectLoads = 7;
    s.probes = 5;
    s.probeHits = 3;
    s.probeMisses = 2;
    s.paqAllocs = 4;
    s.paqDrops = 4;
    EXPECT_TRUE(conservationViolations(s).empty());

    dlvp::core::CoreStats bad = s;
    bad.vpCorrectLoads = 9;
    EXPECT_EQ(conservationViolations(bad).size(), 1u);
    bad = s;
    bad.vpPredictedLoads = 11;
    bad.vpCorrectLoads = 7;
    EXPECT_EQ(conservationViolations(bad).size(), 1u);
    bad = s;
    bad.probeMisses = 3;
    EXPECT_EQ(conservationViolations(bad).size(), 1u);
    bad = s;
    bad.paqDrops = 5;
    EXPECT_EQ(conservationViolations(bad).size(), 1u);
}

} // namespace
} // namespace perfbench
