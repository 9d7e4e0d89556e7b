/**
 * @file
 * The benchmark's own arithmetic: medians, nearest-rank percentiles
 * with a sample-count guard, MIPS aggregation, ratio bases, and the
 * CoreStats digest and conservation laws the output checks use.
 *
 * Kept apart from the workload code so tests/test_bench_math.cc can
 * pin every formula a reported metric depends on.
 */

#ifndef PERFBENCH_BENCH_MATH_HH
#define PERFBENCH_BENCH_MATH_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/core_stats.hh"

namespace perfbench
{

/** Median; the mean of the two middle values for an even count. */
double median(std::vector<double> v);

/**
 * 1-based nearest rank of the @p q quantile in @p n samples:
 * ceil(q * n), clamped to [1, n]. A tiny epsilon keeps q * n that
 * lands on an integer (0.99 * 1000) from rounding up a rank.
 */
std::size_t nearestRank(std::size_t n, double q);

/** Samples strictly above the nearest-rank @p q quantile. */
std::size_t samplesBeyond(std::size_t n, double q);

/**
 * Nearest-rank @p q quantile of @p v, q in (0, 1]. A percentile is
 * only reported when samplesBeyond(v.size(), q) >= kMinBeyond; the
 * workloads count a shortfall as a failed check.
 */
double percentile(std::vector<double> v, double q);

/** Samples a reported percentile needs above it. */
inline constexpr std::size_t kMinBeyond = 10;

/** True when @p n samples support the @p q percentile. */
bool percentileSupported(std::size_t n, double q);

/** @p num / @p den, or 0 when the base is 0. */
double ratio(double num, double den);

/**
 * Host slowdown from gauge slice times: their median over
 * @p referenceS, or 1 when there are none. Host times are divided by
 * it, rates multiplied (gauge.hh).
 */
double slowdownOf(std::vector<double> sliceS, double referenceS);

/** Events per thousand committed instructions. */
double perKilo(std::uint64_t events, std::uint64_t insts);

/**
 * Aggregate simulated throughput: summed micro-ops over summed host
 * seconds, in millions per second. Never the mean of per-cell MIPS,
 * which would weight a short cell like a long one.
 */
class MipsSum
{
  public:
    void
    add(std::uint64_t uops, double seconds)
    {
        uops_ += uops;
        seconds_ += seconds;
    }

    std::uint64_t uops() const { return uops_; }
    double seconds() const { return seconds_; }
    double mips() const;

  private:
    std::uint64_t uops_ = 0;
    double seconds_ = 0.0;
};

/** FNV-1a 64 over every CoreStats counter, in X-macro order. */
std::uint64_t statsDigest(const dlvp::core::CoreStats &s);

/**
 * Conservation laws every finished run must satisfy; returns one
 * message per violated law (empty when all hold):
 *   vpCorrectLoads <= vpPredictedLoads <= vpEligibleLoads
 *   probeHits + probeMisses <= probes
 *   paqDrops <= paqAllocs
 */
std::vector<std::string>
conservationViolations(const dlvp::core::CoreStats &s);

} // namespace perfbench

#endif // PERFBENCH_BENCH_MATH_HH
