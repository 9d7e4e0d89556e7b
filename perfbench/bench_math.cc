#include "bench_math.hh"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench
{

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::size_t
nearestRank(std::size_t n, double q)
{
    if (n == 0)
        return 0;
    const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
    return std::clamp<std::size_t>(static_cast<std::size_t>(
                                       std::max(r, 1.0)),
                                   1, n);
}

std::size_t
samplesBeyond(std::size_t n, double q)
{
    return n - nearestRank(n, q);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    const std::size_t rank = nearestRank(v.size(), q);
    std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
    return v[rank - 1];
}

bool
percentileSupported(std::size_t n, double q)
{
    return n > 0 && samplesBeyond(n, q) >= kMinBeyond;
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

double
slowdownOf(std::vector<double> sliceS, double referenceS)
{
    return sliceS.empty() ? 1.0 : median(std::move(sliceS)) / referenceS;
}

double
perKilo(std::uint64_t events, std::uint64_t insts)
{
    return ratio(1000.0 * static_cast<double>(events),
                 static_cast<double>(insts));
}

double
MipsSum::mips() const
{
    return ratio(static_cast<double>(uops_), seconds_ * 1e6);
}

std::uint64_t
statsDigest(const dlvp::core::CoreStats &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
#define PERFBENCH_DIGEST_FIELD(f) mix(static_cast<std::uint64_t>(s.f));
    DLVP_CORE_STATS_FIELDS(PERFBENCH_DIGEST_FIELD)
#undef PERFBENCH_DIGEST_FIELD
    return h;
}

std::vector<std::string>
conservationViolations(const dlvp::core::CoreStats &s)
{
    std::vector<std::string> out;
    if (s.vpCorrectLoads > s.vpPredictedLoads)
        out.push_back("vpCorrectLoads > vpPredictedLoads");
    if (s.vpPredictedLoads > s.vpEligibleLoads)
        out.push_back("vpPredictedLoads > vpEligibleLoads");
    if (s.probeHits + s.probeMisses > s.probes)
        out.push_back("probeHits + probeMisses > probes");
    if (s.paqDrops > s.paqAllocs)
        out.push_back("paqDrops > paqAllocs");
    return out;
}

} // namespace perfbench
