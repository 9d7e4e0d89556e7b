#include "gauge.hh"

#include <cmath>

#include "bench.hh"
#include "bench_math.hh"

namespace perfbench
{

namespace
{

/** Steps of every chain per slice: about 0.5 ms on the reference host. */
constexpr std::size_t kSliceSteps = 100000;

} // namespace

void
HostGauge::sample(unsigned n)
{
    for (unsigned k = 0; k < n; ++k) {
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < kSliceSteps; ++i) {
            for (std::uint64_t &x : state_) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
        }
        // Keeps the chains observable, so the loop is not elided.
        for (const std::uint64_t x : state_)
            sink_ += x;
        const double sec = secondsSince(t0);
        slices_.push_back(sec);
        totalS_ += sec;
    }
}

double
HostGauge::slowdown(std::size_t from, std::size_t to) const
{
    if (from >= to || to > slices_.size())
        return 1.0;
    return std::pow(slowdownOf(std::vector<double>(slices_.begin() + from,
                                                   slices_.begin() + to),
                               kReferenceSliceS),
                    kSensitivity);
}

} // namespace perfbench
