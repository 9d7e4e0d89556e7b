/**
 * @file
 * Wall-clock budgets in milliseconds as steady_clock deadlines.
 */

#ifndef DLVP_COMMON_DEADLINE_HH
#define DLVP_COMMON_DEADLINE_HH

#include <chrono>

namespace dlvp::common
{

/**
 * The instant `ms` milliseconds after `from`. A budget too large for
 * the clock (over half its remaining range, about 146 years, or NaN)
 * saturates at time_point::max(), which never expires: converting it
 * to integer ticks would overflow.
 */
inline std::chrono::steady_clock::time_point
deadlineAfterMs(std::chrono::steady_clock::time_point from, double ms)
{
    using Clock = std::chrono::steady_clock;
    const std::chrono::duration<double, std::milli> budget(ms);
    if (!(budget < (Clock::time_point::max() - from) / 2))
        return Clock::time_point::max();
    return from + std::chrono::duration_cast<Clock::duration>(budget);
}

} // namespace dlvp::common

#endif // DLVP_COMMON_DEADLINE_HH
