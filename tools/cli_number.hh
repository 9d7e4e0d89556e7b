/**
 * @file
 * Checked parsing of the numeric options of dlvp_cli and dlvp_serve.
 *
 * atoi/atoll read "2x" as 2 and wrap "-1" to the maximum of the
 * target type, so `--workers -1` would ask for 2^32 threads and
 * `--insts -1` for a SIZE_MAX-uop trace; atof reads "0.5x" as 0.5
 * and takes "-5" for a deadline. Both binaries parse every integer
 * option through parseCount and every real one through parseReal, and
 * exit 2 on a value either rejects.
 */

#ifndef DLVP_TOOLS_CLI_NUMBER_HH
#define DLVP_TOOLS_CLI_NUMBER_HH

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <type_traits>

namespace dlvp::tools
{

/**
 * Parse @p text, the value of option @p flag, as an unsigned decimal
 * integer in [@p lo, @p hi] into @p out. An empty string, a sign,
 * whitespace, trailing characters, or a value outside the range (or
 * outside T) prints "bad <flag> value '<text>'" and the accepted range
 * to stderr and returns false, leaving @p out unchanged.
 */
template <typename T>
bool
parseCount(const char *flag, const char *text, T &out,
           std::type_identity_t<T> lo = 0,
           std::type_identity_t<T> hi = std::numeric_limits<T>::max())
{
    static_assert(std::is_unsigned_v<T>);
    const char *end = text + std::strlen(text);
    T v = 0;
    const auto [ptr, ec] = std::from_chars(text, end, v);
    if (ec == std::errc() && ptr == end && v >= lo && v <= hi) {
        out = v;
        return true;
    }
    std::fprintf(stderr,
                 "bad %s value '%s' (expected an integer in "
                 "[%llu, %llu])\n",
                 flag, text, static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi));
    return false;
}

/**
 * Parse @p text, the value of option @p flag, as a finite decimal real
 * in [@p lo, @p hi] into @p out. An empty string, whitespace, trailing
 * characters, inf/nan, or a value outside the range prints "bad <flag>
 * value '<text>'" and the accepted range to stderr and returns false,
 * leaving @p out unchanged.
 */
inline bool
parseReal(const char *flag, const char *text, double &out,
          double lo = std::numeric_limits<double>::lowest(),
          double hi = std::numeric_limits<double>::max())
{
    const char *end = text + std::strlen(text);
    double v = 0.0;
    const auto [ptr, ec] = std::from_chars(text, end, v);
    if (ec == std::errc() && ptr == end && std::isfinite(v) && v >= lo &&
        v <= hi) {
        out = v;
        return true;
    }
    std::fprintf(stderr,
                 "bad %s value '%s' (expected a number in [%g, %g])\n",
                 flag, text, lo, hi);
    return false;
}

} // namespace dlvp::tools

#endif // DLVP_TOOLS_CLI_NUMBER_HH
