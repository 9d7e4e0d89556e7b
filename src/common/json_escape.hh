/**
 * @file
 * JSON string escaping shared by every dlvp-*-v1 writer.
 */

#ifndef DLVP_COMMON_JSON_ESCAPE_HH
#define DLVP_COMMON_JSON_ESCAPE_HH

#include <string>

namespace dlvp::common
{

/**
 * @p s escaped for use inside a JSON string literal (without the
 * quotes). Lossless: `"` and `\` are backslash-escaped, `\n`, `\t` and
 * `\r` keep their short escapes, and every other control byte becomes
 * `\u00XX`, so a parser gets back exactly @p s.
 */
std::string jsonEscape(const std::string &s);

} // namespace dlvp::common

#endif // DLVP_COMMON_JSON_ESCAPE_HH
