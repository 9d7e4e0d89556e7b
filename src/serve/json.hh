/**
 * @file
 * Minimal strict JSON for the dlvp-serve wire protocol.
 *
 * The daemon's requests are small, flat objects, so this is a
 * deliberately tiny recursive-descent parser over a DOM of plain
 * structs — no allocator tricks, no SAX, no external dependency.
 * Strictness is the point: a malformed request must become a
 * structured error response, never undefined behaviour, so every
 * deviation from RFC 8259 syntax throws RunError{internal} with a
 * byte-offset message. Parsing is locale-independent (numbers go
 * through std::from_chars).
 *
 * Generation stays string-based (ostringstream, like sim/report.cc);
 * only quote() lives here so writers escape consistently.
 */

#ifndef DLVP_SERVE_JSON_HH
#define DLVP_SERVE_JSON_HH

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace dlvp::serve
{

/** One parsed JSON value; a tagged union of the seven RFC types. */
struct JsonValue
{
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> array;
    /** Insertion-ordered; duplicate keys are a parse error. */
    std::vector<std::pair<std::string, JsonValue>> object;

    bool isNull() const { return type == Type::Null; }
    bool isBool() const { return type == Type::Bool; }
    bool isNumber() const { return type == Type::Number; }
    bool isString() const { return type == Type::String; }
    bool isArray() const { return type == Type::Array; }
    bool isObject() const { return type == Type::Object; }

    /** Member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    /** str if this is a string, @p fallback otherwise. */
    std::string asString(const std::string &fallback = {}) const;

    /** number if this is a number, @p fallback otherwise. */
    double asNumber(double fallback = 0.0) const;

    /** boolean if this is a bool, @p fallback otherwise. */
    bool asBool(bool fallback = false) const;

    /**
     * number as a non-negative integer; @p fallback when absent-type,
     * negative, non-integral, or too large for std::size_t.
     */
    std::size_t asSize(std::size_t fallback = 0) const;
};

/**
 * Parse one complete JSON document. Trailing garbage, duplicate
 * object keys, unescaped control characters, and over-deep nesting
 * (64 levels) are all rejected with RunError{internal}.
 */
JsonValue parseJson(const std::string &text);

/**
 * Quote + escape @p s as a JSON string literal (with the quotes); the
 * escaping is common::jsonEscape, the one every report writer uses.
 */
std::string jsonQuote(const std::string &s);

} // namespace dlvp::serve

#endif // DLVP_SERVE_JSON_HH
