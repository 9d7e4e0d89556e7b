/**
 * @file
 * Field lists: a params struct declares its members through one
 * X-macro, X(type, name, default) per member in declaration order (the
 * default may hold commas), and `DLVP_FIELDS(LIST)` in its body. That
 * declares each member as `type name = default;` plus a static
 * visitFields(self, f) calling f(name, self.name) per member, so code
 * that must see every field walks the list instead of naming fields.
 * A struct whose base class is part of its value says so with
 * `using FieldBase = Base;`; members declared outside the list are not
 * part of its canonical text.
 */

#ifndef DLVP_COMMON_FIELDS_HH
#define DLVP_COMMON_FIELDS_HH

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <type_traits>

#define DLVP_FIELD_MEMBER(type, name, ...) type name = __VA_ARGS__;
#define DLVP_FIELD_VISIT(type, name, ...) f(#name, self.name);
#define DLVP_FIELDS(LIST) \
    LIST(DLVP_FIELD_MEMBER) \
    template <class Self, class F> \
    static void visitFields(Self &self, F &&f) \
    { \
        LIST(DLVP_FIELD_VISIT) \
    }

namespace dlvp::common
{

/** A struct declared through DLVP_FIELDS. */
template <class T>
concept HasFields = requires(const T &t) {
    T::visitFields(t, [](const char *, const auto &) {});
};

/**
 * Call f(path, leaf) on every field of @p s that has no field list of
 * its own, depth first in list order, a FieldBase's fields first;
 * @p path is the dotted member path. Leaves are mutable, so a test can
 * perturb each in turn.
 */
template <HasFields T, class F>
void
forEachField(T &s, F &&f, const std::string &prefix = {})
{
    if constexpr (requires { typename T::FieldBase; })
        forEachField(static_cast<typename T::FieldBase &>(s), f, prefix);
    T::visitFields(s, [&](const char *name, auto &m) {
        if constexpr (HasFields<std::remove_cvref_t<decltype(m)>>)
            forEachField(m, f, prefix + name + ".");
        else
            f(prefix + name, m);
    });
}

/**
 * Append @p v's canonical text to @p out: values only, in list order,
 * a FieldBase first, each value followed by ','. Integers, bools and
 * enums print in decimal and doubles as their bit pattern in hex, all
 * through std::to_chars; strings and vectors print after their
 * length, so no value's text is a prefix of another's and equal texts
 * mean equal values.
 */
template <class T>
void
appendCanonical(std::string &out, const T &v)
{
    const auto number = [&out](auto n, int base = 10) {
        char buf[24];
        out.append(buf, std::to_chars(buf, buf + sizeof buf, n, base).ptr);
        out += ',';
    };
    if constexpr (HasFields<T>) {
        if constexpr (requires { typename T::FieldBase; })
            appendCanonical(out,
                            static_cast<const typename T::FieldBase &>(v));
        T::visitFields(v, [&out](const char *, const auto &m) {
            appendCanonical(out, m);
        });
    } else if constexpr (std::is_enum_v<T>) {
        number(static_cast<std::underlying_type_t<T>>(v));
    } else if constexpr (std::is_same_v<T, double>) {
        // The bit pattern, rotated so the sign and exponent come last:
        // one-to-one, and short and fast for the round values params
        // hold (1.0 is 3ff, 0.125 is 3fc).
        number(std::rotl(std::bit_cast<std::uint64_t>(v), 12), 16);
    } else if constexpr (std::is_arithmetic_v<T>) {
        number(v + 0); // a bool as 0 or 1
    } else if constexpr (std::is_same_v<T, std::string>) {
        number(v.size());
        out += v;
        out += ',';
    } else {
        number(v.size());
        for (const auto &e : v)
            appendCanonical(out, e);
    }
}

/**
 * Change @p v to a value unequal to it: a bool flips, an enum or
 * integer steps up by one, a double by one ulp, a vector grows by one
 * element. Tests call it on each leaf forEachField reaches.
 */
template <class T>
void
perturb(T &v)
{
    if constexpr (std::is_same_v<T, bool>)
        v = !v;
    else if constexpr (std::is_enum_v<T>)
        v = static_cast<T>(static_cast<std::underlying_type_t<T>>(v) + 1);
    else if constexpr (std::is_floating_point_v<T>)
        v = std::nextafter(v, 2 * v + 1);
    else if constexpr (std::is_arithmetic_v<T>)
        ++v;
    else
        v.push_back(v.empty() ? typename T::value_type{} : v.back());
}

} // namespace dlvp::common

#endif // DLVP_COMMON_FIELDS_HH
