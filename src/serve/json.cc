#include "json.hh"

#include <charconv>
#include <cmath>

#include "common/json_escape.hh"
#include "common/run_error.hh"

namespace dlvp::serve
{

namespace
{

using common::ErrorKind;
using common::RunError;

/** Nesting bound: a 10 KB request never legitimately needs more. */
constexpr std::size_t kMaxDepth = 64;

class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    JsonValue
    document()
    {
        skipWs();
        JsonValue v = value(0);
        skipWs();
        if (pos_ != text_.size())
            fail("trailing bytes after the JSON document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw RunError(ErrorKind::Internal,
                       "json: " + what + " at byte " +
                           std::to_string(pos_));
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek() const
    {
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    void
    expect(char c)
    {
        if (pos_ >= text_.size() || text_[pos_] != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consume(const char *lit)
    {
        std::size_t n = 0;
        while (lit[n] != '\0')
            ++n;
        if (text_.compare(pos_, n, lit) != 0)
            return false;
        pos_ += n;
        return true;
    }

    JsonValue
    value(std::size_t depth)
    {
        if (depth > kMaxDepth)
            fail("nesting too deep");
        skipWs();
        JsonValue v;
        switch (peek()) {
        case '{':
            return objectValue(depth);
        case '[':
            return arrayValue(depth);
        case '"':
            v.type = JsonValue::Type::String;
            v.str = stringLiteral();
            return v;
        case 't':
            if (!consume("true"))
                fail("bad literal");
            v.type = JsonValue::Type::Bool;
            v.boolean = true;
            return v;
        case 'f':
            if (!consume("false"))
                fail("bad literal");
            v.type = JsonValue::Type::Bool;
            v.boolean = false;
            return v;
        case 'n':
            if (!consume("null"))
                fail("bad literal");
            return v;
        default:
            return numberValue();
        }
    }

    JsonValue
    objectValue(std::size_t depth)
    {
        JsonValue v;
        v.type = JsonValue::Type::Object;
        expect('{');
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        for (;;) {
            skipWs();
            std::string key = stringLiteral();
            for (const auto &kv : v.object)
                if (kv.first == key)
                    fail("duplicate object key '" + key + "'");
            skipWs();
            expect(':');
            v.object.emplace_back(std::move(key), value(depth + 1));
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue
    arrayValue(std::size_t depth)
    {
        JsonValue v;
        v.type = JsonValue::Type::Array;
        expect('[');
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        for (;;) {
            v.array.push_back(value(depth + 1));
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    unsigned
    hex4()
    {
        unsigned out = 0;
        for (int i = 0; i < 4; ++i) {
            if (pos_ >= text_.size())
                fail("truncated \\u escape");
            const char c = text_[pos_++];
            unsigned digit;
            if (c >= '0' && c <= '9')
                digit = static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                digit = static_cast<unsigned>(c - 'a') + 10;
            else if (c >= 'A' && c <= 'F')
                digit = static_cast<unsigned>(c - 'A') + 10;
            else
                fail("bad \\u escape digit");
            out = out * 16 + digit;
        }
        return out;
    }

    std::string
    stringLiteral()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("unescaped control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("truncated escape");
            const char e = text_[pos_++];
            switch (e) {
            case '"':
            case '\\':
            case '/':
                out += e;
                break;
            case 'b':
                out += '\b';
                break;
            case 'f':
                out += '\f';
                break;
            case 'n':
                out += '\n';
                break;
            case 'r':
                out += '\r';
                break;
            case 't':
                out += '\t';
                break;
            case 'u': {
                const unsigned cp = hex4();
                if (cp >= 0xd800 && cp <= 0xdfff)
                    fail("surrogate \\u escapes are unsupported");
                // UTF-8 encode the BMP code point.
                if (cp < 0x80) {
                    out += static_cast<char>(cp);
                } else if (cp < 0x800) {
                    out += static_cast<char>(0xc0 | (cp >> 6));
                    out += static_cast<char>(0x80 | (cp & 0x3f));
                } else {
                    out += static_cast<char>(0xe0 | (cp >> 12));
                    out += static_cast<char>(0x80 |
                                             ((cp >> 6) & 0x3f));
                    out += static_cast<char>(0x80 | (cp & 0x3f));
                }
                break;
            }
            default:
                fail("unknown escape");
            }
        }
    }

    JsonValue
    numberValue()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               ((text_[pos_] >= '0' && text_[pos_] <= '9') ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            fail("expected a value");
        JsonValue v;
        v.type = JsonValue::Type::Number;
        const char *first = text_.data() + start;
        const char *last = text_.data() + pos_;
        const auto [end, ec] =
            std::from_chars(first, last, v.number);
        if (ec != std::errc{} || end != last)
            fail("bad number");
        return v;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

} // namespace

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (type != Type::Object)
        return nullptr;
    for (const auto &kv : object)
        if (kv.first == key)
            return &kv.second;
    return nullptr;
}

std::string
JsonValue::asString(const std::string &fallback) const
{
    return type == Type::String ? str : fallback;
}

double
JsonValue::asNumber(double fallback) const
{
    return type == Type::Number ? number : fallback;
}

bool
JsonValue::asBool(bool fallback) const
{
    return type == Type::Bool ? boolean : fallback;
}

std::size_t
JsonValue::asSize(std::size_t fallback) const
{
    if (type != Type::Number || number < 0.0 ||
        number != std::floor(number) || number > 1e15)
        return fallback;
    return static_cast<std::size_t>(number);
}

JsonValue
parseJson(const std::string &text)
{
    return Parser(text).document();
}

std::string
jsonQuote(const std::string &s)
{
    return '"' + common::jsonEscape(s) + '"';
}

} // namespace dlvp::serve
