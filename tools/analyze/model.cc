#include "model.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>

namespace fs = std::filesystem;

namespace dlvp::analyze::detail
{

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::string cur;
    for (char c : text) {
        if (c == '\n') {
            lines.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        lines.push_back(cur);
    return lines;
}

std::vector<Token>
tokenize(const std::vector<std::string> &lines)
{
    std::vector<Token> toks;
    for (std::size_t li = 0; li < lines.size(); ++li) {
        const std::string &s = lines[li];
        const unsigned lineNo = static_cast<unsigned>(li + 1);
        std::size_t i = 0;
        while (i < s.size()) {
            const char c = s[i];
            if (std::isspace(static_cast<unsigned char>(c))) {
                ++i;
            } else if (c == '_' ||
                       std::isalnum(static_cast<unsigned char>(c))) {
                std::size_t j = i;
                while (j < s.size() &&
                       (s[j] == '_' ||
                        std::isalnum(static_cast<unsigned char>(s[j]))))
                    ++j;
                toks.push_back({s.substr(i, j - i), lineNo});
                i = j;
            } else if (c == ':' && i + 1 < s.size() && s[i + 1] == ':') {
                toks.push_back({"::", lineNo});
                i += 2;
            } else if (c == '-' && i + 1 < s.size() && s[i + 1] == '>') {
                toks.push_back({"->", lineNo});
                i += 2;
            } else {
                toks.push_back({std::string(1, c), lineNo});
                ++i;
            }
        }
    }
    return toks;
}

namespace
{

/** Parse "// dlvp-analyze: allow(rule[,rule])" suppressions. */
void
collectSuppressions(SourceFile &f)
{
    static const std::regex re(
        R"(dlvp-analyze:\s*allow\(([A-Za-z\-, ]+)\))");
    for (std::size_t li = 0; li < f.raw.size(); ++li) {
        std::smatch m;
        if (!std::regex_search(f.raw[li], m, re))
            continue;
        std::set<std::string> rules;
        std::string rule;
        std::istringstream ss(m[1].str());
        while (std::getline(ss, rule, ',')) {
            rule.erase(std::remove_if(rule.begin(), rule.end(),
                                      [](unsigned char c) {
                                          return std::isspace(c);
                                      }),
                       rule.end());
            if (!rule.empty())
                rules.insert(rule);
        }
        // The comment covers its own line and the next one, so it can
        // trail the flagged statement or sit on the line above it.
        const unsigned lineNo = static_cast<unsigned>(li + 1);
        for (const std::string &r : rules) {
            f.allow[lineNo].emplace(r, lineNo);
            f.allow[lineNo + 1].emplace(r, lineNo);
        }
        f.allowAtOrigin[lineNo].insert(rules.begin(), rules.end());
    }
}

/** Parse #include directives from the raw lines. */
void
collectIncludes(SourceFile &f)
{
    static const std::regex re(
        R"(^\s*#\s*include\s*(["<])([^">]+)[">])");
    for (std::size_t li = 0; li < f.raw.size(); ++li) {
        std::smatch m;
        if (!std::regex_search(f.raw[li], m, re))
            continue;
        Include inc;
        inc.target = m[2].str();
        inc.line = static_cast<unsigned>(li + 1);
        inc.quoted = m[1].str() == "\"";
        f.includes.push_back(std::move(inc));
    }
}

} // namespace

bool
loadFile(const std::string &path, SourceFile &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    out.path = path;
    out.raw = splitLines(text);
    out.code = splitLines(stripCommentsAndStrings(text));
    out.tokens = tokenize(out.code);
    collectSuppressions(out);
    collectIncludes(out);
    return true;
}

std::optional<std::string>
siblingPath(const std::string &path)
{
    fs::path p(path);
    const std::string ext = p.extension().string();
    const char *other = ext == ".hh" ? ".cc" : ext == ".cc" ? ".hh" : "";
    if (*other == '\0')
        return std::nullopt;
    fs::path sib = p;
    sib.replace_extension(other);
    std::error_code ec;
    if (!fs::exists(sib, ec))
        return std::nullopt;
    return sib.string();
}

void
Reporter::report(const SourceFile &f, unsigned line,
                 const std::string &rule, std::string message)
{
    const auto it = f.allow.find(line);
    if (it != f.allow.end()) {
        const auto jt = it->second.find(rule);
        if (jt != it->second.end()) {
            uses_.insert({f.path, jt->second, rule});
            return;
        }
    }
    out_.push_back({rule, f.path, line, std::move(message)});
}

std::size_t
skipAngles(const std::vector<Token> &toks, std::size_t i)
{
    int depth = 0;
    for (; i < toks.size(); ++i) {
        if (toks[i].text == "<")
            ++depth;
        else if (toks[i].text == ">" && --depth == 0)
            return i + 1;
    }
    return toks.size();
}

std::size_t
skipParens(const std::vector<Token> &toks, std::size_t i)
{
    int depth = 0;
    for (; i < toks.size(); ++i) {
        if (toks[i].text == "(")
            ++depth;
        else if (toks[i].text == ")" && --depth == 0)
            return i + 1;
    }
    return toks.size();
}

std::size_t
skipBraces(const std::vector<Token> &toks, std::size_t i)
{
    int depth = 0;
    for (; i < toks.size(); ++i) {
        if (toks[i].text == "{")
            ++depth;
        else if (toks[i].text == "}" && --depth == 0)
            return i + 1;
    }
    return toks.size();
}

bool
containsNoCase(const std::string &haystack, const std::string &needle)
{
    std::string h = haystack;
    std::transform(h.begin(), h.end(), h.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return h.find(needle) != std::string::npos;
}

} // namespace dlvp::analyze::detail
