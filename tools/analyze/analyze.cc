#include "analyze.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <ostream>
#include <regex>
#include <set>
#include <sstream>

#include "cache.hh"
#include "model.hh"
#include "rules.hh"

namespace fs = std::filesystem;

namespace dlvp::analyze
{

using detail::Reporter;
using detail::SourceFile;
using detail::SuppressionUse;
using detail::Token;

namespace
{

/** Folded into the cache's config hash: bump on any rule change. */
constexpr const char *kAnalyzerVersion = "dlvp-analyze-v2";

// ---------------------------------------------------------------------
// Rule: determinism
// ---------------------------------------------------------------------

/**
 * Names of unordered containers declared in this component. Walks the
 * token stream for `unordered_map< ... > name` / `unordered_set< ... >
 * name` (alias declarations via `using` are outside this net and are
 * caught at their own declaration site).
 */
std::set<std::string>
unorderedNames(const std::vector<Token> &toks)
{
    std::set<std::string> names;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (toks[i].text != "unordered_map" &&
            toks[i].text != "unordered_set")
            continue;
        if (toks[i + 1].text != "<")
            continue;
        std::size_t j = detail::skipAngles(toks, i + 1);
        if (j < toks.size() && toks[j].isIdent())
            names.insert(toks[j].text);
    }
    return names;
}

void
runDeterminismRule(const SourceFile &f, const SourceFile *sibling,
                   Reporter &rep)
{
    // Libc randomness / wall-clock calls. steady_clock is the
    // sanctioned timing source (monotonic, never consulted by
    // simulation logic); everything here either returns wall time or
    // hidden-seed randomness, both of which vary run to run.
    static const std::set<std::string> kBannedCalls = {
        "rand",   "srand",        "drand48", "lrand48",
        "random", "gettimeofday", "time",    "clock",
        "timespec_get", "clock_gettime", "rand_r", "localtime",
    };
    // high_resolution_clock is banned alongside system_clock: the
    // standard lets it alias the wall clock, so any code that timed
    // with it (RunPerf telemetry, sweep deadlines, core watchdogs)
    // could observe different values run to run; steady_clock is the
    // sanctioned telemetry source.
    static const std::set<std::string> kBannedIdents = {
        "random_device", "system_clock", "high_resolution_clock",
    };

    const std::vector<Token> &toks = f.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (!t.isIdent())
            continue;
        if (kBannedIdents.count(t.text)) {
            rep.report(f, t.line, detail::kRuleDeterminism,
                       "'" + t.text +
                           "' is nondeterministic across runs; use a "
                           "seeded generator / steady_clock");
            continue;
        }
        if (!kBannedCalls.count(t.text))
            continue;
        if (i + 1 >= toks.size() || toks[i + 1].text != "(")
            continue; // not a call
        if (i > 0) {
            const std::string &prev = toks[i - 1].text;
            if (prev == "." || prev == "->")
                continue; // member call on some other object
            if (prev == "::" &&
                (i < 2 || toks[i - 2].text != "std"))
                continue; // qualified into a non-std namespace
        }
        rep.report(f, t.line, detail::kRuleDeterminism,
                   "call to '" + t.text +
                       "()' injects wall-clock/libc randomness into "
                       "simulation code");
    }

    // Iteration over unordered containers: their order depends on
    // hash seeding, libstdc++ version, and pointer values, so any
    // stat- or report-affecting loop over one is a repeatability bug.
    std::set<std::string> unordered = unorderedNames(toks);
    if (sibling) {
        std::set<std::string> sib = unorderedNames(sibling->tokens);
        unordered.insert(sib.begin(), sib.end());
    }
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (toks[i].text != "for" || toks[i + 1].text != "(")
            continue;
        const std::size_t end = detail::skipParens(toks, i + 1);
        // Find the range-for ':' at top parenthesis depth.
        int depth = 0;
        std::size_t colon = 0;
        for (std::size_t j = i + 1; j < end; ++j) {
            const std::string &txt = toks[j].text;
            if (txt == "(" || txt == "[")
                ++depth;
            else if (txt == ")" || txt == "]")
                --depth;
            else if (txt == ":" && depth == 1) {
                colon = j;
                break;
            }
        }
        if (colon == 0)
            continue;
        // Last identifier of the range expression names the
        // container for the patterns used in this codebase
        // (`pages_`, `other.pages_`, ...).
        std::string last;
        for (std::size_t j = colon + 1; j + 1 < end; ++j)
            if (toks[j].isIdent())
                last = toks[j].text;
        if (!last.empty() && unordered.count(last)) {
            rep.report(f, toks[i].line, detail::kRuleDeterminism,
                       "range-for over unordered container '" + last +
                           "'; iteration order is not deterministic");
        }
    }

    // Pointer-keyed ordered containers: std::less<T*> compares
    // addresses, i.e. allocation order.
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if ((toks[i].text != "map" && toks[i].text != "set") ||
            toks[i + 1].text != "<")
            continue;
        if (i < 2 || toks[i - 1].text != "::" ||
            toks[i - 2].text != "std")
            continue;
        // Key type = tokens up to the first top-level ',' (or '>').
        int depth = 0;
        for (std::size_t j = i + 1; j < toks.size(); ++j) {
            const std::string &txt = toks[j].text;
            if (txt == "<")
                ++depth;
            else if (txt == ">") {
                if (--depth == 0)
                    break;
            } else if (txt == "," && depth == 1) {
                break;
            } else if (txt == "*" && depth == 1) {
                rep.report(f, toks[i].line, detail::kRuleDeterminism,
                           "pointer-keyed std::" + toks[i].text +
                               "; key order is allocation order, not "
                               "deterministic");
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule: stats-registry
// ---------------------------------------------------------------------

void
runStatsRegistryRule(const SourceFile &f, const std::string &macroName,
                     const std::string &structName, Reporter &rep)
{
    // X-macro entries: from "#define <macroName>(" through the last
    // backslash-continued line.
    std::map<std::string, unsigned> macroEntries; // name -> line
    unsigned macroLine = 0;
    for (std::size_t li = 0; li < f.code.size(); ++li) {
        const std::string &line = f.code[li];
        if (line.find("#define") == std::string::npos ||
            line.find(macroName) == std::string::npos)
            continue;
        macroLine = static_cast<unsigned>(li + 1);
        static const std::regex entryRe(R"(X\(\s*(\w+)\s*\))");
        for (std::size_t lj = li;; ++lj) {
            if (lj >= f.code.size())
                break;
            const std::string &body = f.code[lj];
            if (lj > li) {
                auto begin = std::sregex_iterator(body.begin(),
                                                  body.end(), entryRe);
                for (auto it = begin; it != std::sregex_iterator(); ++it)
                    macroEntries.emplace(
                        (*it)[1].str(),
                        static_cast<unsigned>(lj + 1));
            }
            const auto lastNonSpace = body.find_last_not_of(" \t");
            if (lastNonSpace == std::string::npos ||
                body[lastNonSpace] != '\\')
                break;
        }
        break;
    }
    if (macroLine == 0) {
        rep.report(f, 1, detail::kRuleStatsRegistry,
                   "registry X-macro '" + macroName + "' not found");
        return;
    }

    // Struct fields: the brace-matched region after "struct <name>".
    const std::vector<Token> &toks = f.tokens;
    std::size_t bodyBegin = toks.size(), bodyEnd = toks.size();
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (toks[i].text == "struct" && toks[i + 1].text == structName &&
            toks[i + 2].text == "{") {
            bodyBegin = i + 2;
            bodyEnd = detail::skipBraces(toks, i + 2);
            break;
        }
    }
    if (bodyBegin == toks.size()) {
        rep.report(f, macroLine, detail::kRuleStatsRegistry,
                   "struct '" + structName + "' not found");
        return;
    }
    const unsigned structFirstLine = toks[bodyBegin].line;
    const unsigned structLastLine = toks[bodyEnd - 1].line;

    struct FieldInfo
    {
        unsigned line = 0;
        bool zeroInit = false;
    };
    std::map<std::string, FieldInfo> fields;
    // Data members are single-line "Type name = init;" declarations;
    // anything with parentheses on the line is a function.
    static const std::regex fieldRe(
        R"(^\s*[A-Za-z_][\w:]*\s+(\w+)\s*(=\s*([^;]*?)\s*)?;)");
    for (unsigned ln = structFirstLine; ln <= structLastLine; ++ln) {
        const std::string &line = f.code[ln - 1];
        if (line.find('(') != std::string::npos ||
            line.find("using") != std::string::npos ||
            line.find("static") != std::string::npos)
            continue;
        std::smatch m;
        if (!std::regex_search(line, m, fieldRe))
            continue;
        FieldInfo info;
        info.line = ln;
        info.zeroInit = m[2].matched && m[3].str() == "0";
        fields.emplace(m[1].str(), info);
    }

    for (const auto &[name, info] : fields) {
        if (!macroEntries.count(name))
            rep.report(f, info.line, detail::kRuleStatsRegistry,
                       "field '" + name + "' missing from " +
                           macroName +
                           " (sweeps/goldens will silently skip it)");
        if (!info.zeroInit)
            rep.report(f, info.line, detail::kRuleStatsRegistry,
                       "field '" + name +
                           "' is not zero-initialized ('= 0')");
    }
    for (const auto &[name, line] : macroEntries) {
        if (!fields.count(name))
            rep.report(f, line, detail::kRuleStatsRegistry,
                       "registry entry '" + name +
                           "' names no field of " + structName);
    }
}

// ---------------------------------------------------------------------
// Rule: accel-registry
// ---------------------------------------------------------------------

/**
 * Cross-check the LoadAccelerator registry against the golden
 * CoreStats table: every key registered under DLVP_ACCEL("<key>")
 * must appear in some golden row's accelerator column, and every
 * golden accelerator column must name a registered key. A registered
 * accelerator without a golden row has no bit-identity anchor — the
 * exact gap this lint closes.
 *
 * Both sides of the check live inside string literals, which the
 * shared stripper blanks, so this rule scans raw lines.
 */
void
runAccelRegistryRule(const std::vector<SourceFile *> &sources,
                     const SourceFile &golden, Reporter &rep)
{
    // key -> first registration site (file, line)
    std::map<std::string, std::pair<const SourceFile *, unsigned>>
        registered;
    static const std::regex markerRe(
        R"re(DLVP_ACCEL\(\s*"([^"]*)"\s*\))re");
    for (const SourceFile *f : sources) {
        for (std::size_t li = 0; li < f->raw.size(); ++li) {
            const std::string &line = f->raw[li];
            // Comments (stripped from .code) and the marker's own
            // #define don't register anything; only use sites do.
            if (li >= f->code.size() ||
                f->code[li].find("DLVP_ACCEL") == std::string::npos)
                continue;
            if (line.find("#define") != std::string::npos)
                continue;
            std::smatch m;
            if (!std::regex_search(line, m, markerRe))
                continue;
            registered.emplace(
                m[1].str(),
                std::make_pair(f, static_cast<unsigned>(li + 1)));
        }
    }

    // Golden rows: {"workload", "config", "accel-key", ...
    std::map<std::string, unsigned> pinned; // key -> first row line
    static const std::regex rowRe(
        R"re(^\s*\{\s*"[^"]*"\s*,\s*"[^"]*"\s*,\s*"([^"]*)")re");
    for (std::size_t li = 0; li < golden.raw.size(); ++li) {
        std::smatch m;
        if (std::regex_search(golden.raw[li], m, rowRe))
            pinned.emplace(m[1].str(),
                           static_cast<unsigned>(li + 1));
    }

    if (registered.empty()) {
        rep.report(golden, 1, detail::kRuleAccelRegistry,
                   "no DLVP_ACCEL(\"...\") registration sites found "
                   "in the accelerator sources");
        return;
    }
    for (const auto &[key, site] : registered) {
        if (!pinned.count(key))
            rep.report(*site.first, site.second,
                       detail::kRuleAccelRegistry,
                       "accelerator '" + key +
                           "' is registered but pinned by no golden "
                           "CoreStats row (no bit-identity anchor)");
    }
    for (const auto &[key, line] : pinned) {
        if (!registered.count(key))
            rep.report(golden, line, detail::kRuleAccelRegistry,
                       "golden row pins accelerator '" + key +
                           "', which no DLVP_ACCEL site registers");
    }
}

// ---------------------------------------------------------------------
// Rule: spec-state
// ---------------------------------------------------------------------

/**
 * Identifiers appearing inside bodies of functions whose name
 * contains one of @p fragments (case-insensitive), over a component's
 * token stream. "applyFlush" bodies count as restore sites.
 */
void
collectFunctionBodyIdents(const std::vector<Token> &toks,
                          const std::vector<std::string> &fragments,
                          std::set<std::string> &out)
{
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!toks[i].isIdent() || toks[i + 1].text != "(")
            continue;
        bool wanted = false;
        for (const std::string &frag : fragments)
            if (detail::containsNoCase(toks[i].text, frag))
                wanted = true;
        if (!wanted)
            continue;
        std::size_t j = detail::skipParens(toks, i + 1);
        // Skip qualifiers (const, noexcept, trailing return) up to
        // the body '{'; a ';' first means it was only a declaration
        // or a call.
        while (j < toks.size() && toks[j].text != "{" &&
               toks[j].text != ";")
            ++j;
        if (j >= toks.size() || toks[j].text != "{")
            continue;
        const std::size_t end = detail::skipBraces(toks, j);
        for (std::size_t k = j + 1; k + 1 < end; ++k)
            if (toks[k].isIdent())
                out.insert(toks[k].text);
        i = end > i ? end - 1 : i;
    }
}

void
runSpecStateRule(const SourceFile &f, const SourceFile *sibling,
                 Reporter &rep)
{
    // Collect DLVP_SPEC_STATE(member) tags, skipping the macro's own
    // #define.
    struct Tag
    {
        std::string member;
        unsigned line = 0;
    };
    std::vector<Tag> tags;
    const std::vector<Token> &toks = f.tokens;
    for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
        if (toks[i].text != "DLVP_SPEC_STATE" ||
            toks[i + 1].text != "(" || !toks[i + 2].isIdent() ||
            toks[i + 3].text != ")")
            continue;
        const unsigned line = toks[i].line;
        if (f.raw[line - 1].find("#define") != std::string::npos)
            continue;
        tags.push_back({toks[i + 2].text, line});
    }
    if (tags.empty())
        return;

    // Component = this file plus its sibling; evidence may live in
    // either (tags sit in headers, flush paths in the .cc).
    std::vector<const SourceFile *> component = {&f};
    if (sibling)
        component.push_back(sibling);

    std::set<std::string> snapshotIdents, restoreIdents;
    for (const SourceFile *part : component) {
        collectFunctionBodyIdents(part->tokens, {"snapshot"},
                                  snapshotIdents);
        collectFunctionBodyIdents(part->tokens,
                                  {"restore", "applyflush"},
                                  restoreIdents);
    }

    for (const Tag &tag : tags) {
        // Line-level evidence: "xSnap = member" saves, "member =
        // ...Snap..." or "member.restore(...)" restores.
        const std::regex snapAssign(
            R"(\w*[sS]nap\w*\s*=[^=].*\b)" + tag.member + R"(\b)");
        const std::regex restoreAssign(
            R"(\b)" + tag.member + R"(\b\s*=[^=].*[sS]nap)");
        const std::regex restoreCall(
            R"(\b)" + tag.member + R"(\b\.restore\()");
        bool saved = snapshotIdents.count(tag.member) > 0;
        bool restored = restoreIdents.count(tag.member) > 0;
        for (const SourceFile *part : component) {
            for (const std::string &line : part->code) {
                if (saved && restored)
                    break;
                if (!saved && std::regex_search(line, snapAssign))
                    saved = true;
                if (!restored &&
                    (std::regex_search(line, restoreAssign) ||
                     std::regex_search(line, restoreCall)))
                    restored = true;
            }
        }
        if (!saved)
            rep.report(f, tag.line, detail::kRuleSpecState,
                       "speculative member '" + tag.member +
                           "' has no snapshot site in its component");
        if (!restored)
            rep.report(f, tag.line, detail::kRuleSpecState,
                       "speculative member '" + tag.member +
                           "' has no restore site on the flush path");
    }
}

// ---------------------------------------------------------------------
// Rule: error-taxonomy
// ---------------------------------------------------------------------

void
runErrorTaxonomyRule(const SourceFile &f, Reporter &rep)
{
    static const std::set<std::string> kBannedCalls = {
        "abort", "terminate", "exit", "_Exit", "_exit", "quick_exit",
    };
    const std::vector<Token> &toks = f.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (!t.isIdent())
            continue;
        if (t.text == "throw") {
            // The thrown expression must be a RunError construction;
            // a bare rethrow ("throw;") is fine.
            std::string lastIdent;
            std::size_t j = i + 1;
            while (j < toks.size() &&
                   (toks[j].isIdent() || toks[j].text == "::")) {
                if (toks[j].isIdent())
                    lastIdent = toks[j].text;
                ++j;
            }
            if (j < toks.size() && toks[j].text == ";" &&
                lastIdent.empty())
                continue; // rethrow
            if (lastIdent != "RunError")
                rep.report(f, t.line, detail::kRuleErrorTaxonomy,
                           "throw of non-RunError type; job-reachable "
                           "code must use the RunError taxonomy");
            continue;
        }
        if (!kBannedCalls.count(t.text))
            continue;
        if (i + 1 >= toks.size() || toks[i + 1].text != "(")
            continue;
        if (i > 0) {
            const std::string &prev = toks[i - 1].text;
            if (prev == "." || prev == "->")
                continue;
            if (prev == "::" && (i < 2 || toks[i - 2].text != "std"))
                continue;
        }
        rep.report(f, t.line, detail::kRuleErrorTaxonomy,
                   "call to '" + t.text +
                       "()' kills the whole process; job-reachable "
                       "code must throw RunError instead");
    }
}

// ---------------------------------------------------------------------
// Rule: stale-suppression
// ---------------------------------------------------------------------

/**
 * Every allow() comment must earn its keep: each rule it names must
 * be a real rule, and — when that rule actually ran this analysis —
 * must have silenced at least one would-be finding. The rule is
 * self-exempt (an unused allow of stale-suppression itself is not
 * detected; one stale comment cannot hide another's staleness).
 */
void
runStaleSuppressionRule(const std::vector<const SourceFile *> &files,
                        const std::set<SuppressionUse> &used,
                        const std::set<std::string> &ranRules,
                        Reporter &rep)
{
    const auto &known = allRules();
    for (const SourceFile *f : files) {
        for (const auto &[origin, rules] : f->allowAtOrigin) {
            for (const std::string &rule : rules) {
                if (std::find(known.begin(), known.end(), rule) ==
                    known.end()) {
                    const std::string hint = suggestRule(rule);
                    rep.report(*f, origin,
                               detail::kRuleStaleSuppression,
                               "suppression names unknown rule '" +
                                   rule + "'" +
                                   (hint.empty()
                                        ? ""
                                        : "; did you mean '" + hint +
                                              "'?"));
                    continue;
                }
                if (rule == detail::kRuleStaleSuppression)
                    continue;
                if (!ranRules.count(rule))
                    continue; // can't judge a rule that didn't run
                if (!used.count({f->path, origin, rule}))
                    rep.report(*f, origin,
                               detail::kRuleStaleSuppression,
                               "suppression of '" + rule +
                                   "' silences nothing on this or "
                                   "the next line; delete it or move "
                                   "it to the offending site");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

bool
ruleEnabled(const AnalyzeConfig &config, const std::string &rule)
{
    if (config.rules.empty())
        return true;
    return std::find(config.rules.begin(), config.rules.end(), rule) !=
           config.rules.end();
}

bool
isSourceExt(const std::string &path)
{
    const std::string ext = fs::path(path).extension().string();
    return ext == ".cc" || ext == ".hh" || ext == ".cpp";
}

std::size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diag = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t prev = row[j];
            row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                               diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
            diag = prev;
        }
    }
    return row[b.size()];
}

void
appendJsonEscaped(std::string &out, const std::string &s)
{
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        case '\r':
            out += "\\r";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
}

} // namespace

const std::vector<std::string> &
allRules()
{
    static const std::vector<std::string> rules = {
        detail::kRuleDeterminism,
        detail::kRuleStatsRegistry,
        detail::kRuleSpecState,
        detail::kRuleErrorTaxonomy,
        detail::kRuleAccelRegistry,
        detail::kRuleLayering,
        detail::kRuleLockDiscipline,
        detail::kRuleHotPath,
        detail::kRuleStaleSuppression,
    };
    return rules;
}

std::string
suggestRule(const std::string &name)
{
    std::string best;
    std::size_t bestDist = std::string::npos;
    for (const std::string &rule : allRules()) {
        const std::size_t d = editDistance(name, rule);
        if (d < bestDist) {
            bestDist = d;
            best = rule;
        }
    }
    // Same tolerance as dlvp_cli's config did-you-mean: a third of
    // the name's length, but never tighter than 2 edits.
    const std::size_t limit = std::max<std::size_t>(2, name.size() / 3);
    return bestDist <= limit ? best : "";
}

std::string
stripCommentsAndStrings(const std::string &source)
{
    std::string out;
    out.reserve(source.size());
    enum class State
    {
        Code,
        LineComment,
        BlockComment,
        String,
        Char,
        RawString
    };
    State state = State::Code;
    std::string rawDelim; // for R"delim( ... )delim"
    for (std::size_t i = 0; i < source.size(); ++i) {
        const char c = source[i];
        const char next = i + 1 < source.size() ? source[i + 1] : '\0';
        switch (state) {
        case State::Code:
            if (c == '/' && next == '/') {
                state = State::LineComment;
                out += "  ";
                ++i;
            } else if (c == '/' && next == '*') {
                state = State::BlockComment;
                out += "  ";
                ++i;
            } else if (c == 'R' && next == '"' &&
                       (i == 0 ||
                        (!std::isalnum(static_cast<unsigned char>(
                             source[i - 1])) &&
                         source[i - 1] != '_'))) {
                state = State::RawString;
                rawDelim.clear();
                std::size_t j = i + 2;
                while (j < source.size() && source[j] != '(')
                    rawDelim += source[j++];
                out.append(j + 1 - i, ' ');
                i = j;
            } else if (c == '"') {
                state = State::String;
                out += '"';
            } else if (c == '\'') {
                state = State::Char;
                out += '\'';
            } else {
                out += c;
            }
            break;
        case State::LineComment:
            if (c == '\n') {
                state = State::Code;
                out += '\n';
            } else {
                out += ' ';
            }
            break;
        case State::BlockComment:
            if (c == '*' && next == '/') {
                state = State::Code;
                out += "  ";
                ++i;
            } else {
                out += c == '\n' ? '\n' : ' ';
            }
            break;
        case State::String:
        case State::Char: {
            const char quote = state == State::String ? '"' : '\'';
            if (c == '\\') {
                out += "  ";
                ++i;
                if (next == '\n')
                    out.back() = '\n';
            } else if (c == quote) {
                state = State::Code;
                out += quote;
            } else {
                out += c == '\n' ? '\n' : ' ';
            }
            break;
        }
        case State::RawString: {
            const std::string close = ")" + rawDelim + "\"";
            if (c == ')' && source.compare(i, close.size(), close) == 0) {
                state = State::Code;
                out.append(close.size(), ' ');
                i += close.size() - 1;
            } else {
                out += c == '\n' ? '\n' : ' ';
            }
            break;
        }
        }
    }
    return out;
}

std::vector<Finding>
runAnalysis(const AnalyzeConfig &config)
{
    using namespace detail;

    std::vector<Finding> findings;
    Reporter rep(findings);

    // ---- Manifest (layering) -------------------------------------
    LayerManifest manifest;
    bool haveManifest = false;
    std::vector<Finding> manifestFindings;
    if (!config.layersPath.empty() &&
        ruleEnabled(config, kRuleLayering)) {
        if (loadLayerManifest(config.layersPath, manifest,
                              manifestFindings))
            haveManifest = true;
        else
            findings.push_back({"usage", config.layersPath, 0,
                                "cannot read layering manifest"});
    }

    // ---- Model: every file is loaded exactly once ----------------
    std::map<std::string, SourceFile> modelCache;
    const auto load =
        [&modelCache](const std::string &path) -> SourceFile * {
        auto it = modelCache.find(path);
        if (it != modelCache.end())
            return &it->second;
        SourceFile f;
        if (!loadFile(path, f))
            return nullptr;
        return &modelCache.emplace(path, std::move(f)).first->second;
    };

    // Primary files, first occurrence wins.
    std::vector<std::string> primaries;
    {
        std::set<std::string> seen;
        for (const std::string &p : config.files)
            if (seen.insert(p).second)
                primaries.push_back(p);
    }

    // The set of rules that will actually execute; the staleness
    // check only judges suppressions of rules that ran.
    std::set<std::string> ranRules;
    for (const char *r : {kRuleDeterminism, kRuleSpecState,
                          kRuleErrorTaxonomy, kRuleLockDiscipline})
        if (ruleEnabled(config, r))
            ranRules.insert(r);
    if (haveManifest && ruleEnabled(config, kRuleLayering))
        ranRules.insert(kRuleLayering);
    if (!config.coreStatsPath.empty() &&
        ruleEnabled(config, kRuleStatsRegistry))
        ranRules.insert(kRuleStatsRegistry);
    if (!config.goldenStatsPath.empty() &&
        !config.accelSourcePaths.empty() &&
        ruleEnabled(config, kRuleAccelRegistry))
        ranRules.insert(kRuleAccelRegistry);
    if (ruleEnabled(config, kRuleHotPath))
        ranRules.insert(kRuleHotPath);

    // ---- Config hash: gates the whole incremental cache ----------
    std::uint64_t configHash = fnv1a(kAnalyzerVersion);
    for (const std::string &r : ranRules)
        configHash = fnv1a(r, configHash ^ 0x9e3779b97f4a7c15ULL);
    if (ruleEnabled(config, kRuleStaleSuppression))
        configHash = fnv1a(kRuleStaleSuppression, configHash);
    configHash = fnv1a(config.statsMacroName, configHash);
    configHash = fnv1a(config.statsStructName, configHash);
    configHash = fnv1a(config.rootPath, configHash);
    configHash = fnv1a(manifest.rawText, configHash);
    configHash = fnv1a(config.coreStatsPath, configHash);
    configHash = fnv1a(config.goldenStatsPath, configHash);
    for (const std::string &p : config.accelSourcePaths)
        configHash = fnv1a(p, configHash ^ 0xff51afd7ed558ccdULL);

    AnalysisCache oldCache, newCache;
    newCache.configHash = configHash;
    const bool haveCache =
        !config.cachePath.empty() &&
        loadAnalysisCache(config.cachePath, configHash, oldCache);

    // ---- Per-file phase ------------------------------------------
    std::vector<const SourceFile *> loadedPrimaries;
    for (const std::string &path : primaries) {
        SourceFile *f = load(path);
        if (!f) {
            findings.push_back({"usage", path, 0, "cannot read file"});
            continue;
        }
        loadedPrimaries.push_back(f);
        SourceFile *sibling = nullptr;
        if (auto sib = siblingPath(path))
            sibling = load(*sib);
        const std::uint64_t sibHash =
            sibling ? sibling->contentHash : 0;

        if (haveCache) {
            const auto it = oldCache.perFile.find(path);
            if (it != oldCache.perFile.end() &&
                it->second.hash == f->contentHash &&
                it->second.sibHash == sibHash) {
                findings.insert(findings.end(),
                                it->second.findings.begin(),
                                it->second.findings.end());
                for (const SuppressionUse &u : it->second.uses)
                    rep.recordUse(u);
                newCache.perFile.emplace(path, it->second);
                continue;
            }
        }

        std::vector<Finding> local;
        Reporter localRep(local);
        if (ruleEnabled(config, kRuleDeterminism))
            runDeterminismRule(*f, sibling, localRep);
        if (ruleEnabled(config, kRuleSpecState))
            runSpecStateRule(*f, sibling, localRep);
        if (ruleEnabled(config, kRuleErrorTaxonomy))
            runErrorTaxonomyRule(*f, localRep);
        if (haveManifest)
            runLayeringRule(*f, manifest, config.rootPath, localRep);
        if (ruleEnabled(config, kRuleLockDiscipline))
            runLockDisciplineRule(*f, sibling, localRep);

        FileCacheEntry entry;
        entry.hash = f->contentHash;
        entry.sibHash = sibHash;
        entry.findings = local;
        entry.uses.assign(localRep.uses().begin(),
                          localRep.uses().end());
        findings.insert(findings.end(), local.begin(), local.end());
        for (const SuppressionUse &u : localRep.uses())
            rep.recordUse(u);
        newCache.perFile.emplace(path, std::move(entry));
    }
    findings.insert(findings.end(), manifestFindings.begin(),
                    manifestFindings.end());

    // ---- Global phase --------------------------------------------
    // Out-of-band inputs are loaded (and hashed) up front so the
    // global key covers them even on the replay path.
    SourceFile *coreStats = nullptr;
    if (!config.coreStatsPath.empty() &&
        ruleEnabled(config, kRuleStatsRegistry)) {
        coreStats = load(config.coreStatsPath);
        if (!coreStats)
            findings.push_back({"usage", config.coreStatsPath, 0,
                                "cannot read stats header"});
    }
    SourceFile *golden = nullptr;
    std::vector<SourceFile *> accelSources;
    if (!config.goldenStatsPath.empty() &&
        !config.accelSourcePaths.empty() &&
        ruleEnabled(config, kRuleAccelRegistry)) {
        golden = load(config.goldenStatsPath);
        if (!golden)
            findings.push_back({"usage", config.goldenStatsPath, 0,
                                "cannot read golden stats table"});
        for (const std::string &p : config.accelSourcePaths) {
            if (SourceFile *sf = load(p))
                accelSources.push_back(sf);
            else
                findings.push_back({"usage", p, 0, "cannot read file"});
        }
    }

    std::uint64_t globalHash = configHash;
    for (const auto &[path, file] : modelCache) {
        globalHash = fnv1a(path, globalHash);
        globalHash ^= file.contentHash;
        globalHash *= 1099511628211ULL;
    }

    const bool wantGlobal =
        coreStats || golden || ruleEnabled(config, kRuleHotPath) ||
        ruleEnabled(config, kRuleStaleSuppression);
    if (wantGlobal && haveCache && oldCache.global.valid &&
        oldCache.global.hash == globalHash) {
        findings.insert(findings.end(),
                        oldCache.global.findings.begin(),
                        oldCache.global.findings.end());
        newCache.global = oldCache.global;
    } else if (wantGlobal) {
        std::vector<Finding> globalFindings;
        Reporter globalRep(globalFindings);

        if (coreStats)
            runStatsRegistryRule(*coreStats, config.statsMacroName,
                                 config.statsStructName, globalRep);
        if (golden)
            runAccelRegistryRule(accelSources, *golden, globalRep);

        if (ruleEnabled(config, kRuleHotPath)) {
            std::vector<const SourceFile *> indexed;
            for (const auto &[path, file] : modelCache)
                if (isSourceExt(path))
                    indexed.push_back(&file);
            const FunctionIndex index = buildFunctionIndex(indexed);
            runHotPathRule(index, globalRep);
        }

        if (ruleEnabled(config, kRuleStaleSuppression)) {
            std::set<SuppressionUse> used = rep.uses();
            used.insert(globalRep.uses().begin(),
                        globalRep.uses().end());
            runStaleSuppressionRule(loadedPrimaries, used, ranRules,
                                    globalRep);
        }

        findings.insert(findings.end(), globalFindings.begin(),
                        globalFindings.end());
        newCache.global.valid = true;
        newCache.global.hash = globalHash;
        newCache.global.findings = std::move(globalFindings);
        newCache.global.uses.assign(globalRep.uses().begin(),
                                    globalRep.uses().end());
    }

    if (!config.cachePath.empty())
        saveAnalysisCache(config.cachePath, newCache);

    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  if (a.rule != b.rule)
                      return a.rule < b.rule;
                  return a.message < b.message;
              });
    return findings;
}

void
printFindings(const std::vector<Finding> &findings, std::ostream &os)
{
    for (const Finding &f : findings)
        os << f.file << ":" << f.line << ": [" << f.rule << "] "
           << f.message << "\n";
    if (findings.empty())
        os << "dlvp-analyze: no findings\n";
    else
        os << "dlvp-analyze: " << findings.size() << " finding"
           << (findings.size() == 1 ? "" : "s") << "\n";
}

void
printFindingsJson(const std::vector<Finding> &findings,
                  std::ostream &os)
{
    std::string out = "{\"schema\":\"dlvp-analyze-v1\",\"findings\":[";
    bool first = true;
    for (const Finding &f : findings) {
        if (!first)
            out += ",";
        first = false;
        out += "{\"rule\":\"";
        appendJsonEscaped(out, f.rule);
        out += "\",\"file\":\"";
        appendJsonEscaped(out, f.file);
        out += "\",\"line\":";
        out += std::to_string(f.line);
        out += ",\"message\":\"";
        appendJsonEscaped(out, f.message);
        out += "\"}";
    }
    out += "],\"count\":";
    out += std::to_string(findings.size());
    out += "}";
    os << out << "\n";
}

} // namespace dlvp::analyze
