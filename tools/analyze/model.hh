/**
 * @file
 * Internal source model shared by the dlvp-analyze rule families.
 *
 * A SourceFile is the unit every rule consumes: raw lines (for
 * suppression comments and registration markers that live inside
 * string literals), comment/string-stripped lines, a flat token
 * stream, the parsed `#include` edges (the cross-file graph rules'
 * input), and the parsed suppression map.
 *
 * Everything here is analyzer-internal — the public surface stays in
 * analyze.hh — but it lives in a named namespace (not an anonymous
 * one) so the per-file rules (analyze.cc) and the cross-file graph
 * rules (graph_rules.cc) can share one model.
 */

#ifndef DLVP_TOOLS_ANALYZE_MODEL_HH
#define DLVP_TOOLS_ANALYZE_MODEL_HH

#include <cctype>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "analyze.hh"

namespace dlvp::analyze::detail
{

/** One token of stripped source: an identifier or a punctuator. */
struct Token
{
    std::string text;
    unsigned line = 0;

    bool isIdent() const
    {
        const char c = text.empty() ? '\0' : text[0];
        return c == '_' || std::isalpha(static_cast<unsigned char>(c));
    }
};

/** One `#include` directive, as written. */
struct Include
{
    std::string target; ///< path between the quotes/brackets
    unsigned line = 0;
    bool quoted = false; ///< `"..."` (project) vs `<...>` (system)
};

struct SourceFile
{
    std::string path;
    std::vector<std::string> raw;  ///< raw lines, index 0 = line 1
    std::vector<std::string> code; ///< comment/string-stripped lines
    std::vector<Token> tokens;     ///< tokens of the stripped text
    std::vector<Include> includes; ///< parsed include directives

    /**
     * Suppressions: covered line -> rule -> line of the allow()
     * comment that granted it. The origin line is what the
     * stale-suppression rule keys usage on.
     */
    std::map<unsigned, std::map<std::string, unsigned>> allow;

    /** Allow-comment line -> every rule name it lists (even unknown). */
    std::map<unsigned, std::set<std::string>> allowAtOrigin;
};

std::vector<std::string> splitLines(const std::string &text);
std::vector<Token> tokenize(const std::vector<std::string> &lines);

/** Load + strip + tokenize + parse includes/suppressions. */
bool loadFile(const std::string &path, SourceFile &out);

/** The .cc for a .hh (and vice versa), when it exists on disk. */
std::optional<std::string> siblingPath(const std::string &path);

/**
 * A suppression that earned its keep: the allow() comment at
 * originLine in file silenced at least one would-be finding of rule.
 */
struct SuppressionUse
{
    std::string file;
    unsigned originLine = 0;
    std::string rule;

    bool operator<(const SuppressionUse &o) const
    {
        return std::tie(file, originLine, rule) <
               std::tie(o.file, o.originLine, o.rule);
    }
    bool operator==(const SuppressionUse &) const = default;
};

/**
 * Sink for rule findings. Applies the per-line suppression map and
 * records which allow() comments actually fired, so the
 * stale-suppression rule can flag the ones that never do.
 */
class Reporter
{
  public:
    explicit Reporter(std::vector<Finding> &out) : out_(out) {}

    void report(const SourceFile &f, unsigned line,
                const std::string &rule, std::string message);

    const std::set<SuppressionUse> &uses() const { return uses_; }

  private:
    std::vector<Finding> &out_;
    std::set<SuppressionUse> uses_;
};

// Token-stream helpers: index just past the bracket matching toks[i]
// (toks.size() when unbalanced).
std::size_t skipAngles(const std::vector<Token> &toks, std::size_t i);
std::size_t skipParens(const std::vector<Token> &toks, std::size_t i);
std::size_t skipBraces(const std::vector<Token> &toks, std::size_t i);

bool containsNoCase(const std::string &haystack,
                    const std::string &needle);

} // namespace dlvp::analyze::detail

#endif // DLVP_TOOLS_ANALYZE_MODEL_HH
