/**
 * @file
 * dlvp-analyze: repo-specific static analysis for the DLVP simulator.
 *
 * Seven rule families guard the repo's core contract — bit-identical
 * CoreStats across thread counts, retries, and engine rewrites
 * (DESIGN.md §10):
 *
 *   determinism       no wall-clock/libc randomness in simulation
 *                     code, no iteration over unordered containers
 *                     (their order varies across libstdc++ versions
 *                     and ASLR runs), no pointer-keyed ordered
 *                     containers (pointer order is allocation order).
 *   spec-state        every member tagged DLVP_SPEC_STATE has both a
 *                     snapshot site and a restore site in its
 *                     component (header + sibling .cc) — the flush
 *                     path must be able to rewind it.
 *   error-taxonomy    job-reachable code throws only RunError (or
 *                     rethrows); no abort()/exit()/terminate() outside
 *                     the logging layer.
 *   layering          the include graph respects the committed
 *                     dependency DAG in tools/analyze/layers.txt; any
 *                     back-edge (core including serve, ...) or
 *                     manifest cycle is a finding.
 *   lock-discipline   every access to a DLVP_GUARDED_BY member sits
 *                     lexically inside a scope holding the named
 *                     mutex (lock_guard/unique_lock/shared_lock/
 *                     scoped_lock) or a DLVP_REQUIRES-tagged
 *                     function; see common/annotations.hh.
 *   hot-path          nothing reachable from a DLVP_HOT function may
 *                     allocate, lock, or do I/O — the per-cycle
 *                     simulation loop and the flattened probe path
 *                     stay pure.
 *   stale-suppression an allow() comment that suppresses nothing, or
 *                     names an unknown rule, is itself a finding.
 *
 * Findings on a line are suppressed by a trailing or preceding
 * comment `// dlvp-analyze: allow(<rule>[,<rule>...])`.
 *
 * The analysis is token/regex level over comment- and string-stripped
 * source — the same altitude as gem5's style checker and ChampSim's
 * config lints — so it runs in milliseconds with no compiler
 * dependency and is immune to build flags. compile_commands.json
 * (exported by every configured build tree) can supply the file list.
 * Every run analyzes the whole set from scratch; a whole-tree run
 * takes well under a second, cheap enough for every ci_check.
 */

#ifndef DLVP_TOOLS_ANALYZE_ANALYZE_HH
#define DLVP_TOOLS_ANALYZE_ANALYZE_HH

#include <iosfwd>
#include <string>
#include <vector>

namespace dlvp::analyze
{

/** One lint finding, printable as "file:line: [rule] message". */
struct Finding
{
    std::string rule;
    std::string file;
    unsigned line = 0;
    std::string message;

    bool operator==(const Finding &) const = default;
};

struct AnalyzeConfig
{
    /**
     * Files to analyze (absolute or cwd-relative). The per-file rules
     * run over each; sibling files (same stem, .hh/.cc) are consulted
     * for cross-file evidence even when not listed.
     */
    std::vector<std::string> files;

    /**
     * Repo root for mapping files to layering components
     * (src/<component>, tools, bench, examples, tests).
     */
    std::string rootPath = ".";

    /**
     * Layering manifest (tools/analyze/layers.txt format); empty
     * disables the layering rule.
     */
    std::string layersPath;

    /** Restrict to these rules; empty = all. */
    std::vector<std::string> rules;
};

/** All rule names, in reporting order. */
const std::vector<std::string> &allRules();

/**
 * Closest known rule name to @p name by edit distance (the same
 * did-you-mean contract as dlvp_cli's config lookup); empty when
 * nothing is plausibly close.
 */
std::string suggestRule(const std::string &name);

/** Run the configured analysis; findings are sorted by file:line. */
std::vector<Finding> runAnalysis(const AnalyzeConfig &config);

/** "file:line: [rule] message" per finding plus a summary line. */
void printFindings(const std::vector<Finding> &findings,
                   std::ostream &os);

/**
 * Machine-readable output: one JSON object with a schema marker, the
 * findings array, and the count. Stable field order, escaped strings.
 */
void printFindingsJson(const std::vector<Finding> &findings,
                       std::ostream &os);

/**
 * Comment/string stripping shared by every rule: comments and
 * literal contents are blanked with spaces so token scans cannot
 * match inside them, while line numbers and suppression comments
 * (parsed from the raw text first) are preserved. Exposed for tests.
 */
std::string stripCommentsAndStrings(const std::string &source);

} // namespace dlvp::analyze

#endif // DLVP_TOOLS_ANALYZE_ANALYZE_HH
