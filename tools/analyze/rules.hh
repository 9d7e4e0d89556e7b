/**
 * @file
 * Rule-family declarations shared between the per-file rules /
 * driver (analyze.cc) and the cross-file graph rules
 * (graph_rules.cc). Analyzer-internal; see analyze.hh for the
 * public surface and DESIGN.md §10 for the add-a-rule recipe.
 */

#ifndef DLVP_TOOLS_ANALYZE_RULES_HH
#define DLVP_TOOLS_ANALYZE_RULES_HH

#include <map>
#include <set>
#include <string>
#include <vector>

#include "model.hh"

namespace dlvp::analyze::detail
{

inline constexpr const char *kRuleDeterminism = "determinism";
inline constexpr const char *kRuleSpecState = "spec-state";
inline constexpr const char *kRuleErrorTaxonomy = "error-taxonomy";
inline constexpr const char *kRuleLayering = "layering";
inline constexpr const char *kRuleLockDiscipline = "lock-discipline";
inline constexpr const char *kRuleHotPath = "hot-path";
inline constexpr const char *kRuleStaleSuppression = "stale-suppression";

// ---------------------------------------------------------------------
// layering
// ---------------------------------------------------------------------

/**
 * Parsed tools/analyze/layers.txt: the committed dependency DAG.
 * One line per component, `name: dep dep...`; '#' starts a comment.
 * A component may always include itself.
 */
struct LayerManifest
{
    std::string path;
    /** component -> components it may include from. */
    std::map<std::string, std::set<std::string>> allowed;
    /** component -> its declaration line (for findings). */
    std::map<std::string, unsigned> declLine;
};

/**
 * Parse the manifest and validate it (duplicate/unknown components,
 * cycles become findings against the manifest file itself). Returns
 * false when the file cannot be read.
 */
bool loadLayerManifest(const std::string &path, LayerManifest &out,
                       std::vector<Finding> &findings);

/**
 * Component of @p path relative to @p root: "common".."serve" for
 * src/<c>/..., the directory name itself for tools/ bench/ examples/
 * tests/, empty for anything else (out-of-tree, build dirs).
 */
std::string componentOf(const std::string &path,
                        const std::string &root);

/** Flag includes that cross the manifest DAG against the grain. */
void runLayeringRule(const SourceFile &f, const LayerManifest &manifest,
                     const std::string &root, Reporter &rep);

// ---------------------------------------------------------------------
// lock-discipline
// ---------------------------------------------------------------------

/**
 * Check every access to a DLVP_GUARDED_BY member of this component
 * (file + sibling) against the lexical lock model: the access must
 * sit in a scope that constructed a lock_guard/unique_lock/
 * shared_lock/scoped_lock on the named mutex or follows a
 * DLVP_REQUIRES(mutex) tag; constructors and destructors are exempt.
 */
void runLockDisciplineRule(const SourceFile &f,
                           const SourceFile *sibling, Reporter &rep);

// ---------------------------------------------------------------------
// hot-path
// ---------------------------------------------------------------------

/**
 * Lightweight cross-file symbol index: every free/member function
 * definition found in the analyzed set, by name, with its body's
 * token span. Built once per run; the hot-path rule walks it.
 */
struct FunctionDef
{
    std::string name;
    const SourceFile *file = nullptr;
    std::size_t bodyBegin = 0; ///< token index of the body '{'
    std::size_t bodyEnd = 0;   ///< token index just past the body '}'
    unsigned line = 0;
    bool hot = false; ///< body carries a DLVP_HOT tag
};

struct FunctionIndex
{
    /** name -> every definition with that name, in path order. */
    std::map<std::string, std::vector<const FunctionDef *>> byName;
    std::vector<FunctionDef> defs;
    /** file path -> file paths its calls may resolve into. */
    std::map<std::string, std::set<std::string>> context;
};

FunctionIndex
buildFunctionIndex(const std::vector<const SourceFile *> &files);

/**
 * Walk the call graph from every DLVP_HOT function and flag heap
 * allocation, container growth, locking, and I/O anywhere reachable
 * (throw statements exempt — error exits leave the hot path).
 */
void runHotPathRule(const FunctionIndex &index, Reporter &rep);

} // namespace dlvp::analyze::detail

#endif // DLVP_TOOLS_ANALYZE_RULES_HH
