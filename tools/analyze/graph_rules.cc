/**
 * @file
 * Cross-file graph rules: layering (include-graph vs the committed
 * manifest), lock-discipline (DLVP_GUARDED_BY / DLVP_REQUIRES), and
 * hot-path purity (call-graph reachability from DLVP_HOT tags).
 *
 * All three stay at the same token altitude as the PR 5 rules — no
 * compiler, no build flags — but consume the whole-repo model:
 * include edges for layering, the component (file + sibling) for lock
 * discipline, and the cross-file function index for the hot-path
 * walk. The deliberate approximations are documented per rule; each
 * errs toward false positives that a reviewed suppression can settle,
 * never toward silently missing a violation pattern it claims to
 * catch.
 */

#include "rules.hh"

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

namespace fs = std::filesystem;

namespace dlvp::analyze::detail
{

namespace
{

// ---------------------------------------------------------------------
// Shared token helpers
// ---------------------------------------------------------------------

/**
 * Reverse-scan from @p i (exclusive) to the start of the enclosing
 * statement: the index just past the previous top-level ';', '{' or
 * '}'. Balanced brace/paren/bracket groups encountered on the way
 * back (default initializers, init-list arguments) are stepped over.
 */
std::size_t
statementStart(const std::vector<Token> &toks, std::size_t i)
{
    int depth = 0;
    while (i > 0) {
        const std::string &t = toks[i - 1].text;
        if (t == "}" || t == ")" || t == "]") {
            ++depth;
        } else if (t == "{" || t == "(" || t == "[") {
            if (depth == 0)
                return i;
            --depth;
        } else if (t == ";" && depth == 0) {
            return i;
        }
        --i;
    }
    return 0;
}

bool
rawLineHasDefine(const SourceFile &f, unsigned line)
{
    return line >= 1 && line <= f.raw.size() &&
           f.raw[line - 1].find("#define") != std::string::npos;
}

// ---------------------------------------------------------------------
// layering
// ---------------------------------------------------------------------

std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

} // namespace

bool
loadLayerManifest(const std::string &path, LayerManifest &out,
                  std::vector<Finding> &findings)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    out.path = path;

    const std::vector<std::string> lines = splitLines(buf.str());
    for (std::size_t li = 0; li < lines.size(); ++li) {
        const unsigned lineNo = static_cast<unsigned>(li + 1);
        std::string line = lines[li];
        if (const auto hash = line.find('#'); hash != std::string::npos)
            line = line.substr(0, hash);
        line = trim(line);
        if (line.empty())
            continue;
        const auto colon = line.find(':');
        if (colon == std::string::npos) {
            findings.push_back({kRuleLayering, path, lineNo,
                                "manifest line is not "
                                "'component: dep dep...'"});
            continue;
        }
        const std::string name = trim(line.substr(0, colon));
        if (name.empty()) {
            findings.push_back({kRuleLayering, path, lineNo,
                                "manifest line declares an empty "
                                "component name"});
            continue;
        }
        if (out.allowed.count(name)) {
            findings.push_back({kRuleLayering, path, lineNo,
                                "component '" + name +
                                    "' declared twice in the "
                                    "manifest"});
            continue;
        }
        std::set<std::string> deps;
        std::istringstream ss(line.substr(colon + 1));
        std::string dep;
        while (ss >> dep)
            deps.insert(dep);
        deps.insert(name); // a component may always include itself
        out.allowed.emplace(name, std::move(deps));
        out.declLine.emplace(name, lineNo);
    }

    // Every dependency must itself be a declared component.
    for (const auto &[name, deps] : out.allowed)
        for (const std::string &dep : deps)
            if (!out.allowed.count(dep))
                findings.push_back(
                    {kRuleLayering, path, out.declLine.at(name),
                     "component '" + name + "' depends on '" + dep +
                         "', which the manifest does not declare"});

    // The allowed-dependency relation must be a DAG: a cycle means
    // the manifest cannot order the layers at all.
    std::map<std::string, int> color; // 0 white, 1 grey, 2 black
    std::vector<std::string> trail;
    const std::function<void(const std::string &)> visit =
        [&](const std::string &node) {
            color[node] = 1;
            trail.push_back(node);
            const auto it = out.allowed.find(node);
            if (it != out.allowed.end()) {
                for (const std::string &dep : it->second) {
                    if (dep == node || !out.allowed.count(dep))
                        continue;
                    if (color[dep] == 1) {
                        std::string cycle = dep;
                        for (auto rit = trail.rbegin();
                             rit != trail.rend(); ++rit) {
                            cycle += " -> " + *rit;
                            if (*rit == dep)
                                break;
                        }
                        findings.push_back(
                            {kRuleLayering, path,
                             out.declLine.at(dep),
                             "dependency cycle in the layering "
                             "manifest: " +
                                 cycle});
                    } else if (color[dep] == 0) {
                        visit(dep);
                    }
                }
            }
            trail.pop_back();
            color[node] = 2;
        };
    for (const auto &[name, deps] : out.allowed)
        if (color[name] == 0)
            visit(name);
    return true;
}

std::string
componentOf(const std::string &path, const std::string &root)
{
    std::error_code ec;
    fs::path p = fs::weakly_canonical(path, ec);
    if (ec)
        p = fs::absolute(path).lexically_normal();
    fs::path r = fs::weakly_canonical(root.empty() ? "." : root, ec);
    if (ec)
        r = fs::absolute(root.empty() ? "." : root).lexically_normal();
    const fs::path rel = p.lexically_relative(r);
    auto it = rel.begin();
    if (it == rel.end())
        return "";
    const std::string first = it->string();
    if (first == ".." || first == ".")
        return "";
    if (first == "src") {
        if (++it == rel.end())
            return "";
        const std::string second = it->string();
        if (++it == rel.end())
            return ""; // a file directly under src/ has no component
        return second;
    }
    if (first == "tools" || first == "bench" || first == "examples" ||
        first == "tests")
        return first;
    return "";
}

void
runLayeringRule(const SourceFile &f, const LayerManifest &manifest,
                const std::string &root, Reporter &rep)
{
    const std::string comp = componentOf(f.path, root);
    if (comp.empty())
        return; // out of tree (build dirs, third-party TUs)
    const auto allowedIt = manifest.allowed.find(comp);
    if (allowedIt == manifest.allowed.end()) {
        rep.report(f, 1, kRuleLayering,
                   "component '" + comp +
                       "' is not declared in the layering manifest " +
                       manifest.path);
        return;
    }
    const std::set<std::string> &allowed = allowedIt->second;
    for (const Include &inc : f.includes) {
        if (!inc.quoted)
            continue; // <...> includes are system headers
        const auto slash = inc.target.find('/');
        if (slash == std::string::npos)
            continue; // same-directory include, same component
        const std::string target = inc.target.substr(0, slash);
        if (!manifest.allowed.count(target))
            continue; // not a layered component (external path)
        if (!allowed.count(target))
            rep.report(f, inc.line, kRuleLayering,
                       "'" + comp + "' may not include '" +
                           inc.target + "': the layering manifest "
                           "declares no '" + comp + "' -> '" + target +
                           "' dependency");
    }
}

// ---------------------------------------------------------------------
// lock-discipline
// ---------------------------------------------------------------------

namespace
{

struct GuardedMember
{
    std::string mutexName;
    unsigned declLine = 0;
};

/**
 * Member name of the declaration ending just before token @p i (the
 * DLVP_GUARDED_BY statement). The declaration span runs from the
 * previous statement boundary up to its ';'; scanning it at template/
 * paren/bracket depth 0, the name is the identifier preceding the
 * initializer ('=', '{', '[') or, without one, the last identifier.
 */
std::string
guardedMemberName(const std::vector<Token> &toks, std::size_t i)
{
    if (i == 0 || toks[i - 1].text != ";")
        return "";
    const std::size_t begin = statementStart(toks, i - 1);
    int depth = 0;
    std::string lastIdent;
    for (std::size_t j = begin; j + 1 < i; ++j) {
        const std::string &t = toks[j].text;
        // At declarator depth 0 the name is the identifier before the
        // initializer ('=', '{...}') or array bound ('[...]').
        if (depth == 0 && (t == "=" || t == "{" || t == "["))
            return lastIdent;
        if (t == "<" || t == "(" || t == "[" || t == "{") {
            ++depth;
        } else if (t == ">" || t == ")" || t == "]" || t == "}") {
            if (depth > 0)
                --depth;
        } else if (depth == 0 && toks[j].isIdent()) {
            lastIdent = t;
        }
    }
    return lastIdent;
}

/** Lock RAII types whose construction registers a held mutex. */
bool
isLockType(const std::string &t)
{
    return t == "lock_guard" || t == "unique_lock" ||
           t == "shared_lock" || t == "scoped_lock";
}

/**
 * Mutex names locked by the declaration whose type token is at @p i;
 * empty when this is not a lock construction (parameter, member,
 * deferred lock).
 */
std::vector<std::string>
lockedMutexes(const std::vector<Token> &toks, std::size_t i)
{
    std::size_t j = i + 1;
    if (j < toks.size() && toks[j].text == "<")
        j = skipAngles(toks, j);
    if (j >= toks.size() || !toks[j].isIdent())
        return {};
    const std::size_t open = j + 1;
    if (open >= toks.size() || toks[open].text != "(")
        return {};
    const std::size_t end = skipParens(toks, open);
    std::vector<std::string> segments;
    std::string lastIdent;
    int depth = 0;
    for (std::size_t k = open; k < end; ++k) {
        const std::string &t = toks[k].text;
        if (t == "(" || t == "<" || t == "[" || t == "{") {
            ++depth;
        } else if (t == ")" || t == ">" || t == "]" || t == "}") {
            --depth;
            if (depth == 0 && !lastIdent.empty())
                segments.push_back(lastIdent);
        } else if (t == "," && depth == 1) {
            if (!lastIdent.empty())
                segments.push_back(lastIdent);
            lastIdent.clear();
        } else if (toks[k].isIdent()) {
            lastIdent = t;
        }
    }
    for (const std::string &seg : segments)
        if (seg == "defer_lock" || seg == "try_to_lock")
            return {}; // not held at construction
    if (segments.empty())
        return {};
    if (toks[i].text == "scoped_lock")
        return segments;
    return {segments.front()}; // extra args are tags (adopt_lock)
}

/** Names declared by `class X` / `struct X` in a token stream. */
void
collectClassNames(const std::vector<Token> &toks,
                  std::set<std::string> &out)
{
    for (std::size_t i = 0; i + 1 < toks.size(); ++i)
        if ((toks[i].text == "class" || toks[i].text == "struct") &&
            toks[i + 1].isIdent())
            out.insert(toks[i + 1].text);
}

void
collectGuardedMembers(const SourceFile &f,
                      std::map<std::string, GuardedMember> &out,
                      Reporter &rep, bool reportHere)
{
    const std::vector<Token> &toks = f.tokens;
    for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
        if (toks[i].text != "DLVP_GUARDED_BY" ||
            toks[i + 1].text != "(" || !toks[i + 2].isIdent() ||
            toks[i + 3].text != ")")
            continue;
        if (rawLineHasDefine(f, toks[i].line))
            continue;
        const std::string member = guardedMemberName(toks, i);
        if (member.empty()) {
            if (reportHere)
                rep.report(f, toks[i].line, kRuleLockDiscipline,
                           "DLVP_GUARDED_BY does not follow a member "
                           "declaration it can attach to");
            continue;
        }
        out.emplace(member,
                    GuardedMember{toks[i + 2].text, toks[i].line});
    }
}

} // namespace

void
runLockDisciplineRule(const SourceFile &f, const SourceFile *sibling,
                      Reporter &rep)
{
    // Component view: guard annotations usually sit in the header
    // while most access sites live in the .cc; gather both.
    std::map<std::string, GuardedMember> guarded;
    std::set<std::string> classNames;
    collectGuardedMembers(f, guarded, rep, /*reportHere=*/true);
    collectClassNames(f.tokens, classNames);
    if (sibling) {
        collectGuardedMembers(*sibling, guarded, rep,
                              /*reportHere=*/false);
        collectClassNames(sibling->tokens, classNames);
    }
    if (guarded.empty())
        return;

    // Lexical walk of this file: a scope stack classifying each brace
    // as namespace/class/function/block and carrying the set of
    // mutexes a lock construction (or DLVP_REQUIRES tag) registered.
    struct Scope
    {
        char kind; // 'N'amespace, 'C'lass, 'F'unction, 'B'lock/other
        std::set<std::string> held;
        std::string funcName;
    };
    std::vector<Scope> stack;

    const auto inFunction = [&stack]() -> const Scope * {
        for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
            if (it->kind == 'F')
                return &*it;
            if (it->kind != 'B')
                return nullptr;
        }
        return nullptr;
    };
    const auto holds = [&stack](const std::string &mtx) {
        for (const Scope &s : stack)
            if (s.held.count(mtx))
                return true;
        return false;
    };

    const std::vector<Token> &toks = f.tokens;
    // Statement start, maintained incrementally: the index just past
    // the last top-level ';', '{' or '}' the walk crossed. This is
    // what lets the brace classifier see only its own header tokens
    // without re-scanning backwards across closed scopes.
    std::size_t stmtBegin = 0;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.text == ";") {
            stmtBegin = i + 1;
            continue;
        }

        if (t.text == "{") {
            if (inFunction()) {
                stack.push_back({'B', {}, ""});
                stmtBegin = i + 1;
                continue;
            }
            // Classify a new top-level brace from its header tokens.
            Scope scope{'B', {}, ""};
            const std::size_t begin = stmtBegin;
            bool sawParen = false, sawClassKey = false;
            int depth = 0;
            std::string lastIdent;
            std::size_t nameParen = toks.size();
            for (std::size_t j = begin; j < i; ++j) {
                const std::string &h = toks[j].text;
                if (h == "namespace") {
                    scope.kind = 'N';
                    break;
                }
                if (h == "<" || h == "[") {
                    ++depth;
                } else if (h == ">" || h == "]") {
                    if (depth > 0)
                        --depth;
                } else if (h == "(") {
                    if (depth == 0 && !sawParen) {
                        sawParen = true;
                        nameParen = j;
                        // Function header: name precedes this paren.
                        if (!lastIdent.empty()) {
                            scope.funcName = lastIdent;
                            if (j >= 2 && toks[j - 1].isIdent() &&
                                toks[j - 2].text == "~")
                                scope.funcName = "~" + lastIdent;
                        }
                    }
                    ++depth;
                } else if (h == ")") {
                    if (depth > 0)
                        --depth;
                } else if (depth == 0) {
                    if (h == "class" || h == "struct" ||
                        h == "union" || h == "enum")
                        sawClassKey = true;
                    else if (toks[j].isIdent() && j < nameParen)
                        lastIdent = h;
                }
            }
            if (scope.kind != 'N') {
                if (sawParen && !scope.funcName.empty())
                    scope.kind = 'F';
                else if (sawClassKey)
                    scope.kind = 'C';
                // else 'B': initializer braces, `= {...}` tables.
            }
            stack.push_back(std::move(scope));
            stmtBegin = i + 1;
            continue;
        }
        if (t.text == "}") {
            if (!stack.empty())
                stack.pop_back();
            stmtBegin = i + 1;
            continue;
        }

        if (isLockType(t.text) && !stack.empty()) {
            for (std::string &mtx : lockedMutexes(toks, i))
                stack.back().held.insert(std::move(mtx));
            continue;
        }
        if (t.text == "DLVP_REQUIRES" && i + 3 < toks.size() &&
            toks[i + 1].text == "(" && toks[i + 2].isIdent() &&
            toks[i + 3].text == ")" &&
            !rawLineHasDefine(f, t.line)) {
            if (!stack.empty())
                stack.back().held.insert(toks[i + 2].text);
            continue;
        }

        if (!t.isIdent())
            continue;
        const auto git = guarded.find(t.text);
        if (git == guarded.end())
            continue;
        // Only direct accesses to *this* object's member count:
        // `other.queue_` is a different instance (same class, so the
        // same discipline applies at its own sites), and a qualified
        // name is a type/static, not the member.
        if (i > 0) {
            const std::string &prev = toks[i - 1].text;
            if (prev == "::")
                continue;
            if ((prev == "." || prev == "->") &&
                (i < 2 || toks[i - 2].text != "this"))
                continue;
        }
        const Scope *fn = inFunction();
        if (!fn)
            continue; // declaration / class scope / initializer
        const std::string &name = fn->funcName;
        const bool ctorDtor =
            classNames.count(name) ||
            (!name.empty() && name[0] == '~' &&
             classNames.count(name.substr(1)));
        if (ctorDtor)
            continue; // single-threaded by contract
        if (holds(git->second.mutexName))
            continue;
        rep.report(f, t.line, kRuleLockDiscipline,
                   "access to '" + t.text + "' (DLVP_GUARDED_BY '" +
                       git->second.mutexName +
                       "') in '" + name +
                       "' without holding the lock; take a "
                       "lock_guard/unique_lock or tag the function "
                       "DLVP_REQUIRES(" +
                       git->second.mutexName + ")");
    }
}

// ---------------------------------------------------------------------
// hot-path
// ---------------------------------------------------------------------

namespace
{

/** Keywords and markers that look like `name(` but are not calls. */
bool
isNonCallKeyword(const std::string &t)
{
    static const std::set<std::string> kKeywords = {
        "if",       "for",          "while",      "switch",
        "catch",    "return",       "sizeof",     "alignof",
        "alignas",  "decltype",     "noexcept",   "static_assert",
        "case",     "else",         "do",         "throw",
        "new",      "delete",       "operator",   "assert",
        "defined",  "typeid",       "co_return",  "co_await",
        "DLVP_GUARDED_BY", "DLVP_REQUIRES", "DLVP_SPEC_STATE",
    };
    return kKeywords.count(t) != 0;
}

/** Index just past a throw statement starting at toks[i] == "throw". */
std::size_t
skipThrowStatement(const std::vector<Token> &toks, std::size_t i)
{
    int depth = 0;
    for (; i < toks.size(); ++i) {
        const std::string &t = toks[i].text;
        if (t == "(" || t == "{" || t == "[")
            ++depth;
        else if (t == ")" || t == "}" || t == "]")
            --depth;
        else if (t == ";" && depth <= 0)
            return i + 1;
    }
    return toks.size();
}

const char *
bannedCategory(const std::vector<Token> &toks, std::size_t i)
{
    static const std::set<std::string> kAlloc = {
        "make_unique", "make_shared", "malloc", "calloc", "realloc",
    };
    static const std::set<std::string> kGrowth = {
        "push_back", "emplace_back", "emplace", "push_front",
        "emplace_front", "insert", "resize", "reserve", "append",
    };
    static const std::set<std::string> kIo = {
        "printf", "fprintf", "puts",  "fputs",   "fwrite",
        "fread",  "fopen",   "fclose", "getline", "scanf",
        "fscanf", "cout",    "cerr",  "clog",    "ofstream",
        "ifstream", "fstream",
    };
    const std::string &t = toks[i].text;
    const bool call =
        i + 1 < toks.size() && toks[i + 1].text == "(";
    if (t == "new")
        return "heap allocation";
    if (call && kAlloc.count(t))
        return "heap allocation";
    if (call && kGrowth.count(t))
        return "container growth (may allocate)";
    if (isLockType(t))
        return "locking";
    if (call && t == "lock" && i > 0 &&
        (toks[i - 1].text == "." || toks[i - 1].text == "->"))
        return "locking";
    if (kIo.count(t))
        return "I/O";
    return nullptr;
}

} // namespace

FunctionIndex
buildFunctionIndex(const std::vector<const SourceFile *> &files)
{
    FunctionIndex index;

    // Include-target resolution: basename and dir/basename suffixes
    // of every analyzed path, so `#include "core/core.hh"` and
    // `#include "pap.hh"` both land on the loaded model.
    std::map<std::string, std::set<std::string>> bySuffix;
    for (const SourceFile *f : files) {
        const fs::path p(f->path);
        bySuffix[p.filename().string()].insert(f->path);
        if (p.has_parent_path())
            bySuffix[(p.parent_path().filename() / p.filename())
                         .string()]
                .insert(f->path);
    }
    const auto addSibling = [](std::set<std::string> &ctx,
                               const std::string &path) {
        ctx.insert(path);
        if (const auto sib = siblingPath(path))
            ctx.insert(*sib);
    };
    for (const SourceFile *f : files) {
        std::set<std::string> &ctx = index.context[f->path];
        addSibling(ctx, f->path);
        for (const Include &inc : f->includes) {
            if (!inc.quoted)
                continue;
            const auto it = bySuffix.find(inc.target);
            if (it == bySuffix.end())
                continue;
            for (const std::string &p : it->second)
                addSibling(ctx, p);
        }
    }

    // Function definitions: `name ( params ) qualifiers {`. The
    // qualifier walk steps over ctor-init-list groups and template
    // angles; a ';', '=', or anything else first means declaration or
    // expression, not a definition.
    for (const SourceFile *f : files) {
        const std::vector<Token> &toks = f->tokens;
        for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
            if (!toks[i].isIdent() || toks[i + 1].text != "(" ||
                isNonCallKeyword(toks[i].text))
                continue;
            std::size_t j = skipParens(toks, i + 1);
            bool body = false;
            while (j < toks.size()) {
                const std::string &q = toks[j].text;
                if (q == "{") {
                    body = true;
                    break;
                }
                if (q == "(") {
                    j = skipParens(toks, j);
                } else if (q == "<") {
                    j = skipAngles(toks, j);
                } else if (q == "::" || q == "->" || q == ":" ||
                           q == "," || q == "&" || q == "*" ||
                           toks[j].isIdent()) {
                    ++j;
                } else {
                    break; // ';' declaration, '=' default, operator...
                }
            }
            if (!body)
                continue;
            FunctionDef def;
            def.name = toks[i].text;
            def.file = f;
            def.bodyBegin = j;
            def.bodyEnd = skipBraces(toks, j);
            def.line = toks[i].line;
            for (std::size_t k = j; k < def.bodyEnd; ++k) {
                if (toks[k].text == "DLVP_HOT" &&
                    !rawLineHasDefine(*f, toks[k].line)) {
                    def.hot = true;
                    break;
                }
            }
            index.defs.push_back(std::move(def));
        }
    }
    for (const FunctionDef &def : index.defs)
        index.byName[def.name].push_back(&def);
    return index;
}

void
runHotPathRule(const FunctionIndex &index, Reporter &rep)
{
    // Visited flags are indexed by the def's position in index.defs
    // (never iterated, but an index keeps the determinism rule's
    // no-pointer-keys contract holding for the analyzer itself).
    std::vector<bool> visited(index.defs.size(), false);
    std::set<std::tuple<std::string, unsigned, std::string>> reported;

    // Depth-first walk; resolution of a call in file F is bounded to
    // F, its sibling, F's direct includes and their siblings — the
    // same files the compiler could see, which keeps common names
    // (run, lookup, insert) from teleporting across the repo.
    const std::function<void(const FunctionDef &, const std::string &,
                             int)>
        walk = [&](const FunctionDef &def, const std::string &root,
                   int depth) {
            const std::size_t slot =
                static_cast<std::size_t>(&def - index.defs.data());
            if (depth > 64 || visited[slot])
                return;
            visited[slot] = true;
            const SourceFile &f = *def.file;
            const std::vector<Token> &toks = f.tokens;
            const auto ctxIt = index.context.find(f.path);
            const std::set<std::string> *ctx =
                ctxIt != index.context.end() ? &ctxIt->second
                                             : nullptr;
            for (std::size_t i = def.bodyBegin; i < def.bodyEnd;
                 ++i) {
                const Token &t = toks[i];
                if (t.text == "throw") {
                    // Error exits leave the hot path by definition.
                    i = skipThrowStatement(toks, i) - 1;
                    continue;
                }
                if (!t.isIdent())
                    continue;
                if (const char *cat = bannedCategory(toks, i)) {
                    const std::string via =
                        def.name == root ? "" : " via '" + def.name +
                                                "'";
                    if (reported
                            .insert({f.path, t.line, t.text})
                            .second)
                        rep.report(
                            f, t.line, kRuleHotPath,
                            std::string(cat) + " '" + t.text +
                                "' on the hot path: reachable from "
                                "DLVP_HOT '" +
                                root + "'" + via);
                    continue;
                }
                // Recurse into resolvable calls.
                if (i + 1 >= toks.size() ||
                    toks[i + 1].text != "(" ||
                    isNonCallKeyword(t.text) || !ctx)
                    continue;
                if (i > 0) {
                    const std::string &prev = toks[i - 1].text;
                    if ((prev == "." || prev == "->") &&
                        (i < 2 || toks[i - 2].text != "this"))
                        continue; // member call on another object
                    if (prev == "::" && i >= 2 &&
                        toks[i - 2].text == "std")
                        continue;
                }
                const auto cands = index.byName.find(t.text);
                if (cands == index.byName.end())
                    continue;
                for (const FunctionDef *callee : cands->second)
                    if (ctx->count(callee->file->path))
                        walk(*callee, root, depth + 1);
            }
        };

    for (const FunctionDef &def : index.defs)
        if (def.hot)
            walk(def, def.name, 0);
}

} // namespace dlvp::analyze::detail
