#include "fault_inject.hh"

#include <algorithm>
#include <cstdlib>
#include <mutex>

#include "logging.hh"
#include "run_error.hh"

namespace dlvp::common
{

namespace
{

/** The ops serve/cache.cc consults (FaultPlan::cacheOp), '/'-joined. */
constexpr const char *kCacheOps =
    "kill-entry/kill-rename/trunc-entry/flip-entry";

/** The ops serve/server.cc consults (FaultPlan::connOp), '/'-joined. */
constexpr const char *kConnOps = "drop/trunc/garble";

/** Split on @p sep, keeping empty pieces (flagged as errors later). */
std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == sep) {
            out.push_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

/**
 * Strict unsigned decimal parse: digits only, no sign, no
 * whitespace, and explicit overflow rejection. strtoull would
 * silently wrap "-1" to 2^64-1, turning a malformed rule into one
 * that can never fire — exactly the silent-ignore failure mode this
 * parser must reject.
 */
std::uint64_t
parseNumber(const std::string &s, const std::string &rule)
{
    if (s.empty())
        throw RunError(ErrorKind::Internal,
                       "fault plan: missing number in rule '" + rule +
                           "'");
    std::uint64_t v = 0;
    for (char c : s) {
        if (c < '0' || c > '9')
            throw RunError(ErrorKind::Internal,
                           "fault plan: bad number '" + s +
                               "' in rule '" + rule +
                               "' (unsigned decimal digits only)");
        const std::uint64_t digit =
            static_cast<std::uint64_t>(c - '0');
        if (v > (~std::uint64_t{0} - digit) / 10)
            throw RunError(ErrorKind::Internal,
                           "fault plan: number '" + s +
                               "' overflows in rule '" + rule + "'");
        v = v * 10 + digit;
    }
    return v;
}

} // namespace

FaultPlan
FaultPlan::parse(const std::string &spec)
{
    FaultPlan plan;
    plan.spec_ = spec;
    for (const std::string &entry : split(spec, ';')) {
        if (entry.empty())
            continue;
        const auto colon = entry.find(':');
        const auto eq = entry.find('=');
        const std::string kind = entry.substr(
            0, std::min(colon, eq));
        Rule rule;
        if (kind == "seed") {
            if (eq == std::string::npos)
                throw RunError(ErrorKind::Internal,
                               "fault plan: seed needs '=<n>'");
            plan.seed_ = parseNumber(entry.substr(eq + 1), entry);
            continue;
        }
        if (colon == std::string::npos)
            throw RunError(ErrorKind::Internal,
                           "fault plan: rule '" + entry +
                               "' needs ':'");
        std::string body = entry.substr(colon + 1);
        if (kind == "build") {
            rule.kind = Kind::Build;
            const auto at = body.find('@');
            if (at != std::string::npos) {
                rule.nth = parseNumber(body.substr(at + 1), entry);
                if (rule.nth == 0)
                    throw RunError(ErrorKind::Internal,
                                   "fault plan: @n is 1-based in '" +
                                       entry + "'");
                body = body.substr(0, at);
            }
            if (body.empty())
                throw RunError(ErrorKind::Internal,
                               "fault plan: build rule '" + entry +
                                   "' needs a workload or *");
            rule.workload = body;
        } else if (kind == "stall") {
            rule.kind = Kind::Stall;
            const auto ruleEq = body.find('=');
            if (ruleEq == std::string::npos)
                throw RunError(ErrorKind::Internal,
                               "fault plan: stall rule '" + entry +
                                   "' needs '=<ms>'");
            rule.param =
                parseNumber(body.substr(ruleEq + 1), entry);
            // stallMs() hands the value to a 32-bit sleep; anything
            // wider would truncate into a different (silent) delay.
            if (rule.param > 0xffffffffULL)
                throw RunError(ErrorKind::Internal,
                               "fault plan: stall ms out of range "
                               "(max 2^32-1) in '" + entry + "'");
            body = body.substr(0, ruleEq);
            const auto slash = body.find('/');
            rule.workload =
                slash == std::string::npos ? body
                                           : body.substr(0, slash);
            rule.config = slash == std::string::npos
                              ? "*"
                              : body.substr(slash + 1);
            if (rule.workload.empty() || rule.config.empty())
                throw RunError(ErrorKind::Internal,
                               "fault plan: bad stall target in '" +
                                   entry + "'");
        } else if (kind == "cache" || kind == "conn") {
            rule.kind = kind == "cache" ? Kind::Cache : Kind::Conn;
            const auto at = body.find('@');
            if (at != std::string::npos) {
                rule.nth = parseNumber(body.substr(at + 1), entry);
                if (rule.nth == 0)
                    throw RunError(ErrorKind::Internal,
                                   "fault plan: @n is 1-based in '" +
                                       entry + "'");
                body = body.substr(0, at);
            }
            // Only the ops a subsystem consults: any other name is a
            // typo'd or retired rule that would silently never fire.
            const std::string ops =
                kind == "cache" ? kCacheOps : kConnOps;
            const std::vector<std::string> names = split(ops, '/');
            if (std::find(names.begin(), names.end(), body) ==
                names.end())
                throw RunError(ErrorKind::Internal,
                               "fault plan: bad " + kind + " op '" +
                                   body + "' in '" + entry + "' (" +
                                   ops + ")");
            rule.workload = body;
        } else if (kind == "trunc") {
            rule.kind = Kind::Trunc;
            rule.param = parseNumber(body, entry);
        } else if (kind == "flip") {
            rule.kind = Kind::Flip;
            const auto dot = body.find('.');
            if (dot == std::string::npos)
                throw RunError(ErrorKind::Internal,
                               "fault plan: flip rule '" + entry +
                                   "' needs '<byte>.<bit>'");
            rule.param = parseNumber(body.substr(0, dot), entry);
            const std::uint64_t bit =
                parseNumber(body.substr(dot + 1), entry);
            if (bit > 7)
                throw RunError(ErrorKind::Internal,
                               "fault plan: flip bit must be 0-7 in '" +
                                   entry + "'");
            rule.bit = static_cast<unsigned>(bit);
        } else {
            throw RunError(ErrorKind::Internal,
                           "fault plan: unknown rule kind '" + kind +
                               "' (build/stall/trunc/flip/cache/"
                               "conn/seed)");
        }
        plan.rules_.push_back(std::move(rule));
    }
    return plan;
}

bool
FaultPlan::matches(const std::string &pattern,
                   const std::string &value)
{
    return pattern == "*" || pattern == value;
}

bool
FaultPlan::failBuild(const std::string &workload) const
{
    for (const Rule &r : rules_) {
        if (r.kind != Kind::Build || !matches(r.workload, workload))
            continue;
        const std::uint64_t n =
            r.hits->fetch_add(1, std::memory_order_relaxed) + 1;
        if (r.nth == 0 || n == r.nth)
            return true;
    }
    return false;
}

unsigned
FaultPlan::stallMs(const std::string &workload,
                   const std::string &config) const
{
    for (const Rule &r : rules_)
        if (r.kind == Kind::Stall && matches(r.workload, workload) &&
            matches(r.config, config))
            return static_cast<unsigned>(r.param);
    return 0;
}

bool
FaultPlan::countedOp(Kind kind, const std::string &op) const
{
    for (const Rule &r : rules_) {
        if (r.kind != kind || r.workload != op)
            continue;
        const std::uint64_t n =
            r.hits->fetch_add(1, std::memory_order_relaxed) + 1;
        if (r.nth == 0 || n == r.nth)
            return true;
    }
    return false;
}

bool
FaultPlan::cacheOp(const std::string &op) const
{
    return countedOp(Kind::Cache, op);
}

bool
FaultPlan::connOp(const std::string &op) const
{
    return countedOp(Kind::Conn, op);
}

bool
FaultPlan::corrupt(std::string &bytes) const
{
    bool mutated = false;
    for (const Rule &r : rules_) {
        if (r.kind == Kind::Trunc && bytes.size() > r.param) {
            bytes.resize(r.param);
            mutated = true;
        } else if (r.kind == Kind::Flip && r.param < bytes.size()) {
            bytes[r.param] = static_cast<char>(
                static_cast<unsigned char>(bytes[r.param]) ^
                (1u << r.bit));
            mutated = true;
        }
    }
    return mutated;
}

namespace
{

std::mutex g_plan_mutex;

FaultPlan &
globalSlot()
{
    static FaultPlan plan = [] {
        if (const char *env = std::getenv("DLVP_FAULT_INJECT")) {
            try {
                return FaultPlan::parse(env);
            } catch (const RunError &e) {
                // A malformed plan must not degrade to "no faults":
                // a test run that silently injects nothing reports
                // green for recovery paths it never exercised.
                dlvp_fatal("malformed DLVP_FAULT_INJECT: %s",
                           e.what());
            }
        }
        return FaultPlan{};
    }();
    return plan;
}

} // namespace

const FaultPlan &
FaultPlan::global()
{
    std::lock_guard<std::mutex> lock(g_plan_mutex);
    return globalSlot();
}

void
FaultPlan::setGlobal(const std::string &spec)
{
    FaultPlan plan = parse(spec); // throws before taking the lock
    std::lock_guard<std::mutex> lock(g_plan_mutex);
    globalSlot() = std::move(plan);
}

void
FaultPlan::clearGlobal()
{
    std::lock_guard<std::mutex> lock(g_plan_mutex);
    globalSlot() = FaultPlan{};
}

} // namespace dlvp::common
