/**
 * @file
 * Deterministic fault injection for exercising the fault-tolerance
 * layer (sweep isolation, retry, watchdogs, trace_io hardening).
 *
 * A FaultPlan is parsed from a compact spec string — the
 * DLVP_FAULT_INJECT environment variable or the CLI --fault-plan
 * option — and consulted at seeded points:
 *
 *   plan  := rule (';' rule)*
 *   rule  := 'build' ':' target ['@' n]   throw from the n-th (1-based,
 *                                         per-target; every if omitted)
 *                                         trace build as
 *                                         RunError{trace_build}
 *          | 'stall' ':' target '=' ms    sleep <ms> inside the matching
 *                                         sweep job before simulating
 *          | 'trunc' ':' nbytes           truncate trace files loaded via
 *                                         loadTraceFile to <nbytes> bytes
 *          | 'flip' ':' byte '.' bit      flip bit <bit> (0-7) of byte
 *                                         <byte> in loaded trace files
 *          | 'cache' ':' op ['@' n]       fire the named result-cache
 *                                         fault at the n-th (1-based,
 *                                         per-rule; every if omitted)
 *                                         matching injection point
 *                                         (serve/cache.cc: kill-entry,
 *                                         kill-rename, kill-journal,
 *                                         trunc-entry, flip-entry)
 *          | 'conn' ':' op ['@' n]        fire the named connection
 *                                         fault in the serve daemon
 *                                         (serve/server.cc: drop,
 *                                         trunc, garble)
 *          | 'seed' '=' n                 seed consumed by randomized
 *                                         fault tests
 *   target := workload ['/' config] | '*'
 *   op     := [a-z0-9-]+                  interpreted by the consulting
 *                                         subsystem; unknown ops never
 *                                         fire
 *
 * Examples:
 *   build:mcf            every mcf trace build fails
 *   build:mcf@1          only the first attempt fails (retry succeeds)
 *   stall:vpr/dlvp=50    the (vpr, dlvp) job sleeps 50 ms
 *   trunc:128            loaded trace files are cut to 128 bytes
 *   cache:kill-journal@1 SIGKILL mid-append of the first journal record
 *   conn:drop@2          the daemon drops its second accepted connection
 *
 * Injection points count per target name (not per thread or schedule),
 * so a plan fires identically under any job count. An empty/absent
 * plan costs one pointer compare per hook on the hot path.
 */

#ifndef DLVP_COMMON_FAULT_INJECT_HH
#define DLVP_COMMON_FAULT_INJECT_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace dlvp::common
{

class FaultPlan
{
  public:
    /** Empty plan: every hook is a no-op. */
    FaultPlan() = default;

    /**
     * Parse a spec string (see file header for the grammar). Throws
     * RunError{internal} with a position message on syntax errors.
     */
    static FaultPlan parse(const std::string &spec);

    bool empty() const { return rules_.empty(); }

    /** Original spec text (for logs and reports). */
    const std::string &spec() const { return spec_; }

    /**
     * Should this trace build fail? Counts attempts per rule and
     * matches the rule's @n occurrence (every occurrence if
     * unnumbered). Thread-safe; deterministic per workload name.
     */
    bool failBuild(const std::string &workload) const;

    /** Milliseconds the (workload, config) sweep job must stall. */
    unsigned stallMs(const std::string &workload,
                     const std::string &config) const;

    /**
     * Apply trunc/flip rules to a raw serialized-trace blob.
     * Returns true if @p bytes was mutated.
     */
    bool corrupt(std::string &bytes) const;

    /**
     * Should the named result-cache fault fire at this injection
     * point? Counts occurrences per rule (like failBuild) and matches
     * the rule's @n occurrence, so e.g. "cache:kill-journal@2" kills
     * exactly the second journal append. The op vocabulary belongs to
     * the consulting subsystem (serve/cache.cc); unknown ops simply
     * never fire. Thread-safe; deterministic per op name.
     */
    bool cacheOp(const std::string &op) const;

    /**
     * Same contract as cacheOp() for the serve daemon's connection
     * faults (serve/server.cc: drop / trunc / garble).
     */
    bool connOp(const std::string &op) const;

    /** Seed for randomized fault tests (0 if the plan sets none). */
    std::uint64_t seed() const { return seed_; }

    // -- process-global plan -------------------------------------
    /**
     * The process-wide plan: parsed from DLVP_FAULT_INJECT on first
     * use (a parse error there warns and yields an empty plan, so a
     * typo cannot silently disable a real run's error handling
     * mid-grid). setGlobal() (CLI --fault-plan, tests) replaces it
     * and throws RunError{internal} on a bad spec; call it before
     * starting sweep threads.
     */
    static const FaultPlan &global();
    static void setGlobal(const std::string &spec);
    static void clearGlobal();

  private:
    enum class Kind { Build, Stall, Trunc, Flip, Cache, Conn };

    struct Rule
    {
        Kind kind;
        /** Build/stall: workload pattern ("*" matches any).
         *  Cache/conn: the op name the consulting subsystem asks for. */
        std::string workload;
        std::string config;   ///< "*" matches any (stall only)
        std::uint64_t nth = 0;   ///< build/cache/conn: fire on this count
        std::uint64_t param = 0; ///< stall ms / trunc bytes / flip byte
        unsigned bit = 0;        ///< flip: bit index 0-7
        /** Shared so copies of a plan keep one deterministic count. */
        std::shared_ptr<std::atomic<std::uint64_t>> hits =
            std::make_shared<std::atomic<std::uint64_t>>(0);
    };

    static bool matches(const std::string &pattern,
                        const std::string &value);

    /** Shared counted-occurrence matcher for cache/conn op rules. */
    bool countedOp(Kind kind, const std::string &op) const;

    std::string spec_;
    std::vector<Rule> rules_;
    std::uint64_t seed_ = 0;
};

} // namespace dlvp::common

#endif // DLVP_COMMON_FAULT_INJECT_HH
