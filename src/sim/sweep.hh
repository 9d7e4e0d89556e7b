/**
 * @file
 * Parallel sweep engine: turns a (workload × config) grid into jobs
 * on a fixed-size thread pool, with results keyed deterministically so
 * parallel output is bit-identical to serial.
 *
 * Determinism contract:
 *  - every job is self-contained: a fresh OoOCore over an immutable
 *    shared trace, writing only to its own pre-allocated result slot;
 *  - any per-job randomness is seeded from (workload, config) via
 *    deriveSeed() — never from thread identity or completion order;
 *  - the trace store builds each trace exactly once, and a trace's
 *    contents depend only on (workload name, instruction count).
 * Under this contract `runSweep(spec)` returns the same SweepResult
 * for any job count, which tests/test_sweep.cc asserts.
 */

#ifndef DLVP_SIM_SWEEP_HH
#define DLVP_SIM_SWEEP_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/annotations.hh"
#include "common/run_error.hh"
#include "core/core_stats.hh"
#include "core/params.hh"
#include "sim/sample_spec.hh"
#include "sim/simulator.hh"
#include "trace/trace.hh"

namespace dlvp::sim
{

/**
 * Thread-safe, build-once trace cache shared by concurrent sweep jobs.
 *
 * Traces are tens of MB, so jobs share one immutable copy per
 * (workload, insts) key. The first acquirer builds; concurrent
 * acquirers of the same key block on the build rather than duplicating
 * it. Lifetime is refcounted through shared_ptr: evict() only drops
 * the cache's reference, so in-flight jobs keep their trace valid.
 */
class TraceStore
{
  public:
    TraceStore() = default;
    TraceStore(const TraceStore &) = delete;
    TraceStore &operator=(const TraceStore &) = delete;

    /**
     * Builds of one key that may fail before the store pins the
     * failure: up to this many attempts the failed slot is evicted
     * (under the store lock, before the failure is published) so the
     * next acquirer rebuilds; at the cap the failed slot stays cached
     * and every later acquirer rethrows immediately instead of
     * hammering a deterministic failure.
     */
    static constexpr unsigned kMaxBuildAttempts = 3;

    /**
     * Fetch the trace for @p name at @p insts micro-ops, building it
     * (exactly once across threads) on first use. A failed build
     * rethrows to every waiter of that attempt, but the key itself is
     * rebuildable on the next acquire (see kMaxBuildAttempts).
     */
    std::shared_ptr<const trace::Trace>
    acquire(const std::string &name, std::size_t insts);

    /** Failed build attempts recorded for @p name / @p insts. */
    unsigned failedBuildAttempts(const std::string &name,
                                 std::size_t insts) const;

    /**
     * Drop the cached reference for @p name / @p insts. Safe for
     * unknown keys (returns false); in-flight users are unaffected.
     */
    bool evict(const std::string &name, std::size_t insts);

    /** Drop every cached reference. */
    void clear();

    /** Number of trace builds performed (build-once test hook). */
    std::size_t buildCount() const { return builds_.load(); }

    /** Number of currently cached traces. */
    std::size_t cachedCount() const;

    /** Process-wide store used by Simulator by default. */
    static TraceStore &global();

  private:
    struct Slot; // holds the build-once latch and the trace

    mutable std::shared_mutex m_;
    std::map<std::pair<std::string, std::size_t>,
             std::shared_ptr<Slot>>
        cache_;
    DLVP_GUARDED_BY(m_);
    /** Failed build attempts per key; bounds rebuild retries. */
    std::map<std::pair<std::string, std::size_t>, unsigned>
        failedAttempts_;
    DLVP_GUARDED_BY(m_);
    std::atomic<std::size_t> builds_{0};
};

// ---------------------------------------------------------------------
// Per-job outcomes
// ---------------------------------------------------------------------

/** Terminal state of one (workload, config) grid cell. */
enum class JobStatus : std::uint8_t
{
    Ok,      ///< ran clean on the first attempt
    Retried, ///< ran clean after >= 1 transient failure (stats are
             ///< bit-identical to a clean run: same per-job seed)
    Failed,  ///< all attempts failed; see errorKind/error
    Timeout, ///< core wall watchdog or sweep deadline fired
};

/** Stable lower-case name for JSON/status columns. */
const char *jobStatusName(JobStatus s);

/** Status + failure detail for one grid cell. */
struct JobOutcome
{
    JobStatus status = JobStatus::Ok;
    /** Meaningful only when !ok(). */
    common::ErrorKind errorKind = common::ErrorKind::Internal;
    /** Human-readable failure description; empty when ok(). */
    std::string error;
    /** Attempts consumed (0 = cancelled before the first attempt). */
    unsigned attempts = 1;

    /** True when the cell holds valid stats (ok or retried). */
    bool
    ok() const
    {
        return status == JobStatus::Ok ||
               status == JobStatus::Retried;
    }
};

/** Named configuration evaluated by a sweep. */
struct SweepConfig
{
    std::string name;
    core::VpConfig vp;
};

/** The full grid one sweep evaluates. */
struct SweepSpec
{
    /** Configurations; each runs on every workload. */
    std::vector<SweepConfig> configs;
    /** Workload names; empty means the whole registered suite. */
    std::vector<std::string> workloads;
    /** Micro-ops per workload trace. */
    std::size_t insts = kDefaultInsts;
    /** Core parameters shared by all jobs. */
    core::CoreParams core{};
    /** Baseline (denominator of every speedup). */
    core::VpConfig baseline{};
    /** Worker threads; 0 = DLVP_JOBS env var or hardware threads. */
    unsigned jobs = 0;
    /**
     * Derive VpConfig::rngSeed from (workload, config name) per job.
     * Off by default to keep results bit-identical with the seed
     * repository's fixed predictor seeds.
     */
    bool perJobSeed = false;
    /**
     * Optional progress hook, called once per finished job with the
     * completed count (monotonic per call site, concurrent across
     * workers) and the job total.
     */
    std::function<void(std::size_t done, std::size_t total)> progress;
    /** Trace store to use; nullptr = TraceStore::global(). */
    TraceStore *store = nullptr;
    /**
     * No effect: every cell runs as its own job. Kept only so callers
     * that still assign it keep compiling; slated for removal.
     */
    bool batch = false;

    /**
     * Interval sampling (sim/sampler.hh): when sample.enabled, every
     * cell runs the sampled pipeline instead of the full trace and
     * rows carry per-cell SampleCell telemetry; with sample.check the
     * full run happens too and the CPI error is recorded. Sampled
     * results keep the determinism contract: bit-identical for any
     * job count and scheduling order.
     */
    SampleSpec sample{};

    // -- fault tolerance (DESIGN.md §9) --------------------------
    /**
     * Attempts per job including the first. Only transient failures
     * (RunError::transient(): trace_build, oom) are retried; the
     * per-job seed is derived from (workload, config) so a retried
     * row is bit-identical to a first-try row.
     */
    unsigned maxAttempts = 2;
    /**
     * Base for the capped exponential backoff before retry r
     * (1-based): see retryDelayMs(). 0 disables the sleep entirely
     * (tests). The delay gives a concurrently failing store or
     * allocator time to drain.
     */
    unsigned retryBackoffMs = 5;
    /**
     * Sweep-level wall-clock deadline in milliseconds; 0 = none.
     * When it expires, queued jobs are cancelled cleanly (status
     * timeout, no simulation) and in-flight jobs finish; runSweep
     * still returns a fully-formed result for the rows that made it.
     */
    double deadlineMs = 0.0;
};

/** Per-cell sampling telemetry (valid when the sweep sampled). */
struct SampleCell
{
    std::size_t intervals = 0;
    std::uint64_t sampledInsts = 0;
    /** Sampled-vs-full relative CPI error; < 0 = not checked. */
    double cpiError = -1.0;
};

/** One workload's results across all configs, in spec config order. */
struct SweepRow
{
    std::string workload;
    core::CoreStats baseline;
    std::vector<core::CoreStats> results; ///< one per spec config
    RunPerf baselinePerf;                 ///< wall time / MIPS / pages
    std::vector<RunPerf> perf;            ///< one per spec config
    JobOutcome baselineOutcome;           ///< baseline cell status
    std::vector<JobOutcome> outcomes;     ///< one per spec config
    /** Sampling telemetry; meaningful when the sweep sampled. */
    SampleCell baselineSample;
    std::vector<SampleCell> samples; ///< one per spec config

    /** stats/perf for config @p idx (and the baseline) are valid. */
    bool
    cellOk(std::size_t idx) const
    {
        return baselineOutcome.ok() && idx < outcomes.size() &&
               outcomes[idx].ok();
    }

    /** Worst cell status: ok < retried < timeout < failed. */
    JobStatus status() const;
};

/** Deterministically keyed sweep output: rows in spec workload order. */
struct SweepResult
{
    std::vector<std::string> configNames; ///< without the baseline
    std::vector<SweepRow> rows;
    std::size_t insts = 0;
    /** The sampling spec the sweep ran under (enabled or not). */
    SampleSpec sample{};

    /**
     * Arithmetic-mean speedup of config @p idx across rows whose
     * baseline and config cells both completed (failed cells are
     * excluded, not counted as zero).
     */
    double meanSpeedup(std::size_t idx) const;

    /** Geometric-mean speedup of config @p idx across valid rows. */
    double geomeanSpeedup(std::size_t idx) const;

    /** Grid cells that did not complete (failed or timed out). */
    std::size_t failedJobs() const;
};

/**
 * Run the grid. Jobs are enqueued in deterministic (workload-major)
 * order and each writes only its own slot, so the result is identical
 * for any spec.jobs value, including 1 (serial).
 *
 * Fault isolation: a job that throws (trace build, deadlock, wall
 * watchdog, OOM, ...) records a structured JobOutcome in its own
 * cell instead of propagating — one bad row never aborts the grid,
 * and fault-free rows are bit-identical to a clean run
 * (tests/test_fault_injection.cc). runSweep itself only throws for
 * caller errors (e.g. an unparseable spec), never per-cell faults.
 */
SweepResult runSweep(const SweepSpec &spec);

/** Seed for one (workload, config) job; schedule-independent. */
std::uint64_t jobSeed(const std::string &workload,
                      const std::string &config);

/** Ceiling every retry backoff is capped at, in milliseconds. */
inline constexpr std::uint64_t kMaxRetryBackoffMs = 1000;

/**
 * Milliseconds to sleep before retry @p attempt (1-based count of the
 * attempt about to run, so the first retry is attempt 2): a capped
 * exponential with deterministic jitter.
 *
 * The exponential doubles from @p baseMs but saturates at
 * kMaxRetryBackoffMs — an uncapped doubling turns a handful of
 * transient failures into minutes of sleeping, which under a sweep
 * deadline silently converts retryable cells into timeout rows. The
 * jitter desynchronizes jobs that failed together (e.g. an OOM burst
 * hitting every worker at once) and is derived from @p seed — the
 * per-job seed, a pure function of (workload, config) — so the exact
 * delay sequence is reproducible under any job count or schedule.
 * The result is always within [cap/2, cap] of the capped value:
 * never 0 for baseMs > 0, never above kMaxRetryBackoffMs.
 */
unsigned retryDelayMs(unsigned baseMs, unsigned attempt,
                      std::uint64_t seed);

} // namespace dlvp::sim

#endif // DLVP_SIM_SWEEP_HH
