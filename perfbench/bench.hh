/**
 * @file
 * Shared plumbing of the perfbench binary: the run context, the
 * output-check ledger, the metric report, and host helpers.
 *
 * Each workload is one function (grid.cc, mega.cc, serve_load.cc)
 * that runs its set-up and its closed loop and adds its metrics to
 * the Report. Untraced mode adds the end-to-end metrics; traced mode
 * adds the per-layer metrics (see README.md for every name).
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Everything a workload function needs from the command line. */
struct RunContext
{
    std::uint64_t seed = 1;
    /** Length of the workload's measured closed loop. */
    double seconds = 10.0;
    /** Traced (per-layer) run instead of the end-to-end run. */
    bool traced = false;
    /** Repetitions of the timed set-up step; setup_s is their median. */
    unsigned setupReps = 7;
    /** The dlvp_serve daemon binary. */
    std::string serveBin;
};

/**
 * Fewest passes or rounds of a closed loop, however short: two, so
 * results can be compared across passes, or four when traced, so
 * traced and untraced passes alternate at least twice each.
 */
inline std::size_t
minOps(const RunContext &ctx)
{
    return ctx.traced ? 4 : 2;
}

/**
 * Output-check ledger. Every operation the benchmark attempts (a grid
 * cell, a sampled run, a served request, a one-off check) is counted;
 * any failed, rejected, timed-out or mismatched one is a failure.
 */
class Checks
{
  public:
    void attempt(std::uint64_t n = 1) { attempted_ += n; }

    /** Count one failure; the first few messages go to stderr. */
    void fail(const std::string &what);

    /** attempt() plus fail() when @p ok is false. */
    void
    expect(bool ok, const std::string &what)
    {
        attempt();
        if (!ok)
            fail(what);
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** Named metrics plus provenance fields, in insertion order. */
class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);

    /** Provenance field; @p json must already be a JSON value. */
    void note(const std::string &key, const std::string &json);

    /** Provenance field holding a number. */
    void noteNumber(const std::string &key, double value);

    /** The provenance object, one line. */
    std::string provenanceJson() const;

    /** The final result line. */
    std::string resultJson(const Checks &checks) const;

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics_;
    std::vector<std::pair<std::string, std::string>> notes_;
};

/** Shortest round-trip text of @p v (non-finite values become 0). */
std::string jsonNumber(double v);

/** Peak resident set (VmHWM) of @p pid, or of this process if 0. */
double peakRssMb(int pid = 0);

// Workloads (one translation unit each).
void gridWorkload(const RunContext &ctx, Checks &checks, Report &report);
void megaWorkload(const RunContext &ctx, Checks &checks, Report &report);
/** @p sampleRow receives one served row for the layer pass. */
void serveWorkload(const RunContext &ctx, Checks &checks, Report &report,
                   std::string *sampleRow);

/** The traced run's layer-isolation pass (layers.cc). */
void layerIsolation(const std::string &servedRow, Checks &checks,
                    Report &report);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
