/**
 * @file
 * Interval-based sampled simulation (SimPoint-style systematic
 * sampling) for mega traces.
 *
 * A full detailed run of a 10M-instruction trace costs ~100x a 100k
 * run; sampling recovers almost all of the CPI signal for a fraction
 * of that. The trace is divided into fixed periods of periodInsts;
 * each period's first (warmupInsts + measureInsts) instructions run
 * through the detailed core — warmup primes caches and predictors and
 * is discarded (CoreStats reset, exactly run(warmup)'s contract) and
 * the measured region is accumulated field-wise into the aggregate.
 * The gap to the next period is skipped *functionally*: only the
 * committed stores are replayed into the memory image
 * (trace::advanceImage), so every interval starts from the
 * architecturally correct memory state.
 *
 * One forward pass: each interval's slice snapshots the running image
 * copy-on-write and replays its own stores into it
 * (trace::sliceAndAdvance), so the next fast-forward resumes at the
 * slice's end and every instruction is decoded exactly once.
 *
 * Pipeline: the calling thread is the only trace walker. It hands
 * each interval's slice to one of at most three workers, which run a
 * core over it while the walk goes on to the next interval. At most
 * one interval per worker is in flight: the walker joins the oldest
 * before it builds the next slice (and joins finished ones before
 * each fast-forward, so their slices release their image pages).
 * Results are joined in interval order. The first failure in interval
 * order is the one thrown, as in a serial run; a walker error (a
 * corrupt chunk) propagates only after the in-flight intervals have
 * joined.
 *
 * Ownership: each worker slot owns one slice buffer and one core for
 * the whole run. The walker refills the slice in place
 * (trace::sliceAndAdvance keeps its capacity) and the worker resets
 * the core onto it (OoOCore::reset), so a run allocates each slot's
 * buffers once instead of once per interval, and a finished slot
 * drops its image-page references before the next fast-forward.
 *
 * Determinism: interval boundaries are instruction indices derived
 * from (trace size, SampleSpec) alone — never wall time — each
 * interval simulates a materialized slice seeded only by the spec on
 * a core in its constructed state, and the stats are summed in
 * interval order, so sampled CoreStats are bit-identical across
 * interval worker counts, sweep job counts and scheduling orders
 * (ctest label `mega`).
 *
 * Streaming: slices materialize O(warmup + measure) instructions at a
 * time via Trace::slice, so sampling a v2-backed streamed trace
 * never materializes the full instruction stream.
 */

#ifndef DLVP_SIM_SAMPLER_HH
#define DLVP_SIM_SAMPLER_HH

#include <cstddef>
#include <cstdint>

#include "core/core_stats.hh"
#include "core/params.hh"
#include "sim/sample_spec.hh"
#include "trace/trace.hh"

namespace dlvp::sim
{

/** Aggregated outcome of one sampled run. */
struct SampledRun
{
    /** Field-wise sum of every interval's measured-region stats. */
    core::CoreStats stats;

    /** Intervals simulated (>= 1 for any non-empty trace). */
    std::size_t intervals = 0;

    /** Committed instructions inside measured regions. */
    std::uint64_t
    sampledInsts() const
    {
        return stats.committedInsts;
    }

    /** Cycles-per-instruction estimate over the measured regions. */
    double
    cpi() const
    {
        return stats.committedInsts == 0
                   ? 0.0
                   : static_cast<double>(stats.cycles) /
                         static_cast<double>(stats.committedInsts);
    }
};

/** |sampled - full| / full CPI; 0 when the full run committed nothing. */
double cpiError(const SampledRun &sampled, const core::CoreStats &full);

/**
 * Run @p vp over @p trace under interval sampling. Deterministic for
 * a given (trace, params, vp, sample) and any @p jobs; throws
 * common::RunError for invalid specs (period < warmup + measure, zero
 * measure) and for a non-empty trace no longer than warmupInsts, which
 * leaves no instruction to measure; propagates core RunErrors
 * (deadlock, injected faults) to the caller like Simulator::run does.
 *
 * @p jobs bounds the threads the run uses: the caller walks the trace
 * and min(jobs - 1, 3) workers simulate intervals beside it; 1 runs
 * every interval on the calling thread, 0 means
 * ThreadPool::defaultJobs(). Callers that already run sampled cells
 * in parallel (runSweep) pass 1.
 */
SampledRun runSampled(const core::CoreParams &params,
                      const core::VpConfig &vp,
                      const trace::Trace &trace,
                      const SampleSpec &sample, unsigned jobs = 0);

} // namespace dlvp::sim

#endif // DLVP_SIM_SAMPLER_HH
