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
 * Determinism: interval boundaries are instruction indices derived
 * from (trace size, SampleSpec) alone — never wall time — and each
 * interval simulates a materialized slice seeded only by the spec, so
 * sampled CoreStats are bit-identical across job counts and
 * scheduling orders (ctest label `mega`).
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
 * a given (trace, params, vp, sample); throws common::RunError for
 * invalid specs (period < warmup + measure, zero measure) and
 * propagates core RunErrors (deadlock, injected faults) to the caller
 * like Simulator::run does.
 */
SampledRun runSampled(const core::CoreParams &params,
                      const core::VpConfig &vp,
                      const trace::Trace &trace,
                      const SampleSpec &sample);

} // namespace dlvp::sim

#endif // DLVP_SIM_SAMPLER_HH
