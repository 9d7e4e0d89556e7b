#include "sim/sampler.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <exception>
#include <future>
#include <memory>
#include <optional>

#include "common/run_error.hh"
#include "common/thread_pool.hh"
#include "core/core.hh"

namespace dlvp::sim
{

namespace
{

void
validateSpec(const SampleSpec &sample)
{
    if (sample.measureInsts == 0)
        throw common::RunError(common::ErrorKind::Internal,
                               "sample spec: measureInsts must be > 0");
    if (sample.periodInsts <
        sample.warmupInsts + sample.measureInsts)
        throw common::RunError(
            common::ErrorKind::Internal,
            "sample spec: periodInsts must cover warmup + measure");
}

} // namespace

double
cpiError(const SampledRun &sampled, const core::CoreStats &full)
{
    if (full.committedInsts == 0)
        return 0.0;
    const double fullCpi = static_cast<double>(full.cycles) /
                           static_cast<double>(full.committedInsts);
    if (fullCpi == 0.0)
        return 0.0;
    return std::abs(sampled.cpi() - fullCpi) / fullCpi;
}

SampledRun
runSampled(const core::CoreParams &params, const core::VpConfig &vp,
           const trace::Trace &trace, const SampleSpec &sample,
           unsigned jobs)
{
    validateSpec(sample);
    if (jobs == 0)
        jobs = ThreadPool::defaultJobs();
    // The calling thread walks the trace; up to two workers simulate
    // intervals beside it. Each in-flight interval holds a slice and a
    // core, and a third worker pushed the mega-sampled peak RSS past
    // the serial run's (DESIGN.md §13.3).
    const unsigned workers = std::min(jobs - 1, 2u);

    const auto simulate = [&params, &vp, &sample](
                              const trace::Trace &slice) {
        core::OoOCore core(params, vp, slice);
        return core.run(sample.warmupInsts);
    };

    /**
     * An interval handed to a worker. The walker owns the slice until
     * it has joined the result: the slice's image shares pages with
     * the walker's running image, and while it holds them the walker
     * copies a page before writing it instead of writing a page the
     * worker may still read.
     */
    struct InFlight
    {
        std::unique_ptr<const trace::Trace> slice;
        std::future<core::CoreStats> stats;
    };
    SampledRun out;
    std::deque<InFlight> inflight;
    std::exception_ptr error; // the first failure in interval order
    // Stats accumulate in interval order, so the sum is bit-identical
    // to a serial run's; after a failure later intervals only join.
    const auto joinOldest = [&] {
        try {
            const core::CoreStats stats = inflight.front().stats.get();
            if (!error) {
                out.stats.accumulate(stats);
                ++out.intervals;
            }
        } catch (...) {
            if (!error)
                error = std::current_exception();
        }
        inflight.pop_front();
    };
    // Declared last so that on every path its destructor joins the
    // workers before anything their jobs use goes away.
    std::optional<ThreadPool> pool;
    if (workers > 0)
        pool.emplace(workers);

    std::exception_ptr walkError;
    try {
        // One forward pass over the trace: the architectural image is
        // advanced by store replay up to each interval's start,
        // snapshotted (copy-on-write) into the slice, then carried
        // through the slice's own stores, so the next fast-forward
        // resumes at the slice's end and every instruction is decoded
        // once. Boundaries depend only on (trace size, spec) — the
        // determinism anchor.
        trace::MemoryImage image = trace.initialImage;
        std::size_t pos = 0; // image holds the memory state as of pos
        for (std::size_t start = 0; start < trace.size();
             start += sample.periodInsts) {
            // Join intervals that have already finished, oldest first:
            // their slices then stop sharing pages with the image, so
            // the fast-forward writes those pages in place instead of
            // copying them.
            while (!inflight.empty() &&
                   inflight.front().stats.wait_for(
                       std::chrono::seconds(0)) ==
                       std::future_status::ready)
                joinOldest();
            if (error)
                break;
            trace::advanceImage(image, trace, pos, start);
            const std::size_t avail = trace.size() - start;
            if (avail <= sample.warmupInsts)
                break; // no measurable instructions left in the tail
            const std::size_t count = std::min(
                avail, sample.warmupInsts + sample.measureInsts);
            // Bounded window: at most `workers` slices alive at once.
            if (pool && inflight.size() == workers) {
                joinOldest();
                if (error)
                    break;
            }
            auto slice = std::make_unique<const trace::Trace>(
                trace::sliceAndAdvance(trace, image, start, count));
            pos = start + count;
            if (!pool) {
                out.stats.accumulate(simulate(*slice));
                ++out.intervals;
                continue;
            }
            const trace::Trace &job = *slice;
            inflight.push_back({std::move(slice), {}});
            try {
                inflight.back().stats = pool->submit(
                    [&simulate, &job] { return simulate(job); });
            } catch (...) {
                inflight.pop_back(); // never queued: nothing to join
                throw;
            }
        }
    } catch (...) {
        walkError = std::current_exception();
    }
    // Every interval still in flight is older than whatever the walker
    // threw, so, as in a serial run, an interval's failure wins.
    while (!inflight.empty())
        joinOldest();
    if (!error)
        error = walkError;
    if (error)
        std::rethrow_exception(error);
    return out;
}

} // namespace dlvp::sim
