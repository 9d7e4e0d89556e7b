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
    // The calling thread walks the trace; up to three workers simulate
    // intervals beside it (DESIGN.md §13.3).
    const unsigned workers = std::min(jobs - 1, 3u);

    /**
     * One worker's buffers, kept for the whole run: interval i runs in
     * slot i % slots. The slice is refilled in place and the core is
     * reset onto it, so a run allocates each slot's 3.4 MB slice and
     * its core once instead of once per interval.
     */
    struct Slot
    {
        trace::Trace slice;
        std::optional<core::OoOCore> core;
    };
    const std::size_t window = sample.warmupInsts + sample.measureInsts;
    const unsigned numSlots = std::max(workers, 1u);
    const auto slots = std::make_unique<Slot[]>(numSlots);
    // Size every slice buffer before the walk starts copying image
    // pages, so those small long-lived copies do not land between the
    // buffers and fragment the heap around them (DESIGN.md §13.3).
    for (unsigned k = 0; k < numSlots; ++k)
        slots[k].slice.insts.reserve(std::min(window, trace.size()));
    const auto simulate = [&params, &vp, &sample](Slot &slot) {
        if (slot.core)
            slot.core->reset(slot.slice);
        else
            slot.core.emplace(params, vp, slot.slice);
        core::OoOCore &core = *slot.core;
        core::CoreStats stats;
        try {
            stats = core.run(sample.warmupInsts);
        } catch (...) {
            core.dropImages();
            throw;
        }
        core.dropImages();
        return stats;
    };

    /**
     * An interval handed to a worker. The walker keeps the slot's
     * slice image until it has joined the result: that image shares
     * pages with the walker's running image, and while it holds them
     * the walker copies a page before writing it instead of writing a
     * page the worker may still read.
     */
    struct InFlight
    {
        Slot *slot;
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
        inflight.front().slot->slice.initialImage.clear();
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
        std::size_t interval = 0;
        for (std::size_t start = 0; start < trace.size();
             start += sample.periodInsts, ++interval) {
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
            const std::size_t count = std::min(avail, window);
            // Bounded window: at most `workers` intervals in flight,
            // so the oldest one, which used this slot, has joined.
            if (pool && inflight.size() == workers) {
                joinOldest();
                if (error)
                    break;
            }
            Slot &slot = slots[interval % numSlots];
            trace::sliceAndAdvance(trace, image, start, count,
                                   slot.slice);
            pos = start + count;
            if (!pool) {
                const core::CoreStats stats = simulate(slot);
                slot.slice.initialImage.clear();
                out.stats.accumulate(stats);
                ++out.intervals;
                continue;
            }
            inflight.push_back({&slot, {}});
            try {
                inflight.back().stats = pool->submit(
                    [&simulate, &slot] { return simulate(slot); });
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
    // A trace shorter than one warmup leaves nothing to measure; an
    // empty one is reported as such by the caller's speedup check.
    if (out.intervals == 0 && trace.size() > 0)
        throw common::RunError(
            common::ErrorKind::Internal,
            "sampled run measured no instruction: the trace has " +
                std::to_string(trace.size()) +
                " instructions, not more than warmupInsts=" +
                std::to_string(sample.warmupInsts));
    return out;
}

} // namespace dlvp::sim
