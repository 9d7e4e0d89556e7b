#include "sweep.hh"

#include <chrono>
#include <future>
#include <mutex>
#include <thread>
#include <utility>

#include "common/fault_inject.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "sim/sampler.hh"
#include "trace/workloads.hh"

namespace dlvp::sim
{

// ---------------------------------------------------------------------
// TraceStore
// ---------------------------------------------------------------------

/**
 * Build-once latch per key. The slot is created under the unique lock
 * but the (expensive) build runs outside any store lock; concurrent
 * acquirers of the same key wait on the slot's shared_future instead
 * of re-building.
 */
struct TraceStore::Slot
{
    std::promise<std::shared_ptr<const trace::Trace>> promise;
    std::shared_future<std::shared_ptr<const trace::Trace>> ready{
        promise.get_future().share()};
    bool builder_claimed = false; ///< guarded by the store lock
};

std::shared_ptr<const trace::Trace>
TraceStore::acquire(const std::string &name, std::size_t insts)
{
    const auto key = std::make_pair(name, insts);
    std::shared_ptr<Slot> slot;
    bool build_here = false;
    {
        // Fast path: someone already created (or is creating) it.
        std::shared_lock<std::shared_mutex> lock(m_);
        auto it = cache_.find(key);
        if (it != cache_.end())
            slot = it->second;
    }
    if (!slot) {
        std::unique_lock<std::shared_mutex> lock(m_);
        auto it = cache_.find(key);
        if (it == cache_.end()) {
            slot = std::make_shared<Slot>();
            slot->builder_claimed = true;
            build_here = true;
            cache_.emplace(key, slot);
        } else {
            slot = it->second;
        }
    }
    if (build_here) {
        builds_.fetch_add(1, std::memory_order_relaxed);
        try {
            slot->promise.set_value(
                std::make_shared<const trace::Trace>(
                    trace::WorkloadRegistry::build(name, insts)));
            // A success proves the key buildable again (e.g. an OOM
            // burst passed): reset its failure budget.
            std::unique_lock<std::shared_mutex> lock(m_);
            failedAttempts_.erase(key);
        } catch (...) {
            // Evict the failed slot under the lock BEFORE publishing
            // the failure: once any waiter can observe the exception,
            // no new acquirer can find (and cache-hit) the dead slot.
            // The attempt counter bounds rebuilds of a key that fails
            // deterministically — at the cap the failed slot stays in
            // the cache so later acquirers fail fast instead of
            // re-running a doomed build.
            {
                std::unique_lock<std::shared_mutex> lock(m_);
                const unsigned attempts = ++failedAttempts_[key];
                if (attempts < kMaxBuildAttempts) {
                    auto it = cache_.find(key);
                    if (it != cache_.end() && it->second == slot)
                        cache_.erase(it);
                }
            }
            slot->promise.set_exception(std::current_exception());
        }
    }
    return slot->ready.get(); // rethrows a failed build
}

unsigned
TraceStore::failedBuildAttempts(const std::string &name,
                                std::size_t insts) const
{
    std::shared_lock<std::shared_mutex> lock(m_);
    auto it = failedAttempts_.find(std::make_pair(name, insts));
    return it == failedAttempts_.end() ? 0 : it->second;
}

bool
TraceStore::evict(const std::string &name, std::size_t insts)
{
    std::unique_lock<std::shared_mutex> lock(m_);
    return cache_.erase(std::make_pair(name, insts)) > 0;
}

void
TraceStore::clear()
{
    std::unique_lock<std::shared_mutex> lock(m_);
    cache_.clear();
    failedAttempts_.clear();
}

std::size_t
TraceStore::cachedCount() const
{
    std::shared_lock<std::shared_mutex> lock(m_);
    return cache_.size();
}

TraceStore &
TraceStore::global()
{
    static TraceStore store;
    return store;
}

// ---------------------------------------------------------------------
// Sweep execution
// ---------------------------------------------------------------------

std::uint64_t
jobSeed(const std::string &workload, const std::string &config)
{
    return deriveSeed(workload, config, /*salt=*/0x5357454550ULL);
}

unsigned
retryDelayMs(unsigned baseMs, unsigned attempt, std::uint64_t seed)
{
    if (baseMs == 0 || attempt < 2)
        return 0;
    // Saturating exponential: clamp the shift so a large attempt
    // count cannot overflow, then cap the doubling at the ceiling.
    const unsigned shift = std::min(attempt - 2, 20u);
    const std::uint64_t capped = std::min(
        std::uint64_t{baseMs} << shift, kMaxRetryBackoffMs);
    // splitmix64 over (seed, attempt): deterministic per (workload,
    // config, attempt), independent of thread identity or schedule.
    std::uint64_t x =
        seed ^ (0x9e3779b97f4a7c15ULL * std::uint64_t{attempt});
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    // Land in [capped/2, capped]: jitter spreads synchronized
    // failures without ever exceeding the cap or collapsing to 0.
    const std::uint64_t half = capped / 2;
    return static_cast<unsigned>(half + x % (capped - half + 1));
}

const char *
jobStatusName(JobStatus s)
{
    switch (s) {
    case JobStatus::Ok:
        return "ok";
    case JobStatus::Retried:
        return "retried";
    case JobStatus::Failed:
        return "failed";
    case JobStatus::Timeout:
        return "timeout";
    }
    return "failed";
}

namespace
{

/** Severity order for SweepRow::status(). */
int
statusRank(JobStatus s)
{
    switch (s) {
    case JobStatus::Ok:
        return 0;
    case JobStatus::Retried:
        return 1;
    case JobStatus::Timeout:
        return 2;
    case JobStatus::Failed:
        return 3;
    }
    return 3;
}

} // namespace

JobStatus
SweepRow::status() const
{
    JobStatus worst = baselineOutcome.status;
    for (const JobOutcome &o : outcomes)
        if (statusRank(o.status) > statusRank(worst))
            worst = o.status;
    return worst;
}

double
SweepResult::meanSpeedup(std::size_t idx) const
{
    std::vector<double> v;
    v.reserve(rows.size());
    for (const auto &r : rows)
        if (r.cellOk(idx))
            v.push_back(speedup(r.baseline, r.results[idx]));
    return amean(v);
}

double
SweepResult::geomeanSpeedup(std::size_t idx) const
{
    std::vector<double> v;
    v.reserve(rows.size());
    for (const auto &r : rows)
        if (r.cellOk(idx))
            v.push_back(speedup(r.baseline, r.results[idx]));
    return geomean(v);
}

std::size_t
SweepResult::failedJobs() const
{
    std::size_t n = 0;
    for (const auto &r : rows) {
        if (!r.baselineOutcome.ok())
            ++n;
        for (const auto &o : r.outcomes)
            if (!o.ok())
                ++n;
    }
    return n;
}

SweepResult
runSweep(const SweepSpec &spec)
{
    SweepResult result;
    result.insts = spec.insts;
    for (const auto &c : spec.configs)
        result.configNames.push_back(c.name);

    const std::vector<std::string> workloads =
        spec.workloads.empty() ? trace::WorkloadRegistry::names()
                               : spec.workloads;
    // Column 0 is the baseline; columns 1.. are the spec configs.
    const std::size_t ncols = spec.configs.size() + 1;
    const std::size_t total = workloads.size() * ncols;

    result.sample = spec.sample;
    result.rows.resize(workloads.size());
    for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
        result.rows[wi].workload = workloads[wi];
        result.rows[wi].results.resize(spec.configs.size());
        result.rows[wi].perf.resize(spec.configs.size());
        result.rows[wi].outcomes.resize(spec.configs.size());
        result.rows[wi].samples.resize(spec.configs.size());
    }
    if (total == 0)
        return result;

    TraceStore &store =
        spec.store ? *spec.store : TraceStore::global();
    const Simulator sim(spec.core, spec.insts);

    // Evict a workload's trace as soon as its last job finishes so a
    // wide sweep holds at most ~jobs traces, not the whole suite.
    std::vector<std::atomic<std::size_t>> remaining(workloads.size());
    for (auto &r : remaining)
        r.store(ncols, std::memory_order_relaxed);
    std::atomic<std::size_t> done{0};

    // Sweep-level wall-clock deadline: queued jobs observe expiry at
    // their first attempt and cancel themselves (status timeout)
    // without simulating; the collection loop additionally drops the
    // never-scheduled tail via ThreadPool::cancelPending().
    using WallClock = std::chrono::steady_clock;
    const bool has_deadline = spec.deadlineMs > 0.0;
    const WallClock::time_point deadline =
        has_deadline
            ? WallClock::now() +
                  std::chrono::duration_cast<WallClock::duration>(
                      std::chrono::duration<double, std::milli>(
                          spec.deadlineMs))
            : WallClock::time_point::max();
    const auto deadline_expired = [&] {
        return has_deadline && WallClock::now() >= deadline;
    };

    const unsigned max_attempts = std::max(1u, spec.maxAttempts);
    const common::FaultPlan &faults = common::FaultPlan::global();

    // Bookkeeping every cell must run exactly once, completed or
    // cancelled: trace eviction refcount and the progress hook.
    const auto finish_cell = [&](std::size_t wi) {
        if (remaining[wi].fetch_sub(1, std::memory_order_acq_rel) ==
            1)
            store.evict(workloads[wi], spec.insts);
        const std::size_t k =
            done.fetch_add(1, std::memory_order_acq_rel) + 1;
        if (spec.progress)
            spec.progress(k, total);
    };

    // One grid cell, fully isolated: every failure becomes a
    // structured JobOutcome in the cell's own slot. The per-job seed
    // depends only on (workload, config), so a retried attempt
    // reproduces the first bit-for-bit.
    const auto run_cell = [&](std::size_t wi, std::size_t ci) {
        const std::string &w = workloads[wi];
        const std::string cfg_name =
            ci == 0 ? "baseline" : spec.configs[ci - 1].name;
        JobOutcome &outcome =
            ci == 0 ? result.rows[wi].baselineOutcome
                    : result.rows[wi].outcomes[ci - 1];
        const std::string context =
            "workload=" + w + " config=" + cfg_name;
        for (unsigned attempt = 1;; ++attempt) {
            try {
                if (deadline_expired())
                    throw common::RunError(
                        common::ErrorKind::SimTimeout,
                        "sweep deadline expired before job start");
                auto tr = store.acquire(w, spec.insts);
                if (const unsigned ms = faults.stallMs(w, cfg_name))
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(ms));
                core::VpConfig vp = ci == 0
                                        ? spec.baseline
                                        : spec.configs[ci - 1].vp;
                if (spec.perJobSeed)
                    vp.rngSeed = jobSeed(w, cfg_name);
                RunPerf perf;
                core::CoreStats stats;
                SampleCell scell;
                if (spec.sample.enabled) {
                    // Sampled cell: detailed intervals + functional
                    // fast-forward; telemetry covers the sampled work
                    // only (the optional check run is validation
                    // cost, not throughput).
                    const auto s0 = std::chrono::steady_clock::now();
                    const SampledRun sr =
                        runSampled(spec.core, vp, *tr, spec.sample);
                    const std::chrono::duration<double, std::milli>
                        wall =
                            std::chrono::steady_clock::now() - s0;
                    stats = sr.stats;
                    perf.wallMs = wall.count();
                    perf.mips =
                        wall.count() > 0.0
                            ? static_cast<double>(sr.sampledInsts()) /
                                  (wall.count() * 1e3)
                            : 0.0;
                    scell.intervals = sr.intervals;
                    scell.sampledInsts = sr.sampledInsts();
                    if (spec.sample.check)
                        scell.cpiError =
                            cpiError(sr, sim.run(*tr, vp));
                } else {
                    stats = sim.run(*tr, vp, &perf);
                }
                if (ci == 0) {
                    result.rows[wi].baseline = stats;
                    result.rows[wi].baselinePerf = perf;
                    result.rows[wi].baselineSample = scell;
                } else {
                    result.rows[wi].results[ci - 1] = stats;
                    result.rows[wi].perf[ci - 1] = perf;
                    result.rows[wi].samples[ci - 1] = scell;
                }
                outcome.status = attempt == 1 ? JobStatus::Ok
                                              : JobStatus::Retried;
                outcome.attempts = attempt;
                return;
            } catch (...) {
                const common::RunError err =
                    common::normalizeCurrentException(
                        context +
                        " attempt=" + std::to_string(attempt));
                if (err.transient() && attempt < max_attempts &&
                    !deadline_expired()) {
                    // Capped exponential with per-job-seed jitter
                    // (see retryDelayMs): bounded, deterministic
                    // under any job count.
                    if (const unsigned ms = retryDelayMs(
                            spec.retryBackoffMs, attempt + 1,
                            jobSeed(w, cfg_name)))
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(ms));
                    continue;
                }
                outcome.status =
                    err.kind() == common::ErrorKind::SimTimeout
                        ? JobStatus::Timeout
                        : JobStatus::Failed;
                outcome.errorKind = err.kind();
                outcome.error = err.describe();
                outcome.attempts = attempt;
                return;
            }
        }
    };

    ThreadPool pool(spec.jobs ? spec.jobs
                              : ThreadPool::defaultJobs());
    std::vector<std::future<void>> futures;
    futures.reserve(total);

    for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
        for (std::size_t ci = 0; ci < ncols; ++ci) {
            futures.push_back(pool.submit([&, wi, ci] {
                run_cell(wi, ci);
                finish_cell(wi);
            }));
        }
    }

    // Collect. Cells never rethrow; a broken future means the
    // deadline path below dropped the job before it started, and the
    // cell is marked cancelled here (with its bookkeeping).
    bool cancelled_pending = false;
    for (std::size_t i = 0; i < futures.size(); ++i) {
        if (has_deadline && !cancelled_pending &&
            futures[i].wait_until(deadline) !=
                std::future_status::ready) {
            pool.cancelPending();
            cancelled_pending = true;
        }
        try {
            futures[i].get();
        } catch (const std::future_error &) {
            const std::size_t wi = i / ncols;
            const std::size_t ci = i % ncols;
            JobOutcome &outcome =
                ci == 0 ? result.rows[wi].baselineOutcome
                        : result.rows[wi].outcomes[ci - 1];
            outcome.status = JobStatus::Timeout;
            outcome.errorKind = common::ErrorKind::SimTimeout;
            outcome.error =
                "sim_timeout: sweep deadline expired; job cancelled "
                "before start";
            outcome.attempts = 0;
            finish_cell(wi);
        }
    }
    return result;
}

} // namespace dlvp::sim
