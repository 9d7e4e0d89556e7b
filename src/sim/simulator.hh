/**
 * @file
 * Simulation façade: fetches workload traces from the shared
 * thread-safe TraceStore and runs core configurations over them.
 *
 * run(trace, vp) is const and touches no Simulator state, so one
 * Simulator may be used from many sweep jobs concurrently; only
 * workload()/evict() (which pin traces into this instance) are
 * single-threaded operations.
 */

#ifndef DLVP_SIM_SIMULATOR_HH
#define DLVP_SIM_SIMULATOR_HH

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/core.hh"
#include "core/core_stats.hh"
#include "core/params.hh"
#include "trace/trace.hh"

namespace dlvp::sim
{

class TraceStore;

/** Default per-workload instruction count for experiments. */
inline constexpr std::size_t kDefaultInsts = 400000;

/** Fraction of each trace used to warm caches and predictors. */
inline constexpr double kWarmupFraction = 0.25;

/**
 * Wall-clock measurement of one core run. Purely host-side telemetry:
 * none of these values feed back into the simulation, so collecting
 * them cannot perturb CoreStats (the golden-stats test enforces this).
 */
struct RunPerf
{
    /** Wall time of OoOCore construction + run, milliseconds. */
    double wallMs = 0.0;
    /** Simulated micro-ops (whole trace, incl. warmup) per wall
     *  second, in millions. */
    double mips = 0.0;
    /** Populated pages across the arch + committed memory images. */
    std::uint64_t pagesTouched = 0;
    /**
     * Simulated cycles elided by the core's idle fast-forward (warmup
     * included). Architecturally these cycles still happened — every
     * CoreStats counter accounts for them — so this measures how
     * event-driven the run was, not a change in simulated time.
     */
    std::uint64_t cyclesSkipped = 0;
};

class Simulator
{
  public:
    /**
     * @p store is the trace cache to delegate to; nullptr selects the
     * process-wide TraceStore::global().
     */
    explicit Simulator(core::CoreParams params = {},
                       std::size_t insts_per_workload = kDefaultInsts,
                       TraceStore *store = nullptr);

    /**
     * Build (or fetch from the shared store) a workload trace. The
     * reference stays valid until evict(name) on this Simulator.
     */
    const trace::Trace &workload(const std::string &name);

    /** Run one configuration on one workload. */
    core::CoreStats run(const std::string &workload_name,
                        const core::VpConfig &vp);

    /** Run one configuration on an explicit trace (thread-safe). */
    core::CoreStats run(const trace::Trace &trace,
                        const core::VpConfig &vp) const;

    /**
     * As above, additionally filling @p perf (if non-null) with the
     * run's wall time, simulated MIPS, and memory-image footprint.
     */
    core::CoreStats run(const trace::Trace &trace,
                        const core::VpConfig &vp, RunPerf *perf) const;

    /**
     * Release a cached trace (they are tens of MB each). Safe to call
     * for names never built; concurrent users of the trace elsewhere
     * keep their (refcounted) reference.
     */
    void evict(const std::string &name);

    const core::CoreParams &params() const { return params_; }
    std::size_t instsPerWorkload() const { return insts_; }

  private:
    core::CoreParams params_;
    std::size_t insts_ = 0;
    TraceStore *store_ = nullptr;
    /** Pins keeping workload() references valid across store evicts. */
    std::map<std::string, std::shared_ptr<const trace::Trace>> pinned_;
};

/**
 * speedup = baseline_cycles / config_cycles. Throws
 * common::RunError{internal} when @p other simulated 0 cycles.
 */
double speedup(const core::CoreStats &baseline,
               const core::CoreStats &other);

/** Arithmetic mean. */
double amean(const std::vector<double> &v);

/** Geometric mean (values must be positive). */
double geomean(const std::vector<double> &v);

} // namespace dlvp::sim

#endif // DLVP_SIM_SIMULATOR_HH
