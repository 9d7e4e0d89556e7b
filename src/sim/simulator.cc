#include "simulator.hh"

#include <chrono>
#include <cmath>

#include "common/logging.hh"
#include "common/run_error.hh"
#include "sim/sweep.hh"
#include "trace/workloads.hh"

namespace dlvp::sim
{

Simulator::Simulator(core::CoreParams params,
                     std::size_t insts_per_workload, TraceStore *store)
    : params_(params), insts_(insts_per_workload),
      store_(store ? store : &TraceStore::global())
{
}

const trace::Trace &
Simulator::workload(const std::string &name)
{
    auto it = pinned_.find(name);
    if (it == pinned_.end())
        it = pinned_.emplace(name, store_->acquire(name, insts_))
                 .first;
    return *it->second;
}

core::CoreStats
Simulator::run(const std::string &workload_name,
               const core::VpConfig &vp)
{
    return run(workload(workload_name), vp);
}

core::CoreStats
Simulator::run(const trace::Trace &trace,
               const core::VpConfig &vp) const
{
    return run(trace, vp, nullptr);
}

core::CoreStats
Simulator::run(const trace::Trace &trace, const core::VpConfig &vp,
               RunPerf *perf) const
{
    const auto warmup = static_cast<std::size_t>(
        static_cast<double>(trace.size()) * kWarmupFraction);
    const auto t0 = std::chrono::steady_clock::now();
    core::OoOCore core(params_, vp, trace);
    core::CoreStats stats = core.run(warmup);
    if (perf != nullptr) {
        const std::chrono::duration<double, std::milli> wall =
            std::chrono::steady_clock::now() - t0;
        perf->wallMs = wall.count();
        perf->mips =
            wall.count() > 0.0
                ? static_cast<double>(trace.size()) /
                      (wall.count() * 1e3)
                : 0.0;
        perf->pagesTouched = core.pagesTouched();
        perf->cyclesSkipped = core.cyclesSkipped();
    }
    return stats;
}

void
Simulator::evict(const std::string &name)
{
    pinned_.erase(name);
    store_->evict(name, insts_);
}

double
speedup(const core::CoreStats &baseline, const core::CoreStats &other)
{
    // A 0-uop trace simulates 0 cycles: a caller's input, not a bug.
    if (other.cycles == 0)
        throw common::RunError(
            common::ErrorKind::Internal,
            "speedup is undefined: the compared run simulated 0 "
            "cycles (empty trace?)");
    return static_cast<double>(baseline.cycles) /
           static_cast<double>(other.cycles);
}

double
amean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (const double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (const double x : v) {
        dlvp_assert(x > 0.0);
        s += std::log(x);
    }
    return std::exp(s / static_cast<double>(v.size()));
}

} // namespace dlvp::sim
