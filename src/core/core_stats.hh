/**
 * @file
 * Counters collected by one core run; everything the benches and the
 * energy model need. Every counter is a zero-initialized
 * std::uint64_t declared by DLVP_CORE_STATS_FIELDS, the one list of
 * them.
 */

#ifndef DLVP_CORE_CORE_STATS_HH
#define DLVP_CORE_CORE_STATS_HH

#include <cstdint>
#include <ostream>

namespace dlvp::core
{

/**
 * X-macro over every CoreStats counter, in declaration order: the
 * struct below declares its members by expanding it, so the list
 * exists once. The golden-stats test, accumulate() and perfbench's
 * digest iterate it, so a new counter is covered everywhere.
 */
#define DLVP_CORE_STATS_FIELDS(X) \
    X(cycles) \
    X(committedInsts) \
    X(committedLoads) \
    X(committedStores) \
    X(committedBranches) \
    X(fetchedInsts) \
    /* Branch prediction. */ \
    X(condBranches) \
    X(condMispredicts) \
    X(indirectBranches) \
    X(indirectMispredicts) \
    X(returnMispredicts) \
    /* Value prediction (counted at commit). */ \
    X(vpEligibleLoads) \
    X(vpPredictedLoads) /* coverage numerator */ \
    X(vpCorrectLoads) /* accuracy numerator */ \
    X(vpPredictedInsts) /* all-instructions mode */ \
    X(vpCorrectInsts) \
    X(vpFlushes) \
    X(vpReplays) /* oracle-replay suppressions */ \
    X(pvtFullDrops) \
    X(prfPortDrops) /* design #1 write-port conflicts */ \
    /* Tournament breakdown (Figure 8b). */ \
    X(tournamentDlvpFinal) \
    X(tournamentVtageFinal) \
    /* DLVP specifics. */ \
    X(paqAllocs) \
    X(paqDrops) \
    X(paqBypass) \
    X(probes) \
    X(probeHits) \
    X(probeMisses) \
    X(probeLate) /* value arrived after rename */ \
    X(wayMispredicts) \
    X(dlvpPrefetches) \
    X(lscdBlocked) \
    X(lscdInserts) \
    X(addrPredCorrect) /* predicted addr == actual */ \
    X(addrPredWrong) \
    /* Memory system. */ \
    X(l1dAccesses) \
    X(l1dMisses) \
    X(l2Accesses) \
    X(l3Accesses) \
    X(memAccesses) \
    X(tlbMisses) \
    /* Other recovery. */ \
    X(branchFlushes) \
    X(memOrderFlushes) \
    /* Pipeline bottleneck diagnostics. */ \
    X(issueWaitCycles) /* sum(issue - dispatch) */ \
    X(dispatchWaitCycles) /* sum(dispatch - fetch - depth) */ \
    X(robFullStalls) \
    X(iqFullStalls) \
    X(fetchHaltCycles) /* waiting on a branch */ \
    /* Register-file / VPE traffic (for the energy model). */ \
    X(prfReads) \
    X(prfWrites) \
    X(pvtReads) \
    X(pvtWrites) \
    X(predictorLookups) \
    X(predictorWrites)

struct CoreStats
{
#define DLVP_STATS_DECL_FIELD(f) std::uint64_t f = 0;
    DLVP_CORE_STATS_FIELDS(DLVP_STATS_DECL_FIELD)
#undef DLVP_STATS_DECL_FIELD

    /** Field-wise equality (sweep determinism checks). */
    bool operator==(const CoreStats &) const = default;

    /**
     * Field-wise sum: interval-sampled runs (sim/sampler.hh) aggregate
     * per-interval stats through this. Driven by the X-macro so a new
     * counter is accumulated automatically.
     */
    void
    accumulate(const CoreStats &o)
    {
#define DLVP_STATS_ACC_FIELD(f) f += o.f;
        DLVP_CORE_STATS_FIELDS(DLVP_STATS_ACC_FIELD)
#undef DLVP_STATS_ACC_FIELD
    }

    double
    ipc() const
    {
        return cycles == 0 ? 0.0
                           : static_cast<double>(committedInsts) /
                                 static_cast<double>(cycles);
    }

    /** Coverage over loads (§5.1 footnote definition). */
    double
    coverage() const
    {
        return committedLoads == 0
                   ? 0.0
                   : static_cast<double>(vpPredictedLoads) /
                         static_cast<double>(committedLoads);
    }

    double
    accuracy() const
    {
        return vpPredictedLoads == 0
                   ? 0.0
                   : static_cast<double>(vpCorrectLoads) /
                         static_cast<double>(vpPredictedLoads);
    }

    double
    branchMpki() const
    {
        return committedInsts == 0
                   ? 0.0
                   : 1000.0 *
                         static_cast<double>(condMispredicts +
                                             indirectMispredicts +
                                             returnMispredicts) /
                         static_cast<double>(committedInsts);
    }

    void dump(std::ostream &os) const;
};

} // namespace dlvp::core

#endif // DLVP_CORE_CORE_STATS_HH
