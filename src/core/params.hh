/**
 * @file
 * Core configuration (Table 4) and value-prediction configuration.
 */

#ifndef DLVP_CORE_PARAMS_HH
#define DLVP_CORE_PARAMS_HH

#include <cstdint>
#include <string>

#include "common/fields.hh"
#include "mem/hierarchy.hh"
#include "pred/accel.hh"

namespace dlvp::core
{

#define DLVP_CORE_PARAMS_FIELDS(X) \
    X(unsigned, fetchWidth, 4) /* in-order front-end width */ \
    X(unsigned, dispatchWidth, 4) \
    X(unsigned, issueWidth, 8) /* 8 execution lanes */ \
    X(unsigned, lsLanes, 2) /* lanes supporting load-store ops */ \
    X(unsigned, commitWidth, 8) \
    X(unsigned, robSize, 224) \
    X(unsigned, iqSize, 97) \
    X(unsigned, ldqSize, 72) \
    X(unsigned, stqSize, 56) \
    X(unsigned, numPhysRegs, 348) \
    /* Fetch-to-execute is 13 cycles (Table 4): fetch(5) + decode(3) + \
       rename(1) + regfile(1) + allocate(1) = 11 to enter the IQ, then \
       issue + execute. */ \
    X(unsigned, fetchToDispatch, 11) \
    /* Stage at which predicted values must have reached the VPE. */ \
    X(unsigned, fetchToRename, 9) \
    X(unsigned, aluLatency, 1) \
    /* Extra load pipeline cycles beyond the cache array access (AGU, \
       alignment, writeback): L1 load-to-use = l1d.hitLatency + this \
       (about 4 cycles total, Skylake-class). */ \
    X(unsigned, loadExtraLatency, 2) \
    X(unsigned, mulLatency, 3) \
    X(unsigned, divLatency, 12) \
    X(unsigned, fpLatency, 3) \
    X(unsigned, storeLatency, 1) \
    X(unsigned, forwardLatency, 1) /* store-to-load forwarding */ \
    X(mem::HierarchyParams, memory, {})

/**
 * Baseline core parameters, configured as close as possible to Intel's
 * Skylake core per Table 4 of the paper.
 */
struct CoreParams
{
    DLVP_FIELDS(DLVP_CORE_PARAMS_FIELDS)

    // -- progress watchdog budgets (DESIGN.md §9) ---------------
    // Declared outside the field list, after it: they bound wall
    // clock, never a simulated result, so they are no part of a
    // cell's value, of its canonical text or of dlvp-serve's cache
    // key (serve derives maxWallMs from each request's deadline).
    /**
     * Simulated cycles the core may go without committing before the
     * run is declared deadlocked and aborted with a recoverable
     * RunError{sim_deadlock} (formerly a panic). Also the idle
     * fast-forward horizon, so changing it perturbs nothing
     * architectural — skipped cycles are fully accounted either way.
     * 0 selects the historical default of 200000.
     */
    std::uint64_t maxNoCommitCycles = 200000;
    /**
     * Wall-clock budget for one run() in milliseconds; exceeding it
     * raises RunError{sim_timeout}. Checked every few thousand
     * simulated cycles, so enforcement granularity is coarse but the
     * fault-free path stays free of clock syscalls. 0 = unlimited.
     */
    double maxWallMs = 0.0;

    bool operator==(const CoreParams &) const = default;
};

/** Misprediction recovery model (§5.2.4, Figure 10). */
enum class RecoveryMode : std::uint8_t
{
    Flush,        ///< squash everything younger, refetch
    OracleReplay, ///< treat mispredictions as no-predictions
};

/**
 * How predicted values reach consumers (SS3.2.1). Design #2 (extra
 * PRF write ports) behaves like design #3 in timing — its cost is
 * area/energy (Table 2) — so it shares the Pvt timing model here.
 */
enum class VpeDesign : std::uint8_t
{
    PortArbitration, ///< design #1: share the 8 PRF write ports
    Pvt,             ///< design #3 (the paper's choice) / design #2
};

#define DLVP_VP_CONFIG_FIELDS(X) \
    /* Registry key of the load accelerator the core runs (see \
       pred/accel.hh); "none" is the unaccelerated baseline. Unknown \
       keys surface as RunError{internal} when the core is built. */ \
    X(std::string, accel, "none") \
    X(RecoveryMode, recovery, RecoveryMode::Flush) \
    X(VpeDesign, vpeDesign, VpeDesign::Pvt) \
    /* DLVP: generate an L1 prefetch on a probe miss (Figure 5). */ \
    X(bool, dlvpPrefetch, true) \
    /* DLVP: the 4-entry in-flight-conflict filter (§3.2.2). */ \
    X(bool, useLscd, true) \
    X(unsigned, paqSize, 32) \
    /* N: cycles before a PAQ entry drops (SS3.2.2). The paper derives \
       N = 4 from a Cortex-A72-like 8-stage fetch+decode; this model's \
       front-end leaves 9 cycles from fetch to rename, so the probe \
       window is correspondingly larger. */ \
    X(unsigned, paqLifetime, 8) \
    X(unsigned, pvtSize, 32) \
    /* 1-cycle penalty for checking a predicted value (SS3.2.2). */ \
    X(unsigned, valueCheckPenalty, 1) \
    /* RNG seed for the predictors' stochastic confidence updates; 0 \
       keeps each predictor's fixed built-in seed. It is part of the \
       config, never derived from thread identity, so parallel and \
       serial sweeps stay bit-identical (dlvp-serve sets it from the \
       request's "seed"). */ \
    X(std::uint64_t, rngSeed, 0)

/**
 * Value-prediction configuration: the accelerator's own parameters
 * (inherited, and handed to pred::makeAccelerator as they are) plus
 * the core-side machinery around it.
 */
struct VpConfig : pred::AccelParams
{
    /** The accelerator's parameters are part of the config's value. */
    using FieldBase = pred::AccelParams;
    DLVP_FIELDS(DLVP_VP_CONFIG_FIELDS)

    /** Field by field, so two equal configs simulate identically. */
    bool operator==(const VpConfig &) const = default;
};

} // namespace dlvp::core

#endif // DLVP_CORE_PARAMS_HH
