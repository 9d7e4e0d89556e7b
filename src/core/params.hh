/**
 * @file
 * Core configuration (Table 4) and value-prediction configuration.
 */

#ifndef DLVP_CORE_PARAMS_HH
#define DLVP_CORE_PARAMS_HH

#include <cstdint>
#include <string>

#include "mem/hierarchy.hh"
#include "pred/accel.hh"

namespace dlvp::core
{

/**
 * Baseline core parameters, configured as close as possible to Intel's
 * Skylake core per Table 4 of the paper.
 */
struct CoreParams
{
    unsigned fetchWidth = 4;    ///< in-order front-end width
    unsigned dispatchWidth = 4;
    unsigned issueWidth = 8;    ///< 8 execution lanes
    unsigned lsLanes = 2;       ///< lanes supporting load-store ops
    unsigned commitWidth = 8;

    unsigned robSize = 224;
    unsigned iqSize = 97;
    unsigned ldqSize = 72;
    unsigned stqSize = 56;
    unsigned numPhysRegs = 348;

    /**
     * Fetch-to-execute is 13 cycles (Table 4): fetch(5) + decode(3) +
     * rename(1) + regfile(1) + allocate(1) = 11 to enter the IQ, then
     * issue + execute.
     */
    unsigned fetchToDispatch = 11;
    /** Stage at which predicted values must have reached the VPE. */
    unsigned fetchToRename = 9;

    unsigned aluLatency = 1;
    /**
     * Extra load pipeline cycles beyond the cache array access (AGU,
     * alignment, writeback): L1 load-to-use = l1d.hitLatency + this
     * (about 4 cycles total, Skylake-class).
     */
    unsigned loadExtraLatency = 2;
    unsigned mulLatency = 3;
    unsigned divLatency = 12;
    unsigned fpLatency = 3;
    unsigned storeLatency = 1;
    unsigned forwardLatency = 1; ///< store-to-load forwarding

    // -- progress watchdog budgets (DESIGN.md §9) ---------------
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

    mem::HierarchyParams memory{};
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

/**
 * Value-prediction configuration: the accelerator's own parameters
 * (inherited, and handed to pred::makeAccelerator as they are) plus
 * the core-side machinery around it.
 */
struct VpConfig : pred::AccelParams
{
    /**
     * Registry key of the load accelerator the core runs (see
     * pred/accel.hh); "none" is the unaccelerated baseline. Unknown
     * keys surface as RunError{internal} when the core is built.
     */
    std::string accel = "none";
    RecoveryMode recovery = RecoveryMode::Flush;
    VpeDesign vpeDesign = VpeDesign::Pvt;

    /** DLVP: generate an L1 prefetch on a probe miss (Figure 5). */
    bool dlvpPrefetch = true;
    /** DLVP: the 4-entry in-flight-conflict filter (§3.2.2). */
    bool useLscd = true;

    unsigned paqSize = 32;
    /**
     * N: cycles before a PAQ entry drops (SS3.2.2). The paper derives
     * N = 4 from a Cortex-A72-like 8-stage fetch+decode; this model's
     * front-end leaves 9 cycles from fetch to rename, so the probe
     * window is correspondingly larger.
     */
    unsigned paqLifetime = 8;
    unsigned pvtSize = 32;

    /** 1-cycle penalty for checking a predicted value (SS3.2.2). */
    unsigned valueCheckPenalty = 1;

    /**
     * RNG seed for the predictors' stochastic confidence updates; 0
     * keeps each predictor's fixed built-in seed. It is part of the
     * config, never derived from thread identity, so parallel and
     * serial sweeps stay bit-identical (dlvp-serve sets it from the
     * request's "seed").
     */
    std::uint64_t rngSeed = 0;

    /** Field by field, so two equal configs simulate identically. */
    bool operator==(const VpConfig &) const = default;
};

} // namespace dlvp::core

#endif // DLVP_CORE_PARAMS_HH
