/**
 * @file
 * LoadAccelerator: the pluggable interface behind the predictor zoo.
 *
 * Every load-acceleration scheme in the repo — the paper's DLVP
 * (PAP + cache probe), the CAP and stride address predictors it is
 * compared against, the VTAGE/D-VTAGE value predictors, the
 * DLVP+VTAGE tournament, and the newer BALCVP and Hermes-style
 * entries — implements this one interface and has one row, under a
 * string key, in the constant table in accel.cc. The core constructs
 * its accelerator from that table and drives it through a fixed set
 * of hooks; nothing in src/core names a concrete predictor type.
 *
 * Contract (DESIGN.md §12 is the normative version):
 *
 *  - Capability flags (predictsAddresses() etc.) are immutable after
 *    construction; the core caches them so disabled hooks cost one
 *    branch, never a virtual call, on the event-driven hot path.
 *  - predictValues()/predictAddress() run at fetch and may update
 *    speculative state only; architectural tables train in
 *    trainAtExecute() (needs latency/way, runs at completion) or
 *    trainAtCommit() (needs architectural values, runs at retire).
 *  - Speculative state must be DLVP_SPEC_STATE-tagged and exposed
 *    through specStateToken()/restoreSpecState() so a flush (or the
 *    registry round-trip test) can rewind it; flushResync() is the
 *    full-pipeline reset.
 *  - Stats: hooks report table activity only through the AccelStats
 *    counters they are handed. The core owns every other CoreStats
 *    field, which is what keeps pre-registry configs bit-identical.
 *  - No hook may allocate: all tables are sized in the constructor.
 *
 * The table is the only list of keys: its rows name the factories
 * defined beside the adapters (accel_builtin.cc, accel_zoo.cc), so a
 * static-library link cannot drop one. GoldenStats.PinsEveryAccelerator
 * fails until every key is pinned by a golden CoreStats row.
 */

#ifndef DLVP_PRED_ACCEL_HH
#define DLVP_PRED_ACCEL_HH

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "common/fields.hh"
#include "common/types.hh"
#include "pred/balcvp.hh"
#include "pred/cap.hh"
#include "pred/dvtage.hh"
#include "pred/hermes.hh"
#include "pred/pap.hh"
#include "pred/stride_ap.hh"
#include "pred/vtage.hh"
#include "trace/instruction.hh"

namespace dlvp::pred
{

/**
 * The only CoreStats fields an accelerator may touch, passed by
 * reference into each hook.
 */
struct AccelStats
{
    std::uint64_t &lookups; ///< CoreStats::predictorLookups
    std::uint64_t &writes;  ///< CoreStats::predictorWrites
};

#define DLVP_ACCEL_PARAMS_FIELDS(X) \
    X(PapParams, pap, {}) \
    X(CapParams, cap, {}) \
    X(StrideApParams, strideAp, {}) \
    X(VtageParams, vtage, {}) \
    X(DvtageParams, dvtage, {}) \
    X(BalcvpParams, balcvp, {}) \
    X(HermesParams, hermes, {}) \
    /* Tournament-only: the "more intelligent chooser" future work of \
       SS5.2.3. Suppress VTAGE training for loads DLVP already covers \
       correctly, freeing VTAGE capacity for loads only it can catch. */ \
    X(bool, tournamentPartition, false)

/** Union of every accelerator's parameters (cheap: POD + vectors). */
struct AccelParams
{
    DLVP_FIELDS(DLVP_ACCEL_PARAMS_FIELDS)

    bool operator==(const AccelParams &) const = default;
};

/** Fetch-time history context, snapshotted per instruction. */
struct AccelFetchContext
{
    std::uint64_t ghr = 0; ///< global branch history register
    std::uint64_t lph = 0; ///< load path history (pred::Pap)
};

/** Per-destination value predictions produced at fetch. */
struct AccelValuePredictions
{
    std::uint16_t mask = 0; ///< bit d set = values[d] is predicted
    std::array<std::uint64_t, trace::kMaxDests> values{};
};

/** Address prediction for one load slot, produced at fetch. */
struct AccelAddrPrediction
{
    bool valid = false;
    Addr addr = 0;
    std::uint8_t size = 0; ///< 0 = use the instruction's access size
    int way = -1;          ///< predicted L1D way, -1 = unknown
};

/** Which prediction source feeds the value-prediction engine. */
enum class AccelChoice
{
    None,
    Address, ///< DLVP path: probe value (CoreStats source 1)
    Value,   ///< value-predictor path (CoreStats source 2)
};

/** Completion-time training context for one load. */
struct AccelExecInfo
{
    const trace::TraceInst *inst = nullptr;
    /** Address side was looked up and not LSCD-blocked. */
    bool addrTrainable = false;
    std::uint8_t slot = 0; ///< fetch-group load slot
    std::uint64_t ghr = 0; ///< fetch-time snapshot
    std::uint64_t lph = 0; ///< fetch-time snapshot
    int l1dWay = -1;       ///< way the load's line resides in
    Cycle latency = 0;     ///< issue-to-complete cycles
    bool probeHit = false;
    std::uint16_t valueMask = 0;
    const std::array<std::uint64_t, trace::kMaxDests> *probeValues =
        nullptr;
    const std::array<std::uint64_t, trace::kMaxDests> *values = nullptr;
    const std::array<std::uint64_t, trace::kMaxDests> *actualValues =
        nullptr;
};

/** Commit-time training context for one instruction. */
struct AccelCommitInfo
{
    const trace::TraceInst *inst = nullptr;
    std::uint64_t ghr = 0; ///< fetch-time snapshot
    bool probeHit = false;
    std::uint16_t valueMask = 0;
    const std::array<std::uint64_t, trace::kMaxDests> *probeValues =
        nullptr;
    const std::array<std::uint64_t, trace::kMaxDests> *values = nullptr;
    const std::array<std::uint64_t, trace::kMaxDests> *actualValues =
        nullptr;
};

class LoadAccelerator
{
  public:
    virtual ~LoadAccelerator() = default;

    /** @{ Capability flags; constant for the instance's lifetime. */
    virtual bool predictsAddresses() const { return false; }
    virtual bool predictsValues() const { return false; }
    virtual bool trainsAtExecute() const { return false; }
    virtual bool trainsAtCommit() const { return false; }
    /**
     * Width of the load-path history the core keeps for this
     * accelerator (AccelFetchContext::lph). Schemes that index by
     * load path size it from their own parameters.
     */
    virtual unsigned loadPathBits() const { return 16; }
    /** @} */

    /** Fetch: per-destination value predictions for @p inst. */
    virtual void
    predictValues(const trace::TraceInst &inst,
                  const AccelFetchContext &ctx,
                  AccelValuePredictions &out, AccelStats &stats)
    {
        (void)inst;
        (void)ctx;
        (void)out;
        (void)stats;
    }

    /** Fetch: address prediction for load slot @p slot of @p inst. */
    virtual AccelAddrPrediction
    predictAddress(const trace::TraceInst &inst, unsigned slot,
                   const AccelFetchContext &ctx, AccelStats &stats)
    {
        (void)inst;
        (void)slot;
        (void)ctx;
        (void)stats;
        return {};
    }

    /**
     * Activation: pick the source when address- and/or value-side
     * predictions are available. The default prefers the address
     * (probe) path, which is every single-sided scheme's behaviour.
     */
    virtual AccelChoice
    choose(Addr pc, bool addr_avail, bool value_avail)
    {
        (void)pc;
        if (addr_avail)
            return AccelChoice::Address;
        if (value_avail)
            return AccelChoice::Value;
        return AccelChoice::None;
    }

    /** Completion: latency/way training for a load. */
    virtual void
    trainAtExecute(const AccelExecInfo &info, AccelStats &stats)
    {
        (void)info;
        (void)stats;
    }

    /** Retire: architectural-value training. */
    virtual void
    trainAtCommit(const AccelCommitInfo &info, AccelStats &stats)
    {
        (void)info;
        (void)stats;
    }

    /** A confirmed store-conflict PC (LSCD insert): drop the entry. */
    virtual void
    invalidateAddress(Addr pc, unsigned slot, std::uint64_t lph)
    {
        (void)pc;
        (void)slot;
        (void)lph;
    }

    /** Full-pipeline flush: rewind all speculative state. */
    virtual void flushResync() {}

    /** Per-job reseed of stochastic-confidence Rngs (sweeps). */
    virtual void reseedRng(std::uint64_t seed) { (void)seed; }

    /** @{
     * Opaque snapshot of speculative (flush-rewound) state, for the
     * registry round-trip test; 0 when the accelerator has none.
     */
    virtual std::uint64_t specStateToken() const { return 0; }
    virtual void restoreSpecState(std::uint64_t token) { (void)token; }
    /** @} */

    /** Hardware budget of all tables, in bits. */
    virtual std::uint64_t storageBits() const { return 0; }
};

using AccelFactory =
    std::unique_ptr<LoadAccelerator> (*)(const AccelParams &params);

/** One row of the accelerator table, as acceleratorCatalog() lists it. */
struct AccelInfo
{
    const char *key;
    const char *description;
    AccelFactory factory;
};

/** Construct @p key; unknown keys throw RunError(Internal). */
std::unique_ptr<LoadAccelerator>
makeAccelerator(const std::string &key, const AccelParams &params);

/** The accelerator table, in ascending key order. */
std::span<const AccelInfo> acceleratorCatalog();

} // namespace dlvp::pred

#endif // DLVP_PRED_ACCEL_HH
