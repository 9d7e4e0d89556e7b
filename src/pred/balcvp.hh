/**
 * @file
 * BALCVP: Branch-Aware Last-Committed-Value Prediction.
 *
 * A last-value predictor that sidesteps the conflicting-store hazard
 * (the paper's Challenge #1) from the opposite direction of DLVP:
 * instead of predicting the address and reading the cache, it only
 * ever serves values that have been *committed* — the value table is
 * written at retirement, never speculatively — so an in-flight store
 * can never poison a table entry. What it gives up is freshness: a
 * store that commits between two executions of the load makes the
 * last committed value stale. A separate *equality predictor* (dual
 * saturating counters per PC, one counting "value repeated", one
 * counting "value changed") learns exactly that per-PC store
 * interference pattern and withholds predictions for loads whose
 * values churn.
 *
 * Recovery model: predictions are only issued while the number of
 * unresolved speculations is below @ref BalcvpParams::maxSpecDistance
 * — the depth the recovery hardware can rewind — mirroring the
 * MAX_BRANCH_SPEC_DISTANCE gate of the reference implementation. The
 * outstanding-speculation depth is speculative state itself: it rises
 * at fetch and must be rewound on a flush (see snapshotSpecDepth /
 * restoreSpecDepth).
 */

#ifndef DLVP_PRED_BALCVP_HH
#define DLVP_PRED_BALCVP_HH

#include <cstdint>
#include <vector>

#include "common/bits.hh"
#include "common/fields.hh"
#include "common/spec_state.hh"
#include "common/types.hh"

namespace dlvp::pred
{

#define DLVP_BALCVP_PARAMS_FIELDS(X) \
    X(unsigned, valueBits, 10) /* 1k-entry last-committed-value table */ \
    X(unsigned, eqBits, 12) /* 4k-entry equality predictor */ \
    X(unsigned, tagBits, 14) \
    /* Saturation ceiling of the dual equality counters. */ \
    X(unsigned, counterMax, 7) \
    /* "Value repeated" count required before predicting. */ \
    X(unsigned, eqThreshold, 6) \
    /* Maximum tolerated "value changed" count when predicting. */ \
    X(unsigned, neTolerance, 1) \
    /* Unresolved-speculation depth the recovery model can rewind; \
       predictions are withheld beyond it. */ \
    X(unsigned, maxSpecDistance, 64)

struct BalcvpParams
{
    DLVP_FIELDS(DLVP_BALCVP_PARAMS_FIELDS)

    bool operator==(const BalcvpParams &) const = default;
};

class Balcvp
{
  public:
    explicit Balcvp(const BalcvpParams &params);

    struct Prediction
    {
        bool valid = false;
        std::uint64_t value = 0;
    };

    /**
     * Fetch-time lookup for destination @p dest_idx of the load at
     * @p pc. A valid prediction counts against the outstanding
     * speculation depth until resolve()/flush.
     */
    Prediction predict(Addr pc, unsigned dest_idx);

    /**
     * Commit-time training with the architectural value: updates the
     * equality counters against the previous committed value, then
     * installs @p actual as the new last committed value.
     */
    void train(Addr pc, unsigned dest_idx, std::uint64_t actual);

    /** Commit-time resolution of one outstanding speculation. */
    void resolve();

    /** @{ Flush rewind of the outstanding-speculation depth. */
    std::uint32_t snapshotSpecDepth() const { return specOutstanding_; }
    void restoreSpecDepth(std::uint32_t snap) { specOutstanding_ = snap; }
    /** @} */

    /** Full-pipeline flush: no speculations remain in flight. */
    void flushResync() { restoreSpecDepth(0); }

    std::uint32_t specDepth() const { return specOutstanding_; }

    std::uint64_t storageBits() const;

  private:
    /** Last-committed-value table entry (written only at commit). */
    struct ValueEntry
    {
        std::uint16_t tag = 0;
        std::uint64_t value = 0;
        bool valid = false;
    };

    /** Dual-counter equality predictor entry. */
    struct EqEntry
    {
        std::uint16_t tag = 0;
        std::uint8_t eq = 0; ///< "value repeated" observations
        std::uint8_t ne = 0; ///< "value changed" observations
        bool valid = false;
    };

    BalcvpParams params_;
    std::vector<ValueEntry> values_;
    std::vector<EqEntry> eqPred_;

    /**
     * Predictions issued at fetch but not yet resolved at commit;
     * rewound on flush via restoreSpecDepth().
     */
    std::uint32_t specOutstanding_ = 0;
    DLVP_SPEC_STATE(specOutstanding_);

    /** Per-destination PC salt (multi-dest loads get distinct rows). */
    static Addr effectivePc(Addr pc, unsigned dest_idx);

    unsigned valueIndexOf(Addr pc) const;
    unsigned eqIndexOf(Addr pc) const;
    std::uint16_t tagOf(Addr pc) const;
};

} // namespace dlvp::pred

#endif // DLVP_PRED_BALCVP_HH
