/**
 * @file
 * Hermes-style perceptron off-chip load prediction gating a last
 * value predictor.
 *
 * Bera et al. (MICRO 2022) predict at fetch, from program context
 * alone, whether a load will leave the chip, and act on the predicted
 * *latency* rather than the predicted value. Here the same idea gates
 * value speculation: a multi-feature hashed perceptron (per-PC,
 * PC x folded global branch history, PC x folded load path history,
 * plus a bias weight) classifies each load as long-latency; only
 * loads predicted long-latency consult a tagged last value predictor
 * (pred::Lvp). The rationale mirrors the source paper's cost model —
 * value-predicting an L1 hit risks a misprediction flush to save a
 * handful of cycles, while covering a long-latency load buys the full
 * memory round trip — so the perceptron concentrates the predictor's
 * confidence budget where speculation actually pays.
 *
 * The perceptron itself is trained at execute time against the
 * observed latency (no value needed); the LVP trains at commit with
 * the architectural value. The count of unresolved value speculations
 * is speculative state and is rewound on flush.
 */

#ifndef DLVP_PRED_HERMES_HH
#define DLVP_PRED_HERMES_HH

#include <cstdint>
#include <vector>

#include "common/bits.hh"
#include "common/fields.hh"
#include "common/spec_state.hh"
#include "common/types.hh"
#include "pred/lvp.hh"

namespace dlvp::pred
{

#define DLVP_HERMES_PARAMS_FIELDS(X) \
    X(unsigned, tableBits, 10) /* entries per perceptron feature table */ \
    X(int, weightMax, 31) /* 6-bit signed weights */ \
    X(int, weightMin, -32) \
    /* Perceptron sum at/above which the load is predicted slow. */ \
    X(int, activationThreshold, 0) \
    /* Train on correct predictions while |sum| <= theta. */ \
    X(int, trainingTheta, 14) \
    /* Completion latency (cycles) at/above which a load counts as \
       long-latency for training. Default sits above the L2 round \
       trip, so roughly "left the on-chip hierarchy". */ \
    X(unsigned, slowLatency, 40) \
    /* Unresolved value speculations tolerated before gating off. */ \
    X(unsigned, maxSpecInflight, 32) \
    X(LvpParams, lvp, {})

struct HermesParams
{
    DLVP_FIELDS(DLVP_HERMES_PARAMS_FIELDS)

    bool operator==(const HermesParams &) const = default;
};

class Hermes
{
  public:
    explicit Hermes(const HermesParams &params);

    /** Per-job reseed of the embedded LVP's confidence Rng. */
    void reseedRng(std::uint64_t seed) { lvp_.reseedRng(seed); }

    struct Prediction
    {
        bool valid = false;
        std::uint64_t value = 0;
    };

    /**
     * True when the perceptron classifies the load at @p pc (with
     * fetch-time history context) as long-latency.
     */
    bool predictSlow(Addr pc, std::uint64_t ghr, std::uint64_t lph) const;

    /**
     * Fetch-time value lookup for one destination; only consulted
     * when predictSlow() fired. A valid prediction counts against the
     * in-flight speculation budget until resolve()/flush.
     */
    Prediction predictValue(Addr pc, unsigned dest_idx);

    /**
     * Execute-time perceptron update with the observed completion
     * latency. Returns true when the weights changed (a table write).
     */
    bool trainLatency(Addr pc, std::uint64_t ghr, std::uint64_t lph,
                      unsigned latency);

    /** Commit-time LVP training with the architectural value. */
    void trainValue(Addr pc, unsigned dest_idx, std::uint64_t actual);

    /** Commit-time resolution of one outstanding value speculation. */
    void resolve();

    /** @{ Flush rewind of the in-flight speculation count. */
    std::uint32_t snapshotSpecInflight() const { return specInflight_; }
    void restoreSpecInflight(std::uint32_t snap) { specInflight_ = snap; }
    /** @} */

    /** Full-pipeline flush: no value speculations remain in flight. */
    void flushResync() { restoreSpecInflight(0); }

    std::uint32_t specInflight() const { return specInflight_; }

    std::uint64_t storageBits() const;

  private:
    static constexpr unsigned kNumFeatures = 3;

    HermesParams params_;
    /** Hashed-perceptron weight tables, one per feature. */
    std::vector<std::int8_t> weights_[kNumFeatures];
    std::int8_t bias_ = 0;
    Lvp lvp_;

    /**
     * Value predictions issued at fetch but not yet resolved at
     * commit; rewound on flush via restoreSpecInflight().
     */
    std::uint32_t specInflight_ = 0;
    DLVP_SPEC_STATE(specInflight_);

    /** Per-destination PC salt shared with the embedded LVP. */
    static Addr effectivePc(Addr pc, unsigned dest_idx);

    unsigned featureIndex(unsigned feature, Addr pc, std::uint64_t ghr,
                          std::uint64_t lph) const;
    int sum(Addr pc, std::uint64_t ghr, std::uint64_t lph) const;
    std::uint64_t fold(std::uint64_t h) const;
};

} // namespace dlvp::pred

#endif // DLVP_PRED_HERMES_HH
