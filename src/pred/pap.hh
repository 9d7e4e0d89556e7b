/**
 * @file
 * PAP: Path-based Address Prediction (§3.1) — the paper's proposed
 * predictor.
 *
 * A 1k-entry direct-mapped, partially tagged Address Prediction Table
 * (APT) is indexed and tagged with an XOR of low load-PC bits and the
 * folded 16-bit *load-path history* (bit 2 of each load PC shifted
 * into a global register). The fetch group address is used as the
 * proxy load PC; two loads per group are predicted via FGA and FGA+1
 * (Table 1, §3.1.1).
 *
 * Confidence is a 2-bit forward probabilistic counter with probability
 * vector {1, 1/2, 1/4}: ~8 correct observations to saturate — the
 * paper's headline "confidence of 8".
 *
 * Allocation follows the paper's Policy-2: on an APT miss the probed
 * entry is only replaced if its confidence is zero; otherwise its
 * confidence is decremented.
 */

#ifndef DLVP_PRED_PAP_HH
#define DLVP_PRED_PAP_HH

#include <cstdint>
#include <vector>

#include "common/fpc.hh"
#include "common/folded_history.hh"
#include "common/rng.hh"
#include "common/spec_state.hh"
#include "common/types.hh"

namespace dlvp::pred
{

/** APT allocation policy on a tag miss (§3.1.2). */
enum class PapAllocPolicy : std::uint8_t
{
    Policy1, ///< always replace the probed entry
    Policy2, ///< replace only if its confidence is zero, else decay
};

struct PapParams
{
    unsigned tableBits = 10; ///< log2 of total entries
    /**
     * APT associativity. The paper's APT is direct-mapped (1); the
     * context-rich workloads in this suite thrash a direct-mapped
     * table, so the set-associative option is provided as an
     * extension (ablated by the abl_pap_design figure).
     */
    unsigned assoc = 1;
    unsigned tagBits = 14;
    unsigned histBits = 16;  ///< load-path history length
    std::vector<double> confProbs = {1.0, 0.5, 0.25};
    bool wayPrediction = true;
    unsigned addrBits = 49;  ///< ARMv8 address width (storage audit)
    /** The paper adopts Policy-2 ("entries with high confidence can
     *  survive eviction"); Policy-1 is kept for the ablation bench. */
    PapAllocPolicy allocPolicy = PapAllocPolicy::Policy2;

    bool operator==(const PapParams &) const = default;
};

class Pap
{
  public:
    explicit Pap(const PapParams &params);

    /** Per-job reseed of the stochastic confidence Rng (sweeps). */
    void reseedRng(std::uint64_t seed) { rng_.reseed(seed); }

    /** Bit shifted into the load-path history for a load at @p pc. */
    static bool
    pathBit(Addr pc)
    {
        return ((pc >> 2) & 1) != 0;
    }

    struct Prediction
    {
        bool valid = false;
        Addr addr = 0;
        std::uint8_t size = 0; ///< bytes per destination register
        int way = -1;          ///< predicted L1D way (-1: none stored)
    };

    /**
     * Look up slot @p slot (0 or 1) of the fetch group at @p group_pc
     * with the fetch-time load-path history @p hist. Only returns a
     * prediction when the entry hits and its confidence is saturated.
     */
    Prediction predict(Addr group_pc, unsigned slot,
                       std::uint64_t hist);

    /**
     * Train when the load executes (§3.1.2), with the same history
     * value captured at its prediction.
     */
    void train(Addr group_pc, unsigned slot, std::uint64_t hist,
               Addr actual_addr, std::uint8_t size, int way);

    /**
     * Reset the entry behind a prediction whose value turned out
     * stale (an LSCD insertion): the load is barred from training, so
     * without this the confident entry would re-predict the moment
     * the LSCD evicts the PC.
     */
    void invalidate(Addr group_pc, unsigned slot, std::uint64_t hist);

    std::uint64_t storageBits() const;

    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t tableWrites() const { return tableWrites_; }

    const PapParams &params() const { return params_; }

  private:
    /**
     * Entry payload, split structure-of-arrays style from the probe
     * lane: the set scan in find() touches only the packed tags_ and
     * valid_ vectors (4 bytes per way instead of a 24-byte Entry), and
     * the payload is read once on the hit way.
     */
    struct Payload
    {
        Addr addr = 0;
        Fpc conf;
        std::uint32_t lastUse = 0;
        std::uint8_t size = 0;
        std::int8_t way = -1;
    };

    PapParams params_;
    FpcVector confVec_;
    std::vector<std::uint16_t> tags_;
    std::vector<std::uint8_t> valid_;
    std::vector<Payload> payload_;
    Rng rng_{0xfeedface87654321ULL};
    std::uint64_t lookups_ = 0;
    std::uint64_t tableWrites_ = 0;

    std::uint32_t tick_ = 0;

    unsigned set_bits_ = 0; ///< tableBits - log2(assoc), precomputed

    /**
     * Single-entry folded-history cache. predict at fetch, train at
     * execute, and invalidate on an LSCD insert all fold the same
     * history three ways (set index + two tag folds); the fold trio is
     * a pure function of the history value, so one memo slot lets a
     * same-history PAP/PAQ probe pair skip the refold entirely.
     */
    mutable std::uint64_t foldHist_ = 0;
    mutable std::uint64_t foldSet_ = 0;
    mutable std::uint64_t foldTagHi_ = 0;
    mutable std::uint64_t foldTagLo_ = 0;
    mutable bool foldValid_ = false;

    struct SetTag
    {
        unsigned set;
        std::uint16_t tag;
    };
    /** Fold @p hist (memoized) and combine with @p key. */
    SetTag setTag(std::uint64_t key, std::uint64_t hist) const;

    std::uint64_t key(Addr group_pc, unsigned slot) const;
    /** Entry index matching (set, tag), or -1. */
    int find(unsigned set, std::uint16_t tag) const;
    /** Replacement victim within a set (invalid first, then LRU). */
    unsigned victim(unsigned set) const;
};

/**
 * The speculative load-path history register plus snapshotting, used
 * by the core's front-end. A thin wrapper over HistoryRegister so the
 * "snapshot per prediction, restore on flush" recovery scheme (§2.2)
 * is explicit in the API.
 */
class LoadPathHistory
{
  public:
    explicit LoadPathHistory(unsigned bits = 16) : reg_(bits) {}

    void shiftLoad(Addr pc) { reg_.shiftIn(Pap::pathBit(pc)); }
    std::uint64_t value() const { return reg_.value(); }
    std::uint64_t snapshot() const { return reg_.snapshot(); }
    void restore(std::uint64_t snap) { reg_.restore(snap); }

  private:
    HistoryRegister reg_;
    DLVP_SPEC_STATE(reg_);
};

} // namespace dlvp::pred

#endif // DLVP_PRED_PAP_HH
