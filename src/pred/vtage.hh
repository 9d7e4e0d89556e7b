/**
 * @file
 * VTAGE value predictor (Perais & Seznec, HPCA 2014), with the paper's
 * ISA-specific adjustments (§5.2.2):
 *
 *  - three 256-entry direct-mapped tables using global branch history
 *    lengths {0, 5, 13}; the history-0 table is the *tagged* last-value
 *    base table (the paper found tags on the LVP table crucial);
 *  - multi-destination loads (LDP/LDM/VLD) predict one value per
 *    destination by hashing the destination index into the PC;
 *  - optional dynamic or static opcode filters that stop low-accuracy
 *    instruction types from predicting or training;
 *  - loads-only or all-instructions scope.
 */

#ifndef DLVP_PRED_VTAGE_HH
#define DLVP_PRED_VTAGE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/fpc.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "trace/instruction.hh"

namespace dlvp::pred
{

/** Instruction-type classes tracked by the opcode filters. */
enum class OpType : std::uint8_t
{
    SimpleLoad,
    PairLoad,
    MultiLoad,
    VectorLoad,
    IntAlu,
    IntMulDiv,
    FpAlu,
    Other,
};

/** Classify a trace instruction for filtering purposes. */
OpType classifyOpType(const trace::TraceInst &inst);

enum class VtageFilter : std::uint8_t
{
    None,    ///< vanilla VTAGE
    Dynamic, ///< learned per-type accuracy filter (95% threshold)
    Static,  ///< preloaded: LDP, LDM, VLD blocked
};

struct VtageParams
{
    unsigned tableBits = 8; ///< 256 entries per table
    std::vector<unsigned> histLengths = {0, 5, 13};
    unsigned tagBits = 16;
    /** 3-bit FPC emulating a 64-observation confidence requirement. */
    std::vector<double> confProbs =
        {1.0, 1.0 / 8, 1.0 / 8, 1.0 / 8, 1.0 / 8, 1.0 / 16, 1.0 / 16};
    VtageFilter filter = VtageFilter::Static;
    bool loadsOnly = true;
    /** Dynamic filter: block below this accuracy. */
    double dynFilterThreshold = 0.95;
    unsigned dynFilterMinSamples = 256;

    bool operator==(const VtageParams &) const = default;
};

class Vtage
{
  public:
    explicit Vtage(const VtageParams &params);

    /** Per-job reseed of the stochastic confidence Rng (sweeps). */
    void reseedRng(std::uint64_t seed) { rng_.reseed(seed); }

    /** Is this instruction in scope (class + filter)? */
    bool eligible(const trace::TraceInst &inst) const;

    struct Prediction
    {
        bool valid = false;
        std::uint64_t value = 0;
    };

    /**
     * Predict the value of destination @p dest_idx of @p inst, using
     * the fetch-time global branch history @p ghr.
     */
    Prediction predict(const trace::TraceInst &inst, unsigned dest_idx,
                       std::uint64_t ghr);

    /**
     * Train at commit with the actual value; also feeds the dynamic
     * filter when @p was_predicted.
     */
    void train(const trace::TraceInst &inst, unsigned dest_idx,
               std::uint64_t ghr, std::uint64_t actual,
               bool was_predicted, bool was_correct);

    std::uint64_t storageBits() const;

    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t tableWrites() const { return tableWrites_; }

  private:
    struct Entry
    {
        std::uint16_t tag = 0;
        std::uint64_t value = 0;
        Fpc conf;
        bool valid = false;
    };

    VtageParams params_;
    FpcVector confVec_;
    std::vector<std::vector<Entry>> tables_;
    Rng rng_{0x1234abcd5678ef01ULL};
    std::uint64_t lookups_ = 0;
    std::uint64_t tableWrites_ = 0;

    /** Dynamic filter state per OpType. */
    struct TypeStats
    {
        std::uint64_t predictions = 0;
        std::uint64_t correct = 0;
        std::uint64_t trains = 0;
        bool blocked = false;
    };
    mutable std::array<TypeStats, 8> typeStats_{};

    /**
     * Prepared lookup memo, same scheme as Tage: per-table index/tag
     * for one (epc, ghr) key, folded once and reused by provider/
     * predict/train instead of re-folding the history per table per
     * call. Pure function of the key — bit-identical results.
     */
    mutable std::vector<std::uint32_t> prepIdx_;
    mutable std::vector<std::uint16_t> prepTag_;
    mutable Addr prepEpc_ = 0;
    mutable std::uint64_t prepGhr_ = 0;
    mutable bool prepValid_ = false;
    void prepare(Addr epc, std::uint64_t ghr) const;

    static Addr effectivePc(Addr pc, unsigned dest_idx);
    unsigned index(unsigned t, Addr epc, std::uint64_t ghr) const;
    std::uint16_t tag(unsigned t, Addr epc, std::uint64_t ghr) const;
    int provider(Addr epc, std::uint64_t ghr) const;
    bool typeAllowed(OpType ty) const;
};

} // namespace dlvp::pred

#endif // DLVP_PRED_VTAGE_HH
