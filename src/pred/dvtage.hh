/**
 * @file
 * D-VTAGE value predictor (Perais & Seznec, HPCA 2015), the stride
 * variant the paper discusses in §2.1:
 *
 *   "D-VTAGE augments VTAGE with a last-value-table (LVT) ... LVT
 *    stores the last value (per instruction), while the VTAGE tables
 *    store the strides/deltas. D-VTAGE introduces additional
 *    complexity as it requires an addition on the prediction critical
 *    path, moreover, it requires maintaining a speculative window to
 *    track in-flight last values."
 *
 * The paper evaluates plain VTAGE; this implementation exists so the
 * library can also reproduce the comparison the authors chose not to
 * run, and because stride-valued loads (the nat/hmmer family) are
 * exactly where deltas beat last values.
 *
 * Speculative last values: predictSpec() chains the last value through
 * in-flight instances (last + stride), the "speculative window" the
 * paper calls out as D-VTAGE's complexity cost; the core resyncs it on
 * flushes via flushResync().
 */

#ifndef DLVP_PRED_DVTAGE_HH
#define DLVP_PRED_DVTAGE_HH

#include <cstdint>
#include <vector>

#include "common/fpc.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "trace/instruction.hh"

namespace dlvp::pred
{

struct DvtageParams
{
    unsigned lvtBits = 8;   ///< 256-entry last-value table
    unsigned tableBits = 8; ///< 256 entries per delta table
    std::vector<unsigned> histLengths = {2, 5, 13};
    unsigned tagBits = 16;
    std::vector<double> confProbs =
        {1.0, 1.0 / 8, 1.0 / 8, 1.0 / 8, 1.0 / 8, 1.0 / 16, 1.0 / 16};
    bool loadsOnly = true;

    bool operator==(const DvtageParams &) const = default;
};

class Dvtage
{
  public:
    explicit Dvtage(const DvtageParams &params);

    /** Per-job reseed of the stochastic confidence Rng (sweeps). */
    void reseedRng(std::uint64_t seed) { rng_.reseed(seed); }

    bool eligible(const trace::TraceInst &inst) const;

    struct Prediction
    {
        bool valid = false;
        std::uint64_t value = 0;
    };

    /**
     * Predict destination @p dest_idx of @p inst under branch history
     * @p ghr, chaining the speculative last value so back-to-back
     * in-flight instances predict correctly.
     */
    Prediction predictSpec(const trace::TraceInst &inst,
                           unsigned dest_idx, std::uint64_t ghr);

    /** Train at commit with the actual value. */
    void train(const trace::TraceInst &inst, unsigned dest_idx,
               std::uint64_t ghr, std::uint64_t actual);

    /** Pipeline flush: invalidate the speculative last values. */
    void flushResync();

    std::uint64_t storageBits() const;

  private:
    struct LvtEntry
    {
        std::uint16_t tag = 0;
        std::uint64_t last = 0;     ///< committed last value
        std::uint64_t specLast = 0; ///< chained through predictions
        std::uint8_t specAhead = 0; ///< outstanding chained predicts
        bool specValid = false;
        bool valid = false;
    };

    struct DeltaEntry
    {
        std::uint16_t tag = 0;
        std::int64_t delta = 0;
        Fpc conf;
        bool valid = false;
    };

    DvtageParams params_;
    FpcVector confVec_;
    std::vector<LvtEntry> lvt_;
    std::vector<std::vector<DeltaEntry>> tables_;
    Rng rng_{0x0ddba11d00dfeed5ULL};

    static Addr effectivePc(Addr pc, unsigned dest_idx);
    unsigned lvtIndex(Addr epc) const;
    std::uint16_t lvtTag(Addr epc) const;
    unsigned index(unsigned t, Addr epc, std::uint64_t ghr) const;
    std::uint16_t tag(unsigned t, Addr epc, std::uint64_t ghr) const;
    int provider(Addr epc, std::uint64_t ghr) const;
};

} // namespace dlvp::pred

#endif // DLVP_PRED_DVTAGE_HH
