/**
 * @file
 * Computation-based stride address predictor (§2.2's other predictor
 * class, after Eickemeyer & Vassiliadis): per static load, track the
 * last address and the stride between the last two, and predict
 * last + stride once the stride has repeated.
 *
 * Included to complete the address-predictor spectrum the paper
 * sketches: PAP (global-path context), CAP (per-load address-history
 * context), and this (pure computation). Strided sweeps — exactly the
 * loads PAP cannot cover — are its home turf.
 *
 * Like CAP, maintaining per-load state at fetch with many instances
 * in flight needs a speculative chain; predictions advance it and
 * training resyncs it outside steady phases.
 */

#ifndef DLVP_PRED_STRIDE_AP_HH
#define DLVP_PRED_STRIDE_AP_HH

#include <cstdint>
#include <vector>

#include "common/bits.hh"
#include "common/fields.hh"
#include "common/types.hh"

namespace dlvp::pred
{

#define DLVP_STRIDE_AP_PARAMS_FIELDS(X) \
    X(unsigned, tableBits, 10) \
    X(unsigned, tagBits, 14) \
    X(unsigned, confThreshold, 4) /* stride repeats before predicting */ \
    X(unsigned, addrBits, 49)

struct StrideApParams
{
    DLVP_FIELDS(DLVP_STRIDE_AP_PARAMS_FIELDS)

    bool operator==(const StrideApParams &) const = default;
};

class StrideAp
{
  public:
    explicit StrideAp(const StrideApParams &params)
        : params_(params), table_(std::size_t{1} << params.tableBits)
    {
    }

    struct Prediction
    {
        bool valid = false;
        Addr addr = 0;
    };

    /** Predict the next address; chains the speculative last address. */
    Prediction
    predict(Addr pc)
    {
        Prediction p;
        Entry &e = table_[indexOf(pc)];
        if (!e.valid || e.tag != tagOf(pc) || !e.specValid)
            return p;
        if (e.conf < params_.confThreshold)
            return p;
        p.valid = true;
        p.addr = static_cast<Addr>(
            static_cast<std::int64_t>(e.specLast) + e.stride);
        e.specLast = p.addr;
        if (e.specAhead < 255) // saturate: credits beyond the window
            ++e.specAhead;  // are reconciled by the next re-pin
        return p;
    }

    void
    train(Addr pc, Addr actual)
    {
        Entry &e = table_[indexOf(pc)];
        const std::uint16_t t = tagOf(pc);
        if (!e.valid || e.tag != t) {
            e.valid = true;
            e.tag = t;
            e.last = actual;
            e.specLast = actual;
            e.specValid = true;
            e.stride = 0;
            e.conf = 0;
            return;
        }
        const std::int64_t stride =
            static_cast<std::int64_t>(actual) -
            static_cast<std::int64_t>(e.last);
        bool correct = false;
        if (stride == e.stride) {
            if (e.conf < params_.confThreshold)
                ++e.conf;
            correct = true;
        } else {
            e.stride = stride;
            e.conf = 0;
        }
        e.last = actual;
        // Keep the speculative chain exactly one step ahead per
        // outstanding prediction: a train whose instance was itself
        // predicted consumes one "ahead" credit; anything else (no
        // prediction, or a mispredicted stride) re-pins the chain.
        if (correct && e.specValid && e.specAhead > 0) {
            --e.specAhead;
        } else {
            e.specLast = actual;
            e.specValid = true;
            e.specAhead = 0;
        }
    }

    /** Pipeline flush: drop the speculative chains. */
    void
    flushResync()
    {
        for (auto &e : table_) {
            e.specValid = false;
            e.specAhead = 0;
        }
    }

    std::uint64_t
    storageBits() const
    {
        // tag + last address + 16-bit stride + confidence.
        return table_.size() *
               (params_.tagBits + params_.addrBits + 16 + 3);
    }

  private:
    struct Entry
    {
        std::uint16_t tag = 0;
        Addr last = 0;
        Addr specLast = 0;
        std::int64_t stride = 0;
        std::uint8_t conf = 0;
        std::uint8_t specAhead = 0; ///< outstanding chained predicts
        bool specValid = false;
        bool valid = false;
    };

    StrideApParams params_;
    std::vector<Entry> table_;

    unsigned
    indexOf(Addr pc) const
    {
        return static_cast<unsigned>(
            ((pc >> 2) ^ (pc >> (2 + params_.tableBits))) &
            mask(params_.tableBits));
    }

    std::uint16_t
    tagOf(Addr pc) const
    {
        return static_cast<std::uint16_t>(
            ((pc >> 2) ^ (pc >> 9) ^ (pc >> 17)) &
            mask(params_.tagBits));
    }
};

} // namespace dlvp::pred

#endif // DLVP_PRED_STRIDE_AP_HH
