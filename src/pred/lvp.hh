/**
 * @file
 * LVP: the classic tagged Last Value Predictor (Lipasti, Wilkerson &
 * Shen, ASPLOS 1996) — the paper's introductory example of a
 * conventional value predictor that "might mispredict the second
 * load's value because the value has been changed by the interleaving
 * store" (Challenge #1, Figure 1).
 *
 * Included as the simplest point on the value-predictor spectrum: it
 * makes the conflicting-store vulnerability directly measurable
 * against VTAGE (adds context) and DLVP (reads the cache instead).
 */

#ifndef DLVP_PRED_LVP_HH
#define DLVP_PRED_LVP_HH

#include <cstdint>
#include <vector>

#include "common/bits.hh"
#include "common/fields.hh"
#include "common/fpc.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace dlvp::pred
{

#define DLVP_LVP_PARAMS_FIELDS(X) \
    X(unsigned, tableBits, 10) /* 1k entries, direct-mapped */ \
    X(unsigned, tagBits, 14) \
    /* 3-bit FPC, VTAGE-style ~64-observation requirement. */ \
    X(std::vector<double>, confProbs, \
      {1.0, 1.0 / 8, 1.0 / 8, 1.0 / 8, 1.0 / 8, 1.0 / 16, 1.0 / 16})

struct LvpParams
{
    DLVP_FIELDS(DLVP_LVP_PARAMS_FIELDS)

    bool operator==(const LvpParams &) const = default;
};

class Lvp
{
  public:
    explicit Lvp(const LvpParams &params)
        : params_(params), confVec_(params.confProbs),
          table_(std::size_t{1} << params.tableBits)
    {
    }

    /** Per-job reseed of the stochastic confidence Rng (sweeps). */
    void reseedRng(std::uint64_t seed) { rng_.reseed(seed); }

    struct Prediction
    {
        bool valid = false;
        std::uint64_t value = 0;
    };

    Prediction
    predict(Addr pc) const
    {
        Prediction p;
        const Entry &e = table_[indexOf(pc)];
        if (e.valid && e.tag == tagOf(pc) && e.conf.saturated(confVec_)) {
            p.valid = true;
            p.value = e.value;
        }
        return p;
    }

    void
    train(Addr pc, std::uint64_t actual)
    {
        Entry &e = table_[indexOf(pc)];
        const std::uint16_t t = tagOf(pc);
        if (!e.valid || e.tag != t) {
            // Tagless-LVP aliasing is what the paper found "crucial"
            // to avoid; allocate only over untagged or drained entries.
            if (!e.valid || e.conf.value() == 0) {
                e.valid = true;
                e.tag = t;
                e.value = actual;
                e.conf.reset();
            } else {
                e.conf.decrement();
            }
            return;
        }
        if (e.value == actual) {
            e.conf.increment(confVec_, rng_);
        } else if (e.conf.value() == 0) {
            e.value = actual;
        } else {
            e.conf.reset();
        }
    }

    std::uint64_t
    storageBits() const
    {
        return table_.size() * (params_.tagBits + 64 + 3);
    }

  private:
    struct Entry
    {
        std::uint16_t tag = 0;
        std::uint64_t value = 0;
        Fpc conf;
        bool valid = false;
    };

    LvpParams params_;
    FpcVector confVec_;
    std::vector<Entry> table_;
    mutable Rng rng_{0xbadc0ffee0ddf00dULL};

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

#endif // DLVP_PRED_LVP_HH
