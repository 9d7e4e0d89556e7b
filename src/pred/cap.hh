/**
 * @file
 * CAP: Correlated Address Predictor (Bekerman et al., ISCA 1999) —
 * the prior-art context-based address predictor the paper compares
 * against (§2.2, §5.1).
 *
 * Two structures (Table 4's configuration): a per-static-load Load
 * Buffer table holding {tag, confidence, per-load address history}
 * and a Link table mapping hashed histories to predicted addresses.
 * Unlike PAP's single global history register, the per-load history
 * lives in the table; its speculative management is the complexity
 * the paper criticizes — this model trains non-speculatively at
 * execute, which is the behaviour that complexity buys in hardware.
 */

#ifndef DLVP_PRED_CAP_HH
#define DLVP_PRED_CAP_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace dlvp::pred
{

struct CapParams
{
    unsigned lbBits = 10;   ///< 1k-entry load buffer
    unsigned linkBits = 10; ///< 1k-entry link table
    unsigned tagBits = 14;
    unsigned histBits = 16; ///< per-load folded address history
    unsigned confThreshold = 8; ///< swept 3..64 in Figure 4
    unsigned addrBits = 49;

    bool operator==(const CapParams &) const = default;
};

class Cap
{
  public:
    explicit Cap(const CapParams &params);

    struct Prediction
    {
        bool valid = false;
        Addr addr = 0;
    };

    /** Predict the next address of the load at @p pc. */
    Prediction predict(Addr pc);

    /**
     * Train with the actual address.
     *
     * The simulator trains CAP at *fetch* (oracle zero-latency
     * history management): real CAP needs the per-static-load history
     * snapshot/walk machinery §2.2 criticizes to avoid stale history
     * when many instances are in flight; modeling it idealized means
     * the PAP-vs-CAP comparison (Figure 4, §5.1) is conservative for
     * PAP. See DESIGN.md.
     */
    void train(Addr pc, Addr actual_addr);

    std::uint64_t storageBits() const;

    const CapParams &params() const { return params_; }
    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t tableWrites() const { return tableWrites_; }

  private:
    struct LbEntry
    {
        std::uint16_t tag = 0;
        std::uint16_t hist = 0; ///< per-load address history
        std::uint16_t conf = 0;
        bool valid = false;
    };

    struct LinkEntry
    {
        std::uint16_t tag = 0;
        Addr addr = 0;
        bool valid = false;
    };

    CapParams params_;
    std::vector<LbEntry> loadBuffer_;
    std::vector<LinkEntry> linkTable_;
    std::uint64_t lookups_ = 0;
    std::uint64_t tableWrites_ = 0;

    unsigned lbIndex(Addr pc) const;
    std::uint16_t lbTag(Addr pc) const;
    unsigned linkIndex(Addr pc, std::uint16_t hist) const;
    std::uint16_t linkTag(Addr pc, std::uint16_t hist) const;
    std::uint16_t advanceHist(std::uint16_t hist, Addr addr) const;
};

} // namespace dlvp::pred

#endif // DLVP_PRED_CAP_HH
