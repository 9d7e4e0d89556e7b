/**
 * @file
 * The first post-registry tenants of the LoadAccelerator interface:
 * BALCVP (branch-aware last-committed-value prediction) and a
 * Hermes-style perceptron off-chip filter gating a last value
 * predictor. Neither existed before the registry; both exercise the
 * speculative-state snapshot/restore contract (see accel.hh).
 */

#include <algorithm>
#include <memory>

#include "pred/accel.hh"

namespace dlvp::pred
{

namespace
{

/** BALCVP: commit-written value table + equality predictor. */
class BalcvpAccel : public LoadAccelerator
{
  public:
    explicit BalcvpAccel(const AccelParams &params)
        : balcvp_(params.balcvp)
    {
    }

    bool predictsValues() const override { return true; }
    bool trainsAtCommit() const override { return true; }

    void
    predictValues(const trace::TraceInst &inst,
                  const AccelFetchContext &ctx,
                  AccelValuePredictions &out, AccelStats &stats) override
    {
        (void)ctx;
        if (!inst.isLoad())
            return;
        const unsigned n = std::max<unsigned>(1, inst.numDests);
        for (unsigned d = 0; d < n; ++d) {
            const auto p = balcvp_.predict(inst.pc, d);
            ++stats.lookups;
            if (p.valid) {
                out.mask |= static_cast<std::uint16_t>(1u << d);
                out.values[d] = p.value;
            }
        }
    }

    void
    trainAtCommit(const AccelCommitInfo &ci, AccelStats &stats) override
    {
        const trace::TraceInst &inst = *ci.inst;
        if (!inst.isLoad())
            return;
        const unsigned nd = std::max<unsigned>(1, inst.numDests);
        for (unsigned d = 0; d < nd; ++d) {
            balcvp_.train(inst.pc, d, (*ci.actualValues)[d]);
            ++stats.writes;
            if (ci.valueMask & (1u << d))
                balcvp_.resolve();
        }
    }

    void flushResync() override { balcvp_.flushResync(); }

    std::uint64_t specStateToken() const override
    {
        return balcvp_.snapshotSpecDepth();
    }

    void
    restoreSpecState(std::uint64_t token) override
    {
        balcvp_.restoreSpecDepth(static_cast<std::uint32_t>(token));
    }

    std::uint64_t storageBits() const override
    {
        return balcvp_.storageBits();
    }

  private:
    Balcvp balcvp_;
};

/** Hermes-style off-chip perceptron gating a last value predictor. */
class HermesAccel : public LoadAccelerator
{
  public:
    explicit HermesAccel(const AccelParams &params)
        : hermes_(params.hermes)
    {
    }

    bool predictsValues() const override { return true; }
    bool trainsAtExecute() const override { return true; }
    bool trainsAtCommit() const override { return true; }

    void
    predictValues(const trace::TraceInst &inst,
                  const AccelFetchContext &ctx,
                  AccelValuePredictions &out, AccelStats &stats) override
    {
        if (!inst.isLoad())
            return;
        // One perceptron read classifies the load; the value tables
        // are only consulted for predicted-slow loads.
        ++stats.lookups;
        if (!hermes_.predictSlow(inst.pc, ctx.ghr, ctx.lph))
            return;
        const unsigned n = std::max<unsigned>(1, inst.numDests);
        for (unsigned d = 0; d < n; ++d) {
            const auto p = hermes_.predictValue(inst.pc, d);
            ++stats.lookups;
            if (p.valid) {
                out.mask |= static_cast<std::uint16_t>(1u << d);
                out.values[d] = p.value;
            }
        }
    }

    void
    trainAtExecute(const AccelExecInfo &ei, AccelStats &stats) override
    {
        const trace::TraceInst &inst = *ei.inst;
        if (!inst.isLoad())
            return;

        // The perceptron trains on observed latency at execute; no
        // architectural value is needed.
        if (hermes_.trainLatency(inst.pc, ei.ghr, ei.lph,
                                 static_cast<unsigned>(ei.latency)))
            ++stats.writes;
    }

    void
    trainAtCommit(const AccelCommitInfo &ci, AccelStats &stats) override
    {
        const trace::TraceInst &inst = *ci.inst;
        if (!inst.isLoad())
            return;
        const unsigned nd = std::max<unsigned>(1, inst.numDests);
        for (unsigned d = 0; d < nd; ++d) {
            hermes_.trainValue(inst.pc, d, (*ci.actualValues)[d]);
            ++stats.writes;
            if (ci.valueMask & (1u << d))
                hermes_.resolve();
        }
    }

    void flushResync() override { hermes_.flushResync(); }

    void
    reseedRng(std::uint64_t seed) override
    {
        hermes_.reseedRng(seed ^ 0x6865726d65730000ULL);
    }

    std::uint64_t specStateToken() const override
    {
        return hermes_.snapshotSpecInflight();
    }

    void
    restoreSpecState(std::uint64_t token) override
    {
        hermes_.restoreSpecInflight(static_cast<std::uint32_t>(token));
    }

    std::uint64_t storageBits() const override
    {
        return hermes_.storageBits();
    }

  private:
    Hermes hermes_;
};

} // namespace

std::unique_ptr<LoadAccelerator>
makeBalcvpAccel(const AccelParams &params)
{
    return std::make_unique<BalcvpAccel>(params);
}

std::unique_ptr<LoadAccelerator>
makeHermesAccel(const AccelParams &params)
{
    return std::make_unique<HermesAccel>(params);
}

} // namespace dlvp::pred
