/**
 * @file
 * LoadAccelerator adapters for the pre-registry predictor set: the
 * paper's PAP-based DLVP, the CAP and stride address predictors,
 * VTAGE and D-VTAGE, and the DLVP+VTAGE tournament. Each adapter owns
 * its concrete predictor(s) and translates the interface hooks into
 * the predictor's native calls; every stats increment matches the
 * pre-registry core dispatch exactly (golden CoreStats pin this).
 */

#include <algorithm>
#include <memory>

#include "pred/accel.hh"
#include "pred/chooser.hh"

namespace dlvp::pred
{

namespace
{

/**
 * PAP groups loads by 16-byte fetch group; every PAP call site uses
 * the same group address derivation.
 */
Addr
papGroupPc(Addr pc)
{
    return pc & ~Addr{15};
}

/**
 * VTAGE commit training shared by the standalone and tournament
 * adapters (the tournament optionally partitions: a load DLVP handled
 * correctly does not compete for VTAGE capacity, SS5.2.3).
 */
void
vtageCommitTrain(Vtage &vtage, bool partition,
                 const AccelCommitInfo &ci, AccelStats &stats)
{
    const trace::TraceInst &inst = *ci.inst;
    const unsigned nd = std::max<unsigned>(1, inst.numDests);
    const bool was_pred = ci.valueMask != 0;
    bool was_correct = was_pred;
    for (unsigned d = 0; was_correct && d < nd; ++d)
        if (ci.valueMask & (1u << d))
            was_correct = (*ci.values)[d] == (*ci.actualValues)[d];
    bool dlvp_owned = false;
    if (partition && inst.isLoad() && ci.probeHit) {
        dlvp_owned = true;
        for (unsigned d = 0; dlvp_owned && d < nd; ++d)
            dlvp_owned = (*ci.probeValues)[d] == (*ci.actualValues)[d];
    }
    if (!dlvp_owned && (vtage.eligible(inst) || was_pred)) {
        for (unsigned d = 0; d < nd; ++d) {
            vtage.train(inst, d, ci.ghr, (*ci.actualValues)[d],
                        was_pred, was_correct);
            ++stats.writes;
        }
    }
}

/** The paper's scheme: PAP address prediction feeding the L1D probe. */
class PapDlvpAccel : public LoadAccelerator
{
  public:
    explicit PapDlvpAccel(const AccelParams &params) : pap_(params.pap)
    {
    }

    bool predictsAddresses() const override { return true; }
    bool trainsAtExecute() const override { return true; }
    unsigned loadPathBits() const override
    {
        return pap_.params().histBits;
    }

    AccelAddrPrediction
    predictAddress(const trace::TraceInst &inst, unsigned slot,
                   const AccelFetchContext &ctx,
                   AccelStats &stats) override
    {
        const auto p = pap_.predict(papGroupPc(inst.pc), slot, ctx.lph);
        ++stats.lookups;
        return {p.valid, p.addr, p.size, p.way};
    }

    void
    trainAtExecute(const AccelExecInfo &ei, AccelStats &stats) override
    {
        if (!ei.addrTrainable)
            return;
        const trace::TraceInst &inst = *ei.inst;
        pap_.train(papGroupPc(inst.pc), ei.slot, ei.lph, inst.memAddr,
                   inst.memSize, ei.l1dWay);
        ++stats.writes;
    }

    void
    invalidateAddress(Addr pc, unsigned slot, std::uint64_t lph) override
    {
        pap_.invalidate(papGroupPc(pc), slot, lph);
    }

    void
    reseedRng(std::uint64_t seed) override
    {
        pap_.reseedRng(seed ^ 0x7061700000000000ULL);
    }

    std::uint64_t storageBits() const override
    {
        return pap_.storageBits();
    }

  private:
    Pap pap_;
};

/** DLVP microarchitecture with the CAP correlated address predictor. */
class CapDlvpAccel : public LoadAccelerator
{
  public:
    explicit CapDlvpAccel(const AccelParams &params) : cap_(params.cap)
    {
    }

    bool predictsAddresses() const override { return true; }

    AccelAddrPrediction
    predictAddress(const trace::TraceInst &inst, unsigned slot,
                   const AccelFetchContext &ctx,
                   AccelStats &stats) override
    {
        (void)slot;
        (void)ctx;
        // CAP predicts and trains at fetch: idealized zero-latency
        // per-load history management (see pred/cap.hh).
        const auto cp = cap_.predict(inst.pc);
        cap_.train(inst.pc, inst.memAddr);
        ++stats.writes;
        ++stats.lookups;
        return {cp.valid, cp.addr, inst.memSize, -1};
    }

    std::uint64_t storageBits() const override
    {
        return cap_.storageBits();
    }

  private:
    Cap cap_;
};

/** DLVP microarchitecture with a computation-based stride predictor. */
class StrideDlvpAccel : public LoadAccelerator
{
  public:
    explicit StrideDlvpAccel(const AccelParams &params)
        : stride_(params.strideAp)
    {
    }

    bool predictsAddresses() const override { return true; }
    bool trainsAtExecute() const override { return true; }

    AccelAddrPrediction
    predictAddress(const trace::TraceInst &inst, unsigned slot,
                   const AccelFetchContext &ctx,
                   AccelStats &stats) override
    {
        (void)slot;
        (void)ctx;
        const auto sp = stride_.predict(inst.pc);
        ++stats.lookups;
        return {sp.valid, sp.addr, inst.memSize, -1};
    }

    void
    trainAtExecute(const AccelExecInfo &ei, AccelStats &stats) override
    {
        if (!ei.addrTrainable)
            return;
        stride_.train(ei.inst->pc, ei.inst->memAddr);
        ++stats.writes;
    }

    void flushResync() override { stride_.flushResync(); }

    std::uint64_t storageBits() const override
    {
        return stride_.storageBits();
    }

  private:
    StrideAp stride_;
};

/** VTAGE value prediction (standalone). */
class VtageAccel : public LoadAccelerator
{
  public:
    explicit VtageAccel(const AccelParams &params) : vtage_(params.vtage)
    {
    }

    bool predictsValues() const override { return true; }
    bool trainsAtCommit() const override { return true; }

    void
    predictValues(const trace::TraceInst &inst,
                  const AccelFetchContext &ctx,
                  AccelValuePredictions &out, AccelStats &stats) override
    {
        if (!vtage_.eligible(inst))
            return;
        const unsigned n = std::max<unsigned>(1, inst.numDests);
        for (unsigned d = 0; d < n; ++d) {
            const auto p = vtage_.predict(inst, d, ctx.ghr);
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
        vtageCommitTrain(vtage_, false, ci, stats);
    }

    void
    reseedRng(std::uint64_t seed) override
    {
        vtage_.reseedRng(seed ^ 0x7674616765000000ULL);
    }

    std::uint64_t storageBits() const override
    {
        return vtage_.storageBits();
    }

  private:
    Vtage vtage_;
};

/** D-VTAGE: last values + stride deltas, speculative history. */
class DvtageAccel : public LoadAccelerator
{
  public:
    explicit DvtageAccel(const AccelParams &params)
        : dvtage_(params.dvtage)
    {
    }

    bool predictsValues() const override { return true; }
    bool trainsAtCommit() const override { return true; }

    void
    predictValues(const trace::TraceInst &inst,
                  const AccelFetchContext &ctx,
                  AccelValuePredictions &out, AccelStats &stats) override
    {
        if (!dvtage_.eligible(inst))
            return;
        const unsigned n = std::max<unsigned>(1, inst.numDests);
        for (unsigned d = 0; d < n; ++d) {
            const auto p = dvtage_.predictSpec(inst, d, ctx.ghr);
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
        if (!dvtage_.eligible(inst))
            return;
        const unsigned nd = std::max<unsigned>(1, inst.numDests);
        for (unsigned d = 0; d < nd; ++d) {
            dvtage_.train(inst, d, ci.ghr, (*ci.actualValues)[d]);
            ++stats.writes;
        }
    }

    void flushResync() override { dvtage_.flushResync(); }

    void
    reseedRng(std::uint64_t seed) override
    {
        dvtage_.reseedRng(seed ^ 0x6476746167650000ULL);
    }

    std::uint64_t storageBits() const override
    {
        return dvtage_.storageBits();
    }

  private:
    Dvtage dvtage_;
};

/** DLVP + VTAGE with a per-PC tournament chooser (Figure 8). */
class TournamentAccel : public LoadAccelerator
{
  public:
    explicit TournamentAccel(const AccelParams &params)
        : pap_(params.pap), vtage_(params.vtage),
          partition_(params.tournamentPartition)
    {
    }

    bool predictsAddresses() const override { return true; }
    bool predictsValues() const override { return true; }
    bool trainsAtExecute() const override { return true; }
    bool trainsAtCommit() const override { return true; }
    unsigned loadPathBits() const override
    {
        return pap_.params().histBits;
    }

    void
    predictValues(const trace::TraceInst &inst,
                  const AccelFetchContext &ctx,
                  AccelValuePredictions &out, AccelStats &stats) override
    {
        if (!vtage_.eligible(inst))
            return;
        const unsigned n = std::max<unsigned>(1, inst.numDests);
        for (unsigned d = 0; d < n; ++d) {
            const auto p = vtage_.predict(inst, d, ctx.ghr);
            ++stats.lookups;
            if (p.valid) {
                out.mask |= static_cast<std::uint16_t>(1u << d);
                out.values[d] = p.value;
            }
        }
    }

    AccelAddrPrediction
    predictAddress(const trace::TraceInst &inst, unsigned slot,
                   const AccelFetchContext &ctx,
                   AccelStats &stats) override
    {
        const auto p = pap_.predict(papGroupPc(inst.pc), slot, ctx.lph);
        ++stats.lookups;
        return {p.valid, p.addr, p.size, p.way};
    }

    AccelChoice
    choose(Addr pc, bool addr_avail, bool value_avail) override
    {
        bool use_dlvp;
        if (addr_avail && value_avail)
            use_dlvp = chooser_.preferDlvp(pc);
        else
            use_dlvp = addr_avail;
        return use_dlvp ? AccelChoice::Address : AccelChoice::Value;
    }

    void
    trainAtExecute(const AccelExecInfo &ei, AccelStats &stats) override
    {
        const trace::TraceInst &inst = *ei.inst;
        if (ei.addrTrainable) {
            pap_.train(papGroupPc(inst.pc), ei.slot, ei.lph,
                       inst.memAddr, inst.memSize, ei.l1dWay);
            ++stats.writes;
        }
        // The chooser learns only when both candidates competed.
        if (ei.probeHit && ei.valueMask) {
            const unsigned n = std::max<unsigned>(1, inst.numDests);
            bool dl_ok = ei.probeHit;
            for (unsigned d = 0; dl_ok && d < n; ++d)
                dl_ok = (*ei.probeValues)[d] == (*ei.actualValues)[d];
            bool vt_ok = ei.valueMask != 0;
            for (unsigned d = 0; vt_ok && d < n; ++d)
                if (ei.valueMask & (1u << d))
                    vt_ok = (*ei.values)[d] == (*ei.actualValues)[d];
            chooser_.update(inst.pc, dl_ok, vt_ok);
        }
    }

    void
    trainAtCommit(const AccelCommitInfo &ci, AccelStats &stats) override
    {
        vtageCommitTrain(vtage_, partition_, ci, stats);
    }

    void
    invalidateAddress(Addr pc, unsigned slot, std::uint64_t lph) override
    {
        pap_.invalidate(papGroupPc(pc), slot, lph);
    }

    void
    reseedRng(std::uint64_t seed) override
    {
        pap_.reseedRng(seed ^ 0x7061700000000000ULL);
        vtage_.reseedRng(seed ^ 0x7674616765000000ULL);
    }

    std::uint64_t storageBits() const override
    {
        return pap_.storageBits() + vtage_.storageBits();
    }

  private:
    Pap pap_;
    Vtage vtage_;
    TournamentChooser chooser_;
    bool partition_;
};

} // namespace

/**
 * The no-acceleration baseline: the interface's defaults, every
 * capability off.
 */
std::unique_ptr<LoadAccelerator>
makeNoneAccel(const AccelParams &)
{
    return std::make_unique<LoadAccelerator>();
}

std::unique_ptr<LoadAccelerator>
makePapDlvpAccel(const AccelParams &params)
{
    return std::make_unique<PapDlvpAccel>(params);
}

std::unique_ptr<LoadAccelerator>
makeCapDlvpAccel(const AccelParams &params)
{
    return std::make_unique<CapDlvpAccel>(params);
}

std::unique_ptr<LoadAccelerator>
makeStrideDlvpAccel(const AccelParams &params)
{
    return std::make_unique<StrideDlvpAccel>(params);
}

std::unique_ptr<LoadAccelerator>
makeVtageAccel(const AccelParams &params)
{
    return std::make_unique<VtageAccel>(params);
}

std::unique_ptr<LoadAccelerator>
makeDvtageAccel(const AccelParams &params)
{
    return std::make_unique<DvtageAccel>(params);
}

std::unique_ptr<LoadAccelerator>
makeTournamentAccel(const AccelParams &params)
{
    return std::make_unique<TournamentAccel>(params);
}

} // namespace dlvp::pred
