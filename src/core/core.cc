#include "core.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdlib>

#include "common/annotations.hh"
#include "common/logging.hh"
#include "common/run_error.hh"

namespace dlvp::core
{

using trace::OpClass;
using trace::TraceInst;

OoOCore::OoOCore(const CoreParams &params, const VpConfig &vp,
                 const trace::Trace &trace)
    : params_(params), vp_(vp), trace_(trace), mem_(params.memory),
      tage_({}), ittage_({}), mdp_(),
      lph_(vp.pap.histBits),
      paq_(vp.paqSize, vp.paqLifetime),
      archMem_(trace.initialImage),
      committedMem_(trace.initialImage)
{
    cursor_.reset(trace_);
    {
        pred::AccelParams ap;
        ap.pap = vp_.pap;
        ap.cap = vp_.cap;
        ap.strideAp = vp_.strideAp;
        ap.vtage = vp_.vtage;
        ap.dvtage = vp_.dvtage;
        ap.balcvp = vp_.balcvp;
        ap.hermes = vp_.hermes;
        ap.tournamentPartition = vp_.tournamentPartition;
        accel_ = pred::makeAccelerator(vp_.accel, ap);
    }
    accelAddr_ = accel_->predictsAddresses();
    accelValues_ = accel_->predictsValues();
    accelExecTrain_ = accel_->trainsAtExecute();
    accelCommitTrain_ = accel_->trainsAtCommit();
    accelActive_ = accelAddr_ || accelValues_;
    if (vp_.rngSeed != 0) {
        tage_.reseedRng(vp_.rngSeed ^ 0x7461676500000000ULL);
        // Each accelerator derives its own per-predictor salt so two
        // predictors never share an Rng stream.
        accel_->reseedRng(vp_.rngSeed);
    }
    dlvp_assert(params_.numPhysRegs > kNumArchRegs);
    freePhys_ = params_.numPhysRegs - kNumArchRegs;

    // Size the instruction-window and load-value rings to the maximum
    // number of in-flight sequence numbers (ROB plus the in-order
    // front end), rounded up to a power of two for mask indexing.
    const std::size_t cap = std::bit_ceil<std::size_t>(
        params_.robSize + frontendCapacity());
    window_.init(cap);
    loadValues_.resize(cap);
    loadValSeq_.assign(cap, kNoSeq);
    loadValMask_ = cap - 1;

    wheel_.init(wheelHorizon());
    readyList_.reserve(params_.iqSize);

    dbgHalt_ = std::getenv("DLVP_DEBUG_HALT") != nullptr;
    dbgAct_ = std::getenv("DLVP_DEBUG_ACT") != nullptr;
    dbgWait_ = std::getenv("DLVP_DEBUG_WAIT") != nullptr;
    dbgLscd_ = std::getenv("DLVP_DEBUG_LSCD") != nullptr;
    dbgCov_ = std::getenv("DLVP_DEBUG_COV") != nullptr;
}

OoOCore::~OoOCore() = default;

unsigned
OoOCore::frontendCapacity() const
{
    // In-order front-end depth times width: instructions that can sit
    // between fetch and dispatch.
    return params_.fetchToDispatch * params_.fetchWidth;
}

std::size_t
OoOCore::wheelHorizon() const
{
    // Upper bound on any issue-to-complete latency: a TLB walk plus a
    // full L1→L2→L3→DRAM miss chain on the load path, plus every
    // fixed execution latency that could be added on top. The wheel
    // must span strictly more than this so two live completion cycles
    // can never share a bucket.
    const auto &m = params_.memory;
    const std::size_t worst =
        m.tlb.missPenalty + m.l1d.hitLatency + m.l2.hitLatency +
        m.l3.hitLatency + m.memLatency + params_.loadExtraLatency +
        params_.forwardLatency + params_.divLatency +
        params_.mulLatency + params_.fpLatency + params_.storeLatency +
        params_.aluLatency + 2 /* atomic + slack */;
    return std::bit_ceil(worst + 1);
}

void
OoOCore::CompletionWheel::remove(Cycle when, InstSeqNum seq)
{
    auto &b = buckets_[when & mask_];
    for (auto it = b.begin(); it != b.end(); ++it) {
        if (*it == seq) {
            b.erase(it);
            --pending_;
            return;
        }
    }
    dlvp_panic("completion wheel: seq %llu missing from bucket %llu",
               static_cast<unsigned long long>(seq),
               static_cast<unsigned long long>(when));
}

OoOCore::InstState *
OoOCore::byQSeq(InstSeqNum seq)
{
    if (window_.empty())
        return nullptr;
    const InstSeqNum base = window_.front().seq;
    if (seq < base || seq >= base + window_.size())
        return nullptr;
    return &window_[seq - base];
}

bool
OoOCore::overlaps(const TraceInst &a, const TraceInst &b) const
{
    const Addr a_lo = a.memAddr;
    const Addr a_hi = a.memAddr +
        (a.isLoad() ? a.loadBytes() : a.memSize);
    const Addr b_lo = b.memAddr;
    const Addr b_hi = b.memAddr +
        (b.isLoad() ? b.loadBytes() : b.memSize);
    return a_lo < b_hi && b_lo < a_hi;
}

// ---------------------------------------------------------------------
// Functional first-fetch: advance archMem in program order exactly
// once per trace index and capture load values.
// ---------------------------------------------------------------------

void
OoOCore::firstFetchFunctional(InstSeqNum seq, const TraceInst &inst)
{
    if (seq != archApplied_)
        return;
    ++archApplied_;
    if (inst.isLoad() || inst.cls == OpClass::Atomic) {
        const std::size_t slot = seq & loadValMask_;
        auto &vals = loadValues_[slot];
        loadValSeq_[slot] = seq;
        const unsigned n = std::max<unsigned>(1, inst.numDests);
        for (unsigned d = 0; d < n; ++d)
            vals[d] = archMem_.read(inst.memAddr + d * inst.memSize,
                                    inst.memSize);
    }
    if (inst.isStore() || inst.cls == OpClass::Atomic)
        archMem_.write(inst.memAddr, inst.storeValue, inst.memSize);
}

// ---------------------------------------------------------------------
// Fetch
// ---------------------------------------------------------------------

void
OoOCore::fetchStage()
{
    DLVP_HOT;
    if (fetchHaltSeq_ != kNoSeq) {
        ++stats_.fetchHaltCycles;
        return;
    }
    if (now_ < fetchResumeCycle_)
        return;
    if (window_.size() >= params_.robSize + frontendCapacity())
        return;

    // The front-end sustains fetchWidth instructions per cycle from
    // the fetch buffer; a cycle's fetch ends at a (predicted) taken
    // branch or when the buffer/width is exhausted. Fetch groups are
    // tracked per cycle: every cycle re-accesses the I-cache for its
    // group(s), and the APT predicts at most two loads per group
    // access (§3.1.1).
    curFetchGroup_ = kNoAddr;
    unsigned fetched = 0;
    while (fetched < params_.fetchWidth && nextFetch_ < trace_.size() &&
           window_.size() < params_.robSize + frontendCapacity()) {
        const TraceInst &inst = cursor_.at(nextFetch_);
        const Addr group = inst.pc >> 4;
        if (group != curFetchGroup_) {
            const unsigned ic_lat = mem_.fetchAccess(inst.pc, now_);
            if (ic_lat > 0) {
                fetchResumeCycle_ = now_ + ic_lat;
                return;
            }
            curFetchGroup_ = group;
            groupLoadCount_ = 0;
        }
        fetchOne(inst);
        ++fetched;

        const InstState &s = window_.back();
        if (inst.isControl()) {
            if (s.branchMispredicted) {
                curFetchGroup_ = kNoAddr;
                fetchHaltSeq_ = s.seq;
                if (dbgHalt_)
                    // dlvp-analyze: allow(hot-path) -- debug-gated
                    fprintf(stderr, "halt at seq=%llu pc=%llx cls=%d cyc=%llu\n",
                        (unsigned long long)s.seq, (unsigned long long)inst.pc,
                        (int)inst.cls, (unsigned long long)now_);
                break;
            }
            // Predicted-taken control redirects: end the fetch cycle
            // (branchPredTaken is the same TAGE lookup fetchOne made).
            if (s.branchPredTaken) {
                curFetchGroup_ = kNoAddr;
                break;
            }
        }
    }
}

void
OoOCore::fetchOne(const TraceInst &inst)
{
    const InstSeqNum seq = nextFetch_++;
    ++stats_.fetchedInsts;

    // Slots are recycled: the deque plateaus at robSize + frontend
    // capacity after warmup, so steady-state cycles never allocate.
    // dlvp-analyze: allow(hot-path) -- recycled, bounded by robSize
    window_.emplace_back();
    InstState &s = window_.back();
    s.seq = seq;
    s.inst = &inst;
    s.fetchCycle = now_;
    s.ghrSnap = ghr_;
    s.indHistSnap = indHist_;
    s.lphSnap = lph_.snapshot();
    s.rasSnap = ras_.snapshot();

    firstFetchFunctional(seq, inst);
    // The slot is recycled with its value arrays unzeroed, so fill
    // exactly the [0, max(1, numDests)) range every reader bounds by.
    if (inst.isLoad() || inst.cls == OpClass::Atomic) {
        const std::size_t slot = seq & loadValMask_;
        dlvp_assert(loadValSeq_[slot] == seq);
        const unsigned n = std::max<unsigned>(1, inst.numDests);
        for (unsigned d = 0; d < n; ++d)
            s.actualValues[d] = loadValues_[slot][d];
    } else if (inst.numDests > 0) {
        s.actualValues[0] = inst.destValue;
        for (unsigned d = 1; d < inst.numDests; ++d)
            s.actualValues[d] = 0;
    }

    // ---- branch prediction ----
    if (inst.isControl()) {
        const Addr actual_next =
            seq + 1 < trace_.size() ? cursor_.at(seq + 1).pc : 0;
        s.branchActualTarget = actual_next;
        // Non-conditional control is predicted taken; fetchStage
        // reuses this instead of re-querying TAGE.
        s.branchPredTaken = inst.taken;
        switch (inst.cls) {
          case OpClass::CondBranch: {
            const bool pred = tage_.predict(inst.pc, ghr_);
            s.branchPredTaken = pred;
            // A taken prediction also needs the BTB to supply the
            // target in time; a miss is a redirect like any other
            // misprediction.
            const auto b = btb_.lookup(inst.pc);
            s.branchMispredicted =
                pred != inst.taken || (inst.taken && !b.hit);
            if (inst.taken)
                btb_.update(inst.pc, actual_next);
            ghr_ = (ghr_ << 1) | (inst.taken ? 1 : 0);
            break;
          }
          case OpClass::DirectJump: {
            const auto b = btb_.lookup(inst.pc);
            s.branchMispredicted = !b.hit;
            btb_.update(inst.pc, actual_next);
            break;
          }
          case OpClass::Call: {
            const auto b = btb_.lookup(inst.pc);
            s.branchMispredicted = !b.hit;
            btb_.update(inst.pc, actual_next);
            ras_.push(inst.pc + kInstBytes);
            break;
          }
          case OpClass::Ret: {
            const Addr pred = ras_.pop();
            s.branchMispredicted = pred != actual_next;
            break;
          }
          case OpClass::IndirectJump: {
            const Addr pred = ittage_.predict(inst.pc, indHist_);
            s.branchMispredicted = pred != actual_next;
            indHist_ =
                pred::Ittage::advanceHistory(indHist_, actual_next);
            break;
          }
          default:
            break;
        }
    }

    // Both predictor hooks see the same fetch-time context: build the
    // snapshot struct once instead of per hook.
    const pred::AccelFetchContext fctx{s.ghrSnap, s.lphSnap};

    // ---- value prediction at fetch ----
    if (accelValues_) {
        // Reuse one scratch AccelValuePredictions: zeroing its 16
        // value slots per fetched instruction is wasted work, since
        // predictValues only writes (and fetch only copies) slots it
        // also sets in the mask.
        pred::AccelValuePredictions &vpred = vpredScratch_;
        vpred.eligible = false;
        vpred.mask = 0;
        auto astats = accelStats();
        accel_->predictValues(inst, fctx, vpred, astats);
        if (vpred.eligible)
            s.vpEligible = true;
        s.vtMask = vpred.mask;
        const unsigned n = std::max<unsigned>(1, inst.numDests);
        for (unsigned d = 0; d < n; ++d)
            s.vtValues[d] = vpred.values[d];
    }

    // ---- address prediction at fetch stage 1 ----
    if (inst.isLoad()) {
        const unsigned slot = groupLoadCount_++;
        if (accelAddr_ && slot < 2) {
            s.apLooked = true;
            s.apSlot = static_cast<std::uint8_t>(slot);
            if (vp_.useLscd && lscd_.contains(inst.pc)) {
                s.apBlocked = true;
                ++stats_.lscdBlocked;
            } else {
                auto astats = accelStats();
                const auto pp =
                    accel_->predictAddress(inst, slot, fctx, astats);
                if (pp.valid && !paq_.full()) {
                    s.apPredicted = true;
                    s.apAddr = pp.addr;
                    s.apSize = pp.size ? pp.size : inst.memSize;
                    s.apWay = static_cast<std::int8_t>(pp.way);
                    PaqEntry e;
                    e.seq = seq;
                    e.addr = pp.addr;
                    e.size = s.apSize;
                    e.way = pp.way;
                    e.allocCycle = now_ + 1;
                    paq_.push(e);
                    ++stats_.paqAllocs;
                }
            }
        }
        lph_.shiftLoad(inst.pc);
    }
}

// ---------------------------------------------------------------------
// Dispatch (rename + allocate + VPE activation)
// ---------------------------------------------------------------------

void
OoOCore::activatePredictions(InstState &s)
{
    const TraceInst &inst = *s.inst;
    const unsigned n = std::max<unsigned>(1, inst.numDests);
    const std::uint16_t full_mask =
        static_cast<std::uint16_t>((1u << n) - 1);

    // DLVP candidate: the probe must have delivered by rename.
    bool dlvp_avail = false;
    if (s.apPredicted && s.probeDone && s.probeHit) {
        if (s.probeReady <= now_) {
            dlvp_avail = true;
        } else {
            ++stats_.probeLate;
        }
    }
    const bool vtage_avail = s.vtMask != 0;
    if (!dlvp_avail && !vtage_avail)
        return;

    std::uint16_t mask = 0;
    std::uint8_t source = 0;
    const std::array<std::uint64_t, trace::kMaxDests> *values = nullptr;

    switch (accel_->choose(inst.pc, dlvp_avail, vtage_avail)) {
      case pred::AccelChoice::Address:
        mask = full_mask;
        values = &s.dlValues;
        source = 1;
        break;
      case pred::AccelChoice::Value:
        mask = s.vtMask;
        values = &s.vtValues;
        source = 2;
        break;
      case pred::AccelChoice::None:
        return;
    }

    // Oracle replay (§5.2.4): a misprediction is treated as if the
    // load had never been predicted.
    bool would_be_wrong = false;
    for (unsigned d = 0; d < n; ++d) {
        if ((mask & (1u << d)) &&
            (*values)[d] != s.actualValues[d]) {
            would_be_wrong = true;
            break;
        }
    }
    if (vp_.recovery == RecoveryMode::OracleReplay && would_be_wrong) {
        ++stats_.vpReplays;
        return;
    }

    const unsigned needed =
        static_cast<unsigned>(std::popcount(mask));
    if (vp_.vpeDesign == VpeDesign::PortArbitration) {
        // Design #1 (SS3.2.1): predicted values are written through
        // the 8 shared PRF write ports; when execution writebacks
        // have consumed them this cycle, the prediction is dropped —
        // "PRF write ports can become a bottleneck".
        if (prfPortsUsed_ + needed > params_.issueWidth) {
            ++stats_.prfPortDrops;
            return;
        }
        prfPortsUsed_ += needed;
        stats_.prfWrites += needed;
    } else {
        // Design #3: a dedicated PVT. A full PVT turns the prediction
        // into no-prediction.
        if (pvtUsed_ + needed > vp_.pvtSize) {
            ++stats_.pvtFullDrops;
            return;
        }
        pvtUsed_ += needed;
        stats_.pvtWrites += needed;
    }

    s.vpActiveMask = mask;
    s.vpSource = source;
    s.vpWrong = would_be_wrong;
    if (dbgAct_ && s.seq % 1000 < 3)
        // dlvp-analyze: allow(hot-path) -- debug-gated
        fprintf(stderr,
                "act seq=%llu pc=%llx mask=%x src=%u disp=%llu "
                "probeReady=%llu\n",
                (unsigned long long)s.seq,
                (unsigned long long)s.inst->pc, mask, source,
                (unsigned long long)now_,
                (unsigned long long)s.probeReady);
    for (unsigned d = 0; d < n; ++d)
        if (mask & (1u << d))
            s.vpValues[d] = (*values)[d];
}

void
OoOCore::dispatchStage()
{
    DLVP_HOT;
    unsigned n = 0;
    while (n < params_.dispatchWidth) {
        // Dispatch proceeds strictly in program order.
        InstState *s = byQSeq(nextDispatch_);
        if (s == nullptr)
            return;
        dlvp_assert(!s->dispatched);
        if (s->fetchCycle + params_.fetchToDispatch > now_)
            return;
        const TraceInst &inst = *s->inst;
        // Structural resources.
        if (dispatchedCount_ >= params_.robSize) {
            ++stats_.robFullStalls;
            return;
        }
        if (iqCount_ >= params_.iqSize) {
            ++stats_.iqFullStalls;
            return;
        }
        if ((inst.isLoad() || inst.cls == OpClass::Atomic) &&
            ldqCount_ >= params_.ldqSize)
            return;
        if ((inst.isStore() || inst.cls == OpClass::Atomic) &&
            stqCount_ >= params_.stqSize)
            return;
        if (inst.numDests > freePhys_)
            return;

        s->dispatched = true;
        s->dispatchCycle = now_;
        stats_.dispatchWaitCycles +=
            now_ - s->fetchCycle - params_.fetchToDispatch;
        ++dispatchedCount_;
        ++iqCount_;
        if (inst.isLoad() || inst.cls == OpClass::Atomic)
            ++ldqCount_;
        if (inst.isStore() || inst.cls == OpClass::Atomic) {
            ++stqCount_;
            // In-order dispatch keeps the STQ seq list ascending.
            // dlvp-analyze: allow(hot-path) -- bounded by stqSize
            storeSeqs_.push_back(s->seq);
        }
        freePhys_ -= inst.numDests;

        // Rename: resolve sources against the latest producers. Every
        // i < numSrcs must be written (the slot's srcs array is
        // recycled without clearing): the zero register renames to the
        // always-ready default.
        for (unsigned i = 0; i < inst.numSrcs; ++i) {
            const RegId r = inst.srcs[i];
            s->srcs[i] =
                r == 0 ? InstState::Src{} : archProducer_[r];
        }
        for (unsigned d = 0; d < inst.numDests; ++d) {
            const RegId r = static_cast<RegId>(inst.destBase + d);
            if (r >= kNumArchRegs)
                continue;
            archProducer_[r] = {s->seq, true,
                                static_cast<std::uint8_t>(d)};
        }

        if (inst.isLoad())
            s->mdpWait = mdp_.shouldWait(inst.pc);
        if (inst.cls == OpClass::Barrier)
            ++incompleteBarriers_;

        activatePredictions(*s);
        // Subscribe to still-pending producers; already-ready
        // instructions go straight to the issue candidates.
        if (registerWakeups(*s))
            markReady(*s);
        ++nextDispatch_;
        ++n;
    }
}

// ---------------------------------------------------------------------
// Issue + probe
// ---------------------------------------------------------------------

bool
OoOCore::srcsReady(const InstState &s) const
{
    for (unsigned i = 0; i < s.inst->numSrcs; ++i) {
        const auto &src = s.srcs[i];
        if (!src.valid)
            continue;
        // Locate the producer (const-cast-free linear mapping).
        const InstSeqNum base = window_.front().seq;
        if (src.producer < base)
            continue; // committed
        const InstState &p = window_[src.producer - base];
        // A value-predicted destination is ready from rename onward.
        if (p.vpActiveMask & (1u << src.destIdx))
            continue;
        if (!p.completed || p.completeCycle > now_)
            return false;
    }
    return true;
}

bool
OoOCore::memOrderReady(const InstState &s) const
{
    const TraceInst &inst = *s.inst;
    const InstSeqNum base = window_.front().seq;
    const auto done = [this](const InstState &o) {
        return o.issued && o.completeCycle <= now_;
    };
    if (inst.cls == OpClass::Barrier) {
        // Barriers wait for all older memory operations.
        for (InstSeqNum q = base; q < s.seq; ++q) {
            const InstState &o = window_[q - base];
            if (o.inst->isMemRef() && !done(o))
                return false;
        }
        return true;
    }
    if (!inst.isMemRef())
        return true;
    // Memory ops wait for older barriers (cheap guard: barriers are
    // rare, so skip the scan when none are in flight).
    if (incompleteBarriers_ > 0) {
        for (InstSeqNum q = base; q < s.seq; ++q) {
            const InstState &o = window_[q - base];
            if (o.inst->cls == OpClass::Barrier && !done(o))
                return false;
        }
    }
    // stqCount_ counts dispatched stores/atomics in the window, and
    // everything older than a dispatched instruction is itself
    // dispatched (in-order dispatch), so zero means no older store
    // can exist and the scan below is vacuous.
    if (inst.isLoad() && s.mdpWait && stqCount_ > 0) {
        // Store-wait: hold until all older stores have issued. The
        // STQ seq list holds exactly the dispatched stores/atomics,
        // so this walks a handful of entries instead of the window.
        for (std::size_t q = storeSeqs_.size(); q-- > storeHead_;) {
            const InstSeqNum oseq = storeSeqs_[q];
            if (oseq >= s.seq)
                continue;
            const InstState &o = window_[oseq - base];
            if (o.inst->isStore() && !o.issued)
                return false;
        }
    }
    return true;
}

void
OoOCore::markReady(InstState &s)
{
    s.dataReady = true;
    // Dispatch-time insertions arrive in seq order above everything
    // already listed (dispatch is in-order and flushes prune the
    // list's tail), so push_back keeps the list sorted; completion
    // wakeups can land anywhere and take the sorted-insert path.
    if (readyList_.empty() || readyList_.back() < s.seq) {
        // dlvp-analyze: allow(hot-path) -- bounded by iqSize
        readyList_.push_back(s.seq);
        return;
    }
    // dlvp-analyze: allow(hot-path) -- bounded by iqSize
    readyList_.insert(std::lower_bound(readyList_.begin(),
                                       readyList_.end(), s.seq),
                      s.seq);
}

void
OoOCore::wakeDependents(InstState &producer)
{
    if (producer.waiters.empty())
        return;
    for (const InstSeqNum seq : producer.waiters) {
        InstState *s = byQSeq(seq);
        // Lazy validation: a waiter may have been squashed (and its
        // seq possibly refetched into a new incarnation) since it
        // registered. Re-evaluating the full readiness predicate
        // makes a stale wake either correct or a no-op.
        if (s == nullptr || !s->dispatched || s->issued ||
            s->dataReady)
            continue;
        if (srcsReady(*s))
            markReady(*s);
    }
    producer.waiters.clear();
}

bool
OoOCore::registerWakeups(InstState &s)
{
    // Mirror of srcsReady(): where that polls, this subscribes. Any
    // source that is not ready yet adds this instruction to its
    // producer's wakeup list; the producer's completion event then
    // re-tests readiness. Registering on *every* blocking producer
    // (not just the first) makes the wake chain independent of
    // completion order.
    bool ready = true;
    const InstSeqNum base = window_.front().seq;
    for (unsigned i = 0; i < s.inst->numSrcs; ++i) {
        const auto &src = s.srcs[i];
        if (!src.valid)
            continue;
        if (src.producer < base)
            continue; // committed
        InstState &p = window_[src.producer - base];
        if (p.vpActiveMask & (1u << src.destIdx))
            continue; // value-predicted: ready from rename onward
        if (p.completed && p.completeCycle <= now_)
            continue;
        // Waiter lists are recycled with their window slots.
        // dlvp-analyze: allow(hot-path) -- recycled, bounded by srcs
        p.waiters.push_back(s.seq);
        ready = false;
    }
    return ready;
}

unsigned
OoOCore::issueLoad(InstState &s)
{
    const TraceInst &inst = *s.inst;
    // Store-to-load forwarding from the youngest older overlapping
    // store whose address is known. The STQ seq list walks only the
    // in-flight stores/atomics (youngest first, like the old
    // full-window scan) — the window scan over every older entry was
    // the single hottest loop in the issue path.
    if (stqCount_ > 0) {
        const InstSeqNum base = window_.front().seq;
        for (std::size_t q = storeSeqs_.size(); q-- > storeHead_;) {
            const InstSeqNum oseq = storeSeqs_[q];
            if (oseq >= s.seq)
                continue;
            const InstState &o = window_[oseq - base];
            if (!o.issued)
                continue; // unknown address: speculate no conflict
            if (overlaps(inst, *o.inst))
                return params_.forwardLatency;
        }
    }
    const auto r = mem_.loadAccess(inst.pc, inst.memAddr, now_);
    ++stats_.l1dAccesses;
    if (!r.l1Hit)
        ++stats_.l1dMisses;
    if (r.tlbMiss)
        ++stats_.tlbMisses;
    return r.latency + params_.loadExtraLatency;
}

void
OoOCore::issueStage()
{
    DLVP_HOT;
    unsigned generic_free =
        params_.issueWidth - params_.lsLanes; // 6 generic lanes
    unsigned ls_free = params_.lsLanes;

    // Issue candidates are exactly the ready list: dispatched
    // instructions whose sources are all ready (dependency wakeups
    // keep it current), sorted by seq so priority matches the old
    // program-order window scan. Structural and memory-order losers
    // are compacted back in place.
    const std::size_t n = readyList_.size();
    std::size_t kept = 0;
    std::size_t i = 0;
    for (; i < n; ++i) {
        if (generic_free == 0 && ls_free == 0)
            break;
        InstState &s = *byQSeq(readyList_[i]);
        dlvp_assert(s.dispatched && !s.issued && s.dataReady);
        const TraceInst &inst = *s.inst;
        const bool is_mem = inst.isMemRef() ||
                            inst.cls == OpClass::Barrier;
        if (is_mem ? ls_free == 0 : generic_free == 0) {
            readyList_[kept++] = s.seq;
            continue;
        }
        if (!memOrderReady(s)) {
            readyList_[kept++] = s.seq;
            continue;
        }

        s.issued = true;
        s.issueCycle = now_;
        stats_.issueWaitCycles += now_ - s.dispatchCycle;
        if (dbgWait_) {
            // Atomics: cores may run concurrently in sweep jobs.
            static std::atomic<std::uint64_t> wait_sum[16],
                wait_cnt[16];
            static std::atomic<bool> registered{false};
            const unsigned c =
                static_cast<unsigned>(inst.cls) & 15;
            wait_sum[c] += now_ - s.dispatchCycle;
            ++wait_cnt[c];
            if (!registered.exchange(true)) {
                atexit(+[] {
                    for (unsigned k = 0; k < 16; ++k) {
                        const std::uint64_t cnt = wait_cnt[k];
                        if (cnt)
                            // dlvp-analyze: allow(hot-path) -- debug
                            fprintf(stderr, "wait cls=%u avg=%.2f "
                                            "n=%llu\n",
                                    k,
                                    double(wait_sum[k].load()) /
                                        double(cnt),
                                    (unsigned long long)cnt);
                    }
                });
            }
        }
        --iqCount_;
        if (is_mem)
            --ls_free;
        else
            --generic_free;

        unsigned lat = params_.aluLatency;
        switch (inst.cls) {
          case OpClass::Load:
            lat = issueLoad(s);
            break;
          case OpClass::Store:
            lat = params_.storeLatency;
            break;
          case OpClass::Atomic:
            lat = issueLoad(s) + 1;
            break;
          case OpClass::IntMul:
            lat = params_.mulLatency;
            break;
          case OpClass::IntDiv:
            lat = params_.divLatency;
            break;
          case OpClass::FpAlu:
            lat = params_.fpLatency;
            break;
          default:
            lat = params_.aluLatency;
            break;
        }
        s.completeCycle = now_ + std::max(1u, lat);
        s.completed = true; // completion processed when the cycle hits
        wheel_.push(s.completeCycle, s.seq);
    }

    // Keep the unvisited tail (loop broke when lanes ran dry) behind
    // the structural losers; both ranges are seq-sorted and losers are
    // older, so the list stays sorted.
    if (kept != i) {
        std::move(readyList_.begin() + i, readyList_.end(),
                  readyList_.begin() + kept);
        // dlvp-analyze: allow(hot-path) -- shrink-only resize
        readyList_.resize(kept + (n - i));
    }

    probeStage(ls_free);
}

void
OoOCore::probeStage(unsigned free_ls_lanes)
{
    DLVP_HOT;
    if (!accelAddr_)
        return;
    paq_.expire(now_, stats_.paqDrops);
    for (unsigned lane = 0; lane < free_ls_lanes; ++lane) {
        PaqEntry e;
        if (!paq_.popLive(now_, e, stats_.paqDrops))
            return;
        ++stats_.probes;
        InstState *s = byQSeq(e.seq);
        if (s == nullptr)
            continue; // squashed between allocation and probe
        // The probe translates through the TLB like any L1 request —
        // the second-order TLB effects of Figure 9 come from here.
        const unsigned tlb_lat = mem_.tlb().access(e.addr);
        if (tlb_lat > 0)
            ++stats_.tlbMisses;
        const auto pr =
            mem_.probe(e.addr, vp_.pap.wayPrediction ? e.way : -1);
        ++stats_.l1dAccesses;
        s->probeDone = true;
        if (pr.wayMispredict)
            ++stats_.wayMispredicts;
        if (pr.hit && tlb_lat == 0) {
            ++stats_.probeHits;
            s->probeHit = true;
            // 1 cycle cache read + 1 cycle transfer to the VPE.
            s->probeReady = now_ + 2;
            const TraceInst &inst = *s->inst;
            const unsigned n = std::max<unsigned>(1, inst.numDests);
            for (unsigned d = 0; d < n; ++d)
                s->dlValues[d] = committedMem_.read(
                    e.addr + d * inst.memSize, inst.memSize);
        } else {
            ++stats_.probeMisses;
            if (vp_.dlvpPrefetch && !pr.hit && !pr.wayMispredict) {
                mem_.prefetchIntoL1D(e.addr, now_);
                ++stats_.dlvpPrefetches;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Completion: validation, branch resolution, memory-order checks
// ---------------------------------------------------------------------

void
OoOCore::requestFlush(InstSeqNum from, Cycle redirect,
                      std::uint64_t CoreStats::*counter)
{
    ++(stats_.*counter);
    if (!flushPending_ || from < flushFrom_ ||
        (from == flushFrom_ && redirect < flushRedirect_)) {
        flushPending_ = true;
        flushFrom_ = from;
        flushRedirect_ = redirect;
    }
}

void
OoOCore::validatePrediction(InstState &s)
{
    if (s.vpActiveMask == 0)
        return;
    // Release the PVT entries: the value now lives in the PRF.
    if (vp_.vpeDesign == VpeDesign::Pvt)
        pvtUsed_ -= static_cast<unsigned>(std::popcount(s.vpActiveMask));
    if (!s.vpWrong)
        return;
    // Under oracle replay wrong predictions were never activated.
    dlvp_assert(vp_.recovery == RecoveryMode::Flush);
    const TraceInst &inst = *s.inst;
    if (s.vpSource == 1 && s.apPredicted &&
        s.apAddr == inst.memAddr && vp_.useLscd) {
        // Correct address, wrong value: an in-flight store conflicted.
        // dlvp-analyze: allow(hot-path) -- misprediction path, rare
        lscd_.insert(inst.pc);
        accel_->invalidateAddress(inst.pc, s.apSlot, s.lphSnap);
        ++stats_.lscdInserts;
        if (dbgLscd_)
            // dlvp-analyze: allow(hot-path) -- debug-gated
            fprintf(stderr,
                    "lscd insert pc=%llx site=%llu seq=%llu cyc=%llu "
                    "addr=%llx nd=%u sz=%u pred=[%llx %llx] "
                    "act=[%llx %llx]\n",
                    (unsigned long long)inst.pc,
                    (unsigned long long)((inst.pc - 0x400000) / 4),
                    (unsigned long long)s.seq,
                    (unsigned long long)now_,
                    (unsigned long long)inst.memAddr,
                    inst.numDests, inst.memSize,
                    (unsigned long long)s.vpValues[0],
                    (unsigned long long)s.vpValues[1],
                    (unsigned long long)s.actualValues[0],
                    (unsigned long long)s.actualValues[1]);
    }
    requestFlush(s.seq + 1,
                 s.completeCycle + 1 + vp_.valueCheckPenalty,
                 &CoreStats::vpFlushes);
}

void
OoOCore::completeInst(InstState &s)
{
    const TraceInst &inst = *s.inst;

    if (inst.cls == OpClass::Barrier) {
        dlvp_assert(incompleteBarriers_ > 0);
        --incompleteBarriers_;
    }

    // Branch resolution.
    if (inst.isControl()) {
        if (s.seq == fetchHaltSeq_) {
            fetchHaltSeq_ = kNoSeq;
            fetchResumeCycle_ = s.completeCycle + 1;
            curFetchGroup_ = kNoAddr;
            if (dbgHalt_)
                // dlvp-analyze: allow(hot-path) -- debug-gated
                fprintf(stderr, "resume seq=%llu cyc=%llu\n",
                    (unsigned long long)s.seq, (unsigned long long)now_);
        }
        if (s.branchMispredicted)
            requestFlush(s.seq + 1, s.completeCycle + 1,
                         &CoreStats::branchFlushes);
    }

    if (inst.isLoad()) {
        // Accelerator training at execute (§3.1.2): address-predictor
        // updates, plus latency/chooser feedback.
        const int way = mem_.l1dWayOf(inst.memAddr);
        if (accelExecTrain_) {
            pred::AccelExecInfo ei;
            ei.inst = &inst;
            ei.addrTrainable = s.apLooked && !s.apBlocked;
            ei.slot = s.apSlot;
            ei.ghr = s.ghrSnap;
            ei.lph = s.lphSnap;
            ei.l1dWay = way;
            ei.latency = s.completeCycle - s.issueCycle;
            ei.probeHit = s.probeHit;
            ei.valueMask = s.vtMask;
            ei.probeValues = &s.dlValues;
            ei.values = &s.vtValues;
            ei.actualValues = &s.actualValues;
            auto astats = accelStats();
            accel_->trainAtExecute(ei, astats);
        }
        if (s.apPredicted) {
            if (s.apAddr == inst.memAddr)
                ++stats_.addrPredCorrect;
            else
                ++stats_.addrPredWrong;
        }
        validatePrediction(s);
    } else if (s.vpActiveMask) {
        // All-instructions VTAGE mode.
        validatePrediction(s);
    }

    // Memory-order violation detection: a store resolving its address
    // squashes younger loads that already read around it. Only issued
    // loads can violate, and issue implies dispatch, so the scan ends
    // at the dispatched prefix rather than the window tail.
    if (inst.isStore() || inst.cls == OpClass::Atomic) {
        const InstSeqNum base = window_.front().seq;
        for (InstSeqNum q = s.seq + 1; q < nextDispatch_; ++q) {
            InstState &y = window_[q - base];
            if (!y.inst->isLoad())
                continue;
            // Only loads that issued strictly before the store's
            // address was known read stale data; a load issuing the
            // same cycle sees the store in the queue and forwards.
            if (!y.issued || y.issueCycle >= s.issueCycle)
                continue;
            if (!overlaps(*y.inst, inst))
                continue;
            mdp_.recordViolation(y.inst->pc);
            requestFlush(y.seq, s.completeCycle + 1,
                         &CoreStats::memOrderFlushes);
            break;
        }
    }
}

void
OoOCore::completeStage()
{
    DLVP_HOT;
    prfPortsUsed_ = 0;
    // The completion wheel holds exactly the issued-but-unprocessed
    // instructions, bucketed by completion cycle: drain this cycle's
    // bucket instead of scanning the dispatched prefix. Issue order
    // within a bucket is not seq order (younger instructions can issue
    // earlier across cycles), so sort by seq to replicate the old
    // oldest-first window-scan order — MDP/LSCD/chooser training and
    // flush arbitration depend on it.
    auto &bucket = wheel_.bucket(now_);
    if (!bucket.empty()) {
        std::sort(bucket.begin(), bucket.end());
        for (const InstSeqNum seq : bucket) {
            InstState *s = byQSeq(seq);
            dlvp_assert(s != nullptr && s->issued &&
                        s->completeCycle == now_);
            prfPortsUsed_ += s->inst->numDests; // PRF writeback ports
            completeInst(*s);
            wakeDependents(*s);
        }
        wheel_.drained(bucket.size());
        bucket.clear();
    }
    if (flushPending_)
        applyFlush();
}

// ---------------------------------------------------------------------
// Flush
// ---------------------------------------------------------------------

void
OoOCore::rebuildRenameMap()
{
    for (auto &p : archProducer_)
        p.valid = false;
    for (std::size_t i = 0, n = window_.size(); i < n; ++i) {
        InstState &s = window_[i];
        if (!s.dispatched)
            break;
        for (unsigned d = 0; d < s.inst->numDests; ++d) {
            const RegId r = static_cast<RegId>(s.inst->destBase + d);
            if (r >= kNumArchRegs)
                continue;
            archProducer_[r] = {s.seq, true,
                                static_cast<std::uint8_t>(d)};
        }
    }
}

void
OoOCore::applyFlush()
{
    flushPending_ = false;
    const InstSeqNum from = flushFrom_;

    // Restore speculative state from the oldest squashed instruction's
    // pre-fetch snapshots.
    InstState *first = byQSeq(from);
    if (first != nullptr) {
        ghr_ = first->ghrSnap;
        indHist_ = first->indHistSnap;
        lph_.restore(first->lphSnap);
        ras_.restore(first->rasSnap);
    }

    // Squash from the back.
    while (!window_.empty() && window_.back().seq >= from) {
        InstState &s = window_.back();
        const TraceInst &inst = *s.inst;
        if (s.dispatched) {
            --dispatchedCount_;
            if (inst.cls == OpClass::Barrier &&
                !(s.issued && s.completeCycle <= now_))
                --incompleteBarriers_;
            if (!s.issued)
                --iqCount_;
            else if (s.completeCycle > now_)
                // == now_ means completeStage already drained this
                // instruction's bucket; future entries are removed
                // eagerly so the wheel never holds squashed seqs.
                wheel_.remove(s.completeCycle, s.seq);
            if (inst.isLoad() || inst.cls == OpClass::Atomic)
                --ldqCount_;
            if (inst.isStore() || inst.cls == OpClass::Atomic)
                --stqCount_;
            freePhys_ += inst.numDests;
            if (vp_.vpeDesign == VpeDesign::Pvt && s.vpActiveMask &&
                (!s.completed || s.completeCycle > now_))
                pvtUsed_ -= static_cast<unsigned>(
                    std::popcount(s.vpActiveMask));
        }
        window_.pop_back();
    }
    // Squashed stores are the ascending list's suffix.
    while (storeSeqs_.size() > storeHead_ &&
           storeSeqs_.back() >= from)
        storeSeqs_.pop_back();
    paq_.squashAfter(from == 0 ? 0 : from - 1);

    // Squashed seqs form a suffix of the sorted ready list. Waiter
    // lists of surviving producers may still name squashed consumers;
    // wakeDependents() re-validates each seq, so those go stale
    // harmlessly instead of being hunted down here.
    while (!readyList_.empty() && readyList_.back() >= from)
        readyList_.pop_back();

    nextFetch_ = from;
    nextDispatch_ = std::min(nextDispatch_, from);
    accel_->flushResync();
    // Any pending front-end stall was for the squashed path.
    fetchResumeCycle_ = flushRedirect_;
    if (fetchHaltSeq_ != kNoSeq && fetchHaltSeq_ >= from)
        fetchHaltSeq_ = kNoSeq;
    curFetchGroup_ = kNoAddr;
    rebuildRenameMap();
}

// ---------------------------------------------------------------------
// Commit
// ---------------------------------------------------------------------

void
OoOCore::commitStage()
{
    DLVP_HOT;
    unsigned n = 0;
    while (n < params_.commitWidth && !window_.empty()) {
        InstState &s = window_.front();
        // Strictly-older completion: an instruction completing this
        // cycle is validated by completeStage (which runs after
        // commit) before it may retire next cycle.
        if (!s.completed || s.completeCycle >= now_ ||
            !s.dispatched || !s.issued)
            return;
        const TraceInst &inst = *s.inst;

        // Value mispredictions flush at complete+1(+check); make sure
        // the flush lands before younger instructions could commit —
        // the load itself is architecturally fine to commit.
        if (s.vpWrong && now_ <= s.completeCycle + 1 +
                                     vp_.valueCheckPenalty)
            return;

        // Functional commit.
        if (inst.isStore() || inst.cls == OpClass::Atomic) {
            committedMem_.write(inst.memAddr, inst.storeValue,
                                inst.memSize);
            mem_.storeCommit(inst.memAddr, now_);
            ++stats_.l1dAccesses;
        }

        // Branch predictor training at commit (once per committed
        // dynamic instance).
        if (inst.isControl()) {
            ++stats_.committedBranches;
            switch (inst.cls) {
              case OpClass::CondBranch:
                ++stats_.condBranches;
                if (s.branchMispredicted)
                    ++stats_.condMispredicts;
                tage_.update(inst.pc, s.ghrSnap, inst.taken);
                break;
              case OpClass::IndirectJump:
                ++stats_.indirectBranches;
                if (s.branchMispredicted)
                    ++stats_.indirectMispredicts;
                ittage_.update(inst.pc, s.indHistSnap,
                               s.branchActualTarget);
                break;
              case OpClass::Ret:
                if (s.branchMispredicted)
                    ++stats_.returnMispredicts;
                break;
              default:
                break;
            }
        }

        // Accelerator training at commit (architectural values).
        if (accelCommitTrain_) {
            pred::AccelCommitInfo ci;
            ci.inst = &inst;
            ci.ghr = s.ghrSnap;
            ci.probeHit = s.probeHit;
            ci.valueMask = s.vtMask;
            ci.probeValues = &s.dlValues;
            ci.values = &s.vtValues;
            ci.actualValues = &s.actualValues;
            auto astats = accelStats();
            accel_->trainAtCommit(ci, astats);
        }

        // Statistics.
        ++stats_.committedInsts;
        stats_.prfReads += inst.numSrcs;
        stats_.prfWrites += inst.numDests;
        if (inst.isLoad()) {
            ++stats_.committedLoads;
            if (accelActive_)
                ++stats_.vpEligibleLoads;
            if (s.vpActiveMask && dbgCov_)
                // dlvp-analyze: allow(hot-path) -- debug-gated
                fprintf(stderr, "cov pc=%llx\n",
                        (unsigned long long)inst.pc);
            if (s.vpActiveMask) {
                ++stats_.vpPredictedLoads;
                stats_.pvtReads +=
                    static_cast<unsigned>(std::popcount(s.vpActiveMask));
                if (!s.vpWrong)
                    ++stats_.vpCorrectLoads;
                if (s.vpSource == 1)
                    ++stats_.tournamentDlvpFinal;
                else if (s.vpSource == 2)
                    ++stats_.tournamentVtageFinal;
            }
        } else if (s.vpActiveMask) {
            ++stats_.vpPredictedInsts;
            if (!s.vpWrong)
                ++stats_.vpCorrectInsts;
        }
        if (inst.isStore())
            ++stats_.committedStores;

        // Release the physical registers of the previous mapping.
        freePhys_ += inst.numDests;
        --dispatchedCount_;
        if (inst.isLoad() || inst.cls == OpClass::Atomic)
            --ldqCount_;
        if (inst.isStore() || inst.cls == OpClass::Atomic) {
            --stqCount_;
            // Commit retires the oldest STQ entry; compact the dead
            // prefix once it is large enough to matter.
            dlvp_assert(storeHead_ < storeSeqs_.size() &&
                        storeSeqs_[storeHead_] == s.seq);
            if (++storeHead_ >= 4096) {
                storeSeqs_.erase(storeSeqs_.begin(),
                                 storeSeqs_.begin() +
                                     static_cast<std::ptrdiff_t>(
                                         storeHead_));
                storeHead_ = 0;
            }
        }

        // Retire rename-map entries that still point at this inst.
        for (unsigned d = 0; d < inst.numDests; ++d) {
            const RegId r = static_cast<RegId>(inst.destBase + d);
            if (r < kNumArchRegs && archProducer_[r].valid &&
                archProducer_[r].producer == s.seq)
                archProducer_[r].valid = false;
        }

        // The load-value ring slot is simply overwritten when the seq
        // range wraps around; nothing to release here.
        ++committed_;
        window_.pop_front();
        ++n;
    }
}

// ---------------------------------------------------------------------
// Main loop
// ---------------------------------------------------------------------

void
OoOCore::fastForward(Cycle deadline)
{
    DLVP_HOT;
    // Skip cycles in which no stage can make progress, jumping now_
    // straight to the earliest cycle where something happens. Every
    // condition that could make a stage act before the target must be
    // either ruled out or folded into the target: this function is
    // correct only if each skipped cycle would have been a strict
    // no-op (plus per-cycle stall counters, accounted below) under the
    // one-cycle-at-a-time loop.

    // Fetch could make progress (or mutate curFetchGroup_ and access
    // the I-cache): never skip.
    const bool halted = fetchHaltSeq_ != kNoSeq;
    const bool fetch_blocked =
        halted || now_ < fetchResumeCycle_ ||
        nextFetch_ >= trace_.size() ||
        window_.size() >= params_.robSize + frontendCapacity();
    if (!fetch_blocked)
        return;
    // Pending probes/expiry have per-cycle effects (probeStage runs
    // every cycle the PAQ is non-empty).
    if (!paq_.empty())
        return;
    if (flushPending_)
        return;

    // Earliest completion event.
    Cycle next = wheel_.nextEventAt(now_);
    if (next == now_)
        return;

    // Earliest commit event: the head's first committable cycle. An
    // unissued head commits only after an issue event, which the
    // ready-list check below and the completion cap already bound.
    if (!window_.empty()) {
        const InstState &head = window_.front();
        if (head.issued) {
            const Cycle c = head.vpWrong
                                ? head.completeCycle + 2 +
                                      vp_.valueCheckPenalty
                                : head.completeCycle + 1;
            if (c <= now_)
                return;
            next = std::min(next, c);
        }
    }

    // Issue: with every lane free on an idle cycle, any ready-list
    // entry passing the memory-order check would issue now. Memory
    // order flips only at completion (bounded by the wheel cap) or
    // issue events (which this check rules out transitively).
    for (const InstSeqNum seq : readyList_)
        if (memOrderReady(*byQSeq(seq)))
            return;

    // Dispatch: replicate the stall cascade for the next in-order
    // candidate. Stall counters increment once per blocked cycle.
    std::uint64_t *stall_counter = nullptr;
    if (nextDispatch_ < nextFetch_) {
        const InstState *s = byQSeq(nextDispatch_);
        dlvp_assert(s != nullptr && !s->dispatched);
        const Cycle ready_at = s->fetchCycle + params_.fetchToDispatch;
        if (ready_at > now_) {
            next = std::min(next, ready_at);
        } else {
            const TraceInst &inst = *s->inst;
            if (dispatchedCount_ >= params_.robSize)
                stall_counter = &stats_.robFullStalls;
            else if (iqCount_ >= params_.iqSize)
                stall_counter = &stats_.iqFullStalls;
            else if (((inst.isLoad() || inst.cls == OpClass::Atomic) &&
                      ldqCount_ >= params_.ldqSize) ||
                     ((inst.isStore() ||
                       inst.cls == OpClass::Atomic) &&
                      stqCount_ >= params_.stqSize) ||
                     inst.numDests > freePhys_)
                stall_counter = nullptr; // silent stall
            else
                return; // dispatch would proceed
        }
    }

    // Fetch resumes on its own clock (I-cache fill / flush redirect).
    if (!halted && now_ < fetchResumeCycle_ &&
        nextFetch_ < trace_.size() &&
        window_.size() < params_.robSize + frontendCapacity())
        next = std::min(next, fetchResumeCycle_);

    // Never jump past the deadlock horizon: the panic in run() must
    // still fire exactly as it would cycle-by-cycle.
    const Cycle target = std::min(next, deadline);
    if (target <= now_ || target == kNoCycle)
        return;

    const Cycle skipped = target - now_;
    if (halted)
        stats_.fetchHaltCycles += skipped;
    if (stall_counter != nullptr)
        *stall_counter += skipped;
    cyclesSkipped_ += skipped;
    now_ = target;
}

CoreStats
OoOCore::run(std::size_t warmup_insts)
{
    DLVP_HOT;
    using WallClock = std::chrono::steady_clock;
    const Cycle deadlock_limit = params_.maxNoCommitCycles
                                     ? params_.maxNoCommitCycles
                                     : 200000;
    Cycle last_commit_cycle = 0;
    InstSeqNum last_committed = 0;
    Cycle warmup_cycles = 0;
    bool warm = warmup_insts == 0;

    // Wall-clock watchdog: sampled every 4096 loop iterations so the
    // fault-free path stays free of clock syscalls. Granularity is
    // coarse by design — this guards against wedged runs, not for
    // precise accounting.
    const bool wall_limited = params_.maxWallMs > 0.0;
    const WallClock::time_point wall_deadline =
        wall_limited
            ? WallClock::now() +
                  std::chrono::duration_cast<WallClock::duration>(
                      std::chrono::duration<double, std::milli>(
                          params_.maxWallMs))
            : WallClock::time_point::max();
    std::uint64_t wall_check = 0;

    while (committed_ < trace_.size()) {
        if (!warm && committed_ >= warmup_insts) {
            // End of warmup: measurement region starts here, as with
            // the paper's simpoint methodology.
            warm = true;
            warmup_cycles = now_;
            stats_ = CoreStats{};
            mem_.resetStats();
        }
        commitStage();
        completeStage();
        issueStage();
        dispatchStage();
        fetchStage();
        ++now_;

        if (committed_ != last_committed) {
            last_committed = committed_;
            last_commit_cycle = now_;
        } else if (now_ - last_commit_cycle > deadlock_limit) {
            // Recoverable form of the old deadlock panic: the sweep
            // layer records this as a failed row instead of dying.
            throw common::RunError(
                common::ErrorKind::SimDeadlock,
                "no commit for " + std::to_string(deadlock_limit) +
                    " cycles (committed=" +
                    std::to_string(committed_) +
                    " window=" + std::to_string(window_.size()) + ")");
        }
        if (wall_limited && (++wall_check & 0xFFF) == 0 &&
            WallClock::now() > wall_deadline)
            throw common::RunError(
                common::ErrorKind::SimTimeout,
                "core wall-clock budget of " +
                    std::to_string(params_.maxWallMs) +
                    " ms exceeded (committed=" +
                    std::to_string(committed_) + "/" +
                    std::to_string(trace_.size()) + ")");
        // Guard: after the final commit the machine is empty and
        // event-free; an unconditional call would jump to the
        // deadlock horizon and inflate stats_.cycles.
        if (committed_ < trace_.size())
            fastForward(last_commit_cycle + deadlock_limit);
        // Everything below the commit point is dead; for streamed
        // traces this unpins decoded chunks the window has left
        // behind (no-op compare for materialized traces).
        cursor_.retireTo(committed_);
    }

    stats_.cycles = now_ - warmup_cycles;
    stats_.tlbMisses = mem_.tlb().misses();
    stats_.l2Accesses = mem_.l2().hits() + mem_.l2().misses();
    stats_.l3Accesses = mem_.l3().hits() + mem_.l3().misses();
    stats_.memAccesses = mem_.l3().misses();
    return stats_;
}

} // namespace dlvp::core
