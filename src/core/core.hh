/**
 * @file
 * The cycle-driven out-of-order core model (Figure 3's pipeline).
 *
 * Trace-driven with a committed-path trace: wrong-path instructions
 * are not simulated; their cost appears as fetch bubbles between a
 * mispredicted branch's fetch and its resolution. The model tracks the
 * structures that matter to the paper: ROB/IQ/LDQ/STQ occupancy,
 * physical-register budget, the 2 load-store + 6 generic execution
 * lanes (whose bubbles DLVP's probes consume), the in-order front-end
 * depth (which sets the probe deadline N), and flush-based recovery
 * for branch, memory-order, and value mispredictions.
 *
 * Functional semantics: two memory images are maintained. archMem
 * advances in program order the first time each instruction is fetched
 * and defines every load's architectural value; committedMem advances
 * when stores commit and is what a DLVP cache probe observes. An older
 * in-flight store is therefore visible in archMem but not yet in
 * committedMem — producing exactly the correct-address/wrong-value
 * misprediction the LSCD exists to suppress (§3.2.2).
 */

#ifndef DLVP_CORE_CORE_HH
#define DLVP_CORE_CORE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/spec_state.hh"
#include "common/types.hh"
#include "core/core_stats.hh"
#include "core/paq.hh"
#include "core/params.hh"
#include "mem/hierarchy.hh"
#include "pred/accel.hh"
#include "pred/btb.hh"
#include "pred/ittage.hh"
#include "pred/lscd.hh"
#include "pred/mdp.hh"
#include "pred/pap.hh"
#include "pred/ras.hh"
#include "pred/tage.hh"
#include "trace/trace.hh"
#include "trace/trace_v2.hh"

namespace dlvp::core
{

class OoOCore
{
  public:
    OoOCore(const CoreParams &params, const VpConfig &vp,
            const trace::Trace &trace);
    ~OoOCore();

    /**
     * Run the whole trace to commit; returns the collected stats.
     * Counters (and the cycle count) cover only the measurement
     * region after the first @p warmup_insts committed instructions;
     * predictor and cache state trains through warmup.
     */
    CoreStats run(std::size_t warmup_insts = 0);

    const CoreStats &stats() const { return stats_; }
    const mem::MemoryHierarchy &memory() const { return mem_; }

    /** Populated pages across both memory images (perf telemetry). */
    std::size_t
    pagesTouched() const
    {
        return archMem_.numPages() + committedMem_.numPages();
    }

    /**
     * Cycles the idle fast-forward elided over the whole run (warmup
     * included). Host-side telemetry like pagesTouched(): skipped
     * cycles are fully accounted in CoreStats, so this is a measure
     * of how event-driven the run was, not an architectural counter.
     */
    std::uint64_t cyclesSkipped() const { return cyclesSkipped_; }

    /** The registry-constructed load accelerator driving the VPE. */
    const pred::LoadAccelerator &accelerator() const { return *accel_; }

  private:
    /** Per-in-flight-instruction state (ROB + front-end entry). */
    struct InstState
    {
        InstSeqNum seq = 0;
        const trace::TraceInst *inst = nullptr;

        Cycle fetchCycle = kNoCycle;
        Cycle dispatchCycle = kNoCycle;
        Cycle issueCycle = kNoCycle;
        Cycle completeCycle = kNoCycle;
        bool dispatched = false;
        bool issued = false;
        bool completed = false;

        // Speculative-state snapshots taken before this instruction's
        // own fetch-time updates; restoring the oldest squashed
        // instruction's snapshots recovers all predictor state.
        std::uint64_t ghrSnap = 0;
        std::uint64_t indHistSnap = 0;
        std::uint64_t lphSnap = 0;
        pred::Ras::Snapshot rasSnap{};

        // Branch state resolved at fetch (trace-driven).
        bool branchMispredicted = false;
        bool branchPredTaken = false; ///< fetch-time direction pred.
        Addr branchActualTarget = 0;

        // Renamed sources.
        struct Src
        {
            InstSeqNum producer = 0;
            bool valid = false;   ///< producer still in flight
            std::uint8_t destIdx = 0;
        };
        std::array<Src, trace::kMaxSrcs> srcs{};

        bool mdpWait = false;

        // Value prediction.
        bool vpEligible = false;
        std::uint16_t vtMask = 0; ///< VTAGE per-dest predictions
        std::array<std::uint64_t, trace::kMaxDests> vtValues{};
        std::uint16_t vpActiveMask = 0; ///< delivered to the PVT
        std::array<std::uint64_t, trace::kMaxDests> vpValues{};
        std::array<std::uint64_t, trace::kMaxDests> actualValues{};
        bool vpWrong = false;
        std::uint8_t vpSource = 0; ///< 0 none, 1 DLVP, 2 VTAGE

        // DLVP address prediction.
        bool apLooked = false;   ///< indexed the APT (slot < 2)
        bool apBlocked = false;  ///< LSCD filtered this PC
        std::uint8_t apSlot = 0;
        bool apPredicted = false;
        Addr apAddr = 0;
        std::uint8_t apSize = 0;
        std::int8_t apWay = -1;
        bool probeDone = false;
        bool probeHit = false;
        Cycle probeReady = kNoCycle;
        std::array<std::uint64_t, trace::kMaxDests> dlValues{};

        // Event-driven scheduling state.
        /** All sources ready; the instruction is on the ready list. */
        bool dataReady = false;
        /**
         * Dependency wakeup list: seqs of renamed consumers that were
         * blocked on this producer at their dispatch. Drained when
         * this instruction's completion event fires; entries are
         * validated against the live window then, so squashed (or
         * squashed-and-refetched) consumers are skipped lazily.
         */
        std::vector<InstSeqNum> waiters;

        /**
         * Recycle this slot for a new instruction: clear every scalar
         * field but leave the four per-destination value arrays, the
         * renamed-source array and the waiters buffer untouched. Each
         * skipped field is written before it is read, always under a
         * flag or mask set during the new incarnation's lifetime:
         *
         *  - srcs[i]: dispatch rename writes every i < numSrcs, and
         *    srcsReady/issue only read i < numSrcs;
         *  - actualValues: fetch fills [0, max(1, numDests)) and all
         *    readers bound d the same way;
         *  - vtValues: fetch writes the destinations in vtMask; reads
         *    are vtMask-gated (accel hooks read d < numDests but only
         *    use bits under their own masks);
         *  - vpValues: activation writes the vpActiveMask bits before
         *    setting them; reads are vpActiveMask-gated;
         *  - dlValues: the L1D probe fills [0, max(1, numDests)) on a
         *    hit, and every reader checks probeHit first.
         *
         * This skips ~560 bytes of zeroing per fetched instruction —
         * the InstState{} assignment was the hottest single line in
         * the whole simulator (memset/copy inside fetchOne).
         */
        void
        reset()
        {
            seq = 0;
            inst = nullptr;
            fetchCycle = kNoCycle;
            dispatchCycle = kNoCycle;
            issueCycle = kNoCycle;
            completeCycle = kNoCycle;
            dispatched = false;
            issued = false;
            completed = false;
            ghrSnap = 0;
            indHistSnap = 0;
            lphSnap = 0;
            rasSnap = pred::Ras::Snapshot{};
            branchMispredicted = false;
            branchPredTaken = false;
            branchActualTarget = 0;
            mdpWait = false;
            vpEligible = false;
            vtMask = 0;
            vpActiveMask = 0;
            vpWrong = false;
            vpSource = 0;
            apLooked = false;
            apBlocked = false;
            apSlot = 0;
            apPredicted = false;
            apAddr = 0;
            apSize = 0;
            apWay = -1;
            probeDone = false;
            probeHit = false;
            probeReady = kNoCycle;
            dataReady = false;
            waiters.clear();
        }
    };

    /**
     * The in-flight window as a fixed-capacity ring of InstState.
     * In-flight sequence numbers are contiguous and never exceed
     * ROB + front-end capacity, so a power-of-two ring indexed
     * front-relative replaces std::deque: InstState is larger than a
     * deque chunk, which made every push a heap allocation and every
     * operator[] a segment-map hop — both on the issue/complete scans
     * that dominate simulation time.
     */
    class InstWindow
    {
      public:
        void
        init(std::size_t capacity_pow2)
        {
            buf_.resize(capacity_pow2);
            mask_ = capacity_pow2 - 1;
            head_ = 0;
            size_ = 0;
        }

        bool empty() const { return size_ == 0; }
        std::size_t size() const { return size_; }

        InstState &
        operator[](std::size_t i)
        {
            return buf_[(head_ + i) & mask_];
        }
        const InstState &
        operator[](std::size_t i) const
        {
            return buf_[(head_ + i) & mask_];
        }

        InstState &front() { return buf_[head_]; }
        const InstState &front() const { return buf_[head_]; }
        InstState &back() { return (*this)[size_ - 1]; }
        const InstState &back() const { return (*this)[size_ - 1]; }

        /** Append a recycled entry (scalar state reset, arrays lazy). */
        InstState &
        emplace_back()
        {
            InstState &s = (*this)[size_++];
            s.reset();
            return s;
        }

        void
        pop_front()
        {
            head_ = (head_ + 1) & mask_;
            --size_;
        }

        void pop_back() { --size_; }

      private:
        std::vector<InstState> buf_;
        std::size_t head_ = 0;
        std::size_t size_ = 0;
        std::size_t mask_ = 0;
    };

    /**
     * Completion wheel: a bucketed calendar queue keyed by
     * completeCycle. Every latency in the model is bounded (the worst
     * chain is a TLB walk plus an L1→L2→L3→DRAM miss), so a
     * power-of-two ring of buckets larger than that bound can never
     * alias two live cycles to one bucket: an entry pushed for cycle
     * C sits alone in bucket C & mask until the core processes cycle
     * C. completeStage therefore visits exactly the instructions that
     * complete at now_ instead of re-scanning the dispatched window.
     *
     * Flush recovery removes squashed entries eagerly (applyFlush
     * already walks every squashed instruction, and each issued one
     * knows its completeCycle, i.e. its bucket), which keeps buckets
     * clean and makes nextEventAt() exact for idle fast-forwarding.
     */
    class CompletionWheel
    {
      public:
        void
        init(std::size_t horizon_pow2)
        {
            buckets_.assign(horizon_pow2, {});
            mask_ = horizon_pow2 - 1;
            pending_ = 0;
        }

        void
        push(Cycle when, InstSeqNum seq)
        {
            buckets_[when & mask_].push_back(seq);
            ++pending_;
        }

        /** The bucket holding cycle @p now's completions. */
        std::vector<InstSeqNum> &
        bucket(Cycle now)
        {
            return buckets_[now & mask_];
        }

        /** Account a drained bucket's entries. */
        void drained(std::size_t n) { pending_ -= n; }

        void remove(Cycle when, InstSeqNum seq);

        std::size_t pending() const { return pending_; }

        /**
         * First cycle >= @p from with a completion event, or kNoCycle
         * when nothing is pending. All live entries lie within one
         * horizon of now, so one lap over the ring is exhaustive.
         */
        Cycle
        nextEventAt(Cycle from) const
        {
            if (pending_ == 0)
                return kNoCycle;
            for (Cycle c = from; c <= from + mask_; ++c)
                if (!buckets_[c & mask_].empty())
                    return c;
            return kNoCycle;
        }

      private:
        std::vector<std::vector<InstSeqNum>> buckets_;
        std::size_t mask_ = 0;
        std::size_t pending_ = 0;
    };

    // ---- configuration and substrate ----
    CoreParams params_;
    VpConfig vp_;
    const trace::Trace &trace_;
    /**
     * The core's read window into trace_. Materialized traces resolve
     * at() to a bare bounds-check + index; v2-streamed traces pin the
     * decoded chunks covering [committed_, nextFetch_] so resident
     * instruction memory stays O(chunk) on mega traces.
     */
    trace::TraceCursor cursor_;
    mem::MemoryHierarchy mem_;

    // ---- predictors ----
    pred::Tage tage_;
    pred::Ittage ittage_;
    pred::Btb btb_;
    pred::Ras ras_;
    pred::Mdp mdp_;
    /** The load accelerator, constructed from the registry by key. */
    std::unique_ptr<pred::LoadAccelerator> accel_;
    /** @{
     * Capability flags cached at construction so disabled hooks cost
     * one branch — not a virtual call — on the hot path.
     */
    bool accelAddr_ = false;
    bool accelValues_ = false;
    bool accelExecTrain_ = false;
    bool accelCommitTrain_ = false;
    bool accelActive_ = false;
    /** @} */
    /**
     * Scratch prediction record reused across fetchOne calls so the
     * 16-slot value array is not re-zeroed per instruction; fetch
     * resets eligible/mask and only reads mask-covered slots.
     */
    pred::AccelValuePredictions vpredScratch_;
    pred::Lscd lscd_;
    pred::LoadPathHistory lph_;
    std::uint64_t ghr_ = 0;
    std::uint64_t indHist_ = 0;
    DLVP_SPEC_STATE(ghr_);
    DLVP_SPEC_STATE(indHist_);
    DLVP_SPEC_STATE(lph_);
    DLVP_SPEC_STATE(ras_);

    // ---- DLVP machinery ----
    Paq paq_;
    unsigned pvtUsed_ = 0;
    /** Design #1: PRF write ports consumed this cycle (completions +
     *  prediction writes share the 8 ports). */
    unsigned prfPortsUsed_ = 0;

    // ---- functional state ----
    trace::MemoryImage archMem_;
    trace::MemoryImage committedMem_;
    InstSeqNum archApplied_ = 0;
    /**
     * Load-value capture ring, indexed seq & loadValMask_. The live
     * seq range [window_.front().seq, nextFetch_) never exceeds
     * ROB + front-end capacity, so a power-of-two ring of at least
     * that size cannot alias; the loadValSeq_ tags assert it. This
     * replaces a per-seq unordered_map (one hash insert per load
     * first-fetch plus one erase per commit) with plain indexing.
     */
    std::vector<std::array<std::uint64_t, trace::kMaxDests>>
        loadValues_;
    std::vector<InstSeqNum> loadValSeq_;
    InstSeqNum loadValMask_ = 0;

    // ---- pipeline state ----
    InstWindow window_; ///< contiguous in-flight seqs
    InstSeqNum nextFetch_ = 0;
    InstSeqNum nextDispatch_ = 0;
    InstSeqNum committed_ = 0;
    unsigned incompleteBarriers_ = 0;
    Cycle now_ = 0;
    Cycle fetchResumeCycle_ = 0;
    InstSeqNum fetchHaltSeq_ = kNoSeq; ///< waiting on this branch
    unsigned iqCount_ = 0;
    unsigned ldqCount_ = 0;
    unsigned stqCount_ = 0;
    /**
     * Seqs of the dispatched, uncommitted stores/atomics (the STQ's
     * occupants), ascending; live entries are [storeHead_, size).
     * Dispatch appends, commit advances the head, a flush prunes the
     * squashed suffix. Store-to-load forwarding and store-wait checks
     * walk this short list instead of every older window entry.
     */
    std::vector<InstSeqNum> storeSeqs_;
    std::size_t storeHead_ = 0;
    unsigned dispatchedCount_ = 0; ///< ROB occupancy
    unsigned freePhys_ = 0;
    std::array<InstState::Src, kNumArchRegs> archProducer_{};

    // Fetch-group tracking for APT slot assignment.
    Addr curFetchGroup_ = kNoAddr;
    unsigned groupLoadCount_ = 0;

    // ---- event-driven scheduling ----
    /** Calendar queue of pending completion events. */
    CompletionWheel wheel_;
    /**
     * Dispatched instructions whose sources are all ready, sorted by
     * seq so issue priority is program order — identical to the old
     * full-window scan. Structural-hazard and memory-order losers
     * stay on the list; entries leave at issue or flush.
     */
    std::vector<InstSeqNum> readyList_;
    /** Host-side telemetry: cycles elided by idle fast-forward. */
    std::uint64_t cyclesSkipped_ = 0;

    // Pending flush request (oldest wins within a cycle).
    bool flushPending_ = false;
    InstSeqNum flushFrom_ = 0;   ///< first squashed sequence number
    Cycle flushRedirect_ = 0;

    CoreStats stats_;

    // Debug-env flags, cached once per core: getenv() rescans the
    // whole environment on every call, which is measurable when
    // queried per issued/committed instruction.
    bool dbgHalt_ = false;
    bool dbgAct_ = false;
    bool dbgWait_ = false;
    bool dbgLscd_ = false;
    bool dbgCov_ = false;

    static constexpr InstSeqNum kNoSeq = ~InstSeqNum{0};

    // ---- pipeline stages ----
    void commitStage();
    void completeStage();
    void issueStage();
    void probeStage(unsigned free_ls_lanes);
    void dispatchStage();
    void fetchStage();

    // ---- helpers ----
    InstState *byQSeq(InstSeqNum seq);
    bool srcsReady(const InstState &s) const;
    bool memOrderReady(const InstState &s) const;
    void markReady(InstState &s);
    void wakeDependents(InstState &producer);
    bool registerWakeups(InstState &s);
    void fastForward(Cycle deadline);
    std::size_t wheelHorizon() const;
    unsigned issueLoad(InstState &s);
    void completeInst(InstState &s);
    void validatePrediction(InstState &s);
    void activatePredictions(InstState &s);

    /** The only CoreStats fields accelerator hooks may touch. */
    pred::AccelStats accelStats()
    {
        return {stats_.predictorLookups, stats_.predictorWrites};
    }
    void requestFlush(InstSeqNum from, Cycle redirect,
                      std::uint64_t CoreStats::*counter);
    void applyFlush();
    void rebuildRenameMap();
    void fetchOne(const trace::TraceInst &inst);
    void firstFetchFunctional(InstSeqNum seq,
                              const trace::TraceInst &inst);
    bool overlaps(const trace::TraceInst &a,
                  const trace::TraceInst &b) const;
    unsigned frontendCapacity() const;
};

} // namespace dlvp::core

#endif // DLVP_CORE_CORE_HH
