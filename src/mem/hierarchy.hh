/**
 * @file
 * Three-level memory hierarchy (Table 4 configuration) with a TLB,
 * stride prefetchers, delayed prefetch fills, and the probe path DLVP
 * shares with the L1 prefetcher.
 */

#ifndef DLVP_MEM_HIERARCHY_HH
#define DLVP_MEM_HIERARCHY_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/fields.hh"
#include "common/types.hh"
#include "mem/cache.hh"
#include "mem/prefetcher.hh"
#include "mem/tlb.hh"

namespace dlvp::mem
{

#define DLVP_HIERARCHY_PARAMS_FIELDS(X) \
    X(CacheParams, l1i, {"l1i", 64 * 1024, 4, 64, 1}) \
    X(CacheParams, l1d, {"l1d", 64 * 1024, 4, 64, 2}) \
    X(CacheParams, l2, {"l2", 512 * 1024, 8, 128, 16}) \
    X(CacheParams, l3, {"l3", 8 * 1024 * 1024, 16, 128, 32}) \
    X(unsigned, memLatency, 200) \
    X(TlbParams, tlb, {}) \
    X(StridePrefetcherParams, prefetcher, {}) \
    X(bool, enablePrefetcher, true)

struct HierarchyParams
{
    DLVP_FIELDS(DLVP_HIERARCHY_PARAMS_FIELDS)

    bool operator==(const HierarchyParams &) const = default;
};

/** Outcome of a demand data access. */
struct AccessResult
{
    unsigned latency = 0;   ///< total load-to-data cycles
    bool l1Hit = false;
    bool tlbMiss = false;
};

class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const HierarchyParams &params);

    /**
     * Demand load access at cycle @p now: translates, walks the
     * hierarchy, fills all levels, trains the stride prefetcher.
     */
    AccessResult loadAccess(Addr pc, Addr addr, Cycle now);

    /**
     * Store performing at commit: translate + install the line (write-
     * allocate). Latency is absorbed by the store buffer, so none is
     * returned.
     */
    void storeCommit(Addr addr, Cycle now);

    /** Instruction fetch of one group; returns added latency. */
    unsigned fetchAccess(Addr pc, Cycle now);

    /**
     * The DLVP probe: an L1D lookup (optionally way-predicted) that
     * never fills. Uses the same path the L1 prefetcher checks before
     * propagating requests (§2.1 "Complexity").
     */
    Cache::ProbeResult probe(Addr addr, int predicted_way);

    /** Current way of a block in L1D (-1 if absent). */
    int l1dWayOf(Addr addr) const { return l1d_.wayOf(addr); }

    /**
     * Issue a prefetch into L1D: the line becomes usable once the miss
     * latency has elapsed (a pending-fill/MSHR model).
     */
    void prefetchIntoL1D(Addr addr, Cycle now);

    Cache &l1d() { return l1d_; }
    Cache &l2() { return l2_; }
    Cache &l3() { return l3_; }
    Tlb &tlb() { return tlb_; }

    std::uint64_t tlbMisses() const { return tlb_.misses(); }
    std::uint64_t prefetchesIssued() const { return pf_issued_; }

    /** Reset hit/miss counters (cache contents are preserved). */
    void
    resetStats()
    {
        l1i_.resetStats();
        l1d_.resetStats();
        l2_.resetStats();
        l3_.resetStats();
        tlb_.resetStats();
    }

    /**
     * Return to the freshly constructed state: every cache level and
     * the TLB empty, the prefetcher untrained, no fill pending, every
     * counter zero. Keeps the line arrays, so a core reused across
     * sampled intervals does not reallocate its megabyte-sized L3.
     */
    void clear();

    const HierarchyParams &params() const { return params_; }

  private:
    HierarchyParams params_;
    Cache l1i_;
    Cache l1d_;
    Cache l2_;
    Cache l3_;
    Tlb tlb_;
    StridePrefetcher l1Prefetcher_;
    std::vector<Addr> pf_scratch_;
    std::uint64_t pf_issued_ = 0;

    /** Pending fills: block address -> cycle the data arrives. */
    std::unordered_map<Addr, Cycle> pendingFills_;

    /** Miss path below L1D; returns latency beyond the L1 access. */
    unsigned missLatency(Addr addr);

    void drainPendingFill(Addr block, Cycle now);
};

} // namespace dlvp::mem

#endif // DLVP_MEM_HIERARCHY_HH
