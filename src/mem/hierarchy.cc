#include "hierarchy.hh"

namespace dlvp::mem
{

MemoryHierarchy::MemoryHierarchy(const HierarchyParams &params)
    : params_(params),
      l1i_(params.l1i),
      l1d_(params.l1d),
      l2_(params.l2),
      l3_(params.l3),
      tlb_(params.tlb),
      l1Prefetcher_(params.prefetcher)
{
}

void
MemoryHierarchy::clear()
{
    l1i_.clear();
    l1d_.clear();
    l2_.clear();
    l3_.clear();
    tlb_.clear();
    l1Prefetcher_.clear();
    pf_scratch_.clear();
    pf_issued_ = 0;
    pendingFills_.clear();
}

unsigned
MemoryHierarchy::missLatency(Addr addr)
{
    if (l2_.access(addr))
        return l2_.hitLatency();
    if (l3_.access(addr))
        return l2_.hitLatency() + l3_.hitLatency();
    return l2_.hitLatency() + l3_.hitLatency() + params_.memLatency;
}

void
MemoryHierarchy::drainPendingFill(Addr block, Cycle now)
{
    auto it = pendingFills_.find(block);
    if (it == pendingFills_.end())
        return;
    if (it->second <= now) {
        l1d_.fill(block);
        pendingFills_.erase(it);
    }
}

AccessResult
MemoryHierarchy::loadAccess(Addr pc, Addr addr, Cycle now)
{
    AccessResult r;
    const unsigned tlb_lat = tlb_.access(addr);
    r.tlbMiss = tlb_lat != 0;
    r.latency = tlb_lat + l1d_.hitLatency();

    // One hash probe serves both the drain check and the
    // miss-on-inbound-line check (drainPendingFill would re-find).
    const Addr block = l1d_.blockAddr(addr);
    auto pending = pendingFills_.find(block);
    if (pending != pendingFills_.end() &&
        pending->second <= now + tlb_lat) {
        l1d_.fill(block);
        pendingFills_.erase(pending);
        pending = pendingFills_.end();
    }

    if (l1d_.access(addr)) {
        r.l1Hit = true;
    } else if (pending != pendingFills_.end()) {
        // Miss on a line already inbound: wait for the fill.
        const Cycle ready = pending->second;
        r.latency += ready > now ? static_cast<unsigned>(ready - now)
                                 : 0;
        pendingFills_.erase(pending);
    } else {
        r.latency += missLatency(addr);
    }

    if (params_.enablePrefetcher) {
        pf_scratch_.clear();
        l1Prefetcher_.observe(pc, addr, pf_scratch_);
        for (const Addr pa : pf_scratch_) {
            if (!l1d_.contains(pa))
                prefetchIntoL1D(pa, now);
        }
    }
    return r;
}

void
MemoryHierarchy::storeCommit(Addr addr, Cycle now)
{
    (void)now;
    tlb_.access(addr);
    if (!l1d_.access(addr))
        missLatency(addr); // write-allocate fill of L2/L3 state
}

unsigned
MemoryHierarchy::fetchAccess(Addr pc, Cycle now)
{
    (void)now;
    if (l1i_.access(pc))
        return 0;
    return missLatency(pc);
}

Cache::ProbeResult
MemoryHierarchy::probe(Addr addr, int predicted_way)
{
    return l1d_.probe(addr, predicted_way);
}

void
MemoryHierarchy::prefetchIntoL1D(Addr addr, Cycle now)
{
    const Addr block = l1d_.blockAddr(addr);
    if (l1d_.contains(block) || pendingFills_.count(block))
        return;
    const unsigned lat = missLatency(addr);
    pendingFills_[block] = now + lat;
    ++pf_issued_;
}

} // namespace dlvp::mem
