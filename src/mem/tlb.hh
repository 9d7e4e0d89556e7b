/**
 * @file
 * Simple set-associative TLB (Table 4: 512-entry, 8-way, 4KB pages).
 */

#ifndef DLVP_MEM_TLB_HH
#define DLVP_MEM_TLB_HH

#include <cstdint>

#include "common/types.hh"
#include "mem/cache.hh"

namespace dlvp::mem
{

struct TlbParams
{
    unsigned entries = 512;
    unsigned assoc = 8;
    unsigned pageBytes = 4096;
    unsigned missPenalty = 24; ///< page-walk cycles
};

class Tlb
{
  public:
    explicit Tlb(const TlbParams &params)
        : params_(params),
          tags_(CacheParams{"tlb",
                            static_cast<std::size_t>(params.entries) *
                                params.pageBytes,
                            params.assoc, params.pageBytes, 0})
    {
    }

    /** Translate: returns the added latency (0 on a hit). */
    unsigned
    access(Addr addr)
    {
        return tags_.access(addr) ? 0 : params_.missPenalty;
    }

    bool contains(Addr addr) const { return tags_.contains(addr); }

    std::uint64_t hits() const { return tags_.hits(); }
    std::uint64_t misses() const { return tags_.misses(); }
    void resetStats() { tags_.resetStats(); }
    /** Forget every translation and zero the counters. */
    void clear() { tags_.clear(); }
    const TlbParams &params() const { return params_; }

  private:
    TlbParams params_;
    Cache tags_;
};

} // namespace dlvp::mem

#endif // DLVP_MEM_TLB_HH
