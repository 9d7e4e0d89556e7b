/**
 * @file
 * Per-PC stride prefetcher (the baseline's "stride-based prefetchers",
 * Table 4).
 */

#ifndef DLVP_MEM_PREFETCHER_HH
#define DLVP_MEM_PREFETCHER_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace dlvp::mem
{

struct StridePrefetcherParams
{
    unsigned entries = 256;
    unsigned confThreshold = 2;
    unsigned degree = 2; ///< lines prefetched ahead
};

/**
 * Classic reference-prediction-table stride prefetcher: per load PC,
 * track the last address and stride; once the stride repeats
 * confThreshold times, emit prefetch addresses.
 */
class StridePrefetcher
{
  public:
    explicit StridePrefetcher(const StridePrefetcherParams &params);

    /**
     * Observe a demand access; appends predicted prefetch addresses
     * (if confident) to @p out.
     */
    void observe(Addr pc, Addr addr, std::vector<Addr> &out);

    std::uint64_t issued() const { return issued_; }

    /** Invalidate every entry and zero the issue count. */
    void clear();

  private:
    struct Entry
    {
        Addr tag = 0;
        Addr lastAddr = 0;
        std::int64_t stride = 0;
        unsigned conf = 0;
        bool valid = false;
    };

    StridePrefetcherParams params_;
    std::vector<Entry> table_;
    std::uint64_t issued_ = 0;
};

} // namespace dlvp::mem

#endif // DLVP_MEM_PREFETCHER_HH
