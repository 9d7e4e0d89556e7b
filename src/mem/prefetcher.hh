/**
 * @file
 * Per-PC stride prefetcher (the baseline's "stride-based prefetchers",
 * Table 4).
 */

#ifndef DLVP_MEM_PREFETCHER_HH
#define DLVP_MEM_PREFETCHER_HH

#include <cstdint>
#include <vector>

#include "common/fields.hh"
#include "common/types.hh"

namespace dlvp::mem
{

#define DLVP_STRIDE_PREFETCHER_PARAMS_FIELDS(X) \
    X(unsigned, entries, 256) \
    X(unsigned, confThreshold, 2) \
    X(unsigned, degree, 2) /* lines prefetched ahead */

struct StridePrefetcherParams
{
    DLVP_FIELDS(DLVP_STRIDE_PREFETCHER_PARAMS_FIELDS)

    bool operator==(const StridePrefetcherParams &) const = default;
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
