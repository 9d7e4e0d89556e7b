#include "prefetcher.hh"

#include <algorithm>

#include "common/bits.hh"
#include "common/logging.hh"

namespace dlvp::mem
{

StridePrefetcher::StridePrefetcher(const StridePrefetcherParams &params)
    : params_(params), table_(params.entries)
{
    dlvp_assert(isPowerOfTwo(params.entries));
}

void
StridePrefetcher::clear()
{
    std::fill(table_.begin(), table_.end(), Entry{});
    issued_ = 0;
}

void
StridePrefetcher::observe(Addr pc, Addr addr, std::vector<Addr> &out)
{
    Entry &e = table_[(pc >> 2) & (params_.entries - 1)];
    if (!e.valid || e.tag != pc) {
        e.valid = true;
        e.tag = pc;
        e.lastAddr = addr;
        e.stride = 0;
        e.conf = 0;
        return;
    }
    const std::int64_t stride =
        static_cast<std::int64_t>(addr) -
        static_cast<std::int64_t>(e.lastAddr);
    if (stride == e.stride && stride != 0) {
        if (e.conf < params_.confThreshold)
            ++e.conf;
    } else {
        e.stride = stride;
        e.conf = 0;
    }
    e.lastAddr = addr;
    if (e.conf >= params_.confThreshold) {
        for (unsigned d = 1; d <= params_.degree; ++d) {
            out.push_back(static_cast<Addr>(
                static_cast<std::int64_t>(addr) +
                stride * static_cast<std::int64_t>(d)));
            ++issued_;
        }
    }
}

} // namespace dlvp::mem
