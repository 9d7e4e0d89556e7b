#include "cache.hh"

#include "common/bits.hh"
#include "common/logging.hh"

namespace dlvp::mem
{

Cache::Cache(const CacheParams &params)
    : params_(params)
{
    dlvp_assert(isPowerOfTwo(params_.blockBytes));
    dlvp_assert(params_.assoc >= 1);
    dlvp_assert(params_.sizeBytes %
                (params_.blockBytes * params_.assoc) == 0);
    num_sets_ = static_cast<unsigned>(
        params_.sizeBytes / (params_.blockBytes * params_.assoc));
    dlvp_assert(isPowerOfTwo(num_sets_));
    set_shift_ = floorLog2(params_.blockBytes);
    tag_shift_ = set_shift_ + floorLog2(num_sets_);
    lines_.reset(static_cast<std::size_t>(num_sets_) * params_.assoc);
}

void
Cache::clear()
{
    lines_.clear();
    tick_ = 0;
    hits_ = 0;
    misses_ = 0;
}

unsigned
Cache::setOf(Addr addr) const
{
    return static_cast<unsigned>((addr >> set_shift_) & (num_sets_ - 1));
}

Addr
Cache::tagOf(Addr addr) const
{
    // tag_shift_ is precomputed: floorLog2 is a loop, and this runs on
    // every access of every cache level.
    return addr >> tag_shift_;
}

Cache::Line &
Cache::line(unsigned set, unsigned way)
{
    return lines_[static_cast<std::size_t>(set) * params_.assoc + way];
}

const Cache::Line &
Cache::line(unsigned set, unsigned way) const
{
    return lines_[static_cast<std::size_t>(set) * params_.assoc + way];
}

int
Cache::findWay(unsigned set, Addr tag) const
{
    for (unsigned w = 0; w < params_.assoc; ++w) {
        const Line &l = line(set, w);
        if (l.valid && l.tag == tag)
            return static_cast<int>(w);
    }
    return -1;
}

unsigned
Cache::victimWay(unsigned set) const
{
    unsigned victim = 0;
    std::uint64_t oldest = ~std::uint64_t{0};
    for (unsigned w = 0; w < params_.assoc; ++w) {
        const Line &l = line(set, w);
        if (!l.valid)
            return w;
        if (l.lastUse < oldest) {
            oldest = l.lastUse;
            victim = w;
        }
    }
    return victim;
}

bool
Cache::access(Addr addr)
{
    const unsigned set = setOf(addr);
    const Addr tag = tagOf(addr);
    ++tick_;
    const int w = findWay(set, tag);
    if (w >= 0) {
        line(set, static_cast<unsigned>(w)).lastUse = tick_;
        ++hits_;
        return true;
    }
    ++misses_;
    const unsigned v = victimWay(set);
    Line &l = line(set, v);
    l.valid = true;
    l.tag = tag;
    l.lastUse = tick_;
    return false;
}

bool
Cache::contains(Addr addr) const
{
    return findWay(setOf(addr), tagOf(addr)) >= 0;
}

int
Cache::wayOf(Addr addr) const
{
    return findWay(setOf(addr), tagOf(addr));
}

Cache::ProbeResult
Cache::probe(Addr addr, int predicted_way)
{
    ProbeResult r;
    const unsigned set = setOf(addr);
    const Addr tag = tagOf(addr);
    const int w = findWay(set, tag);
    if (w < 0)
        return r;
    if (predicted_way >= 0 && predicted_way != w) {
        // Block is resident, but not where way prediction said: the
        // single-way probe misses.
        r.wayMispredict = true;
        return r;
    }
    ++tick_;
    line(set, static_cast<unsigned>(w)).lastUse = tick_;
    r.hit = true;
    r.way = w;
    return r;
}

int
Cache::fill(Addr addr)
{
    const unsigned set = setOf(addr);
    const Addr tag = tagOf(addr);
    ++tick_;
    int w = findWay(set, tag);
    if (w < 0) {
        w = static_cast<int>(victimWay(set));
        Line &l = line(set, static_cast<unsigned>(w));
        l.valid = true;
        l.tag = tag;
    }
    line(set, static_cast<unsigned>(w)).lastUse = tick_;
    return w;
}

void
Cache::invalidate(Addr addr)
{
    const int w = findWay(setOf(addr), tagOf(addr));
    if (w >= 0)
        line(setOf(addr), static_cast<unsigned>(w)).valid = false;
}

} // namespace dlvp::mem
