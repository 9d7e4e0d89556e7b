/**
 * @file
 * Set-associative cache model with LRU replacement and way tracking.
 *
 * The model tracks presence and recency only (data comes from the
 * simulator's memory images); that is all the timing model and DLVP's
 * way prediction need.
 */

#ifndef DLVP_MEM_CACHE_HH
#define DLVP_MEM_CACHE_HH

#include <cstdint>
#include <string>

#include "common/fields.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "common/zero_buf.hh"

namespace dlvp::mem
{

#define DLVP_CACHE_PARAMS_FIELDS(X) \
    X(std::string, name, "cache") \
    X(std::size_t, sizeBytes, 64 * 1024) \
    X(unsigned, assoc, 4) \
    X(unsigned, blockBytes, 64) \
    X(unsigned, hitLatency, 2)

struct CacheParams
{
    DLVP_FIELDS(DLVP_CACHE_PARAMS_FIELDS)

    bool operator==(const CacheParams &) const = default;
};

class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /** Demand access: hit updates LRU; miss fills (evicting LRU). */
    bool access(Addr addr);

    /** Presence check without any state change. */
    bool contains(Addr addr) const;

    /**
     * Way the block currently occupies, or -1 if absent. No state
     * change (used by DLVP way prediction).
     */
    int wayOf(Addr addr) const;

    /**
     * Probe for DLVP: returns hit/miss and the hit way; updates LRU on
     * a hit but never fills. When @p predicted_way >= 0, only that way
     * is checked — a block present in a different way counts as a way
     * misprediction (miss with wayMispredict set).
     */
    struct ProbeResult
    {
        bool hit = false;
        int way = -1;
        bool wayMispredict = false;
    };
    ProbeResult probe(Addr addr, int predicted_way = -1);

    /** Install a block (no recency requirements); returns the way. */
    int fill(Addr addr);

    /** Invalidate a block if present. */
    void invalidate(Addr addr);

    /**
     * Return to the freshly constructed state (every line invalid,
     * recency tick and counters zero) without reallocating the line
     * array.
     */
    void clear();

    const CacheParams &params() const { return params_; }
    unsigned hitLatency() const { return params_.hitLatency; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    void resetStats() { hits_ = misses_ = 0; }

    Addr
    blockAddr(Addr addr) const
    {
        return addr & ~static_cast<Addr>(params_.blockBytes - 1);
    }

    unsigned numSets() const { return num_sets_; }

  private:
    /** All-zero bytes == the invalid initial line (ZeroBuf contract). */
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        std::uint64_t lastUse = 0;
    };

    CacheParams params_;
    unsigned num_sets_ = 0;
    unsigned set_shift_ = 0;
    unsigned tag_shift_ = 0; ///< set_shift_ + log2(num_sets_)
    /**
     * sets * assoc, row-major. Lazily zeroed: an L3's line array is
     * megabytes, and eagerly memsetting it per constructed core was
     * one of the largest fixed costs of a short grid cell.
     */
    common::ZeroBuf<Line> lines_;
    std::uint64_t tick_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;

    unsigned setOf(Addr addr) const;
    Addr tagOf(Addr addr) const;
    Line &line(unsigned set, unsigned way);
    const Line &line(unsigned set, unsigned way) const;
    int findWay(unsigned set, Addr tag) const;
    unsigned victimWay(unsigned set) const;
};

} // namespace dlvp::mem

#endif // DLVP_MEM_CACHE_HH
