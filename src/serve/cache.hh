/**
 * @file
 * Persistent content-addressed result cache for dlvp-serve.
 *
 * The sweep engine is bit-deterministic (DESIGN.md §"Parallel
 * sweeps"), so a finished (workload, config, seed, core, sample) cell
 * is perfectly cacheable: a hit is provably the byte-identical row the
 * simulator would produce. The cache therefore stores the *rendered*
 * dlvp-sweep-v1 row JSON, keyed by an FNV-1a hash of the cell's value:
 * the canonical text (common/fields.hh) of everything the worker runs.
 *
 * Crash safety (DESIGN.md §14) is the design driver:
 *
 *  - Each entry file `entries/<key>.json` carries its own check: a
 *    header line `<len:decimal> <payload-fnv:16hex>\n`, then the
 *    payload. A file is valid only if its header is exactly the one
 *    its payload renders, so a torn or bit-flipped file (header
 *    included) never verifies.
 *  - Entries are written to `entries/<key>.json.tmp`, fsynced, and
 *    committed by rename(2), so a committed entry is always complete.
 *  - Startup recovery deletes stray temp files, verifies every entry
 *    file against its header, and *quarantines* each one that fails.
 *    A quarantined key surfaces exactly once as a structured
 *    RunError{io_corrupt} row, then heals to a miss so the next
 *    request recomputes and re-caches it.
 *  - The read path re-verifies the header on every hit, so
 *    post-commit corruption (bit rot, the `cache:flip-entry` fault)
 *    is also caught and quarantined, never served.
 *
 * Injected faults (common/fault_inject.hh `cache:` rules) exercise all
 * of this deterministically: kill-entry / kill-rename SIGKILL the
 * process mid-way through the temp write and just after the commit
 * rename, and trunc-entry / flip-entry corrupt a committed entry in
 * place.
 */

#ifndef DLVP_SERVE_CACHE_HH
#define DLVP_SERVE_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/annotations.hh"
#include "core/params.hh"
#include "sim/sample_spec.hh"

namespace dlvp::serve
{

/**
 * Engine version baked into every cache key. Parameters are in the key
 * by value, so a new default or config meaning needs no bump; bump it
 * when the entry file format, the row renderer or the simulator's
 * behaviour for the same parameters changes, so stale entries become
 * unreachable instead of wrong.
 */
inline constexpr unsigned kCacheEpoch = 3;

/** FNV-1a 64-bit over @p n bytes (the cache's only hash). */
std::uint64_t fnv1a64(const char *data, std::size_t n);

/** 16 lowercase hex digits of @p v (fixed width, no allocator tricks). */
std::string hex16(std::uint64_t v);

/** Everything that identifies one cacheable grid cell. */
struct CacheKey
{
    std::string workload;
    std::string config; ///< catalog name, rendered into the row
    std::size_t insts = 0;
    std::uint64_t seed = 0; ///< VpConfig::rngSeed override (0 = fixed)
    core::CoreParams core{};
    /** The resolved config the worker runs, seed applied. */
    core::VpConfig vp{};
    sim::SampleSpec sample{};
};

/**
 * kCacheEpoch, workload, config name, insts and seed, then the
 * canonical text of core, vp and sample. The watchdog budgets sit
 * outside CoreParams' field list, so requests that differ only in
 * deadline share one entry.
 */
std::string cacheKeyCanonical(const CacheKey &key);

/** The cache key proper: hex16(fnv1a64(cacheKeyCanonical(key))). */
std::string cacheKeyHash(const CacheKey &key);

class ResultCache
{
  public:
    enum class Status
    {
        Miss,        ///< not cached; compute and put()
        Hit,         ///< payload is the verified cached row
        Quarantined, ///< serve as io_corrupt once; key then heals
    };

    struct Lookup
    {
        Status status = Status::Miss;
        /** Hit: the cached row JSON, checksum-verified. */
        std::string payload;
        /** Quarantined: human-readable reason for the io_corrupt row. */
        std::string reason;
    };

    /** Observability counters (serve `stats` command, tests). */
    struct Stats
    {
        std::size_t entries = 0;     ///< verified entries resident
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t quarantinedServed = 0;
        /** Recovery outcome of the last open(). */
        std::size_t recoveredEntries = 0;
        std::size_t recoveredQuarantined = 0;
        std::size_t recoveredTempsDeleted = 0;
    };

    /**
     * Open (creating directories as needed) the cache rooted at
     * @p dir and run crash recovery. Throws RunError{io_corrupt} only
     * for environmental failures (a directory that cannot be created
     * or is not one); corrupt *content* never throws — it
     * quarantines.
     */
    explicit ResultCache(std::string dir);

    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    /** Look up @p key (a cacheKeyHash string). Thread-safe. */
    Lookup lookup(const std::string &key);

    /**
     * Commit @p payload under @p key: header + payload temp write,
     * fsync, rename (a crash point on each side of the rename). A key
     * already cached is left untouched (first write wins — payloads
     * for one key are identical by construction). Thread-safe.
     */
    void put(const std::string &key, const std::string &payload);

    Stats stats() const;

    const std::string &dir() const { return dir_; }

  private:
    /** Temp sweep + entry verification + quarantine (ctor). */
    void recover();

    /** Move a bad entry file aside; ignores a missing file. */
    void quarantineFile(const std::string &key);

    std::string entryPath(const std::string &key) const;

    mutable std::mutex m_;
    std::string dir_;
    /** Keys quarantined but not yet served once: key → reason. */
    std::map<std::string, std::string> quarantined_;
    DLVP_GUARDED_BY(m_);
    Stats stats_;
    DLVP_GUARDED_BY(m_);
};

} // namespace dlvp::serve

#endif // DLVP_SERVE_CACHE_HH
