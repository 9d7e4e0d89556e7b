/**
 * @file
 * dlvp-trace-v2: the chunked, delta/varint-compressed on-disk trace
 * format, its one writer (ChunkedTraceWriter) and its one reader
 * (ChunkedTraceFile), which serves it to the core with O(chunk)
 * resident memory. The instruction stream is split into fixed-size
 * chunks that decode independently, so a reader holds only the chunks
 * covering the core's in-flight window.
 *
 * Layout (little-endian):
 *
 *   magic  "DLVPTRC3"                      byte 7 is the on-disk
 *                                          version, 3
 *                                          (kChunkedTraceVersion)
 *   u32    chunkInsts                      instructions per chunk
 *   u64    instCount                       declared total (writer
 *                                          knows it up front)
 *   string name | string suite             (u32 length + bytes)
 *   u64    pageCount
 *   { u64 pageAddr | 4096 raw bytes } *    initial memory image
 *   chunk *                                ceil(instCount/chunkInsts)
 *   u64    chunkOffset[chunkCount]         index: absolute file offset
 *                                          of each chunk header
 *   u64    indexOffset                     offset of chunkOffset[0]
 *   tail   "DLVPIDX2"
 *
 * The format keeps its dlvp-trace-v2 name (and the *V2 API) across
 * on-disk versions. Two versions are retired, and a file of either is
 * rejected with RunError{io_corrupt} saying it must be regenerated:
 * version 1, the fixed-record dlvp-trace-v1 format, and version 2,
 * which differed from this one only in its chunk checksum
 * (byte-serial FNV-1a 64).
 *
 * Each chunk is
 *
 *   u32 count | u32 encLen | u64 checksum | encLen payload bytes
 *
 * where count == chunkInsts for every chunk but the last, checksum is
 * the chunk checksum below over the payload, and the payload encodes
 * `count` instructions as:
 *
 *   u8 cls | u8 loadKind | u8 flags(bit0 taken, bit1 branchTarget!=0)
 *   u8 numSrcs | u8 srcs[3] | u8 numDests | u8 destBase | u8 memSize
 *   zigzag-varint (pc - prevPc)            prevPc starts at 0 per chunk
 *   zigzag-varint (memAddr - prevMemAddr)  prevMemAddr likewise
 *   varint storeValue | varint destValue
 *   [ zigzag-varint (branchTarget - pc)    iff flags bit1 ]
 *
 * Delta state resets at every chunk boundary, which is what makes a
 * chunk decodable without its predecessors (the index footer's O(1)
 * seek would otherwise be useless). Every field is range-checked on
 * decode; any violation — including a checksum mismatch — raises
 * RunError{io_corrupt}, never a crash (fuzzed in tests/test_mega.cc).
 *
 * The chunk checksum reads the payload as little-endian u64 words
 * w[i], all arithmetic mod 2^64, with XXH64's odd primes P1..P5 and
 * round(a, w) = rotl(a + w * P2, 31) * P1:
 *
 *   lanes v0..v3 = P1 + P2, P2, 0, -P1
 *   each full 32-byte stripe s:  vk = round(vk, w[4s + k]), k = 0..3
 *   h = rotl(v0, 1) + rotl(v1, 7) + rotl(v2, 12) + rotl(v3, 18) + encLen
 *   each remaining full word w:  h = rotl(h ^ round(0, w), 27) * P1 + P4
 *   each remaining byte b:       h = rotl(h ^ (b * P5), 11) * P1
 *   h ^= h >> 33; h *= P2; h ^= h >> 29; h *= P3; h ^= h >> 32
 *
 * For a fixed input every step is a bijection of the running state,
 * and each word or tail byte enters a step that is a bijection (an
 * injection, for bytes) of that input, so a change confined to one
 * word or one tail byte is always detected: the per-byte guarantee
 * FNV-1a gave, at a word per step in four independent chains.
 *
 * Both chunk readers (ChunkedTraceFile::chunk and ::scan) verify a
 * payload's checksum before decoding it, so the error precedence is by
 * construction: a checksum mismatch first, then a field or varint
 * error, then trailing bytes after the last record.
 *
 * ChunkedTraceFile serves two kinds of reader. TraceCursors share a
 * small cache of decoded chunks; sequential scans (Trace::forEachSpan)
 * decode into one reused scan slot and never fill that cache. Both
 * serve the same decoded records, so which one a run used never shows
 * in its results: sampled CoreStats are bit-identical across interval
 * worker counts (sim/sampler.hh), where only the walking thread scans.
 */

#ifndef DLVP_TRACE_TRACE_V2_HH
#define DLVP_TRACE_TRACE_V2_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "trace/instruction.hh"
#include "trace/memory_image.hh"

namespace dlvp::trace
{

class Trace;

/** On-disk version of the chunked format: byte 7 of its magic. */
inline constexpr char kChunkedTraceVersion = '3';

/** Default instructions per v2 chunk (~16k insts, ~200-400 KB raw). */
inline constexpr std::uint32_t kDefaultChunkInsts = 16384;

/**
 * Streaming v2 writer: declare the header (including the total
 * instruction count) up front, append instructions one at a time, and
 * finish() to flush the last partial chunk plus the index footer.
 * Memory stays O(chunk) regardless of trace length.
 */
class ChunkedTraceWriter
{
  public:
    ChunkedTraceWriter(std::ostream &os, const std::string &name,
                       const std::string &suite,
                       const MemoryImage &image,
                       std::uint64_t inst_count,
                       std::uint32_t chunk_insts = kDefaultChunkInsts);

    /** Append the next instruction; flushes a chunk when full. */
    void add(const TraceInst &inst);

    /**
     * Flush the trailing partial chunk and the index footer.
     * @return stream still good and exactly the declared count added.
     */
    bool finish();

  private:
    void flushChunk();

    std::ostream &os_;
    std::uint64_t declared_;
    std::uint64_t added_ = 0;
    std::uint32_t chunkInsts_;
    bool finished_ = false;

    // per-chunk encoder state
    std::string payload_;
    std::uint32_t chunkCount_ = 0;
    Addr prevPc_ = 0;
    Addr prevMem_ = 0;

    std::vector<std::uint64_t> chunkOffsets_;
};

/** Serialize @p trace in v2 format. Returns false on I/O failure. */
bool saveTraceV2(const Trace &trace, std::ostream &os,
                 std::uint32_t chunk_insts = kDefaultChunkInsts);

/** Save v2 to a file path. */
bool saveTraceFileV2(const Trace &trace, const std::string &path,
                     std::uint32_t chunk_insts = kDefaultChunkInsts);

/**
 * Random-access handle on a v2 trace file: the only trace-file parser.
 * Parses the header and the index footer eagerly (pages included — the image is needed before
 * instruction zero anyway) but decodes instruction chunks lazily and
 * caches the most recent few so concurrent readers (sweep cells
 * sharing one TraceStore-held trace) decode each chunk once, not once
 * per reader.
 *
 * Thread-safe: chunk() may be called from any number of threads.
 *
 * Fault injection: when the global FaultPlan carries trunc/flip rules
 * the whole file is pulled through FaultPlan::corrupt() into memory at
 * open() and served from there — a test-only path; the production
 * open() keeps only the header resident.
 */
class ChunkedTraceFile
{
  public:
    using ChunkPtr = std::shared_ptr<const std::vector<TraceInst>>;

    /**
     * Open @p path and validate its magic, header, memory image and
     * index footer; chunks are validated as they are decoded. Throws
     * RunError{io_corrupt}.
     */
    static std::shared_ptr<ChunkedTraceFile>
    open(const std::string &path);

    ~ChunkedTraceFile();

    const std::string &name() const { return name_; }
    const std::string &suite() const { return suite_; }
    const MemoryImage &initialImage() const { return image_; }

    std::uint64_t numInsts() const { return instCount_; }
    std::uint32_t chunkInsts() const { return chunkInsts_; }
    std::uint64_t numChunks() const { return chunkOffsets_.size(); }

    /** First instruction index covered by chunk @p ci. */
    std::uint64_t
    chunkStart(std::uint64_t ci) const
    {
        return ci * chunkInsts_;
    }

    /**
     * Decode chunk @p ci (validating its checksum and every field).
     * Served from the shared cache when another reader already decoded
     * it. Throws RunError{io_corrupt} on corruption.
     */
    ChunkPtr chunk(std::uint64_t ci) const;

    using ScanFn = std::function<void(
        std::uint64_t ci, const TraceInst *first, std::size_t n)>;

    /**
     * Visit chunks [@p first, @p last] in order: the sequential scans
     * behind Trace::forEachSpan. A scan never fills the shared cache.
     * A chunk a cursor already cached is served from there; any other
     * is decoded (checksum included) into one reused buffer, the
     * file's scan slot. The slot keeps the last chunk a scan decoded,
     * so a scan that starts where the previous one stopped does not
     * decode that chunk again. @p fn's span is valid only during the
     * call. Throws RunError{io_corrupt} on corruption.
     */
    void scan(std::uint64_t first, std::uint64_t last,
              const ScanFn &fn) const;

    /** Total encoded payload bytes across all chunks (trace-info). */
    std::uint64_t encodedBytes() const { return encodedBytes_; }

    /** File size in bytes (trace-info). */
    std::uint64_t fileBytes() const { return fileBytes_; }

    /**
     * High-water mark of simultaneously cached decoded chunks: the
     * cursors' shared cache plus the scan slot.
     */
    std::size_t
    peakCachedChunks() const
    {
        std::lock_guard<std::mutex> lk(mutex_);
        return peakCached_;
    }

  private:
    ChunkedTraceFile() = default;

    /** Read @p len bytes at absolute @p offset; corruptErr if short. */
    void readAt(std::uint64_t offset, char *out,
                std::uint64_t len) const;
    /** Cached chunk @p ci promoted to MRU, or null (under mutex_). */
    ChunkPtr cachedLocked(std::uint64_t ci) const;
    /** Read, check and decode chunk @p ci into @p out (under mutex_). */
    void decodeLocked(std::uint64_t ci,
                      std::vector<TraceInst> &out) const;
    void notePeakLocked() const;

    std::string path_;
    std::string name_;
    std::string suite_;
    MemoryImage image_;
    std::uint64_t instCount_ = 0;
    std::uint32_t chunkInsts_ = kDefaultChunkInsts;
    std::uint64_t encodedBytes_ = 0;
    std::uint64_t fileBytes_ = 0;
    std::vector<std::uint64_t> chunkOffsets_;

    /** Non-empty when a FaultPlan mutated the bytes at open(). */
    std::string corrupted_;

    mutable std::mutex mutex_;
    mutable std::unique_ptr<std::ifstream> file_;
    /** Encoded payload of the chunk being decoded (under mutex_). */
    mutable std::string readBuf_;
    struct CacheEntry
    {
        std::uint64_t ci = 0;
        ChunkPtr data;
    };
    /** Small MRU cache of cursor chunks; entry 0 is most recent. */
    mutable std::vector<CacheEntry> cache_;
    mutable std::size_t peakCached_ = 0;

    static constexpr std::uint64_t kNoChunk = ~std::uint64_t{0};
    /** The scan slot (under mutex_; see scan()). */
    mutable std::vector<TraceInst> scanBuf_;
    mutable std::uint64_t scanCi_ = kNoChunk;
    mutable bool scanLeased_ = false;
};

/**
 * The core's window into a trace, materialized or streamed. For a
 * materialized trace at() is a bounds check plus an indexed load — the
 * full-run path is bit- and speed-identical to indexing trace.insts.
 * For a streamed trace, at() pins the decoded chunk covering the
 * index (plus, at the boundary, the next one — the core's fetch
 * lookahead touches seq+1, so the reader naturally decodes one chunk
 * ahead of the fetch cursor) and retireTo() drops chunks wholly below
 * the commit point, bounding resident instructions to the in-flight
 * window's chunks.
 *
 * Pointers returned by at() stay valid until retireTo() passes them —
 * exactly the lifetime InstState needs between fetch and commit.
 */
class TraceCursor
{
  public:
    TraceCursor() = default;

    /** Bind to @p t; any previously pinned chunks are released. */
    void reset(const Trace &t);

    /** Instruction @p i; @p i must be < trace size. */
    const TraceInst &
    at(std::size_t i)
    {
        if (i - base_ < count_)
            return window_[i - base_];
        return miss(i);
    }

    /**
     * All instructions below @p i are dead (committed); release any
     * chunk wholly below it. Cheap no-op for materialized traces and
     * when nothing is droppable — callable per cycle.
     */
    void
    retireTo(std::size_t i)
    {
        if (i >= minPinEnd_)
            drop(i);
    }

    /** High-water mark of simultaneously pinned chunks (tests). */
    std::size_t maxPinned() const { return maxPinned_; }

  private:
    const TraceInst &miss(std::size_t i);
    void drop(std::size_t i);

    struct Pin
    {
        std::size_t begin = 0;
        std::size_t end = 0;
        ChunkedTraceFile::ChunkPtr data;
    };

    const Trace *trace_ = nullptr;
    const TraceInst *window_ = nullptr;
    std::size_t base_ = 0;
    std::size_t count_ = 0;
    /** Materialized traces leave this at SIZE_MAX: retireTo no-ops. */
    std::size_t minPinEnd_ = static_cast<std::size_t>(-1);
    std::vector<Pin> pins_;
    std::size_t maxPinned_ = 0;
};

} // namespace dlvp::trace

#endif // DLVP_TRACE_TRACE_V2_HH
