/**
 * @file
 * A complete committed-path trace: the dynamic micro-op stream plus the
 * initial memory image it executes against.
 *
 * A Trace is either *materialized* (every instruction resident in
 * `insts`, the only mode before dlvp-trace-v2) or *streamed* (backed
 * by a ChunkedTraceFile that decodes fixed-size chunks on demand, so
 * a 10M-instruction mega trace costs O(chunk) resident memory). All
 * whole-trace scans go through forEachInst(), which walks either
 * backing; random access for the core goes through TraceCursor
 * (trace_v2.hh). operator[] stays materialized-only — it is the hot
 * path for every pre-v2 caller and must stay a bare vector index.
 */

#ifndef DLVP_TRACE_TRACE_HH
#define DLVP_TRACE_TRACE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "trace/instruction.hh"
#include "trace/memory_image.hh"

namespace dlvp::trace
{

class ChunkedTraceFile;

/** Aggregate mix statistics over a trace. */
struct TraceMix
{
    std::uint64_t total = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t branches = 0;
    std::uint64_t condBranches = 0;
    std::uint64_t takenBranches = 0;
    std::uint64_t multiDestLoads = 0; ///< LDP + LDM + VLD
    std::uint64_t loadDestRegs = 0;   ///< total destination regs on loads
};

class Trace
{
  public:
    Trace() = default;

    std::string name;
    std::string suite;

    /** Memory contents before the first instruction executes. */
    MemoryImage initialImage;

    /** The instruction stream when materialized; empty when streamed. */
    std::vector<TraceInst> insts;

    /**
     * Attach a v2 chunked backing: size()/forEachInst()/TraceCursor
     * serve from it, `insts` stays empty. Also copies the backing's
     * name/suite/image into this trace.
     */
    void attachStream(std::shared_ptr<ChunkedTraceFile> file);

    /** Non-null when this trace streams from a v2 file. */
    const std::shared_ptr<ChunkedTraceFile> &stream() const
    {
        return stream_;
    }

    bool streamed() const { return stream_ != nullptr; }

    std::size_t
    size() const
    {
        return stream_ ? streamSize_ : insts.size();
    }

    bool empty() const { return size() == 0; }

    /** Materialized traces only (asserted by the vector in debug). */
    const TraceInst &operator[](std::size_t i) const { return insts[i]; }

    /**
     * Visit instructions [begin, end) in order, decoding chunk by
     * chunk for streamed traces (O(chunk) resident). @p end is
     * clamped to size().
     */
    void forEachInst(std::size_t begin, std::size_t end,
                     const std::function<void(const TraceInst &)> &fn)
        const;

    void
    forEachInst(const std::function<void(const TraceInst &)> &fn) const
    {
        forEachInst(0, size(), fn);
    }

    /**
     * Visit instructions [begin, end) as contiguous runs: @p fn gets
     * (first, n) once per decoded chunk of a streamed trace, or once
     * for a materialized one, so bulk consumers pay one call per run
     * instead of one per instruction. A streamed run is valid only
     * during the call (ChunkedTraceFile::scan reuses its buffer).
     * @p end is clamped to size().
     */
    void forEachSpan(
        std::size_t begin, std::size_t end,
        const std::function<void(const TraceInst *, std::size_t)> &fn)
        const;

    /**
     * Materialized sub-trace of instructions [begin, begin+count)
     * executing against @p image (the caller supplies the functional
     * memory state at @p begin — see advanceImage). Sampled
     * simulation's per-interval unit.
     */
    Trace slice(std::size_t begin, std::size_t count,
                MemoryImage image) const;

    /** Decode a streamed trace fully into `insts`; drops the backing. */
    void materialize();

    TraceMix mix() const;

    /**
     * Functional self-check: replay the trace against the initial
     * image and verify every load's recorded expected value matches
     * what program-order store replay produces.
     *
     * @return index of first mismatching instruction, or size() if OK.
     */
    std::size_t verifyReplay() const;

  private:
    std::shared_ptr<ChunkedTraceFile> stream_;
    /** Cached so the core's per-cycle size() checks stay a load. */
    std::size_t streamSize_ = 0;
};

/**
 * Functionally advance @p image from instruction @p begin to @p end of
 * @p trace by replaying stores and atomics in program order — the
 * fast-forward between sampled intervals. @p image must hold the
 * memory state as of @p begin (initially a copy of
 * trace.initialImage).
 */
void advanceImage(MemoryImage &image, const Trace &trace,
                  std::size_t begin, std::size_t end);

/**
 * trace.slice(begin, count, image) then advanceImage(image, trace,
 * begin, begin + count), decoding the window once and refilling
 * @p slice in place: its instruction vector keeps its capacity, so a
 * buffer reused across intervals is allocated once per run. The slice
 * runs against a copy-on-write snapshot of @p image (the state at @p
 * begin), and @p image leaves holding the state at begin + count,
 * replayed from the slice's own copy of the instructions. The
 * sampler's per-interval step (sim/sampler.hh).
 */
void sliceAndAdvance(const Trace &trace, MemoryImage &image,
                     std::size_t begin, std::size_t count,
                     Trace &slice);

} // namespace dlvp::trace

#endif // DLVP_TRACE_TRACE_HH
