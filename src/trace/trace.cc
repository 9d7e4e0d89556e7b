#include "trace.hh"

#include <algorithm>

#include "trace/trace_v2.hh"

namespace dlvp::trace
{

void
Trace::attachStream(std::shared_ptr<ChunkedTraceFile> file)
{
    name = file->name();
    suite = file->suite();
    initialImage = file->initialImage();
    insts.clear();
    streamSize_ = file->numInsts();
    stream_ = std::move(file);
}

void
Trace::forEachInst(
    std::size_t begin, std::size_t end,
    const std::function<void(const TraceInst &)> &fn) const
{
    forEachSpan(begin, end,
                [&fn](const TraceInst *first, std::size_t n) {
                    for (std::size_t k = 0; k < n; ++k)
                        fn(first[k]);
                });
}

void
Trace::forEachSpan(
    std::size_t begin, std::size_t end,
    const std::function<void(const TraceInst *, std::size_t)> &fn) const
{
    end = std::min(end, size());
    if (begin >= end)
        return;
    if (!stream_) {
        fn(insts.data() + begin, end - begin);
        return;
    }
    const ChunkedTraceFile &file = *stream_;
    const std::uint32_t per = file.chunkInsts();
    file.scan(begin / per, (end - 1) / per,
              [&](std::uint64_t ci, const TraceInst *first,
                  std::size_t n) {
                  const std::size_t start = file.chunkStart(ci);
                  const std::size_t lo = std::max(begin, start);
                  const std::size_t hi = std::min(end, start + n);
                  fn(first + (lo - start), hi - lo);
              });
}

namespace
{

/** Copy instructions [begin, begin+count) and the names into @p sub. */
void
fillSlice(const Trace &trace, std::size_t begin, std::size_t count,
          Trace &sub)
{
    sub.name = trace.name;
    sub.suite = trace.suite;
    sub.insts.clear();
    sub.insts.reserve(count);
    trace.forEachSpan(begin, begin + count,
                      [&sub](const TraceInst *first, std::size_t n) {
                          sub.insts.insert(sub.insts.end(), first,
                                           first + n);
                      });
}

} // namespace

Trace
Trace::slice(std::size_t begin, std::size_t count,
             MemoryImage image) const
{
    Trace sub;
    fillSlice(*this, begin, count, sub);
    sub.initialImage = std::move(image);
    return sub;
}

void
Trace::materialize()
{
    if (!stream_)
        return;
    insts.reserve(streamSize_);
    forEachSpan(0, streamSize_,
                [this](const TraceInst *first, std::size_t n) {
                    insts.insert(insts.end(), first, first + n);
                });
    stream_.reset();
    streamSize_ = 0;
}

TraceMix
Trace::mix() const
{
    TraceMix m;
    m.total = size();
    forEachInst([&m](const TraceInst &inst) {
        if (inst.isLoad()) {
            ++m.loads;
            m.loadDestRegs += inst.numDests;
            if (inst.loadKind != LoadKind::Simple)
                ++m.multiDestLoads;
        } else if (inst.isStore()) {
            ++m.stores;
        } else if (inst.isControl()) {
            ++m.branches;
            if (inst.cls == OpClass::CondBranch) {
                ++m.condBranches;
                if (inst.taken)
                    ++m.takenBranches;
            } else {
                ++m.takenBranches;
            }
        }
    });
    return m;
}

std::size_t
Trace::verifyReplay() const
{
    MemoryImage mem = initialImage;
    std::size_t bad = size();
    std::size_t i = 0;
    forEachInst([&](const TraceInst &inst) {
        if (bad == size()) {
            if (inst.isLoad()) {
                const std::uint64_t v =
                    mem.read(inst.memAddr, inst.memSize);
                if (v != inst.destValue)
                    bad = i;
            } else if (inst.isStore() ||
                       inst.cls == OpClass::Atomic) {
                mem.write(inst.memAddr, inst.storeValue, inst.memSize);
            }
        }
        ++i;
    });
    return bad;
}

namespace
{

/** Replay the architectural writes (stores, atomics) of @p n insts. */
void
replayStores(MemoryImage &image, const TraceInst *first, std::size_t n)
{
    for (std::size_t k = 0; k < n; ++k) {
        const TraceInst &inst = first[k];
        if (inst.isStore() || inst.cls == OpClass::Atomic)
            image.write(inst.memAddr, inst.storeValue, inst.memSize);
    }
}

} // namespace

void
advanceImage(MemoryImage &image, const Trace &trace,
             std::size_t begin, std::size_t end)
{
    trace.forEachSpan(begin, end,
                      [&image](const TraceInst *first, std::size_t n) {
                          replayStores(image, first, n);
                      });
}

void
sliceAndAdvance(const Trace &trace, MemoryImage &image,
                std::size_t begin, std::size_t count, Trace &slice)
{
    fillSlice(trace, begin, count, slice);
    slice.initialImage = image;
    replayStores(image, slice.insts.data(), slice.insts.size());
}

} // namespace dlvp::trace
