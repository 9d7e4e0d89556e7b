#include "trace_io.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "common/fault_inject.hh"
#include "common/run_error.hh"
#include "trace/trace_v2.hh"

namespace dlvp::trace
{

namespace
{

// The trailing byte is the format version; bumping it invalidates old
// files on purpose.
constexpr char kMagic[8] = {'D', 'L', 'V', 'P', 'T', 'R', 'C', '1'};

/** Serialized size of one TraceInst (see putInst). */
constexpr std::uint64_t kInstBytes =
    8 + 1 + 1 + 1 + 3 /*kMaxSrcs*/ + 1 + 1 + 1 + 8 + 8 + 8 + 8 + 1;

[[noreturn]] void
corruptErr(const std::string &what)
{
    throw common::RunError(common::ErrorKind::IoCorrupt,
                           "trace file: " + what);
}

/**
 * Bytes left in the stream, or -1 when the stream is not seekable.
 * Used to reject section counts that promise more payload than the
 * file holds, before any multi-GB reserve() can fire.
 */
std::streamoff
bytesRemaining(std::istream &is)
{
    const std::istream::pos_type cur = is.tellg();
    if (cur == std::istream::pos_type(-1))
        return -1;
    is.seekg(0, std::ios::end);
    const std::istream::pos_type end = is.tellg();
    is.seekg(cur);
    if (end == std::istream::pos_type(-1))
        return -1;
    return end - cur;
}

template <typename T>
void
put(std::ostream &os, T v)
{
    static_assert(std::is_trivially_copyable_v<T>);
    os.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

template <typename T>
bool
get(std::istream &is, T &v)
{
    static_assert(std::is_trivially_copyable_v<T>);
    is.read(reinterpret_cast<char *>(&v), sizeof(v));
    return static_cast<bool>(is);
}

void
putString(std::ostream &os, const std::string &s)
{
    put<std::uint32_t>(os, static_cast<std::uint32_t>(s.size()));
    os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

bool
getString(std::istream &is, std::string &s)
{
    std::uint32_t n = 0;
    if (!get(is, n) || n > (1u << 20))
        return false;
    s.resize(n);
    is.read(s.data(), n);
    return static_cast<bool>(is);
}

void
putInst(std::ostream &os, const TraceInst &i)
{
    put<std::uint64_t>(os, i.pc);
    put<std::uint8_t>(os, static_cast<std::uint8_t>(i.cls));
    put<std::uint8_t>(os, static_cast<std::uint8_t>(i.loadKind));
    put<std::uint8_t>(os, i.numSrcs);
    for (unsigned k = 0; k < kMaxSrcs; ++k)
        put<std::uint8_t>(os, i.srcs[k]);
    put<std::uint8_t>(os, i.numDests);
    put<std::uint8_t>(os, i.destBase);
    put<std::uint8_t>(os, i.memSize);
    put<std::uint64_t>(os, i.memAddr);
    put<std::uint64_t>(os, i.storeValue);
    put<std::uint64_t>(os, i.destValue);
    put<std::uint64_t>(os, i.branchTarget);
    put<std::uint8_t>(os, i.taken ? 1 : 0);
}

bool
getInst(std::istream &is, TraceInst &i)
{
    std::uint8_t cls = 0, kind = 0, taken = 0;
    bool ok = get(is, i.pc) && get(is, cls) && get(is, kind) &&
              get(is, i.numSrcs);
    for (unsigned k = 0; ok && k < kMaxSrcs; ++k)
        ok = get(is, i.srcs[k]);
    ok = ok && get(is, i.numDests) && get(is, i.destBase) &&
         get(is, i.memSize) && get(is, i.memAddr) &&
         get(is, i.storeValue) && get(is, i.destValue) &&
         get(is, i.branchTarget) && get(is, taken);
    if (!ok)
        return false;
    // Field ranges: a bit-flipped enum or width would otherwise feed
    // out-of-range values into core lookup tables.
    if (cls > static_cast<std::uint8_t>(OpClass::Nop))
        corruptErr("instruction op class out of range");
    if (kind > static_cast<std::uint8_t>(LoadKind::Vector))
        corruptErr("instruction load kind out of range");
    if (i.numSrcs > kMaxSrcs)
        corruptErr("instruction source count out of range");
    if (i.numDests > 16)
        corruptErr("instruction destination count out of range");
    if (i.memSize > 64)
        corruptErr("instruction memory access size out of range");
    i.cls = static_cast<OpClass>(cls);
    i.loadKind = static_cast<LoadKind>(kind);
    i.taken = taken != 0;
    return true;
}

} // namespace

bool
saveTrace(const Trace &trace, std::ostream &os)
{
    os.write(kMagic, sizeof(kMagic));
    putString(os, trace.name);
    putString(os, trace.suite);

    // forEachPage visits in ascending address order, so the file is
    // deterministic by construction.
    std::vector<std::pair<Addr, const std::uint8_t *>> pages;
    trace.initialImage.forEachPage(
        [&pages](Addr a, const std::uint8_t *p) {
            pages.emplace_back(a, p);
        });
    put<std::uint64_t>(os, pages.size());
    for (const auto &[addr, bytes] : pages) {
        put<std::uint64_t>(os, addr);
        os.write(reinterpret_cast<const char *>(bytes),
                 MemoryImage::kPageSize);
    }

    // size()/forEachInst serve streamed (v2-backed) traces too, so
    // trace-convert --to v1 works from a streamed v2 file.
    put<std::uint64_t>(os, trace.size());
    trace.forEachInst([&os](const TraceInst &inst) { putInst(os, inst); });
    return static_cast<bool>(os);
}

void
loadTraceOrThrow(Trace &trace, std::istream &is)
{
    char magic[8];
    is.read(magic, sizeof(magic));
    if (!is || std::memcmp(magic, kMagic, sizeof(kMagic) - 1) != 0)
        corruptErr("bad magic (not a dlvp trace file)");
    if (isChunkedTraceMagic(magic)) {
        // dlvp-trace-v2: chunked format; materialize sequentially
        // (loadTraceV2OrThrow re-reads the magic itself).
        is.seekg(-static_cast<std::streamoff>(sizeof(magic)),
                 std::ios::cur);
        loadTraceV2OrThrow(trace, is);
        return;
    }
    if (magic[7] != kMagic[7])
        corruptErr("unsupported format version");
    if (!getString(is, trace.name) || !getString(is, trace.suite))
        corruptErr("truncated or oversized name/suite header");

    trace.initialImage.clear();
    std::uint64_t num_pages = 0;
    if (!get(is, num_pages))
        corruptErr("truncated page count");
    const std::streamoff left_pages = bytesRemaining(is);
    if (left_pages >= 0 &&
        num_pages > static_cast<std::uint64_t>(left_pages) /
                        (8 + MemoryImage::kPageSize))
        corruptErr("page count exceeds file size");
    std::vector<std::uint8_t> page(MemoryImage::kPageSize);
    for (std::uint64_t p = 0; p < num_pages; ++p) {
        Addr addr = 0;
        if (!get(is, addr))
            corruptErr("truncated page address");
        if ((addr & (MemoryImage::kPageSize - 1)) != 0)
            corruptErr("page address not page-aligned");
        is.read(reinterpret_cast<char *>(page.data()),
                MemoryImage::kPageSize);
        if (!is)
            corruptErr("truncated page payload");
        trace.initialImage.installPage(addr, page.data());
    }

    std::uint64_t count = 0;
    if (!get(is, count))
        corruptErr("truncated instruction count");
    const std::streamoff left_insts = bytesRemaining(is);
    if (left_insts >= 0 &&
        count > static_cast<std::uint64_t>(left_insts) / kInstBytes)
        corruptErr("instruction count exceeds file size");
    if (count > (std::uint64_t{1} << 33))
        corruptErr("implausible instruction count");
    trace.insts.clear();
    trace.insts.reserve(count);
    for (std::uint64_t k = 0; k < count; ++k) {
        TraceInst inst;
        if (!getInst(is, inst))
            corruptErr("truncated instruction record");
        trace.insts.push_back(inst);
    }
}

bool
loadTrace(Trace &trace, std::istream &is)
{
    try {
        loadTraceOrThrow(trace, is);
        return true;
    } catch (const common::RunError &) {
        return false;
    }
}

void
loadTraceFileOrThrow(Trace &trace, const std::string &path)
{
    // v2 files attach a streaming backing instead of materializing:
    // the core reads decoded chunks on demand (O(chunk) resident).
    // ChunkedTraceFile::open applies the FaultPlan itself; chunk
    // corruption (checksum, field ranges) surfaces lazily as
    // RunError{io_corrupt} at first decode of the bad chunk.
    if (isChunkedTraceFile(path)) {
        trace.attachStream(ChunkedTraceFile::open(path));
        return;
    }
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw common::RunError(common::ErrorKind::IoCorrupt,
                               "cannot open trace file '" + path +
                                   "'");
    const common::FaultPlan &plan = common::FaultPlan::global();
    if (plan.empty()) {
        loadTraceOrThrow(trace, is);
        return;
    }
    // Injection path: pull the raw bytes through the fault plan
    // (truncation / bit flips) before parsing.
    std::ostringstream raw;
    raw << is.rdbuf();
    std::string bytes = raw.str();
    plan.corrupt(bytes);
    std::istringstream mutated(bytes);
    loadTraceOrThrow(trace, mutated);
}

bool
saveTraceFile(const Trace &trace, const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    return os && saveTrace(trace, os);
}

bool
loadTraceFile(Trace &trace, const std::string &path)
{
    try {
        loadTraceFileOrThrow(trace, path);
        return true;
    } catch (const common::RunError &) {
        return false;
    }
}

} // namespace dlvp::trace
