#include "trace_v2.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>

#include "common/fault_inject.hh"
#include "common/run_error.hh"
#include "trace/trace.hh"

namespace dlvp::trace
{

namespace
{

constexpr char kMagicV2[8] = {'D', 'L', 'V', 'P', 'T', 'R', 'C', '2'};
constexpr char kTailMagic[8] = {'D', 'L', 'V', 'P', 'I', 'D', 'X', '2'};

/** Per-chunk header: u32 count | u32 encLen | u64 checksum. */
constexpr std::uint64_t kChunkHeaderBytes = 4 + 4 + 8;

/** Hard ceilings a corrupt header cannot push past. */
constexpr std::uint32_t kMaxChunkInsts = 1u << 22;
constexpr std::uint64_t kMaxInstCount = std::uint64_t{1} << 33;

/** Worst-case encoded instruction: 10 fixed bytes + 5 full varints. */
constexpr std::uint64_t kMaxEncodedInst = 10 + 5 * 10;

/** Smallest encodable instruction: 10 fixed bytes + 4 1-byte varints. */
constexpr std::uint64_t kMinEncodedInst = 10 + 4;

[[noreturn]] void
corruptErr(const std::string &what)
{
    throw common::RunError(common::ErrorKind::IoCorrupt,
                           "trace file (v2): " + what);
}

std::uint64_t
fnv1a(const char *data, std::size_t len)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= static_cast<unsigned char>(data[i]);
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

void
putVarint(std::string &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<char>((v & 0x7f) | 0x80));
        v >>= 7;
    }
    out.push_back(static_cast<char>(v));
}

/** Decode one LEB128 varint from [p, end); corruptErr on overrun. */
std::uint64_t
getVarint(const char *&p, const char *end)
{
    std::uint64_t v = 0;
    unsigned shift = 0;
    while (p < end && shift < 70) {
        const std::uint8_t b = static_cast<std::uint8_t>(*p++);
        v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
        if ((b & 0x80) == 0)
            return v;
        shift += 7;
    }
    corruptErr(p >= end ? "varint runs past chunk payload"
                        : "varint longer than 64 bits");
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

template <typename T>
T
loadScalar(const char *p)
{
    T v;
    std::memcpy(&v, p, sizeof(v));
    return v;
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

/** See trace_io.cc bytesRemaining — same overflow guard. */
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

void
encodeInst(std::string &out, const TraceInst &i, Addr &prev_pc,
           Addr &prev_mem)
{
    out.push_back(static_cast<char>(i.cls));
    out.push_back(static_cast<char>(i.loadKind));
    const bool has_bt = i.branchTarget != 0;
    out.push_back(static_cast<char>((i.taken ? 1 : 0) |
                                    (has_bt ? 2 : 0)));
    out.push_back(static_cast<char>(i.numSrcs));
    for (unsigned k = 0; k < kMaxSrcs; ++k)
        out.push_back(static_cast<char>(i.srcs[k]));
    out.push_back(static_cast<char>(i.numDests));
    out.push_back(static_cast<char>(i.destBase));
    out.push_back(static_cast<char>(i.memSize));
    putVarint(out, zigzag(static_cast<std::int64_t>(i.pc - prev_pc)));
    putVarint(out, zigzag(static_cast<std::int64_t>(i.memAddr -
                                                    prev_mem)));
    putVarint(out, i.storeValue);
    putVarint(out, i.destValue);
    if (has_bt)
        putVarint(out, zigzag(static_cast<std::int64_t>(
                           i.branchTarget - i.pc)));
    prev_pc = i.pc;
    prev_mem = i.memAddr;
}

TraceInst
decodeInst(const char *&p, const char *end, Addr &prev_pc,
           Addr &prev_mem)
{
    if (end - p < 10)
        corruptErr("instruction record runs past chunk payload");
    TraceInst i;
    const std::uint8_t cls = static_cast<std::uint8_t>(*p++);
    const std::uint8_t kind = static_cast<std::uint8_t>(*p++);
    const std::uint8_t flags = static_cast<std::uint8_t>(*p++);
    i.numSrcs = static_cast<std::uint8_t>(*p++);
    for (unsigned k = 0; k < kMaxSrcs; ++k)
        i.srcs[k] = static_cast<std::uint8_t>(*p++);
    i.numDests = static_cast<std::uint8_t>(*p++);
    i.destBase = static_cast<std::uint8_t>(*p++);
    i.memSize = static_cast<std::uint8_t>(*p++);
    // Same field ranges as the v1 loader: a flipped enum or width must
    // not feed out-of-range values into core lookup tables.
    if (cls > static_cast<std::uint8_t>(OpClass::Nop))
        corruptErr("instruction op class out of range");
    if (kind > static_cast<std::uint8_t>(LoadKind::Vector))
        corruptErr("instruction load kind out of range");
    if (flags > 3)
        corruptErr("instruction flag bits out of range");
    if (i.numSrcs > kMaxSrcs)
        corruptErr("instruction source count out of range");
    if (i.numDests > 16)
        corruptErr("instruction destination count out of range");
    if (i.memSize > 64)
        corruptErr("instruction memory access size out of range");
    i.cls = static_cast<OpClass>(cls);
    i.loadKind = static_cast<LoadKind>(kind);
    i.taken = (flags & 1) != 0;
    i.pc = prev_pc + static_cast<Addr>(unzigzag(getVarint(p, end)));
    i.memAddr =
        prev_mem + static_cast<Addr>(unzigzag(getVarint(p, end)));
    i.storeValue = getVarint(p, end);
    i.destValue = getVarint(p, end);
    i.branchTarget =
        (flags & 2) ? i.pc + static_cast<Addr>(
                                 unzigzag(getVarint(p, end)))
                    : 0;
    prev_pc = i.pc;
    prev_mem = i.memAddr;
    return i;
}

/**
 * Decode one chunk payload (post-header) into @p out, validating the
 * checksum first so a flipped payload byte is reported as such rather
 * than as whatever field it lands in.
 */
void
decodeChunkPayload(const char *data, std::uint32_t enc_len,
                   std::uint32_t count, std::uint64_t checksum,
                   std::vector<TraceInst> &out)
{
    if (fnv1a(data, enc_len) != checksum)
        corruptErr("chunk checksum mismatch");
    const char *p = data;
    const char *end = data + enc_len;
    Addr prev_pc = 0, prev_mem = 0;
    out.clear();
    out.reserve(count);
    for (std::uint32_t k = 0; k < count; ++k)
        out.push_back(decodeInst(p, end, prev_pc, prev_mem));
    if (p != end)
        corruptErr("chunk payload has trailing bytes");
}

/**
 * Parse the v2 header sections shared by both loaders: chunk size,
 * declared instruction count, name/suite, memory image. The magic must
 * already be consumed and verified. Leaves @p is at the first chunk.
 */
struct HeaderV2
{
    std::uint32_t chunkInsts = 0;
    std::uint64_t instCount = 0;
    std::string name;
    std::string suite;
};

HeaderV2
readHeaderV2(std::istream &is, MemoryImage &image)
{
    HeaderV2 h;
    if (!get(is, h.chunkInsts))
        corruptErr("truncated chunk size");
    if (h.chunkInsts == 0 || h.chunkInsts > kMaxChunkInsts)
        corruptErr("chunk size out of range");
    if (!get(is, h.instCount))
        corruptErr("truncated instruction count");
    if (h.instCount > kMaxInstCount)
        corruptErr("implausible instruction count");
    if (!getString(is, h.name) || !getString(is, h.suite))
        corruptErr("truncated or oversized name/suite header");

    image.clear();
    std::uint64_t num_pages = 0;
    if (!get(is, num_pages))
        corruptErr("truncated page count");
    const std::streamoff left = bytesRemaining(is);
    if (left >= 0 && num_pages > static_cast<std::uint64_t>(left) /
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
        image.installPage(addr, page.data());
    }
    return h;
}

std::uint64_t
numChunksFor(std::uint64_t insts, std::uint32_t chunk_insts)
{
    return (insts + chunk_insts - 1) / chunk_insts;
}

} // namespace

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

ChunkedTraceWriter::ChunkedTraceWriter(std::ostream &os,
                                       const std::string &name,
                                       const std::string &suite,
                                       const MemoryImage &image,
                                       std::uint64_t inst_count,
                                       std::uint32_t chunk_insts)
    : os_(os), declared_(inst_count),
      chunkInsts_(std::max<std::uint32_t>(
          1, std::min(chunk_insts, kMaxChunkInsts)))
{
    os_.write(kMagicV2, sizeof(kMagicV2));
    put<std::uint32_t>(os_, chunkInsts_);
    put<std::uint64_t>(os_, declared_);
    putString(os_, name);
    putString(os_, suite);

    std::vector<std::pair<Addr, const std::uint8_t *>> pages;
    image.forEachPage([&pages](Addr a, const std::uint8_t *p) {
        pages.emplace_back(a, p);
    });
    put<std::uint64_t>(os_, pages.size());
    for (const auto &[addr, bytes] : pages) {
        put<std::uint64_t>(os_, addr);
        os_.write(reinterpret_cast<const char *>(bytes),
                  MemoryImage::kPageSize);
    }
    payload_.reserve(chunkInsts_ * 24);
}

void
ChunkedTraceWriter::add(const TraceInst &inst)
{
    encodeInst(payload_, inst, prevPc_, prevMem_);
    if (++added_ % chunkInsts_ == 0)
        flushChunk();
}

void
ChunkedTraceWriter::flushChunk()
{
    const std::uint32_t count = static_cast<std::uint32_t>(
        added_ - std::uint64_t{chunkCount_} * chunkInsts_);
    chunkOffsets_.push_back(
        static_cast<std::uint64_t>(os_.tellp()));
    put<std::uint32_t>(os_, count);
    put<std::uint32_t>(os_,
                       static_cast<std::uint32_t>(payload_.size()));
    put<std::uint64_t>(os_, fnv1a(payload_.data(), payload_.size()));
    os_.write(payload_.data(),
              static_cast<std::streamsize>(payload_.size()));
    payload_.clear();
    prevPc_ = 0;
    prevMem_ = 0;
    ++chunkCount_;
}

bool
ChunkedTraceWriter::finish()
{
    if (finished_)
        return false;
    finished_ = true;
    if (added_ != declared_)
        return false;
    if (!payload_.empty())
        flushChunk();
    const std::uint64_t index_offset =
        static_cast<std::uint64_t>(os_.tellp());
    for (const std::uint64_t off : chunkOffsets_)
        put<std::uint64_t>(os_, off);
    put<std::uint64_t>(os_, index_offset);
    os_.write(kTailMagic, sizeof(kTailMagic));
    return static_cast<bool>(os_);
}

bool
saveTraceV2(const Trace &trace, std::ostream &os,
            std::uint32_t chunk_insts)
{
    ChunkedTraceWriter w(os, trace.name, trace.suite,
                         trace.initialImage, trace.size(),
                         chunk_insts);
    trace.forEachInst(
        [&w](const TraceInst &inst) { w.add(inst); });
    return w.finish();
}

bool
saveTraceFileV2(const Trace &trace, const std::string &path,
                std::uint32_t chunk_insts)
{
    std::ofstream os(path, std::ios::binary);
    return os && saveTraceV2(trace, os, chunk_insts);
}

// ---------------------------------------------------------------------
// Materializing loader (any istream, sequential)
// ---------------------------------------------------------------------

void
loadTraceV2OrThrow(Trace &trace, std::istream &is)
{
    // Caller (trace_io) verified the 8 magic bytes; re-verify here so
    // the function is safe standalone.
    char magic[8];
    is.read(magic, sizeof(magic));
    if (!is || std::memcmp(magic, kMagicV2, sizeof(kMagicV2)) != 0)
        corruptErr("bad magic");
    const HeaderV2 h = readHeaderV2(is, trace.initialImage);
    trace.name = h.name;
    trace.suite = h.suite;

    // Reject counts that promise more instructions than the remaining
    // bytes could possibly encode, before any multi-GB reserve().
    const std::streamoff left = bytesRemaining(is);
    if (left >= 0 &&
        h.instCount >
            static_cast<std::uint64_t>(left) / kMinEncodedInst)
        corruptErr("instruction count exceeds file size");

    const std::uint64_t nchunks =
        numChunksFor(h.instCount, h.chunkInsts);
    trace.insts.clear();
    trace.insts.reserve(h.instCount);
    std::string payload;
    std::vector<TraceInst> decoded;
    for (std::uint64_t ci = 0; ci < nchunks; ++ci) {
        std::uint32_t count = 0, enc_len = 0;
        std::uint64_t checksum = 0;
        if (!get(is, count) || !get(is, enc_len) ||
            !get(is, checksum))
            corruptErr("truncated chunk header");
        const std::uint64_t expect =
            ci + 1 < nchunks
                ? h.chunkInsts
                : h.instCount - ci * h.chunkInsts;
        if (count != expect)
            corruptErr("chunk instruction count mismatch");
        const std::streamoff chunk_left = bytesRemaining(is);
        if (chunk_left >= 0 &&
            enc_len > static_cast<std::uint64_t>(chunk_left))
            corruptErr("chunk length exceeds file size");
        payload.resize(enc_len);
        is.read(payload.data(), enc_len);
        if (!is)
            corruptErr("truncated chunk payload");
        decodeChunkPayload(payload.data(), enc_len, count, checksum,
                           decoded);
        trace.insts.insert(trace.insts.end(), decoded.begin(),
                           decoded.end());
    }

    // Validate the index footer too: a file truncated after its last
    // chunk would otherwise load sequentially but fail random access
    // (ChunkedTraceFile::open) — the formats must agree on validity.
    std::vector<char> footer(nchunks * 8 + 8 + sizeof(kTailMagic));
    is.read(footer.data(),
            static_cast<std::streamsize>(footer.size()));
    if (!is || std::memcmp(footer.data() + footer.size() -
                               sizeof(kTailMagic),
                           kTailMagic, sizeof(kTailMagic)) != 0)
        corruptErr("truncated or malformed index footer");
}

// ---------------------------------------------------------------------
// Random-access file handle
// ---------------------------------------------------------------------

ChunkedTraceFile::~ChunkedTraceFile() = default;

std::shared_ptr<ChunkedTraceFile>
ChunkedTraceFile::open(const std::string &path)
{
    auto self =
        std::shared_ptr<ChunkedTraceFile>(new ChunkedTraceFile());
    self->path_ = path;

    std::ifstream file(path, std::ios::binary);
    if (!file)
        throw common::RunError(common::ErrorKind::IoCorrupt,
                               "cannot open trace file '" + path +
                                   "'");

    // Fault-injection path (tests): pull the whole file through the
    // plan's trunc/flip rules and serve every read from the mutated
    // copy. The production path below never materializes the file.
    const common::FaultPlan &plan = common::FaultPlan::global();
    std::unique_ptr<std::istream> owned;
    std::istream *is = &file;
    if (!plan.empty()) {
        std::string bytes(
            (std::istreambuf_iterator<char>(file)),
            std::istreambuf_iterator<char>());
        if (plan.corrupt(bytes))
            self->corrupted_ = bytes;
        owned = std::make_unique<std::istringstream>(
            self->corrupted_.empty() ? std::move(bytes)
                                     : self->corrupted_);
        is = owned.get();
    }

    char magic[8];
    is->read(magic, sizeof(magic));
    if (!*is || std::memcmp(magic, kMagicV2, sizeof(kMagicV2)) != 0)
        corruptErr("bad magic (not a dlvp v2 trace file)");
    const HeaderV2 h = readHeaderV2(*is, self->image_);
    self->name_ = h.name;
    self->suite_ = h.suite;
    self->instCount_ = h.instCount;
    self->chunkInsts_ = h.chunkInsts;

    // Index footer: ... | u64 chunkOffset[n] | u64 indexOffset | tail.
    is->seekg(0, std::ios::end);
    const std::streamoff file_size = is->tellg();
    if (file_size < 0)
        corruptErr("stream not seekable");
    self->fileBytes_ = static_cast<std::uint64_t>(file_size);
    const std::uint64_t nchunks =
        numChunksFor(h.instCount, h.chunkInsts);
    const std::uint64_t tail_bytes = 8 + 8 + nchunks * 8;
    if (static_cast<std::uint64_t>(file_size) < tail_bytes)
        corruptErr("file too small for index footer");
    is->seekg(static_cast<std::streamoff>(file_size - 16));
    std::uint64_t index_offset = 0;
    char tail[8];
    if (!get(*is, index_offset) ||
        !is->read(tail, sizeof(tail)))
        corruptErr("truncated index footer");
    if (std::memcmp(tail, kTailMagic, sizeof(kTailMagic)) != 0)
        corruptErr("bad index footer magic");
    if (index_offset + tail_bytes !=
        static_cast<std::uint64_t>(file_size))
        corruptErr("index footer offset inconsistent");
    is->seekg(static_cast<std::streamoff>(index_offset));
    self->chunkOffsets_.resize(nchunks);
    for (std::uint64_t ci = 0; ci < nchunks; ++ci) {
        if (!get(*is, self->chunkOffsets_[ci]))
            corruptErr("truncated chunk index");
        if (self->chunkOffsets_[ci] + kChunkHeaderBytes >
            index_offset)
            corruptErr("chunk offset out of range");
        if (ci > 0 &&
            self->chunkOffsets_[ci] <= self->chunkOffsets_[ci - 1])
            corruptErr("chunk offsets not ascending");
    }
    self->encodedBytes_ =
        nchunks == 0
            ? 0
            : index_offset - self->chunkOffsets_.front() -
                  nchunks * kChunkHeaderBytes;

    if (self->corrupted_.empty())
        self->file_ = std::make_unique<std::ifstream>(
            path, std::ios::binary);
    return self;
}

void
ChunkedTraceFile::readAt(std::uint64_t offset, char *out,
                         std::uint64_t len) const
{
    if (!corrupted_.empty()) {
        if (offset + len > corrupted_.size())
            corruptErr("read past end of (corrupted) file");
        std::memcpy(out, corrupted_.data() + offset, len);
        return;
    }
    file_->clear();
    file_->seekg(static_cast<std::streamoff>(offset));
    file_->read(out, static_cast<std::streamsize>(len));
    if (!*file_)
        corruptErr("short read from trace file");
}

ChunkedTraceFile::ChunkPtr
ChunkedTraceFile::chunk(std::uint64_t ci) const
{
    if (ci >= chunkOffsets_.size())
        corruptErr("chunk index out of range");
    std::lock_guard<std::mutex> lk(mutex_);
    for (std::size_t k = 0; k < cache_.size(); ++k) {
        if (cache_[k].ci == ci) {
            // Move to front (MRU).
            if (k != 0)
                std::rotate(cache_.begin(), cache_.begin() + k,
                            cache_.begin() + k + 1);
            return cache_.front().data;
        }
    }
    char header[kChunkHeaderBytes];
    readAt(chunkOffsets_[ci], header, sizeof(header));
    const std::uint32_t count = loadScalar<std::uint32_t>(header);
    const std::uint32_t enc_len =
        loadScalar<std::uint32_t>(header + 4);
    const std::uint64_t checksum =
        loadScalar<std::uint64_t>(header + 8);
    const std::uint64_t expect =
        ci + 1 < chunkOffsets_.size()
            ? chunkInsts_
            : instCount_ - ci * chunkInsts_;
    if (count != expect)
        corruptErr("chunk instruction count mismatch");
    if (enc_len > std::uint64_t{count} * kMaxEncodedInst)
        corruptErr("chunk length implausible");
    std::string payload(enc_len, '\0');
    readAt(chunkOffsets_[ci] + kChunkHeaderBytes, payload.data(),
           enc_len);
    auto decoded = std::make_shared<std::vector<TraceInst>>();
    decodeChunkPayload(payload.data(), enc_len, count, checksum,
                       *decoded);
    cache_.insert(cache_.begin(), CacheEntry{ci, decoded});
    // The remaining sharers are concurrent sweep cells reading one
    // TraceStore-held streamed trace: cells that start together walk
    // it near each other, so a handful of recent chunks lets them
    // decode each chunk once. A cell that falls further behind just
    // re-decodes (and re-validates) the chunk it needs.
    constexpr std::size_t kMaxCached = 4;
    if (cache_.size() > kMaxCached)
        cache_.resize(kMaxCached);
    peakCached_ = std::max(peakCached_, cache_.size());
    return decoded;
}

// ---------------------------------------------------------------------
// Cursor
// ---------------------------------------------------------------------

void
TraceCursor::reset(const Trace &t)
{
    trace_ = &t;
    pins_.clear();
    maxPinned_ = 0;
    if (!t.streamed()) {
        window_ = t.insts.data();
        base_ = 0;
        count_ = t.insts.size();
        minPinEnd_ = static_cast<std::size_t>(-1);
    } else {
        window_ = nullptr;
        base_ = 0;
        count_ = 0;
        minPinEnd_ = static_cast<std::size_t>(-1);
    }
}

const TraceInst &
TraceCursor::miss(std::size_t i)
{
    if (trace_ == nullptr || !trace_->streamed() ||
        i >= trace_->size())
        throw common::RunError(common::ErrorKind::Internal,
                               "trace cursor read out of range");
    const ChunkedTraceFile &file = *trace_->stream();
    const std::uint64_t ci = i / file.chunkInsts();
    const std::size_t begin =
        static_cast<std::size_t>(file.chunkStart(ci));
    for (const Pin &pin : pins_) {
        if (pin.begin == begin) {
            window_ = pin.data->data();
            base_ = pin.begin;
            count_ = pin.end - pin.begin;
            return window_[i - base_];
        }
    }
    Pin pin;
    pin.data = file.chunk(ci);
    pin.begin = begin;
    pin.end = begin + pin.data->size();
    pins_.push_back(pin);
    maxPinned_ = std::max(maxPinned_, pins_.size());
    minPinEnd_ = std::min(minPinEnd_, pin.end);
    window_ = pin.data->data();
    base_ = pin.begin;
    count_ = pin.end - pin.begin;
    return window_[i - base_];
}

void
TraceCursor::drop(std::size_t i)
{
    // Keep any pin that still covers a live instruction, and always
    // keep the active window's pin.
    std::size_t w = 0;
    for (std::size_t k = 0; k < pins_.size(); ++k) {
        if (pins_[k].end > i || pins_[k].begin == base_)
            pins_[w++] = pins_[k];
    }
    pins_.resize(w);
    minPinEnd_ = static_cast<std::size_t>(-1);
    for (const Pin &pin : pins_)
        minPinEnd_ = std::min(minPinEnd_, pin.end);
}

} // namespace dlvp::trace
