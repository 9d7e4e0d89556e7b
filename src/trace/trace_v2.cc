#include "trace_v2.hh"

#include <algorithm>
#include <bit>
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

constexpr char kMagicV2[8] = {'D', 'L', 'V', 'P', 'T', 'R', 'C',
                              kChunkedTraceVersion};
constexpr char kTailMagic[8] = {'D', 'L', 'V', 'P', 'I', 'D', 'X', '2'};

/** An on-disk version byte (magic byte 7) that is no longer read, and
 *  the io_corrupt message that refuses it. */
struct RetiredVersion
{
    char byte;
    const char *message;
};

constexpr RetiredVersion kRetiredVersions[] = {
    {'1', "on-disk version 1 is the retired dlvp-trace-v1 record format; "
          "regenerate the file with `dlvp_cli gen`"},
    {'2', "on-disk version 2 uses the retired FNV-1a chunk checksum; the "
          "file must be regenerated"},
};

/** Per-chunk header: u32 count | u32 encLen | u64 checksum. */
constexpr std::uint64_t kChunkHeaderBytes = 4 + 4 + 8;

/** Hard ceilings a corrupt header cannot push past. */
constexpr std::uint32_t kMaxChunkInsts = 1u << 22;
constexpr std::uint64_t kMaxInstCount = std::uint64_t{1} << 33;

/** A record's fixed bytes: cls, loadKind, flags, numSrcs, srcs, numDests,
 *  destBase, memSize. */
constexpr std::uint64_t kFixedInstBytes = 7 + kMaxSrcs;

/** Longest LEB128 varint of a 64-bit value: ceil(64 / 7) bytes. */
constexpr std::uint64_t kMaxVarintBytes = (64 + 6) / 7;

/**
 * Worst-case encoded instruction: 10 fixed bytes + 5 full varints (pc,
 * memAddr, storeValue, destValue, branchTarget). encodeInst writes
 * through a pointer into a region this long, so the bound must hold.
 */
constexpr std::uint64_t kMaxEncodedInst = 10 + 5 * 10;
static_assert(kFixedInstBytes == 10 &&
                  kMaxEncodedInst == kFixedInstBytes + 5 * kMaxVarintBytes,
              "kMaxEncodedInst must cover the longest record");

/** Smallest encodable instruction: 10 fixed bytes + 4 1-byte varints. */
constexpr std::uint64_t kMinEncodedInst = kFixedInstBytes + 4;

[[noreturn]] void
corruptErr(const std::string &what)
{
    throw common::RunError(common::ErrorKind::IoCorrupt,
                           "trace file (v2): " + what);
}

/** Read the magic from @p is; throw unless it is the current version's. */
void
readMagic(std::istream &is)
{
    char magic[8] = {};
    is.read(magic, sizeof(magic));
    if (is && std::memcmp(magic, kMagicV2, 7) == 0)
        for (const RetiredVersion &r : kRetiredVersions)
            if (magic[7] == r.byte)
                corruptErr(r.message);
    if (!is || std::memcmp(magic, kMagicV2, sizeof(kMagicV2)) != 0)
        corruptErr("bad magic (not a dlvp v2 trace file)");
}

// The chunk checksum, defined (and its detection guarantee argued) in
// trace_v2.hh's file comment.
static_assert(std::endian::native == std::endian::little,
              "the v2 format stores little-endian words natively");

constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kP3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ULL;

template <typename T>
T
loadScalar(const char *p)
{
    T v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

/** One lane step: a bijection of @p acc for fixed @p w, and of @p w
 *  for fixed @p acc. */
std::uint64_t
laneRound(std::uint64_t acc, std::uint64_t w)
{
    return std::rotl(acc + w * kP2, 31) * kP1;
}

std::uint64_t
chunkChecksum(const char *data, std::size_t len)
{
    const char *p = data;
    const char *const end = data + len;
    std::uint64_t v0 = kP1 + kP2, v1 = kP2, v2 = 0, v3 = 0 - kP1;
    using W = std::uint64_t;
    for (; end - p >= 32; p += 32) {
        v0 = laneRound(v0, loadScalar<W>(p));
        v1 = laneRound(v1, loadScalar<W>(p + 8));
        v2 = laneRound(v2, loadScalar<W>(p + 16));
        v3 = laneRound(v3, loadScalar<W>(p + 24));
    }
    std::uint64_t h = std::rotl(v0, 1) + std::rotl(v1, 7) +
                      std::rotl(v2, 12) + std::rotl(v3, 18);
    h += len;
    for (; end - p >= 8; p += 8)
        h = std::rotl(h ^ laneRound(0, loadScalar<W>(p)), 27) * kP1 + kP4;
    for (; p < end; ++p)
        h = std::rotl(h ^ (static_cast<unsigned char>(*p) * kP5), 11) *
            kP1;
    h ^= h >> 33;
    h *= kP2;
    h ^= h >> 29;
    h *= kP3;
    h ^= h >> 32;
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

/** Write @p v as a LEB128 varint at @p p; returns the byte after it. */
char *
putVarint(char *p, std::uint64_t v)
{
    while (v >= 0x80) {
        *p++ = static_cast<char>((v & 0x7f) | 0x80);
        v >>= 7;
    }
    *p++ = static_cast<char>(v);
    return p;
}

/** Cursor over one chunk payload whose checksum was already verified. */
struct PayloadReader
{
    const char *p;
    const char *end;

    std::uint8_t byte() { return static_cast<std::uint8_t>(*p++); }

    /** Decode one LEB128 varint; corruptErr on overrun. */
    std::uint64_t
    varint()
    {
        std::uint64_t v = 0;
        unsigned shift = 0;
        while (p < end && shift < 70) {
            const std::uint8_t b = byte();
            v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
            if ((b & 0x80) == 0)
                return v;
            shift += 7;
        }
        corruptErr(p >= end ? "varint runs past chunk payload"
                            : "varint longer than 64 bits");
    }
};

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

/**
 * Bytes left in the stream, or -1 when the stream is not seekable.
 * Used to reject section counts that promise more payload than the
 * file holds, before any multi-GB allocation can fire.
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

/**
 * Append @p i's record to @p out: written through a pointer into a
 * kMaxEncodedInst-byte region, then trimmed to the bytes written.
 */
void
encodeInst(std::string &out, const TraceInst &i, Addr &prev_pc,
           Addr &prev_mem)
{
    const std::size_t at = out.size();
    out.resize(at + kMaxEncodedInst);
    char *p = out.data() + at;
    *p++ = static_cast<char>(i.cls);
    *p++ = static_cast<char>(i.loadKind);
    const bool has_bt = i.branchTarget != 0;
    *p++ = static_cast<char>((i.taken ? 1 : 0) | (has_bt ? 2 : 0));
    *p++ = static_cast<char>(i.numSrcs);
    for (unsigned k = 0; k < kMaxSrcs; ++k)
        *p++ = static_cast<char>(i.srcs[k]);
    *p++ = static_cast<char>(i.numDests);
    *p++ = static_cast<char>(i.destBase);
    *p++ = static_cast<char>(i.memSize);
    p = putVarint(p, zigzag(static_cast<std::int64_t>(i.pc - prev_pc)));
    p = putVarint(p, zigzag(static_cast<std::int64_t>(i.memAddr -
                                                      prev_mem)));
    p = putVarint(p, i.storeValue);
    p = putVarint(p, i.destValue);
    if (has_bt)
        p = putVarint(p, zigzag(static_cast<std::int64_t>(
                             i.branchTarget - i.pc)));
    out.resize(static_cast<std::size_t>(p - out.data()));
    prev_pc = i.pc;
    prev_mem = i.memAddr;
}

/** Decode the next record of @p r into @p i; corruptErr on a bad field. */
void
decodeInst(PayloadReader &r, Addr &prev_pc, Addr &prev_mem, TraceInst &i)
{
    if (static_cast<std::uint64_t>(r.end - r.p) < kFixedInstBytes)
        corruptErr("instruction record runs past chunk payload");
    const std::uint8_t cls = r.byte();
    const std::uint8_t kind = r.byte();
    const std::uint8_t flags = r.byte();
    i.numSrcs = r.byte();
    for (unsigned k = 0; k < kMaxSrcs; ++k)
        i.srcs[k] = r.byte();
    i.numDests = r.byte();
    i.destBase = r.byte();
    i.memSize = r.byte();
    // A flipped enum or width must not feed out-of-range values into
    // core lookup tables.
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
    i.pc = prev_pc + static_cast<Addr>(unzigzag(r.varint()));
    i.memAddr = prev_mem + static_cast<Addr>(unzigzag(r.varint()));
    i.storeValue = r.varint();
    i.destValue = r.varint();
    i.branchTarget =
        (flags & 2) ? i.pc + static_cast<Addr>(unzigzag(r.varint()))
                    : 0;
    prev_pc = i.pc;
    prev_mem = i.memAddr;
}

/**
 * Verify one chunk payload (post-header) against @p checksum, then
 * decode it into @p out[0, count). The error precedence follows: a
 * checksum mismatch, then a field or varint error, then trailing bytes
 * after the last record.
 */
void
decodeChunkPayload(const char *data, std::uint32_t enc_len,
                   std::uint32_t count, std::uint64_t checksum,
                   TraceInst *out)
{
    if (chunkChecksum(data, enc_len) != checksum)
        corruptErr("chunk checksum mismatch");
    PayloadReader r{data, data + enc_len};
    Addr prev_pc = 0, prev_mem = 0;
    for (std::uint32_t k = 0; k < count; ++k)
        decodeInst(r, prev_pc, prev_mem, out[k]);
    if (r.p != r.end)
        corruptErr("chunk payload has trailing bytes");
}

/** Read the memory image section (page count, then the pages). */
void
readImage(std::istream &is, MemoryImage &image)
{
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
    put<std::uint64_t>(os_,
                       chunkChecksum(payload_.data(), payload_.size()));
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

    readMagic(*is);
    if (!get(*is, self->chunkInsts_))
        corruptErr("truncated chunk size");
    if (self->chunkInsts_ == 0 || self->chunkInsts_ > kMaxChunkInsts)
        corruptErr("chunk size out of range");
    if (!get(*is, self->instCount_))
        corruptErr("truncated instruction count");
    if (self->instCount_ > kMaxInstCount)
        corruptErr("implausible instruction count");
    if (!getString(*is, self->name_) || !getString(*is, self->suite_))
        corruptErr("truncated or oversized name/suite header");
    readImage(*is, self->image_);
    // Reject counts that promise more instructions than the remaining
    // bytes could possibly encode: a small file must not declare a
    // trace whose first chunk decode is the first sign of trouble.
    const std::streamoff left = bytesRemaining(*is);
    if (left >= 0 && self->instCount_ > static_cast<std::uint64_t>(left) /
                                            kMinEncodedInst)
        corruptErr("instruction count exceeds file size");

    // Index footer: ... | u64 chunkOffset[n] | u64 indexOffset | tail.
    is->seekg(0, std::ios::end);
    const std::streamoff file_size = is->tellg();
    if (file_size < 0)
        corruptErr("stream not seekable");
    self->fileBytes_ = static_cast<std::uint64_t>(file_size);
    const std::uint64_t nchunks =
        numChunksFor(self->instCount_, self->chunkInsts_);
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
ChunkedTraceFile::cachedLocked(std::uint64_t ci) const
{
    for (std::size_t k = 0; k < cache_.size(); ++k) {
        if (cache_[k].ci == ci) {
            // Move to front (MRU).
            if (k != 0)
                std::rotate(cache_.begin(), cache_.begin() + k,
                            cache_.begin() + k + 1);
            return cache_.front().data;
        }
    }
    return nullptr;
}

void
ChunkedTraceFile::decodeLocked(std::uint64_t ci,
                               std::vector<TraceInst> &out) const
{
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
    if (readBuf_.size() < enc_len)
        readBuf_.resize(enc_len);
    readAt(chunkOffsets_[ci] + kChunkHeaderBytes, readBuf_.data(),
           enc_len);
    out.resize(count);
    decodeChunkPayload(readBuf_.data(), enc_len, count, checksum,
                       out.data());
}

void
ChunkedTraceFile::notePeakLocked() const
{
    const bool slotInUse = scanLeased_ || scanCi_ != kNoChunk;
    peakCached_ = std::max(peakCached_,
                           cache_.size() + (slotInUse ? 1 : 0));
}

ChunkedTraceFile::ChunkPtr
ChunkedTraceFile::chunk(std::uint64_t ci) const
{
    if (ci >= chunkOffsets_.size())
        corruptErr("chunk index out of range");
    std::lock_guard<std::mutex> lk(mutex_);
    if (ChunkPtr hit = cachedLocked(ci))
        return hit;
    auto decoded = std::make_shared<std::vector<TraceInst>>();
    decodeLocked(ci, *decoded);
    cache_.insert(cache_.begin(), CacheEntry{ci, decoded});
    // The remaining sharers are concurrent sweep cells reading one
    // TraceStore-held streamed trace: cells that start together walk
    // it near each other, so a handful of recent chunks lets them
    // decode each chunk once. A cell that falls further behind just
    // re-decodes (and re-validates) the chunk it needs.
    constexpr std::size_t kMaxCached = 4;
    if (cache_.size() > kMaxCached)
        cache_.resize(kMaxCached);
    notePeakLocked();
    return decoded;
}

void
ChunkedTraceFile::scan(std::uint64_t first, std::uint64_t last,
                       const ScanFn &fn) const
{
    if (last >= chunkOffsets_.size() || first > last)
        corruptErr("chunk index out of range");
    // Lease the scan slot: its buffer becomes this scan's decode
    // target, and its chunk (the last one the previous scan decoded)
    // is served as is. A scan that finds the slot leased by a
    // concurrent scan decodes into a buffer of its own.
    std::vector<TraceInst> buf;
    std::uint64_t bufCi = kNoChunk;
    bool leased = false;
    {
        std::lock_guard<std::mutex> lk(mutex_);
        if (!scanLeased_) {
            scanLeased_ = leased = true;
            buf.swap(scanBuf_);
            std::swap(bufCi, scanCi_);
        }
    }
    // Return the slot on every exit, holding the last chunk decoded
    // into it: an advanceImage that ends mid-chunk hands that chunk to
    // the slice that starts there.
    const auto giveBack = [&] {
        if (!leased)
            return;
        std::lock_guard<std::mutex> lk(mutex_);
        scanBuf_.swap(buf);
        scanCi_ = bufCi;
        scanLeased_ = false;
    };
    try {
        for (std::uint64_t ci = first; ci <= last; ++ci) {
            if (ci == bufCi) {
                fn(ci, buf.data(), buf.size());
                continue;
            }
            ChunkPtr hit;
            {
                std::lock_guard<std::mutex> lk(mutex_);
                hit = cachedLocked(ci);
                if (!hit) {
                    bufCi = kNoChunk; // buf is garbage if decode throws
                    decodeLocked(ci, buf);
                    bufCi = ci;
                    notePeakLocked();
                }
            }
            if (hit)
                fn(ci, hit->data(), hit->size());
            else
                fn(ci, buf.data(), buf.size());
        }
    } catch (...) {
        giveBack();
        throw;
    }
    giveBack();
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
