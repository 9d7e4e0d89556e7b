/**
 * @file
 * Mega-trace pipeline tests (ctest label "mega"): the dlvp-trace-v2
 * chunked format (round trips, corruption fuzzing, fault-plan
 * injection), the streaming reader's equivalence with materialized
 * traces and its O(chunk) memory bound, the mega-trace generator's
 * schedule/density contract, and the interval sampler's determinism —
 * bit-identical sampled CoreStats for any job count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <random>
#include <sstream>
#include <string>

#include <sys/wait.h>
#include <unistd.h>

#include "common/fault_inject.hh"
#include "common/run_error.hh"
#include "core/core.hh"
#include "sim/configs.hh"
#include "sim/sampler.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "trace/mega.hh"
#include "trace/trace_v2.hh"
#include "trace/workloads.hh"

namespace
{

using namespace dlvp;
using namespace dlvp::trace;

/** Temp-file helper that cleans up on scope exit. */
struct TempPath
{
    explicit TempPath(const char *name)
        : path(std::string("/tmp/dlvp_mega_test_") + name)
    {
    }
    ~TempPath() { std::remove(path.c_str()); }
    std::string path;
};

void
expectSameInsts(const Trace &a, const Trace &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].pc, b[i].pc) << i;
        EXPECT_EQ(a[i].cls, b[i].cls) << i;
        EXPECT_EQ(a[i].loadKind, b[i].loadKind) << i;
        EXPECT_EQ(a[i].memAddr, b[i].memAddr) << i;
        EXPECT_EQ(a[i].memSize, b[i].memSize) << i;
        EXPECT_EQ(a[i].storeValue, b[i].storeValue) << i;
        EXPECT_EQ(a[i].destValue, b[i].destValue) << i;
        EXPECT_EQ(a[i].numSrcs, b[i].numSrcs) << i;
        EXPECT_EQ(a[i].numDests, b[i].numDests) << i;
        EXPECT_EQ(a[i].taken, b[i].taken) << i;
        EXPECT_EQ(a[i].branchTarget, b[i].branchTarget) << i;
        if (::testing::Test::HasFailure())
            break;
    }
}

void
expectError(const std::string &what, const char *expected)
{
    EXPECT_NE(what.find(expected), std::string::npos)
        << "got: " << what << "\nexpected: " << expected;
}

/**
 * The chunk checksum, written out here from trace_v2.hh's format
 * comment, independently of the reader: words are assembled from bytes
 * by shifts, rotations by hand.
 */
std::uint64_t
specChecksum(const char *data, std::size_t len)
{
    constexpr std::uint64_t P1 = 0x9E3779B185EBCA87ULL;
    constexpr std::uint64_t P2 = 0xC2B2AE3D27D4EB4FULL;
    constexpr std::uint64_t P3 = 0x165667B19E3779F9ULL;
    constexpr std::uint64_t P4 = 0x85EBCA77C2B2AE63ULL;
    constexpr std::uint64_t P5 = 0x27D4EB2F165667C5ULL;
    const auto rotl = [](std::uint64_t x, unsigned r) {
        return (x << r) | (x >> (64 - r));
    };
    const auto word = [data](std::size_t at) {
        std::uint64_t w = 0;
        for (unsigned b = 0; b < 8; ++b)
            w |= std::uint64_t{static_cast<unsigned char>(data[at + b])}
                 << (8 * b);
        return w;
    };
    const auto round = [&](std::uint64_t a, std::uint64_t w) {
        return rotl(a + w * P2, 31) * P1;
    };
    std::uint64_t v[4] = {P1 + P2, P2, 0, ~P1 + 1};
    std::size_t at = 0;
    for (; at + 32 <= len; at += 32)
        for (unsigned k = 0; k < 4; ++k)
            v[k] = round(v[k], word(at + 8 * k));
    std::uint64_t h =
        rotl(v[0], 1) + rotl(v[1], 7) + rotl(v[2], 12) + rotl(v[3], 18);
    h += len;
    for (; at + 8 <= len; at += 8)
        h = rotl(h ^ round(0, word(at)), 27) * P1 + P4;
    for (; at < len; ++at)
        h = rotl(h ^ (static_cast<unsigned char>(data[at]) * P5), 11) *
            P1;
    h = (h ^ (h >> 33)) * P2;
    h = (h ^ (h >> 29)) * P3;
    return h ^ (h >> 32);
}

/** Offset of chunk 0 in a pageless v2 serialization of @p t. */
std::size_t
firstChunkOffset(const Trace &t)
{
    return 8 + 4 + 8 + 4 + t.name.size() + 4 + t.suite.size() + 8;
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

std::string
readBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(is)),
                       std::istreambuf_iterator<char>());
}

/**
 * Write @p bytes to @p path, open it and decode every chunk: "loaded",
 * or the io_corrupt message of the first check that failed.
 */
std::string
openError(const std::string &path, const std::string &bytes)
{
    writeBytes(path, bytes);
    try {
        const auto f = ChunkedTraceFile::open(path);
        for (std::uint64_t ci = 0; ci < f->numChunks(); ++ci)
            f->chunk(ci);
    } catch (const common::RunError &e) {
        EXPECT_EQ(e.kind(), common::ErrorKind::IoCorrupt);
        return e.what();
    }
    return "loaded";
}

/** Run `dlvp_cli @p args`; returns the exit status, stderr in @p err. */
int
runCli(const std::string &args, std::string &err)
{
    // Per process: ctest runs each test case as its own process.
    const TempPath errPath(
        ("cli_" + std::to_string(::getpid()) + ".err").c_str());
    const std::string cmd = std::string(DLVP_CLI_BIN) + " " + args +
                            " >/dev/null 2>" + errPath.path;
    const int status = std::system(cmd.c_str());
    err = readBytes(errPath.path);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

template <typename T>
void
poke(std::string &bytes, std::size_t at, T v)
{
    std::memcpy(bytes.data() + at, &v, sizeof(v));
}

template <typename T>
T
peek(const std::string &bytes, std::size_t at)
{
    T v;
    std::memcpy(&v, bytes.data() + at, sizeof(v));
    return v;
}

// ---------------------------------------------------------------------
// dlvp-trace-v2 format
// ---------------------------------------------------------------------

TEST(TraceIo, RoundTripPreservesEverything)
{
    const auto orig = WorkloadRegistry::build("crafty", 9000);
    TempPath p("round_trip.dt2");
    ASSERT_TRUE(saveTraceFileV2(orig, p.path, 2048));

    // The file decodes to the in-memory build: header, every page of
    // the image byte for byte, and every instruction.
    Trace back;
    back.attachStream(ChunkedTraceFile::open(p.path));
    EXPECT_EQ(back.name, orig.name);
    EXPECT_EQ(back.suite, orig.suite);
    EXPECT_EQ(back.verifyReplay(), back.size());
    const auto pages = [](const MemoryImage &image) {
        std::vector<std::pair<Addr, std::string>> out;
        image.forEachPage([&out](Addr a, const std::uint8_t *bytes) {
            out.emplace_back(a, std::string(reinterpret_cast<const char *>(
                                                bytes),
                                            MemoryImage::kPageSize));
        });
        return out;
    };
    ASSERT_GT(orig.initialImage.numPages(), 0u);
    EXPECT_TRUE(pages(back.initialImage) == pages(orig.initialImage))
        << "memory image changed";
    back.materialize();
    expectSameInsts(back, orig);
}

TEST(TraceIo, MissingFileFails)
{
    const std::string missing = "/nonexistent/path/x.dt2";
    try {
        ChunkedTraceFile::open(missing);
        FAIL() << "a missing file must not open";
    } catch (const common::RunError &e) {
        EXPECT_EQ(e.kind(), common::ErrorKind::IoCorrupt);
        expectError(e.what(), "cannot open trace file");
    }
    std::string err;
    EXPECT_EQ(runCli("runfile " + missing, err), 1);
    expectError(err, "io_corrupt: cannot open trace file");
}

TEST(TraceIo, FileRoundTrip)
{
    // `dlvp_cli gen` writes the file; the one reader reads back the
    // registry build's header and every instruction.
    const auto orig = WorkloadRegistry::build("idctrn", 3000);
    TempPath p("cli_gen.dt2");
    std::string err;
    ASSERT_EQ(runCli("gen idctrn " + p.path + " --insts 3000 --chunk-insts 512",
                     err),
              0)
        << err;
    Trace loaded;
    loaded.attachStream(ChunkedTraceFile::open(p.path));
    EXPECT_EQ(loaded.name, orig.name);
    EXPECT_EQ(loaded.suite, orig.suite);
    EXPECT_EQ(loaded.stream()->numChunks(), 6u);
    loaded.materialize();
    expectSameInsts(loaded, orig);
}

TEST(TraceIo, LoadedTraceSimulatesIdentically)
{
    // Materialized from the file (not streamed from it), the trace
    // simulates exactly like the in-memory build.
    const auto orig = WorkloadRegistry::build("crafty", 10000);
    TempPath p("loaded.dt2");
    ASSERT_TRUE(saveTraceFileV2(orig, p.path, 2048));
    Trace loaded;
    loaded.attachStream(ChunkedTraceFile::open(p.path));
    loaded.materialize();
    ASSERT_FALSE(loaded.streamed());

    sim::Simulator s(sim::baselineCore(), orig.size());
    const auto a = s.run(orig, sim::dlvpConfig());
    const auto b = s.run(loaded, sim::dlvpConfig());
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.vpPredictedLoads, b.vpPredictedLoads);
    EXPECT_TRUE(a == b) << "a materialized file changed CoreStats";
}

TEST(TraceIo, RejectsGarbage)
{
    // Inputs with no valid magic, from empty to a page of seeded
    // noise, are refused at open() and by runfile.
    std::mt19937_64 rng(0x9a4ba9eULL);
    std::string noise(4096, '\0');
    for (char &c : noise)
        c = static_cast<char>(rng());
    TempPath p("garbage_in.dt2");
    for (const std::string &bytes :
         {std::string(), std::string("DLVP"), std::string("DLVPTRC"),
          std::string(64, '\0'), noise}) {
        expectError(openError(p.path, bytes), "bad magic");
        std::string err;
        EXPECT_EQ(runCli("runfile " + p.path, err), 1) << bytes.size();
        expectError(err, "io_corrupt");
    }
}

TEST(TraceIo, RejectsTruncation)
{
    // A file cut in half on disk: open() refuses it (its index footer
    // is gone), and so does runfile.
    const auto orig = WorkloadRegistry::build("viterb", 2000);
    TempPath p("half.dt2");
    ASSERT_TRUE(saveTraceFileV2(orig, p.path, 256));
    const std::string full = readBytes(p.path);
    writeBytes(p.path, full.substr(0, full.size() / 2));
    EXPECT_THROW(ChunkedTraceFile::open(p.path), common::RunError);
    std::string err;
    EXPECT_EQ(runCli("runfile " + p.path, err), 1);
    expectError(err, "io_corrupt");
}

TEST(TraceV2, RoundTripIsBitIdenticalToV1)
{
    // Named for the retired v1 format it was once checked against. A
    // file decoded and written again is byte for byte the same file,
    // and decodes to the in-memory build.
    const auto orig = WorkloadRegistry::build("crafty", 9000);
    std::stringstream first;
    ASSERT_TRUE(saveTraceV2(orig, first, 2048));
    TempPath p("bit_identical.dt2");
    writeBytes(p.path, first.str());

    Trace back;
    back.attachStream(ChunkedTraceFile::open(p.path));
    back.materialize();
    expectSameInsts(back, orig);
    std::stringstream second;
    ASSERT_TRUE(saveTraceV2(back, second, 2048));
    EXPECT_TRUE(second.str() == first.str())
        << "re-encoding a decoded file changed its bytes";
}

TEST(TraceV2, ConvertedTraceSimulatesIdentically)
{
    const auto orig = WorkloadRegistry::build("mcf", 12000);
    TempPath p("convert.dt2");
    ASSERT_TRUE(saveTraceFileV2(orig, p.path, 4096));
    Trace loaded;
    loaded.attachStream(ChunkedTraceFile::open(p.path));

    sim::Simulator s(sim::baselineCore(), orig.size());
    const auto a = s.run(orig, sim::dlvpConfig());
    const auto b = s.run(loaded, sim::dlvpConfig());
    EXPECT_TRUE(a == b) << "v2 round trip changed CoreStats";
}

TEST(TraceV2, StreamedRunMatchesMaterialized)
{
    const auto orig = WorkloadRegistry::build("vpr", 20000);
    TempPath p("streamed.dt2");
    ASSERT_TRUE(saveTraceFileV2(orig, p.path, 1024));

    Trace streamed;
    streamed.attachStream(ChunkedTraceFile::open(p.path));
    ASSERT_TRUE(streamed.streamed());
    ASSERT_EQ(streamed.size(), orig.size());
    EXPECT_EQ(streamed.verifyReplay(), streamed.size());
    // A full scan decodes into the one scan slot, never the shared
    // cache the cursors use.
    EXPECT_LE(streamed.stream()->peakCachedChunks(), 1u);

    sim::Simulator s(sim::baselineCore(), orig.size());
    const auto a = s.run(orig, sim::dlvpConfig());
    const auto b = s.run(streamed, sim::dlvpConfig());
    EXPECT_TRUE(a == b) << "streaming changed CoreStats";

    // O(chunk) bound: the reader may pin the in-flight window's chunks
    // plus the fetch lookahead, never anything close to the whole
    // trace (20 chunks at 1024 insts each).
    EXPECT_LE(streamed.stream()->peakCachedChunks(), 6u);
}

TEST(TraceV2, WriterRejectsCountMismatch)
{
    const auto t = WorkloadRegistry::build("viterb", 1000);
    std::stringstream os;
    ChunkedTraceWriter w(os, t.name, t.suite, t.initialImage,
                         t.size() + 1);
    for (std::size_t i = 0; i < t.size(); ++i)
        w.add(t[i]);
    EXPECT_FALSE(w.finish()) << "declared count not reached";
}

/** Reference varint encoder: one push_back per byte. */
void
refVarint(std::string &out, std::uint64_t v)
{
    for (; v >= 0x80; v >>= 7)
        out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    out.push_back(static_cast<char>(v));
}

std::uint64_t
refZigzag(std::uint64_t delta)
{
    const auto v = static_cast<std::int64_t>(delta);
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

/** Reference record encoder, from trace_v2.hh's payload layout. */
void
refEncode(std::string &out, const TraceInst &i, Addr &prevPc,
          Addr &prevMem)
{
    out.push_back(static_cast<char>(i.cls));
    out.push_back(static_cast<char>(i.loadKind));
    out.push_back(static_cast<char>((i.taken ? 1 : 0) |
                                    (i.branchTarget != 0 ? 2 : 0)));
    out.push_back(static_cast<char>(i.numSrcs));
    for (const std::uint8_t src : i.srcs)
        out.push_back(static_cast<char>(src));
    out.push_back(static_cast<char>(i.numDests));
    out.push_back(static_cast<char>(i.destBase));
    out.push_back(static_cast<char>(i.memSize));
    refVarint(out, refZigzag(i.pc - prevPc));
    refVarint(out, refZigzag(i.memAddr - prevMem));
    refVarint(out, i.storeValue);
    refVarint(out, i.destValue);
    if (i.branchTarget != 0)
        refVarint(out, refZigzag(i.branchTarget - i.pc));
    prevPc = i.pc;
    prevMem = i.memAddr;
}

/** A record whose five varints all take 10 bytes after @p prev. */
TraceInst
worstCaseInst(const TraceInst &prev)
{
    constexpr Addr kHalf = Addr{1} << 63;
    TraceInst i;
    i.cls = OpClass::CondBranch;
    i.numSrcs = 3;
    i.srcs[0] = i.srcs[1] = i.srcs[2] = 0xff;
    i.numDests = 16;
    i.destBase = 0xff;
    i.memSize = 64;
    i.taken = true;
    i.pc = prev.pc + kHalf;         // zigzag(INT64_MIN) = 2^64 - 1
    i.memAddr = prev.memAddr + kHalf;
    i.storeValue = ~std::uint64_t{0};
    i.destValue = ~std::uint64_t{0};
    i.branchTarget = i.pc + (Addr{1} << 62); // zigzag = 2^63
    return i;
}

TEST(TraceV2, EncoderMatchesReferenceEncoding)
{
    // A real trace with worst-case records at chunk starts, mid-chunk
    // and at the end.
    const Trace src = WorkloadRegistry::build("crafty", 3000);
    Trace t;
    t.name = src.name;
    t.suite = src.suite;
    for (std::size_t k = 0; k < src.size(); ++k) {
        if (k % 97 == 0 || k % 256 == 0)
            t.insts.push_back(worstCaseInst(
                t.insts.empty() ? TraceInst{} : t.insts.back()));
        t.insts.push_back(src[k]);
    }
    t.insts.push_back(worstCaseInst(t.insts.back()));
    constexpr std::uint32_t kChunk = 256;
    std::stringstream buf;
    ASSERT_TRUE(saveTraceV2(t, buf, kChunk));
    const std::string bytes = buf.str();

    std::size_t at = firstChunkOffset(t);
    std::size_t worst = 0;
    for (std::size_t first = 0; first < t.size(); first += kChunk) {
        std::uint32_t count = 0, encLen = 0;
        std::uint64_t checksum = 0;
        ASSERT_LE(at + 16, bytes.size());
        std::memcpy(&count, bytes.data() + at, 4);
        std::memcpy(&encLen, bytes.data() + at + 4, 4);
        std::memcpy(&checksum, bytes.data() + at + 8, 8);
        ASSERT_EQ(count, std::min<std::size_t>(kChunk, t.size() - first));
        std::string ref;
        Addr prevPc = 0, prevMem = 0;
        for (std::size_t k = first; k < first + count; ++k) {
            const std::size_t before = ref.size();
            refEncode(ref, t[k], prevPc, prevMem);
            if (ref.size() - before == 10 + 5 * 10)
                ++worst;
        }
        ASSERT_EQ(encLen, ref.size()) << "chunk at " << first;
        EXPECT_EQ(bytes.compare(at + 16, encLen, ref), 0)
            << "chunk at " << first;
        EXPECT_EQ(checksum, specChecksum(ref.data(), ref.size()))
            << "chunk at " << first;
        at += 16 + encLen;
    }
    EXPECT_GE(worst, 30u) << "worst-case records not exercised";

    // And the reader decodes every record back.
    TempPath p("reference.dt2");
    writeBytes(p.path, bytes);
    Trace back;
    back.attachStream(ChunkedTraceFile::open(p.path));
    back.materialize();
    expectSameInsts(back, t);
}

TEST(TraceV2, RetiredVersionsAreRejected)
{
    const auto orig = WorkloadRegistry::build("gzip", 3000);
    TempPath p("retired.dt2");
    ASSERT_TRUE(saveTraceFileV2(orig, p.path, 1024));
    const std::string current = readBytes(p.path);
    ASSERT_EQ(current.compare(0, 8, "DLVPTRC3"), 0);

    // Byte 7 of the magic names the on-disk version.
    const struct
    {
        char version;
        const char *message;
    } retired[] = {
        {'1', "on-disk version 1 is the retired dlvp-trace-v1 record "
              "format; regenerate the file with `dlvp_cli gen`"},
        {'2', "uses the retired FNV-1a chunk checksum; the file must be "
              "regenerated"},
    };
    for (const auto &r : retired) {
        SCOPED_TRACE(std::string("version ") + r.version);
        std::string bytes = current;
        bytes[7] = r.version;
        expectError(openError(p.path, bytes), r.message);

        std::string err;
        EXPECT_EQ(runCli("runfile " + p.path, err), 1);
        expectError(err, "io_corrupt");
        expectError(err, r.message);
    }
}

// ---------------------------------------------------------------------
// Corruption fuzzing: every corrupt file fails cleanly with
// RunError{io_corrupt} at open() or at the first decode of the bad
// chunk, never a crash (DESIGN.md §9's io_corrupt taxonomy). Each case
// writes the bytes to a file, opens it and reads every chunk.
// ---------------------------------------------------------------------

std::string
serializedV2(std::size_t insts = 3000, std::uint32_t chunk = 512)
{
    const auto orig = WorkloadRegistry::build("viterb", insts);
    std::stringstream buf;
    if (!saveTraceV2(orig, buf, chunk))
        ADD_FAILURE() << "saveTraceV2 failed";
    return buf.str();
}

TEST(TraceV2Fuzz, EveryTruncationPointFailsCleanly)
{
    TempPath p("truncated.dt2");
    const std::string full = serializedV2();
    ASSERT_GT(full.size(), 512u);
    std::vector<std::size_t> cuts;
    for (std::size_t n = 0; n <= 256 && n < full.size(); ++n)
        cuts.push_back(n);
    for (std::size_t n = 257; n < full.size(); n += 131)
        cuts.push_back(n);
    cuts.push_back(full.size() - 1);
    for (const std::size_t n : cuts)
        EXPECT_NE(openError(p.path, full.substr(0, n)), "loaded")
            << "cut at " << n;
}

TEST(TraceV2Fuzz, RandomBitFlipsNeverCrash)
{
    TempPath p("flipped.dt2");
    const std::string full = serializedV2();
    std::mt19937_64 rng(0xc0ffee5eedULL);
    std::size_t rejected = 0;
    for (int trial = 0; trial < 200; ++trial) {
        std::string bytes = full;
        const int nflips = 1 + static_cast<int>(rng() % 4);
        for (int f = 0; f < nflips; ++f) {
            const std::size_t byte = rng() % bytes.size();
            bytes[byte] = static_cast<char>(
                static_cast<unsigned char>(bytes[byte]) ^
                (1u << (rng() % 8)));
        }
        if (openError(p.path, bytes) != "loaded")
            ++rejected;
    }
    // Payload bytes are checksummed, so the reject rate must be high
    // (image-page flips may still load).
    EXPECT_GT(rejected, 150u);
}

TEST(TraceV2Fuzz, PayloadFlipReportsChecksumMismatch)
{
    const auto orig = WorkloadRegistry::build("viterb", 1000);
    Trace pageless = orig;
    pageless.initialImage = MemoryImage(); // put chunk 0 right after
                                           // the fixed-size header
    std::stringstream buf;
    ASSERT_TRUE(saveTraceV2(pageless, buf, 256));
    std::string bytes = buf.str();
    // Flip a byte well inside chunk 0's payload (past its 16-byte
    // count/encLen/checksum header).
    bytes[firstChunkOffset(orig) + 16 + 40] ^= 0x10;
    TempPath p("payload_flip.dt2");
    expectError(openError(p.path, bytes), "checksum");
}

/**
 * A pageless v2 serialization whose chunk 0 starts at a known offset,
 * with accessors for that chunk's header and payload so a test can
 * corrupt the payload and then restamp (or keep) its checksum.
 */
struct Chunk0
{
    Chunk0()
    {
        Trace pageless = WorkloadRegistry::build("viterb", 1000);
        pageless.initialImage = MemoryImage();
        std::stringstream buf;
        EXPECT_TRUE(saveTraceV2(pageless, buf, 256));
        bytes = buf.str();
        header = firstChunkOffset(pageless);
    }

    std::uint32_t encLen() const
    {
        return peek<std::uint32_t>(bytes, header + 4);
    }

    std::size_t payload() const { return header + 16; }

    void
    restampChecksum()
    {
        poke(bytes, header + 8,
             specChecksum(bytes.data() + payload(), encLen()));
    }

    /** The io_corrupt message of reading these bytes from @p path. */
    std::string
    loadError(const std::string &path) const
    {
        return openError(path, bytes);
    }

    std::string bytes;
    std::size_t header = 0;
};

TEST(TraceV2Fuzz, ChecksumMismatchOutranksFieldErrors)
{
    // Byte 0 of the payload is the first record's op class.
    TempPath p("precedence.dt2");
    Chunk0 c;
    c.bytes[c.payload()] = static_cast<char>(0xff);
    expectError(c.loadError(p.path), "chunk checksum mismatch");
    c.restampChecksum();
    expectError(c.loadError(p.path), "instruction op class out of range");
}

TEST(TraceV2Fuzz, EverySingleByteChangeIsDetected)
{
    // The checksum's guarantee (trace_v2.hh): a change confined to one
    // word or tail byte is always detected. Flip every payload byte of
    // a real chunk in turn.
    TempPath p("every_byte.dt2");
    const Chunk0 clean;
    ASSERT_EQ(clean.loadError(p.path), "loaded");
    ASSERT_GT(clean.encLen(), 64u);
    for (std::size_t i = 0; i < clean.encLen(); ++i) {
        Chunk0 c = clean;
        c.bytes[c.payload() + i] ^= static_cast<char>(0xff);
        expectError(c.loadError(p.path), "chunk checksum mismatch");
        if (::testing::Test::HasFailure()) {
            ADD_FAILURE() << "payload byte " << i;
            return;
        }
    }

    // Swapping two adjacent words moves each into the other's lane.
    Chunk0 c = clean;
    char *w = c.bytes.data() + c.payload();
    ASSERT_NE(std::memcmp(w, w + 8, 8), 0);
    std::swap_ranges(w, w + 8, w + 8);
    expectError(c.loadError(p.path), "chunk checksum mismatch");
}

TEST(TraceV2Fuzz, VarintOverrunIsReportedAfterTheChecksum)
{
    // The payload's last byte ends the last record's last varint;
    // setting its continuation bit runs that varint off the end.
    TempPath p("varint.dt2");
    Chunk0 c;
    c.bytes[c.payload() + c.encLen() - 1] |= static_cast<char>(0x80);
    expectError(c.loadError(p.path), "chunk checksum mismatch");
    c.restampChecksum();
    expectError(c.loadError(p.path), "varint runs past chunk payload");
}

TEST(TraceV2Fuzz, TrailingPayloadBytesAreReportedAfterTheChecksum)
{
    // One extra byte after the last record, counted in encLen: every
    // record still decodes, and the leftover byte is the error. The
    // index footer's later offsets move up by that byte too.
    TempPath p("trailing.dt2");
    Chunk0 c;
    const std::uint32_t grown = c.encLen() + 1;
    poke(c.bytes, c.header + 4, grown);
    c.bytes.insert(c.payload() + grown - 1, 1, '\0');
    const std::size_t size = c.bytes.size();
    const auto index = peek<std::uint64_t>(c.bytes, size - 16) + 1;
    poke(c.bytes, size - 16, index);
    for (std::size_t at = index + 8; at < size - 16; at += 8)
        poke(c.bytes, at, peek<std::uint64_t>(c.bytes, at) + 1);
    expectError(c.loadError(p.path), "chunk checksum mismatch");
    c.restampChecksum();
    expectError(c.loadError(p.path), "chunk payload has trailing bytes");
}

TEST(TraceV2Fuzz, EveryCheckReportsItsOwnMessage)
{
    // One crafted corruption per header, footer, chunk-header and
    // record check, each expected to fail at exactly that check.
    TempPath p("crafted.dt2");
    const Chunk0 clean;
    const std::size_t size = clean.bytes.size();
    const auto index = peek<std::uint64_t>(clean.bytes, size - 16);
    constexpr std::size_t kNameLen = 8 + 4 + 8;
    const std::size_t pageCount = clean.header - 8;
    // Set payload byte @p at of chunk 0 and restamp its checksum.
    const auto record = [](std::size_t at, int v) {
        return [at, v](Chunk0 &c) {
            c.bytes[c.payload() + at] = static_cast<char>(v);
            c.restampChecksum();
        };
    };

    const struct
    {
        const char *expected;
        std::function<void(Chunk0 &)> corrupt;
    } cases[] = {
        {"chunk size out of range",
         [](Chunk0 &c) { poke<std::uint32_t>(c.bytes, 8, 0); }},
        {"chunk size out of range",
         [](Chunk0 &c) {
             poke<std::uint32_t>(c.bytes, 8, (1u << 22) + 1);
         }},
        {"implausible instruction count",
         [](Chunk0 &c) {
             poke<std::uint64_t>(c.bytes, 12,
                                 (std::uint64_t{1} << 33) + 1);
         }},
        {"truncated or oversized name/suite header",
         [](Chunk0 &c) { poke<std::uint32_t>(c.bytes, kNameLen, ~0u); }},
        {"page count exceeds file size",
         [&](Chunk0 &c) {
             poke<std::uint64_t>(c.bytes, pageCount,
                                 std::uint64_t{1} << 40);
         }},
        {"bad index footer magic",
         [&](Chunk0 &c) { c.bytes[size - 1] ^= 1; }},
        {"index footer offset inconsistent",
         [&](Chunk0 &c) { poke(c.bytes, size - 16, index + 8); }},
        {"chunk offset out of range",
         [&](Chunk0 &c) { poke(c.bytes, size - 24, index); }},
        {"chunk offsets not ascending",
         [&](Chunk0 &c) {
             poke(c.bytes, index + 8, peek<std::uint64_t>(c.bytes, index));
         }},
        {"chunk instruction count mismatch",
         [](Chunk0 &c) {
             poke(c.bytes, c.header,
                  peek<std::uint32_t>(c.bytes, c.header) - 1);
         }},
        {"chunk length implausible",
         [](Chunk0 &c) { poke<std::uint32_t>(c.bytes, c.header + 4, ~0u); }},
        {"instruction record runs past chunk payload",
         [](Chunk0 &c) {
             poke<std::uint32_t>(c.bytes, c.header + 4, 5);
             c.restampChecksum();
         }},
        {"instruction op class out of range", record(0, 0xff)},
        {"instruction load kind out of range", record(1, 0x7f)},
        {"instruction flag bits out of range", record(2, 4)},
        {"instruction source count out of range", record(3, kMaxSrcs + 1)},
        {"instruction destination count out of range", record(7, 17)},
        {"instruction memory access size out of range", record(9, 65)},
        {"varint longer than 64 bits",
         [](Chunk0 &c) {
             // The pc delta, the record's first varint, starts after
             // its 10 fixed bytes.
             std::fill_n(c.bytes.begin() + c.payload() + 10, 10, '\x80');
             c.restampChecksum();
         }},
    };
    for (const auto &k : cases) {
        Chunk0 c = clean;
        k.corrupt(c);
        EXPECT_EQ(c.loadError(p.path),
                  std::string("trace file (v2): ") + k.expected);
    }
}

TEST(CorruptionFuzz, EveryTruncationPointFailsCleanly)
{
    // Exhaustive over the file's tail: the last chunk, the index
    // footer and the tail magic (the TraceV2Fuzz sweep strides there).
    TempPath p("tail_cut.dt2");
    const std::string full = serializedV2();
    ASSERT_GT(full.size(), 1024u);
    for (std::size_t n = full.size() - 512; n < full.size(); ++n)
        EXPECT_NE(openError(p.path, full.substr(0, n)), "loaded")
            << "cut at " << n;
}

TEST(CorruptionFuzz, RandomBitFlipsNeverCrash)
{
    // Seeded flips confined to the memory-image section. A flip in a
    // page address is refused; a flip in page bytes loads, and then
    // only the image can have changed, never an instruction.
    const auto orig = WorkloadRegistry::build("viterb", 1500);
    const std::size_t pages = orig.initialImage.numPages();
    ASSERT_GT(pages, 0u) << "fuzz target needs a memory image";
    std::stringstream buf;
    ASSERT_TRUE(saveTraceV2(orig, buf, 512));
    const std::string full = buf.str();
    const std::size_t imageBegin = firstChunkOffset(orig);
    const std::size_t imageEnd =
        imageBegin + pages * (8 + MemoryImage::kPageSize);

    TempPath p("image_flip.dt2");
    std::mt19937_64 rng(0x51eeded5eedULL);
    std::size_t loaded_ok = 0, rejected = 0;
    for (int trial = 0; trial < 200; ++trial) {
        std::string bytes = full;
        const int nflips = 1 + static_cast<int>(rng() % 4);
        for (int f = 0; f < nflips; ++f) {
            // Every fourth flip lands in a page address.
            const std::size_t page = rng() % pages;
            const std::size_t at =
                imageBegin + page * (8 + MemoryImage::kPageSize) +
                (rng() % 4 == 0 ? rng() % 8
                                : 8 + rng() % MemoryImage::kPageSize);
            ASSERT_LT(at, imageEnd);
            bytes[at] = static_cast<char>(
                static_cast<unsigned char>(bytes[at]) ^
                (1u << (rng() % 8)));
        }
        if (openError(p.path, bytes) != "loaded") {
            ++rejected;
            continue;
        }
        ++loaded_ok;
        Trace t;
        t.attachStream(ChunkedTraceFile::open(p.path));
        t.materialize();
        expectSameInsts(t, orig);
    }
    EXPECT_GT(loaded_ok, 0u);
    EXPECT_GT(rejected, 0u);
}

TEST(CorruptionFuzz, ThrowingLoaderReportsIoCorrupt)
{
    TempPath p("garbage.dt2");
    expectError(openError(p.path, "definitely not a trace"),
                "bad magic (not a dlvp v2 trace file)");
}

TEST(CorruptionFuzz, WrongVersionByteRejected)
{
    // Magic prefix intact, but a version that neither is current nor
    // was ever written.
    TempPath p("future.dt2");
    std::string bytes = serializedV2(500);
    bytes[7] = '9';
    expectError(openError(p.path, bytes),
                "bad magic (not a dlvp v2 trace file)");
}

TEST(CorruptionFuzz, HugeInstructionCountFailsFastWithoutOom)
{
    // A well-formed header, chunk area and index footer for 2^33 uops
    // in 2048 chunks of 2^22, in a file of under 20 KB: the declared
    // count must be refused at open(), before any chunk is read or any
    // per-uop allocation is sized from it.
    constexpr std::uint64_t kChunks = 2048;
    std::string bytes = "DLVPTRC3";
    const auto put = [&bytes](auto v) {
        bytes.append(reinterpret_cast<const char *>(&v), sizeof(v));
    };
    put(std::uint32_t{1} << 22);
    put(std::uint64_t{1} << 33);
    put(std::uint32_t{4});
    bytes += "huge";
    put(std::uint32_t{0});
    put(std::uint64_t{0}); // no pages
    const std::uint64_t first = bytes.size();
    bytes.append(kChunks + 16, '\0');
    const std::uint64_t index = bytes.size();
    for (std::uint64_t ci = 0; ci < kChunks; ++ci)
        put(first + ci);
    put(index);
    bytes += "DLVPIDX2";
    ASSERT_LT(bytes.size(), 20000u);

    TempPath p("huge.dt2");
    writeBytes(p.path, bytes);
    try {
        ChunkedTraceFile::open(p.path);
        FAIL() << "a 2^33-uop declaration in a small file must not open";
    } catch (const common::RunError &e) {
        EXPECT_EQ(e.kind(), common::ErrorKind::IoCorrupt);
        expectError(e.what(), "instruction count exceeds file size");
    }
}

TEST(CorruptionFuzz, MisalignedPageAddressRejected)
{
    const auto orig = WorkloadRegistry::build("viterb", 500);
    ASSERT_GT(orig.initialImage.numPages(), 0u)
        << "fuzz target needs a memory image";
    std::stringstream buf;
    ASSERT_TRUE(saveTraceV2(orig, buf));
    std::string bytes = buf.str();
    // The first page address follows the u64 page count, which ends
    // where a pageless file's chunk 0 would start.
    bytes[firstChunkOffset(orig)] |= 1;
    TempPath p("misaligned.dt2");
    expectError(openError(p.path, bytes), "page address not page-aligned");
}

TEST(CorruptionFuzz, FaultPlanCorruptsFileLoads)
{
    // The CLI's --fault-plan reaches the trace file runfile opens.
    const auto orig = WorkloadRegistry::build("viterb", 500);
    TempPath p("fault_cli.dt2");
    ASSERT_TRUE(saveTraceFileV2(orig, p.path, 256));
    std::string err;
    EXPECT_EQ(runCli("runfile " + p.path, err), 0) << err;
    EXPECT_EQ(runCli("runfile " + p.path + " --fault-plan trunc:64", err),
              1);
    expectError(err, "io_corrupt");
    EXPECT_EQ(runCli("runfile " + p.path + " --fault-plan flip:7.2", err),
              1);
    expectError(err, "io_corrupt: trace file (v2): bad magic");
}
TEST(TraceV2Fuzz, FaultPlanCorruptsStreamingOpen)
{
    const auto orig = WorkloadRegistry::build("viterb", 2000);
    TempPath p("fault.dt2");
    ASSERT_TRUE(saveTraceFileV2(orig, p.path, 256));

    // Clean open streams fine.
    EXPECT_EQ(ChunkedTraceFile::open(p.path)->numInsts(), orig.size());

    // DLVP_FAULT_INJECT-style truncation: open() must throw
    // io_corrupt, not crash on the short file.
    common::FaultPlan::setGlobal("trunc:512");
    try {
        ChunkedTraceFile::open(p.path);
        FAIL() << "truncated v2 stream must not open";
    } catch (const common::RunError &e) {
        EXPECT_EQ(e.kind(), common::ErrorKind::IoCorrupt);
    }

    // A bit flip in the version byte dies at header validation.
    common::FaultPlan::setGlobal("flip:7.0");
    try {
        ChunkedTraceFile::open(p.path);
        FAIL() << "flipped magic must not open";
    } catch (const common::RunError &e) {
        EXPECT_EQ(e.kind(), common::ErrorKind::IoCorrupt);
    }
    common::FaultPlan::clearGlobal();

    // Clean again after the plan clears (no sticky state).
    Trace t;
    t.attachStream(ChunkedTraceFile::open(p.path));
    EXPECT_EQ(t.verifyReplay(), t.size());
}

// ---------------------------------------------------------------------
// Mega-trace generator
// ---------------------------------------------------------------------

MegaSpec
smallMega()
{
    MegaSpec spec;
    spec.name = "mini-mega";
    spec.phases = {"mcf", "gzip"};
    spec.totalInsts = 60000;
    spec.phaseInsts = 8000;
    spec.conflictDensity = 0.25;
    spec.chunkInsts = 4096;
    return spec;
}

TEST(Mega, ScheduleSpreadsStormsByErrorDiffusion)
{
    MegaSpec spec = smallMega();
    const auto sched = megaSchedule(spec);
    // ceil(60000 / 8000) = 8 occurrences; density 0.25 puts a storm
    // at every 4th (error diffusion: indices 3 and 7).
    ASSERT_EQ(sched.size(), 8u);
    std::size_t storms = 0;
    for (std::size_t i = 0; i < sched.size(); ++i) {
        if (sched[i] == "storm") {
            ++storms;
            EXPECT_EQ(i % 4, 3u) << "storm misplaced at " << i;
        }
    }
    EXPECT_EQ(storms, 2u);

    spec.conflictDensity = 0.0;
    for (const auto &name : megaSchedule(spec))
        EXPECT_NE(name, "storm");

    spec.conflictDensity = 1.0;
    for (const auto &name : megaSchedule(spec))
        EXPECT_EQ(name, "storm");
}

TEST(Mega, RejectsInvalidSpecs)
{
    MegaSpec bad = smallMega();
    bad.phases = {"no-such-workload"};
    EXPECT_THROW(megaSchedule(bad), common::RunError);

    bad = smallMega();
    bad.phases.clear();
    EXPECT_THROW(megaSchedule(bad), common::RunError);

    bad = smallMega();
    bad.conflictDensity = 1.5;
    EXPECT_THROW(megaSchedule(bad), common::RunError);

    // Composed workloads may not nest (customBuild recursion guard).
    bad = smallMega();
    bad.phases = {"mega-mix"};
    EXPECT_THROW(buildMega(bad), common::RunError);
}

TEST(Mega, BuildReplaysAndMatchesSchedule)
{
    const MegaSpec spec = smallMega();
    const Trace t = buildMega(spec);
    EXPECT_EQ(t.size(), spec.totalInsts);
    EXPECT_EQ(t.name, spec.name);
    EXPECT_EQ(t.verifyReplay(), t.size())
        << "relocation must be replay-isomorphic";
}

TEST(Mega, StreamedFileMatchesMaterializedBuild)
{
    const MegaSpec spec = smallMega();
    TempPath p("mega.dt2");
    writeMegaV2(spec, p.path);

    Trace streamed;
    streamed.attachStream(ChunkedTraceFile::open(p.path));
    const Trace built = buildMega(spec);
    ASSERT_EQ(streamed.size(), built.size());

    // Bit-identical instruction streams (streamed decode vs direct
    // composition)...
    Trace materialized = streamed;
    materialized.materialize();
    expectSameInsts(materialized, built);

    // ...and bit-identical CoreStats through the detailed core.
    sim::Simulator s(sim::baselineCore(), built.size());
    const auto a = s.run(built, sim::dlvpConfig());
    const auto b = s.run(streamed, sim::dlvpConfig());
    EXPECT_TRUE(a == b);
}

// ---------------------------------------------------------------------
// Interval sampler determinism (bit-identical sampled CoreStats
// under any job count)
// ---------------------------------------------------------------------

sim::SampleSpec
smallSample()
{
    sim::SampleSpec sample;
    sample.enabled = true;
    sample.warmupInsts = 2000;
    sample.measureInsts = 3000;
    sample.periodInsts = 10000;
    return sample;
}

TEST(Sampler, RejectsInvalidSpecs)
{
    const auto t = WorkloadRegistry::build("mcf", 5000);
    sim::SampleSpec bad = smallSample();
    bad.measureInsts = 0;
    EXPECT_THROW(sim::runSampled(sim::baselineCore(),
                                 sim::dlvpConfig(), t, bad),
                 common::RunError);
    bad = smallSample();
    bad.periodInsts = bad.warmupInsts + bad.measureInsts - 1;
    EXPECT_THROW(sim::runSampled(sim::baselineCore(),
                                 sim::dlvpConfig(), t, bad),
                 common::RunError);
}

TEST(Sampler, DeterministicAndCoversEveryPeriod)
{
    const Trace t = buildMega(smallMega());
    const auto sample = smallSample();
    const auto a = sim::runSampled(sim::baselineCore(),
                                   sim::dlvpConfig(), t, sample);
    const auto b = sim::runSampled(sim::baselineCore(),
                                   sim::dlvpConfig(), t, sample);
    EXPECT_TRUE(a.stats == b.stats);
    EXPECT_EQ(a.intervals, 6u); // 60000 / 10000
    EXPECT_GT(a.sampledInsts(), 0u);
    EXPECT_LT(a.sampledInsts(), t.size());
    EXPECT_GT(a.cpi(), 0.0);
}

TEST(Sampler, CpiErrorAgainstFullRunIsFinite)
{
    const Trace t = buildMega(smallMega());
    const auto sampled = sim::runSampled(
        sim::baselineCore(), sim::dlvpConfig(), t, smallSample());
    sim::Simulator s(sim::baselineCore(), t.size());
    const auto full = s.run(t, sim::dlvpConfig());
    const double err = sim::cpiError(sampled, full);
    EXPECT_GE(err, 0.0);
    EXPECT_LT(err, 1.0) << "sampled CPI off by more than 100%";
}

/**
 * The sampler's contract written out naively on a materialized trace:
 * each interval's image is rebuilt from scratch by replaying every
 * store in [0, start) over the initial image, and the interval runs
 * on a plain copy of [start, start + count).
 */
sim::SampledRun
referenceSampled(const Trace &t, const core::VpConfig &vp,
                 const sim::SampleSpec &sample)
{
    sim::SampledRun out;
    for (std::size_t start = 0; start < t.size();
         start += sample.periodInsts) {
        const std::size_t avail = t.size() - start;
        if (avail <= sample.warmupInsts)
            break;
        const std::size_t count = std::min(
            avail, sample.warmupInsts + sample.measureInsts);
        Trace slice;
        slice.initialImage = t.initialImage;
        for (std::size_t i = 0; i < start; ++i) {
            const TraceInst &inst = t.insts[i];
            if (inst.cls == OpClass::Store || inst.cls == OpClass::Atomic)
                slice.initialImage.write(inst.memAddr, inst.storeValue,
                                         inst.memSize);
        }
        slice.insts.assign(t.insts.begin() + start,
                           t.insts.begin() + start + count);
        core::OoOCore core(sim::baselineCore(), vp, slice);
        out.stats.accumulate(core.run(sample.warmupInsts));
        ++out.intervals;
    }
    return out;
}

/**
 * runSampled's thread budgets under test: the calling thread alone,
 * then one, two, three and (capped) three interval workers.
 */
constexpr unsigned kSamplerJobs[] = {1, 2, 3, 4, 8};

/**
 * runSampled on a streamed v2 mega trace of @p total uops in
 * @p chunk-uop chunks, and on the same trace materialized, must both
 * equal the naive reference, for DLVP and for VTAGE over all
 * instructions, under every thread budget in kSamplerJobs. @return
 * the interval count.
 *
 * CoreStats barely see a stale interval image: DLVP's probe and the
 * core read the same image, so both see the same stale value. Phase
 * occurrences also relocate to fresh memory. With 20k-uop phases led
 * by vpr, consecutive intervals share an occurrence, and vtage-all
 * (trained on every loaded value) changes its stats when an interval
 * image misses the previous window's stores.
 */
std::size_t
expectSamplerMatchesReference(std::size_t total, std::uint32_t chunk)
{
    MegaSpec spec = smallMega();
    spec.phases = {"vpr", "gzip"};
    spec.totalInsts = total;
    spec.phaseInsts = 20000;
    spec.chunkInsts = chunk;
    // Distinct per case: ctest runs the cases as parallel processes.
    const std::string file = "sampler_ref_" + std::to_string(total) +
                             "_" + std::to_string(chunk) + ".dt2";
    TempPath p(file.c_str());
    writeMegaV2(spec, p.path);
    Trace streamed;
    streamed.attachStream(ChunkedTraceFile::open(p.path));
    Trace materialized = streamed;
    materialized.materialize();

    const auto sample = smallSample();
    std::size_t intervals = 0;
    for (const char *name : {"dlvp", "vtage-all"}) {
        core::VpConfig vp;
        EXPECT_TRUE(sim::configByName(name, vp));
        const auto ref = referenceSampled(materialized, vp, sample);
        for (const Trace *t : {&streamed, &materialized}) {
            for (const unsigned jobs : kSamplerJobs) {
                const auto run = sim::runSampled(sim::baselineCore(), vp,
                                                 *t, sample, jobs);
                EXPECT_TRUE(run.stats == ref.stats)
                    << name
                    << (t->streamed() ? " streamed" : " materialized")
                    << " jobs=" << jobs;
                EXPECT_EQ(run.intervals, ref.intervals) << jobs;
            }
        }
        intervals = ref.intervals;
    }
    return intervals;
}

// smallSample: period 10000, warmup 2000, warmup + measure 5000.

TEST(Sampler, MatchesReferenceWithSubIntervalChunks)
{
    // Tail avail 2000 == warmup: no fourth interval. 1024-uop chunks
    // put several chunk boundaries inside every interval.
    EXPECT_EQ(expectSamplerMatchesReference(32000, 1024), 3u);
}

TEST(Sampler, MatchesReferenceWithShortMeasuredTail)
{
    // Tail avail 3500: warmup plus a truncated measured region.
    EXPECT_EQ(expectSamplerMatchesReference(23500, 1024), 3u);
}

TEST(Sampler, MatchesReferenceWithOneChunkForTheWholeTrace)
{
    EXPECT_EQ(expectSamplerMatchesReference(31500, 65536), 3u);
}

TEST(Sampler, MatchesReferenceOnTraceShorterThanOnePeriod)
{
    EXPECT_EQ(expectSamplerMatchesReference(7000, 65536), 1u);
    EXPECT_EQ(expectSamplerMatchesReference(4000, 1024), 1u);
}

/** describe() of the RunError @p fn throws ("no error" if none). */
template <typename F>
std::string
runErrorOf(F &&fn)
{
    try {
        fn();
    } catch (const common::RunError &e) {
        return e.describe();
    }
    return "no error";
}

TEST(Sampler, CorruptChunkMidRunIsAStructuredError)
{
    MegaSpec spec = smallMega();
    spec.chunkInsts = 1024;
    TempPath p("corrupt_mid_run.dt2");
    writeMegaV2(spec, p.path);
    std::string bytes;
    {
        std::ifstream is(p.path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
    }
    // Footer: u64 chunkOffset[n] | u64 indexOffset | "DLVPIDX2".
    std::uint64_t indexOffset = 0;
    std::memcpy(&indexOffset, bytes.data() + bytes.size() - 16, 8);
    ASSERT_EQ((bytes.size() - 16 - indexOffset) / 8, 59u);
    // Chunk 37 (uops 37888..38911) lies in the fast-forward to the
    // fifth interval (start 40000), which the walker runs while up to
    // three earlier intervals are in flight.
    std::uint64_t chunk37 = 0;
    std::memcpy(&chunk37, bytes.data() + indexOffset + 8 * 37, 8);
    bytes[chunk37 + 16 + 5] ^= 0x10; // inside the payload
    std::ofstream(p.path, std::ios::binary | std::ios::trunc) << bytes;

    Trace t;
    t.attachStream(ChunkedTraceFile::open(p.path));
    const auto sample = smallSample();
    // With the default no-commit horizon every interval succeeds and
    // the walker's io_corrupt is the error. At 290 cycles the third
    // interval deadlocks (see IntervalFailureMatchesSerial); a serial
    // run throws that before it reaches the chunk, so it must win.
    for (const std::uint64_t limit : {0u, 290u}) {
        core::CoreParams params = sim::baselineCore();
        if (limit != 0)
            params.maxNoCommitCycles = limit;
        const char *kind = limit == 0 ? "io_corrupt" : "sim_deadlock";
        std::string serial;
        for (const unsigned jobs : kSamplerJobs) {
            const std::string err = runErrorOf([&] {
                sim::runSampled(params, sim::dlvpConfig(), t, sample,
                                jobs);
            });
            EXPECT_NE(err.find(kind), std::string::npos)
                << "limit=" << limit << " jobs=" << jobs << ": " << err;
            if (jobs == 1)
                serial = err;
            EXPECT_EQ(err, serial)
                << "limit=" << limit << " jobs=" << jobs;
        }
    }
}

TEST(Sampler, IntervalFailureMatchesSerial)
{
    const Trace t = buildMega(smallMega());
    const auto sample = smallSample();
    // No-commit horizons just under the cold-start miss: at 260 all
    // six intervals deadlock, each with its own window size in the
    // message, so only the first interval's error matches serial; at
    // 290 only the third does, while its neighbours are in flight.
    for (const std::uint64_t limit : {260u, 290u}) {
        core::CoreParams params = sim::baselineCore();
        params.maxNoCommitCycles = limit;
        std::string serial;
        for (const unsigned jobs : kSamplerJobs) {
            const std::string err = runErrorOf([&] {
                sim::runSampled(params, sim::dlvpConfig(), t, sample,
                                jobs);
            });
            EXPECT_NE(err.find("sim_deadlock"), std::string::npos)
                << "limit=" << limit << " jobs=" << jobs << ": " << err;
            if (jobs == 1)
                serial = err;
            EXPECT_EQ(err, serial)
                << "limit=" << limit << " jobs=" << jobs;
        }
    }
}

TEST(Cli, ZeroUopTraceIsAStructuredError)
{
    TempPath trace("zero_uops.dt2");
    Trace empty;
    empty.name = "empty";
    ASSERT_TRUE(saveTraceFileV2(empty, trace.path));
    for (const std::string &args :
         {"runfile " + trace.path, "runfile " + trace.path + " --sample",
          std::string("run mcf --insts 0"),
          std::string("run mcf --insts 0 --sample")}) {
        std::string err;
        EXPECT_EQ(runCli(args, err), 1) << args;
        expectError(err, "internal: speedup is undefined");
    }
}

// Numeric options are range-checked: a value with trailing
// characters, a sign (integers), whitespace, inf/nan or out of range
// exits 2 with a message naming the option before any trace is built.
TEST(Cli, MalformedNumericOptionExitsTwo)
{
    for (const char *args :
         {"run mcf --insts 12x", "run mcf --insts -1",
          "run mcf --insts 18446744073709551616", "run mcf --insts ' 5'",
          "run mcf --sample-period 1e3", "sweep mcf --jobs 4097",
          "gen-mega unused.dt2 --chunk-insts 0",
          "serve-request unused.sock mcf --seed -3",
          "run mcf --insts 2000 --deadline-ms -5",
          "gen-mega unused.dt2 --insts 2000 --density 0.5x",
          "gen-mega unused.dt2 --insts 2000 --density 1.5",
          "serve-request unused.sock mcf --priority nan"}) {
        std::string err;
        EXPECT_EQ(runCli(args, err), 2) << args;
        EXPECT_NE(err.find("bad --"), std::string::npos)
            << args << ": " << err;
    }
}

// An option no command reads is refused like any unknown option,
// never accepted and silently ignored.
TEST(Cli, UnknownOptionExitsTwo)
{
    for (const char *args :
         {"run mcf --insts 2000 --warmup 5", "run mcf --no-such-option"}) {
        std::string err;
        EXPECT_EQ(runCli(args, err), 2) << args;
        EXPECT_NE(err.find("unknown option '--"), std::string::npos)
            << args << ": " << err;
    }
}

/** Sampled sweep over the mega workload, parameterized by jobs. */
sim::SweepResult
sampledSweep(unsigned jobs)
{
    sim::SweepSpec spec;
    spec.workloads = {"mega-mix"};
    spec.insts = 60000;
    spec.core = sim::baselineCore();
    spec.baseline = sim::baselineVp();
    for (const char *n : {"dlvp", "stride-dlvp"}) {
        core::VpConfig vp;
        sim::configByName(n, vp);
        spec.configs.push_back({n, vp});
    }
    spec.jobs = jobs;
    spec.sample = smallSample();
    spec.sample.check = true; // exercise the cpi_error path too
    spec.store = nullptr;
    return sim::runSweep(spec);
}

TEST(Sampler, TooShortToMeasureIsAFailedCell)
{
    // The default spec warms up for 40000 uops, so an 8000-uop trace
    // leaves every interval without a measured instruction: the cell
    // fails with the reason instead of reporting an empty run as ok.
    sim::SweepSpec spec;
    spec.workloads = {"mcf"};
    spec.insts = 8000;
    spec.core = sim::baselineCore();
    spec.baseline = sim::baselineVp();
    spec.configs.push_back({"dlvp", sim::dlvpConfig()});
    spec.jobs = 1;
    spec.sample.enabled = true;
    const auto result = sim::runSweep(spec);
    ASSERT_EQ(result.rows.size(), 1u);
    const auto &row = result.rows[0];
    EXPECT_EQ(row.status(), sim::JobStatus::Failed);
    for (const auto *o : {&row.baselineOutcome, &row.outcomes[0]}) {
        EXPECT_EQ(o->status, sim::JobStatus::Failed);
        EXPECT_EQ(o->errorKind, common::ErrorKind::Internal);
        expectError(o->error, "the trace has 8000 instructions, not "
                              "more than warmupInsts=40000");
    }
    EXPECT_EQ(result.failedJobs(), 2u);
}

TEST(Sampler, SweepIsBitIdenticalForAnyJobCountAndScheduling)
{
    const auto serial = sampledSweep(1);
    const auto parallel = sampledSweep(8);
    ASSERT_EQ(serial.rows.size(), 1u);
    const auto &r1 = serial.rows[0];
    const auto &r2 = parallel.rows[0];
    ASSERT_TRUE(r1.baselineOutcome.ok() && r2.baselineOutcome.ok());
    EXPECT_TRUE(r1.baseline == r2.baseline);
    ASSERT_EQ(r1.results.size(), r2.results.size());
    for (std::size_t ci = 0; ci < r1.results.size(); ++ci) {
        ASSERT_TRUE(r1.cellOk(ci) && r2.cellOk(ci));
        EXPECT_TRUE(r1.results[ci] == r2.results[ci]);
        EXPECT_EQ(r1.samples[ci].intervals, r2.samples[ci].intervals);
        EXPECT_EQ(r1.samples[ci].sampledInsts,
                  r2.samples[ci].sampledInsts);
        EXPECT_DOUBLE_EQ(r1.samples[ci].cpiError,
                         r2.samples[ci].cpiError);
    }
    EXPECT_EQ(r1.baselineSample.intervals,
              r2.baselineSample.intervals);
    EXPECT_DOUBLE_EQ(r1.baselineSample.cpiError,
                     r2.baselineSample.cpiError);
    // check=true must have produced real error numbers.
    EXPECT_GE(r1.baselineSample.cpiError, 0.0);
    EXPECT_GE(r1.samples[0].cpiError, 0.0);
}

} // namespace
