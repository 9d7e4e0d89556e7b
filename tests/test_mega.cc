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

#include <cstdio>
#include <cstdint>
#include <fstream>
#include <random>
#include <sstream>
#include <string>

#include "common/fault_inject.hh"
#include "common/run_error.hh"
#include "sim/configs.hh"
#include "sim/sampler.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "trace/mega.hh"
#include "trace/trace_io.hh"
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

// ---------------------------------------------------------------------
// dlvp-trace-v2 format
// ---------------------------------------------------------------------

TEST(TraceV2, RoundTripIsBitIdenticalToV1)
{
    const auto orig = WorkloadRegistry::build("crafty", 9000);

    // v1 and v2 serializations of the same trace must decode to the
    // same instructions and image.
    std::stringstream v1buf, v2buf;
    ASSERT_TRUE(saveTrace(orig, v1buf));
    ASSERT_TRUE(saveTraceV2(orig, v2buf, 2048));

    Trace fromV1, fromV2;
    ASSERT_TRUE(loadTrace(fromV1, v1buf));
    loadTraceOrThrow(fromV2, v2buf); // auto-detects the v2 magic
    EXPECT_EQ(fromV2.name, orig.name);
    EXPECT_EQ(fromV2.suite, orig.suite);
    expectSameInsts(fromV1, fromV2);
    EXPECT_EQ(fromV2.initialImage.numPages(),
              orig.initialImage.numPages());
    EXPECT_EQ(fromV2.verifyReplay(), fromV2.size());
}

TEST(TraceV2, ConvertedTraceSimulatesIdentically)
{
    const auto orig = WorkloadRegistry::build("mcf", 12000);
    TempPath p("convert.dt2");
    ASSERT_TRUE(saveTraceFileV2(orig, p.path, 4096));
    Trace loaded;
    loadTraceFileOrThrow(loaded, p.path);

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

// ---------------------------------------------------------------------
// v2 corruption fuzzing (same contract as v1: fail cleanly, never
// crash; satellite of DESIGN.md §9's io_corrupt taxonomy)
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
    const std::string full = serializedV2();
    ASSERT_GT(full.size(), 512u);
    std::vector<std::size_t> cuts;
    for (std::size_t n = 0; n <= 256 && n < full.size(); ++n)
        cuts.push_back(n);
    for (std::size_t n = 257; n < full.size(); n += 131)
        cuts.push_back(n);
    cuts.push_back(full.size() - 1);
    for (const std::size_t n : cuts) {
        std::stringstream cut(full.substr(0, n));
        Trace t;
        EXPECT_FALSE(loadTrace(t, cut)) << "cut at " << n;
    }
}

TEST(TraceV2Fuzz, RandomBitFlipsNeverCrash)
{
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
        std::stringstream buf(bytes);
        Trace t;
        if (!loadTrace(t, buf))
            ++rejected;
    }
    // Unlike v1's raw records, v2 payload bytes are checksummed, so
    // the reject rate must be high (image-page flips may still load).
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
    const std::size_t headerEnd = 8 + 4 + 8 + 4 + orig.name.size() +
                                  4 + orig.suite.size() + 8;
    // Flip a byte well inside chunk 0's payload (past its 16-byte
    // count/encLen/checksum header).
    bytes[headerEnd + 16 + 40] ^= 0x10;
    std::stringstream mut(bytes);
    Trace t;
    try {
        loadTraceOrThrow(t, mut);
        FAIL() << "flipped payload must not load";
    } catch (const common::RunError &e) {
        EXPECT_EQ(e.kind(), common::ErrorKind::IoCorrupt);
        EXPECT_NE(std::string(e.what()).find("checksum"),
                  std::string::npos)
            << e.what();
    }
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
