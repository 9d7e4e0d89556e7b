/**
 * @file
 * Golden CoreStats snapshot test.
 *
 * Locks the architectural simulation results of representative
 * (workload, config) rows to the values produced by the pre-PR-2
 * implementation (hash-map memory images, map-based load-value
 * tracking). Hot-path optimizations — the MRU page cache, the
 * seq-indexed load-value ring, the tightened per-cycle loops — must
 * be *performance* changes only: every counter in CoreStats has to
 * come out bit-identical. A mismatch here means an optimization
 * perturbed architectural behaviour and fails tier-1 immediately.
 *
 * To regenerate the table after an *intentional* modelling change:
 *   DLVP_GOLDEN_RECORD=1 ./tests/test_golden >
 *       ../tests/golden_core_stats.inc
 * and review the diff like any other behavioural change.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "common/fields.hh"
#include "common/run_error.hh"
#include "core/core.hh"
#include "core/core_stats.hh"
#include "pred/accel.hh"
#include "serve/cache.hh"
#include "sim/configs.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "trace/trace_v2.hh"

namespace
{

using namespace dlvp;

/** Micro-ops per golden trace (25% warmup via Simulator). */
constexpr std::size_t kGoldenInsts = 24000;

#define DLVP_COUNT_FIELD(f) +1
constexpr std::size_t kNumFields = DLVP_CORE_STATS_FIELDS(DLVP_COUNT_FIELD);
#undef DLVP_COUNT_FIELD

struct GoldenEntry
{
    const char *workload;
    const char *config;
    /**
     * LoadAccelerator table key the config instantiates.
     * PinsEveryAccelerator checks this column against the config and
     * the table: every table key must be pinned by a golden row.
     */
    const char *accel;
    std::uint64_t v[kNumFields];
};

#include "golden_core_stats.inc"

/** The golden configs, in table order: catalog names and one local. */
const char *const kGoldenConfigs[] = {
    "baseline", "dlvp",  "tournament", "cap_lowconf", "stride-dlvp",
    "vtage",    "dvtage", "balcvp",    "hermes"};

core::VpConfig
goldenConfig(const std::string &name)
{
    // Flush-heavy design point: a confidence threshold of 1 makes CAP
    // predict aggressively and wrongly, so value-misprediction flushes
    // (plus their squash/refetch recovery) dominate — pinning the
    // event-driven engine's flush paths, not just its steady state.
    if (name == "cap_lowconf")
        return sim::capConfig(1);
    core::VpConfig vp;
    EXPECT_TRUE(sim::configByName(name, vp))
        << "unknown golden config " << name;
    return vp;
}

core::CoreStats
runOne(sim::TraceStore &store, const std::string &workload,
       const std::string &config)
{
    const sim::Simulator sim(sim::baselineCore(), kGoldenInsts, &store);
    auto tr = store.acquire(workload, kGoldenInsts);
    return sim.run(*tr, goldenConfig(config));
}

/** DLVP_GOLDEN_RECORD=1: print a fresh .inc table instead of testing. */
bool
maybeRecord()
{
    if (std::getenv("DLVP_GOLDEN_RECORD") == nullptr)
        return false;
    sim::TraceStore store;
    std::cout << "// Generated by DLVP_GOLDEN_RECORD=1 ./tests/"
                 "test_golden (kGoldenInsts = "
              << kGoldenInsts << ").\n"
              << "// clang-format off\n"
              << "const GoldenEntry kGolden[] = {\n";
    for (const char *w : {"perlbmk", "mcf", "crafty"}) {
        for (const char *c : kGoldenConfigs) {
            const auto s = runOne(store, w, c);
            std::cout << "    {\"" << w << "\", \"" << c << "\", \""
                      << goldenConfig(c).accel << "\",\n     {";
            std::size_t i = 0;
#define DLVP_PRINT_FIELD(f) \
    std::cout << (i++ ? ", " : "") << s.f << "ull";
            DLVP_CORE_STATS_FIELDS(DLVP_PRINT_FIELD)
#undef DLVP_PRINT_FIELD
            std::cout << "}},\n";
        }
    }
    std::cout << "};\n// clang-format on\n";
    return true;
}

void
expectGolden(const core::CoreStats &s, const GoldenEntry &e,
             const char *how)
{
    std::size_t i = 0;
#define DLVP_CHECK_FIELD(f) \
    EXPECT_EQ(s.f, e.v[i]) << #f << " diverged on " << e.workload \
                           << "/" << e.config << how; \
    ++i;
    DLVP_CORE_STATS_FIELDS(DLVP_CHECK_FIELD)
#undef DLVP_CHECK_FIELD
    ASSERT_EQ(i, kNumFields);
}

TEST(GoldenStats, BitIdenticalToRecordedSnapshot)
{
    if (maybeRecord())
        GTEST_SKIP() << "recorded a fresh golden table";
    sim::TraceStore store;
    for (const GoldenEntry &e : kGolden)
        expectGolden(runOne(store, e.workload, e.config), e, "");
}

/**
 * The golden table pins every accelerator: each row's accel column is
 * the key its config instantiates and a table key, every table key is
 * pinned by some row, and every named configuration instantiates a
 * table key. A new accelerator fails here until it has golden rows.
 */
TEST(GoldenStats, PinsEveryAccelerator)
{
    std::set<std::string> keys;
    for (const pred::AccelInfo &info : pred::acceleratorCatalog())
        keys.insert(info.key);
    std::set<std::string> pinned;
    for (const GoldenEntry &e : kGolden) {
        EXPECT_EQ(goldenConfig(e.config).accel, e.accel)
            << e.workload << "/" << e.config;
        EXPECT_TRUE(keys.count(e.accel))
            << e.workload << "/" << e.config << " pins '" << e.accel
            << "', which is not in the accelerator table";
        pinned.insert(e.accel);
    }
    for (const std::string &key : keys)
        EXPECT_TRUE(pinned.count(key))
            << "accelerator '" << key << "' is pinned by no golden row";
    for (const sim::ConfigDesc &c : sim::configCatalog())
        EXPECT_TRUE(keys.count(c.make().accel))
            << "config '" << c.name << "' instantiates '"
            << c.make().accel << "', which is not in the table";
}

/**
 * The cache epoch's remaining duty: serve::kCacheEpoch must be bumped
 * when the simulator's behaviour for the same parameters changes, and
 * a re-recorded table marks such a change. The table's digest is
 * pinned next to the epoch, so re-recording fails here until the
 * epoch is bumped and both are re-pinned. Necessary, not sufficient:
 * a behaviour change that moves no golden row escapes it.
 */
TEST(GoldenStats, RecordedTablePinsTheCacheEpoch)
{
    std::string text;
    for (const GoldenEntry &e : kGolden) {
        for (const char *s : {e.workload, e.config, e.accel})
            common::appendCanonical(text, std::string(s));
        for (const std::uint64_t v : e.v)
            common::appendCanonical(text, v);
    }
    EXPECT_EQ(serve::hex16(serve::fnv1a64(text.data(), text.size())),
              "0bf913f2023d1bfd")
        << "goldens re-recorded: bump serve::kCacheEpoch, re-pin both";
    EXPECT_EQ(serve::kCacheEpoch, 3u) << "re-pin with the table's digest";
}

/** A v2 file of a trace, removed when the test ends. */
struct TempTraceFile
{
    explicit TempTraceFile(const std::string &name)
        : path((std::filesystem::temp_directory_path() /
                ("dlvp_golden_" + name + ".dt2"))
                   .string())
    {
    }
    ~TempTraceFile() { std::remove(path.c_str()); }
    std::string path;
};

/**
 * @p t streamed from @p file, with the chunk holding instruction @p at
 * corrupted: a core running it throws io_corrupt mid-run, with its
 * window, wheel, PAQ and predictors full of that run's state.
 */
trace::Trace
corruptStream(const trace::Trace &t, const TempTraceFile &file,
              std::size_t at)
{
    constexpr std::uint32_t kChunkInsts = 1024;
    EXPECT_TRUE(trace::saveTraceFileV2(t, file.path, kChunkInsts));
    std::string bytes;
    {
        std::ifstream is(file.path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
    }
    // Footer: u64 chunkOffset[n] | u64 indexOffset | "DLVPIDX2".
    std::uint64_t indexOffset = 0;
    std::memcpy(&indexOffset, bytes.data() + bytes.size() - 16, 8);
    std::uint64_t chunk = 0;
    std::memcpy(&chunk, bytes.data() + indexOffset + 8 * (at / kChunkInsts),
                8);
    bytes[chunk + 16 + 5] ^= 0x10; // inside the payload
    std::ofstream(file.path, std::ios::binary | std::ios::trunc) << bytes;
    trace::Trace s;
    s.attachStream(trace::ChunkedTraceFile::open(file.path));
    return s;
}

/**
 * OoOCore::reset must leave a core indistinguishable from a fresh
 * one: reset onto each golden row's trace, a used core reproduces the
 * recorded counters bit for bit. Two used cores per row: one that ran
 * another golden workload to the end, and one whose run of the row's
 * own workload threw halfway (a corrupt chunk), so every PC and
 * address it trained on recurs in the row and stale state shows.
 */
TEST(GoldenStats, ResetCoreMatchesSnapshot)
{
    sim::TraceStore store;
    const core::CoreParams params = sim::baselineCore();
    const std::map<std::string, std::string> other = {
        {"perlbmk", "mcf"}, {"mcf", "crafty"}, {"crafty", "perlbmk"}};
    std::map<std::string, std::unique_ptr<TempTraceFile>> files;
    std::map<std::string, trace::Trace> corrupt;
    for (const GoldenEntry &e : kGolden) {
        const auto tr = store.acquire(e.workload, kGoldenInsts);
        const auto warmup = static_cast<std::size_t>(
            static_cast<double>(tr->size()) * sim::kWarmupFraction);
        const core::VpConfig vp = goldenConfig(e.config);
        ASSERT_TRUE(other.count(e.workload)) << e.workload;

        const auto prior = store.acquire(other.at(e.workload),
                                         kGoldenInsts);
        core::OoOCore ran(params, vp, *prior);
        (void)ran.run();
        ran.reset(*tr);
        expectGolden(ran.run(warmup), e, " (reset after a full run)");

        if (!corrupt.count(e.workload)) {
            files[e.workload] =
                std::make_unique<TempTraceFile>(e.workload);
            corrupt[e.workload] = corruptStream(
                *tr, *files[e.workload], kGoldenInsts / 2);
        }
        core::OoOCore threw(params, vp, corrupt.at(e.workload));
        try {
            (void)threw.run();
            ADD_FAILURE() << "corrupt chunk not detected on "
                          << e.workload << "/" << e.config;
        } catch (const common::RunError &err) {
            EXPECT_EQ(err.kind(), common::ErrorKind::IoCorrupt);
        }
        threw.reset(*tr);
        expectGolden(threw.run(warmup), e,
                     " (reset after a run that threw)");
    }
}

} // namespace
