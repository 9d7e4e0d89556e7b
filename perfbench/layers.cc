/**
 * @file
 * The traced run's layer-isolation pass: one grid workload's load and
 * branch stream replayed straight through the predictor and memory
 * structures' public calls, and one served row replayed through the
 * result cache, so each structure's host cost per operation is
 * measured with nothing else around it.
 *
 * Every structure is rebuilt per repetition, so each repetition does
 * identical work; the reported time is the median repetition's.
 */

#include <filesystem>
#include <string>
#include <vector>

#include "bench.hh"
#include "bench_math.hh"
#include "mem/hierarchy.hh"
#include "pred/pap.hh"
#include "pred/tage.hh"
#include "pred/vtage.hh"
#include "serve/cache.hh"
#include "sim/configs.hh"
#include "trace/workloads.hh"

namespace perfbench
{

namespace
{

using dlvp::trace::TraceInst;

constexpr const char *kLayerWorkload = "gzip";
constexpr std::size_t kLayerInsts = 200000;
constexpr unsigned kMinReps = 5;
constexpr double kMinSeconds = 0.25;
constexpr std::size_t kCacheKeys = 64;
constexpr unsigned kLookupRounds = 8;

/**
 * Run @p body (which returns its op count) until kMinReps repetitions
 * and kMinSeconds have passed; report median ns per op and total ops.
 */
template <typename Body>
void
timeStructure(const std::string &name, Report &report, Body &&body)
{
    std::vector<double> nsPerOp;
    std::uint64_t ops = 0;
    const auto t0 = Clock::now();
    while (nsPerOp.size() < kMinReps || secondsSince(t0) < kMinSeconds) {
        const auto r0 = Clock::now();
        const std::uint64_t n = body();
        nsPerOp.push_back(ratio(1e9 * secondsSince(r0), n));
        ops += n;
    }
    report.metric(name + "_ns", median(nsPerOp), "ns");
    report.metric(name + "_ops", static_cast<double>(ops), "count");
}

} // namespace

void
layerIsolation(const std::string &servedRow, Checks &checks,
               Report &report)
{
    const dlvp::trace::Trace tr =
        dlvp::trace::WorkloadRegistry::build(kLayerWorkload, kLayerInsts);
    const std::vector<TraceInst> &insts = tr.insts;
    const dlvp::core::VpConfig dlvpVp = dlvp::sim::dlvpConfig();
    const dlvp::core::VpConfig vtageVp = dlvp::sim::vtageConfig();
    const dlvp::core::CoreParams core = dlvp::sim::baselineCore();
    std::uint64_t sink = 0;

    // PAP predict + train per load, with the load-path history.
    timeStructure("pred.pap", report, [&] {
        dlvp::pred::Pap pap(dlvpVp.pap);
        dlvp::pred::LoadPathHistory hist(dlvpVp.pap.histBits);
        std::uint64_t n = 0;
        for (const TraceInst &in : insts) {
            if (!in.isLoad())
                continue;
            const std::uint64_t h = hist.value();
            const auto p = pap.predict(in.pc, 0, h);
            pap.train(in.pc, 0, h, in.memAddr, in.memSize, p.way);
            hist.shiftLoad(in.pc);
            sink += p.valid;
            ++n;
        }
        return n;
    });

    // VTAGE predict + train per eligible load, with branch history.
    timeStructure("pred.vtage", report, [&] {
        dlvp::pred::Vtage vtage(vtageVp.vtage);
        std::uint64_t ghr = 0, n = 0;
        for (const TraceInst &in : insts) {
            if (in.cls == dlvp::trace::OpClass::CondBranch)
                ghr = (ghr << 1) | (in.taken ? 1 : 0);
            if (!in.isLoad() || !vtage.eligible(in))
                continue;
            const auto p = vtage.predict(in, 0, ghr);
            vtage.train(in, 0, ghr, in.destValue, p.valid,
                        p.valid && p.value == in.destValue);
            sink += p.valid;
            ++n;
        }
        return n;
    });

    // TAGE predict + update per conditional branch.
    timeStructure("pred.tage", report, [&] {
        dlvp::pred::Tage tage(dlvp::pred::TageParams{});
        std::uint64_t ghr = 0, n = 0;
        for (const TraceInst &in : insts) {
            if (in.cls != dlvp::trace::OpClass::CondBranch)
                continue;
            sink += tage.predict(in.pc, ghr);
            tage.update(in.pc, ghr, in.taken);
            ghr = (ghr << 1) | (in.taken ? 1 : 0);
            ++n;
        }
        return n;
    });

    // Memory hierarchy: a demand access per load, a commit per store.
    timeStructure("mem.access", report, [&] {
        dlvp::mem::MemoryHierarchy mh(core.memory);
        dlvp::Cycle now = 0;
        std::uint64_t n = 0;
        for (const TraceInst &in : insts) {
            ++now;
            if (in.isLoad()) {
                sink += mh.loadAccess(in.pc, in.memAddr, now).latency;
                ++n;
            } else if (in.isStore()) {
                mh.storeCommit(in.memAddr, now);
                ++n;
            }
        }
        return n;
    });
    checks.expect(sink != 0, "layer pass: structures produced nothing");

    // Result cache: hash + put per key, then hash + verified lookup.
    const std::string dir = "layer-cache";
    std::filesystem::remove_all(dir);
    {
        dlvp::serve::ResultCache cache(dir);
        std::vector<double> putUs, lookupUs;
        const auto keyFor = [&core](std::size_t i) {
            dlvp::serve::CacheKey key;
            key.workload = kLayerWorkload;
            key.config = "dlvp";
            key.insts = kLayerInsts;
            key.seed = i + 1;
            key.core = core;
            return key;
        };
        for (std::size_t i = 0; i < kCacheKeys; ++i) {
            const dlvp::serve::CacheKey key = keyFor(i);
            const auto t0 = Clock::now();
            cache.put(dlvp::serve::cacheKeyHash(key), servedRow);
            putUs.push_back(1e6 * secondsSince(t0));
        }
        for (unsigned round = 0; round < kLookupRounds; ++round) {
            for (std::size_t i = 0; i < kCacheKeys; ++i) {
                const dlvp::serve::CacheKey key = keyFor(i);
                const auto t0 = Clock::now();
                const auto hit =
                    cache.lookup(dlvp::serve::cacheKeyHash(key));
                lookupUs.push_back(1e6 * secondsSince(t0));
                checks.expect(
                    hit.status == dlvp::serve::ResultCache::Status::Hit &&
                        hit.payload == servedRow,
                    "layer pass: cached row did not read back");
            }
        }
        report.metric("serve.cache_lookup_us", median(lookupUs), "us");
        report.metric("serve.cache_lookup_ops",
                      static_cast<double>(lookupUs.size()), "count");
        report.metric("serve.cache_put_us", median(putUs), "us");
        report.metric("serve.cache_put_ops",
                      static_cast<double>(putUs.size()), "count");
    }
    std::filesystem::remove_all(dir);
}

} // namespace perfbench
