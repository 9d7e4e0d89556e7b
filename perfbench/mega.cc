/**
 * @file
 * `mega-sampled`: a seeded phase composition written to
 * dlvp-trace-v2, opened streamed and run under interval sampling
 * (sim::runSampled, default SampleSpec) for {baseline, dlvp}.
 *
 * With the default spec two thirds of the micro-ops are
 * fast-forwarded, so v2 chunk decode and functional replay carry
 * most of the host time. The traced rounds replay the sampler's
 * interval schedule through the trace layer's public calls
 * (advanceImage, slice, OoOCore::run) to time each part, and check
 * that the replay reproduces runSampled's CoreStats exactly.
 */

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hh"
#include "bench_math.hh"
#include "common/rng.hh"
#include "core/core.hh"
#include "gauge.hh"
#include "sim/configs.hh"
#include "sim/sampler.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "trace/mega.hh"
#include "trace/trace_v2.hh"

namespace perfbench
{

namespace
{

using dlvp::core::CoreStats;

/** 20 default sample periods of 180k micro-ops. */
constexpr std::size_t kMegaInsts = 3600000;
/** Gauge slices before each sampled run and after each round. */
constexpr unsigned kGaugeSlices = 16;
constexpr double kStormDensity = 0.25;
const char *const kMegaPath = "mega.v2";

/** The seed picks the phase order of the mega-mix phase set. */
dlvp::trace::MegaSpec
megaSpec(std::uint64_t seed)
{
    dlvp::trace::MegaSpec spec;
    spec.name = "perfbench-mega";
    spec.phases = {"mcf", "perlbmk", "gzip", "crafty"};
    dlvp::Rng rng(dlvp::deriveSeed("perfbench-mega", std::to_string(seed)));
    for (std::size_t i = spec.phases.size() - 1; i > 0; --i)
        std::swap(spec.phases[i], spec.phases[rng.below(i + 1)]);
    spec.totalInsts = kMegaInsts;
    spec.conflictDensity = kStormDensity;
    return spec;
}

dlvp::trace::Trace
openStreamed()
{
    dlvp::trace::Trace trace;
    trace.attachStream(dlvp::trace::ChunkedTraceFile::open(kMegaPath));
    return trace;
}

/** Host time of each trace-layer call in one replayed sampled run. */
struct Replay
{
    CoreStats stats;
    std::size_t intervals = 0;
    std::uint64_t detailedUops = 0;
    std::uint64_t ffwdUops = 0;
    double ffwdS = 0.0;
    double sliceS = 0.0;
};

/** sim::runSampled's interval schedule, one timed call at a time. */
Replay
replaySampled(const dlvp::core::CoreParams &params,
              const dlvp::core::VpConfig &vp,
              const dlvp::trace::Trace &trace,
              const dlvp::sim::SampleSpec &sample)
{
    Replay r;
    dlvp::trace::MemoryImage image = trace.initialImage;
    std::size_t pos = 0;
    for (std::size_t start = 0; start < trace.size();
         start += sample.periodInsts) {
        auto t0 = Clock::now();
        dlvp::trace::advanceImage(image, trace, pos, start);
        r.ffwdS += secondsSince(t0);
        r.ffwdUops += start - pos;
        pos = start;
        const std::size_t avail = trace.size() - start;
        if (avail <= sample.warmupInsts)
            break;
        const std::size_t count =
            std::min(avail, sample.warmupInsts + sample.measureInsts);
        t0 = Clock::now();
        const dlvp::trace::Trace slice =
            trace.slice(start, count, image);
        r.sliceS += secondsSince(t0);
        dlvp::core::OoOCore core(params, vp, slice);
        r.stats.accumulate(core.run(sample.warmupInsts));
        r.detailedUops += count;
        ++r.intervals;
    }
    return r;
}

} // namespace

void
megaWorkload(const RunContext &ctx, Checks &checks, Report &report)
{
    const dlvp::trace::MegaSpec spec = megaSpec(ctx.seed);
    HostGauge gauge;

    // ---- set-up: write the composition ---------------------------
    std::vector<double> writeS;
    for (unsigned rep = 0; rep < ctx.setupReps; ++rep) {
        const auto t0 = Clock::now();
        dlvp::trace::writeMegaV2(spec, kMegaPath);
        writeS.push_back(secondsSince(t0));
    }
    dlvp::trace::Trace reference = openStreamed();
    checks.expect(reference.size() == kMegaInsts,
                  "mega trace has the wrong size");
    checks.expect(reference.verifyReplay() == reference.size(),
                  "mega trace fails Trace::verifyReplay");
    const double bytesPerUop =
        ratio(reference.stream()->fileBytes(), reference.size());

    const dlvp::core::CoreParams params = dlvp::sim::baselineCore();
    const std::vector<dlvp::sim::SweepConfig> configs = {
        {"baseline", dlvp::sim::baselineVp()},
        {"dlvp", dlvp::sim::dlvpConfig()}};
    dlvp::sim::SampleSpec sample;
    sample.enabled = true;

    // ---- closed loop: open + runSampled per config ---------------
    std::vector<std::uint64_t> digests(configs.size(), 0);
    std::vector<dlvp::sim::SampledRun> firstRuns(configs.size());
    std::vector<double> roundMs, roundMips, untracedS, tracedS;
    std::vector<double> rawRoundMips, slowdowns;
    std::vector<std::vector<double>> sampledMs(configs.size());
    MipsSum decode, ffwd;
    double sliceS = 0.0;
    std::size_t slices = 0;
    Replay lastReplay;

    const auto t0 = Clock::now();
    for (std::size_t round = 0;
         round < minOps(ctx) || secondsSince(t0) < ctx.seconds;
         ++round) {
        const bool tracedRound = ctx.traced && round % 2 == 1;
        // A gauge burst before each sampled run and one after the
        // round; the round's times are divided by their slowdown.
        const std::size_t g0 = gauge.count();
        const double gaugeS0 = gauge.totalSeconds();
        std::vector<double> runMs(configs.size(), -1.0);
        const auto r0 = Clock::now();
        const dlvp::trace::Trace trace = openStreamed();
        if (tracedRound) {
            const auto d0 = Clock::now();
            std::uint64_t n = 0;
            trace.forEachInst(
                [&n](const dlvp::trace::TraceInst &) { ++n; });
            decode.add(n, secondsSince(d0));
            checks.expect(n == kMegaInsts,
                          "mega decode pass saw the wrong count");
        }
        double simS = 0.0;
        for (std::size_t c = 0; c < configs.size(); ++c) {
            const std::string where = "mega " + configs[c].name;
            checks.attempt();
            gauge.sample(kGaugeSlices);
            const auto s0 = Clock::now();
            CoreStats stats;
            try {
                if (tracedRound) {
                    lastReplay = replaySampled(params, configs[c].vp,
                                               trace, sample);
                    stats = lastReplay.stats;
                    ffwd.add(lastReplay.ffwdUops, lastReplay.ffwdS);
                    sliceS += lastReplay.sliceS;
                    slices += lastReplay.intervals;
                } else {
                    const dlvp::sim::SampledRun run =
                        dlvp::sim::runSampled(params, configs[c].vp,
                                              trace, sample);
                    stats = run.stats;
                    if (round == 0)
                        firstRuns[c] = run;
                }
            } catch (const std::exception &e) {
                checks.fail(where + ": " + e.what());
                continue;
            }
            const double runS = secondsSince(s0);
            simS += runS;
            if (!tracedRound)
                runMs[c] = 1e3 * runS;
            for (const std::string &v : conservationViolations(stats))
                checks.fail(where + ": " + v);
            const std::uint64_t d = statsDigest(stats);
            if (round == 0)
                digests[c] = d;
            else if (digests[c] != d)
                checks.fail(where + ": sampled CoreStats digest changed"
                            + (tracedRound ? " in the traced replay"
                                           : " between rounds"));
        }
        gauge.sample(kGaugeSlices);
        const double roundS =
            secondsSince(r0) - (gauge.totalSeconds() - gaugeS0);
        const double slow = gauge.slowdown(g0, gauge.count());
        slowdowns.push_back(slow);
        for (std::size_t c = 0; c < runMs.size(); ++c)
            if (runMs[c] >= 0.0)
                sampledMs[c].push_back(runMs[c] / slow);
        roundMs.push_back(1e3 * roundS / slow);
        const double mips =
            ratio(static_cast<double>(configs.size() * kMegaInsts),
                  simS * 1e6);
        rawRoundMips.push_back(mips);
        roundMips.push_back(mips * slow);
        (tracedRound ? tracedS : untracedS).push_back(roundS);
    }
    report.noteNumber("mega_rounds", static_cast<double>(roundMs.size()));
    report.noteNumber("mega_gauge_slices",
                      static_cast<double>(gauge.count()));
    // Set-up is divided by the closed loop's slowdown (see grid.cc).
    const double setupSlowdown = median(slowdowns);
    report.noteNumber("mega_host_slowdown", setupSlowdown);
    report.noteNumber("mega_raw_setup_s", median(writeS));
    report.noteNumber("mega_raw_mips", median(rawRoundMips));

    if (!ctx.traced) {
        report.metric("setup_s", median(writeS) / setupSlowdown, "s");
        report.metric("mips", median(roundMips), "Muops/s");
        report.metric("ops_per_s", ratio(1e3, median(roundMs)), "1/s");
        report.metric("op_p50_ms", median(roundMs), "ms");
        report.metric("peak_rss_mb", peakRssMb(), "MB");
        return;
    }

    // ---- per-layer metrics ---------------------------------------
    // The full-detail reference for the sampling error, once.
    const dlvp::sim::Simulator fullSim(params, kMegaInsts);
    const CoreStats full = fullSim.run(reference, configs[1].vp);

    report.metric("trace.mega_write_ms",
                  1e3 * median(writeS) / setupSlowdown, "ms");
    report.metric("trace.v2_bytes_per_uop", bytesPerUop, "B/uop");
    report.metric("trace.decode_mips", decode.mips(), "Muops/s");
    report.metric("trace.ffwd_mips", ffwd.mips(), "Muops/s");
    report.metric("trace.slice_ms", 1e3 * ratio(sliceS, slices), "ms");
    report.metric("sim.sampler.detailed_fraction",
                  ratio(lastReplay.detailedUops, kMegaInsts), "ratio");
    report.metric("sim.sampler.intervals",
                  static_cast<double>(lastReplay.intervals), "count");
    for (std::size_t c = 0; c < configs.size(); ++c)
        report.metric("sim.sampled_ms." + configs[c].name,
                      median(sampledMs[c]), "ms");
    report.metric("sim.sample_cpi_error",
                  dlvp::sim::cpiError(firstRuns[1], full), "ratio");
    report.metric("bench.trace_overhead_pct.mega-sampled",
                  100.0 * (ratio(median(tracedS), median(untracedS)) -
                           1.0),
                  "%");
}

} // namespace perfbench
