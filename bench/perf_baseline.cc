/**
 * @file
 * Simulator wall-clock baseline: how fast does one simulated row run?
 *
 * Runs the fig06 workload suite (every registered workload) under
 * {baseline, DLVP, BALCVP, Hermes} and reports per-row wall time,
 * simulated MIPS
 * (micro-ops simulated per wall second, warmup included), and memory-
 * image footprint, plus aggregate MIPS. Writes the machine-readable
 * report (schema "dlvp-perf-v1") so the perf trajectory is recorded
 * across PRs; `tools/perf_check` replays this binary and fails on
 * >10% aggregate-MIPS regressions against a committed BENCH_perf.json.
 *
 * Jobs default to 1 (not all hardware threads) so MIPS numbers are
 * not distorted by co-scheduled sweep jobs; pass --jobs to override.
 *
 * A final pass runs the composed mega traces (mega-mix, mega-storm)
 * at 1M uops (--mega-insts) under interval sampling and appends one
 * row per config with "sampled": true; their detailed-engine MIPS is
 * summarized as summary.mega_mips alongside the serial-cell gate
 * metric.
 *
 *   perf_baseline [--insts N] [--mega-insts N] [--jobs J]
 *                 [--out FILE] [--ref FILE] [--no-mega]
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "sim/configs.hh"
#include "sim/report.hh"
#include "sim/sweep.hh"

namespace
{

using namespace dlvp;

/**
 * Default scale of a bare run: the committed BENCH_perf.json reference
 * and tools/perf_check use 60k-uop rows and 1M-uop mega traces (the
 * figure registry's bench::kBenchInsts is 300k).
 */
constexpr std::size_t kPerfInsts = 60000;
constexpr std::size_t kPerfMegaInsts = 1000000;

struct PerfRow
{
    std::string workload;
    std::string config;
    sim::RunPerf perf;
    /** Row ran under interval sampling (mega pass). */
    bool sampled = false;
};

/** First "model name" line from /proc/cpuinfo, or "unknown". */
std::string
cpuModel()
{
    std::ifstream is("/proc/cpuinfo");
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const auto colon = line.find(':');
        if (colon == std::string::npos)
            break;
        auto value = line.substr(colon + 1);
        value.erase(0, value.find_first_not_of(" \t"));
        return value;
    }
    return "unknown";
}

std::string
compilerId()
{
#if defined(__clang__)
    return "clang " + std::string(__clang_version__);
#elif defined(__GNUC__)
    return "gcc " + std::string(__VERSION__);
#else
    return "unknown";
#endif
}

constexpr bool kNativeBuild =
#if defined(DLVP_NATIVE_BUILD)
    true;
#else
    false;
#endif

/** Mega sampled-sweep evidence; recorded != false when the pass ran. */
struct MegaEvidence
{
    bool recorded = false;
    std::size_t insts = 0;
    double wallMs = 0.0;
    double mips = 0.0;
};

void
writePerfJson(std::ostream &os, const std::vector<PerfRow> &rows,
              std::size_t insts, unsigned jobs, double total_wall_ms,
              double mips_total, const MegaEvidence &mega)
{
    os.precision(12);
    os << "{\n  \"schema\": \"dlvp-perf-v1\",\n"
       << "  \"insts\": " << insts << ",\n"
       << "  \"jobs\": " << jobs << ",\n"
       // MIPS only compares within one (machine, compiler, flags)
       // triple: record where this reference was measured so
       // perf_check can warn on cross-host comparisons.
       << "  \"host\": {\"cpu\": \"" << sim::jsonEscape(cpuModel())
       << "\", \"compiler\": \"" << sim::jsonEscape(compilerId())
       << "\", \"native\": " << (kNativeBuild ? "true" : "false")
       << "},\n"
       << "  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto &r = rows[i];
        os << "    {\"workload\": \"" << r.workload
           << "\", \"config\": \"" << r.config
           << "\", \"wall_ms\": " << r.perf.wallMs
           << ", \"mips\": " << r.perf.mips
           << ", \"pages\": " << r.perf.pagesTouched
           << ", \"cycles_skipped\": " << r.perf.cyclesSkipped
           << (r.sampled ? ", \"sampled\": true" : "") << "}"
           << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ],\n  \"summary\": {\"total_wall_ms\": " << total_wall_ms
       << ", \"mips_total\": " << mips_total;
    // Mega sampled rows are detailed-engine throughput over the
    // sampled intervals only; the fast-forwarded gap instructions are
    // excluded from the MIPS numerator.
    if (mega.recorded)
        os << ", \"mega_insts\": " << mega.insts
           << ", \"mega_wall_ms\": " << mega.wallMs
           << ", \"mega_mips\": " << mega.mips;
    os << "}\n}\n";
}

/** Pull summary.mips_total out of a dlvp-perf-v1 file (no JSON lib). */
double
refMipsTotal(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        return 0.0;
    std::string text((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    const auto key = text.find("\"mips_total\":");
    if (key == std::string::npos)
        return 0.0;
    return std::strtod(text.c_str() + key + std::strlen("\"mips_total\":"),
                       nullptr);
}

} // namespace

int
main(int argc, char **argv)
{
    std::size_t insts = kPerfInsts;
    std::size_t mega_insts = kPerfMegaInsts;
    unsigned jobs = 1;
    std::string out = "BENCH_perf.json";
    std::string ref;
    bool mega_pass = true;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--insts" && i + 1 < argc)
            insts = std::strtoull(argv[++i], nullptr, 10);
        else if (a == "--mega-insts" && i + 1 < argc)
            mega_insts = std::strtoull(argv[++i], nullptr, 10);
        else if (a == "--jobs" && i + 1 < argc)
            jobs = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        else if (a == "--out" && i + 1 < argc)
            out = argv[++i];
        else if (a == "--ref" && i + 1 < argc)
            ref = argv[++i];
        else if (a == "--no-mega")
            mega_pass = false;
        else {
            std::fprintf(stderr,
                         "usage: perf_baseline [--insts N] "
                         "[--mega-insts N] [--jobs J] [--out FILE] "
                         "[--ref FILE] [--no-mega]\n");
            return 2;
        }
    }
    sim::SweepSpec spec;
    // DLVP plus the registry-zoo entries: the perf gate watches the
    // new accelerators' simulation throughput from the PR they land.
    spec.configs = {{"dlvp", sim::dlvpConfig()},
                    {"balcvp", sim::balcvpConfig()},
                    {"hermes", sim::hermesConfig()}};
    spec.insts = insts;
    spec.core = sim::baselineCore();
    spec.baseline = sim::baselineVp();
    spec.jobs = jobs;
    sim::TraceStore store;
    spec.store = &store;

    const auto t0 = std::chrono::steady_clock::now();
    const auto result = sim::runSweep(spec);
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - t0;

    std::vector<PerfRow> rows;
    double wall_sum = 0.0;
    for (const auto &r : result.rows) {
        rows.push_back({r.workload, "baseline", r.baselinePerf});
        wall_sum += r.baselinePerf.wallMs;
        for (std::size_t ci = 0; ci < spec.configs.size(); ++ci) {
            rows.push_back({r.workload, spec.configs[ci].name,
                            r.perf[ci]});
            wall_sum += r.perf[ci].wallMs;
        }
    }
    const double total_uops =
        static_cast<double>(insts) * static_cast<double>(rows.size());
    const double mips_total =
        wall_sum > 0.0 ? total_uops / (wall_sum * 1e3) : 0.0;

    sim::Table t("Simulation performance baseline (fig06 suite, "
                 "baseline + zoo)");
    t.columns({"workload", "base_mips", "dlvp_mips", "balcvp_mips",
               "hermes_mips", "pages"});
    t.precision(2);
    for (const auto &r : result.rows)
        t.row({r.workload, r.baselinePerf.mips, r.perf[0].mips,
               r.perf[1].mips, r.perf[2].mips,
               static_cast<long long>(r.perf[0].pagesTouched)});
    t.print(std::cout);
    std::printf("\nrows: %zu x %zu uops   row wall sum: %.0f ms   "
                "elapsed: %.0f ms   aggregate: %.3f MIPS\n",
                rows.size(), insts, wall_sum, elapsed.count(),
                mips_total);

    if (!ref.empty()) {
        const double ref_mips = refMipsTotal(ref);
        if (ref_mips > 0.0)
            std::printf("vs %s: %.3f MIPS -> %.2fx\n", ref.c_str(),
                        ref_mips, mips_total / ref_mips);
        else
            std::fprintf(stderr, "warn: no mips_total in %s\n",
                         ref.c_str());
    }

    // Mega sampled pass: the composed 1M+-uop traces run under the
    // default interval-sampling spec (--sample), one row per config,
    // so the perf trajectory records streaming+sampling throughput at
    // a scale the full-detail rows never reach.
    MegaEvidence mega;
    if (mega_pass) {
        auto mspec = spec;
        mspec.workloads = {"mega-mix", "mega-storm"};
        mspec.insts = mega_insts;
        mspec.sample.enabled = true;
        sim::TraceStore mstore;
        mspec.store = &mstore;
        const auto mresult = sim::runSweep(mspec);
        double mwall = 0.0;
        double muops = 0.0;
        bool all_ok = true;
        for (const auto &r : mresult.rows) {
            if (!r.baselineOutcome.ok())
                all_ok = false;
            rows.push_back({r.workload, "baseline", r.baselinePerf,
                            true});
            mwall += r.baselinePerf.wallMs;
            muops += r.baselinePerf.mips * r.baselinePerf.wallMs * 1e3;
            for (std::size_t ci = 0; ci < mspec.configs.size();
                 ++ci) {
                if (!r.outcomes[ci].ok())
                    all_ok = false;
                rows.push_back({r.workload, mspec.configs[ci].name,
                                r.perf[ci], true});
                mwall += r.perf[ci].wallMs;
                muops += r.perf[ci].mips * r.perf[ci].wallMs * 1e3;
            }
        }
        if (all_ok && mwall > 0.0) {
            mega.recorded = true;
            mega.insts = mega_insts;
            mega.wallMs = mwall;
            mega.mips = muops / (mwall * 1e3);
            std::printf("mega sampled rows: %zu uops/trace, wall sum "
                        "%.0f ms, detailed %.3f MIPS\n",
                        mega_insts, mwall, mega.mips);
        } else {
            std::fprintf(stderr, "warn: mega sampled pass incomplete; "
                                 "no mega_mips recorded\n");
        }
    }

    std::ofstream os(out);
    if (!os) {
        std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
        return 1;
    }
    writePerfJson(os, rows, insts, jobs, wall_sum, mips_total, mega);
    std::fprintf(stderr, "wrote %s\n", out.c_str());
    return 0;
}
