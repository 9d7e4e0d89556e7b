/**
 * @file
 * Entry point of the perfbench binary (normally started by run.py):
 *
 *   perfbench --workload grid|mega-sampled|serve-mixed --seed N
 *             --seconds S --trace 0|1 --serve-bin PATH
 *
 * Runs in the current directory, which must be a scratch directory:
 * the mega trace, the daemon's socket and its cache are created here.
 * Untraced runs measure the named workload's end-to-end metrics.
 * Traced runs give every workload a third of the seconds and then run
 * the layer-isolation pass, so each traced run reports every
 * per-layer metric. stdout ends with a provenance line and then the
 * result line.
 */

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hh"
#include "serve/json.hh"

namespace perfbench
{

using dlvp::serve::jsonQuote;

void
Checks::fail(const std::string &what)
{
    if (failed_ < 20)
        std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    ++failed_;
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics_.push_back({name, value, unit});
}

void
Report::note(const std::string &key, const std::string &json)
{
    notes_.emplace_back(key, json);
}

void
Report::noteNumber(const std::string &key, double value)
{
    note(key, jsonNumber(value));
}

std::string
Report::provenanceJson() const
{
    std::string s = "{\"perfbench_provenance\": {";
    for (std::size_t i = 0; i < notes_.size(); ++i)
        s += (i ? ", " : "") + jsonQuote(notes_[i].first) + ": " +
             notes_[i].second;
    return s + "}}";
}

std::string
Report::resultJson(const Checks &checks) const
{
    std::string s = "{\"correct\": ";
    s += checks.failed() == 0 && checks.attempted() > 0 ? "true"
                                                        : "false";
    s += ", \"attempted\": " + std::to_string(checks.attempted());
    s += ", \"failed\": " + std::to_string(checks.failed());
    s += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i)
        s += (i ? ", " : "") + jsonQuote(metrics_[i].name) +
             ": {\"value\": " + jsonNumber(metrics_[i].value) +
             ", \"unit\": " + jsonQuote(metrics_[i].unit) + "}";
    return s + "}}";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

double
peakRssMb(int pid)
{
    std::ifstream is(pid > 0 ? "/proc/" + std::to_string(pid) + "/status"
                             : std::string("/proc/self/status"));
    std::string line;
    while (std::getline(is, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0;
    return 0.0;
}

} // namespace perfbench

namespace
{

using namespace perfbench;

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
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(" \t"));
        return v;
    }
    return "unknown";
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload grid|mega-sampled|"
                 "serve-mixed --seed N --seconds S --trace 0|1 "
                 "--serve-bin PATH\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    RunContext ctx;
    std::string workload;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string a = argv[i];
        const char *v = argv[i + 1];
        if (a == "--workload")
            workload = v;
        else if (a == "--seed")
            ctx.seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds")
            ctx.seconds = std::atof(v);
        else if (a == "--trace")
            ctx.traced = std::atoi(v) != 0;
        else if (a == "--serve-bin")
            ctx.serveBin = v;
        else
            return usage();
    }
    if (argc % 2 == 0 || ctx.seconds <= 0.0 || ctx.serveBin.empty() ||
        (workload != "grid" && workload != "mega-sampled" &&
         workload != "serve-mixed"))
        return usage();

    Checks checks;
    Report report;
    report.note("workload", jsonQuote(workload));
    report.noteNumber("seed", static_cast<double>(ctx.seed));
    report.noteNumber("seconds", ctx.seconds);
    report.noteNumber("trace", ctx.traced ? 1 : 0);
    report.note("cpu", jsonQuote(cpuModel()));
    report.noteNumber("nproc", std::thread::hardware_concurrency());
#if defined(__clang__)
    report.note("compiler", jsonQuote("clang " __clang_version__));
#elif defined(__GNUC__)
    report.note("compiler", jsonQuote("gcc " __VERSION__));
#endif
    report.note("build_type", jsonQuote(PERFBENCH_BUILD_TYPE));
    // The repository's DLVP_NATIVE option defines this; the Release
    // build run.py makes never does.
#ifdef DLVP_NATIVE_BUILD
    report.note("dlvp_native", "true");
#else
    report.note("dlvp_native", "false");
#endif

    try {
        if (!ctx.traced) {
            if (workload == "grid")
                gridWorkload(ctx, checks, report);
            else if (workload == "mega-sampled")
                megaWorkload(ctx, checks, report);
            else
                serveWorkload(ctx, checks, report, nullptr);
        } else {
            // Set-up keeps its repetitions, so trace.build_ms and
            // trace.mega_write_ms are medians of as many samples as
            // the setup_s they explain.
            RunContext part = ctx;
            part.seconds = ctx.seconds / 3.0;
            std::string row;
            gridWorkload(part, checks, report);
            megaWorkload(part, checks, report);
            serveWorkload(part, checks, report, &row);
            layerIsolation(row, checks, report);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    std::printf("%s\n%s\n", report.provenanceJson().c_str(),
                report.resultJson(checks).c_str());
    return 0;
}
