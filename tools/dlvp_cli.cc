/**
 * @file
 * Command-line driver for the library: generate, inspect, profile,
 * save/load, and simulate workloads without writing C++. Trace files
 * are dlvp-trace-v2 (trace/trace_v2.hh) in both directions.
 *
 *   dlvp_cli list
 *   dlvp_cli list-configs
 *   dlvp_cli list-predictors
 *   dlvp_cli run <workload> [--scheme S] [--insts N] [--dump]
 *   dlvp_cli sweep <workload> [--insts N] [--jobs J]
 *   dlvp_cli suite [--insts N] [--jobs J] [--json FILE]
 *   dlvp_cli profile <workload> [--insts N]
 *   dlvp_cli gen <workload> <file> [--insts N] [--chunk-insts N]
 *   dlvp_cli gen-mega <file> [--insts N] [--phases a,b,c] ...
 *   dlvp_cli runfile <file> [--scheme S]
 *   dlvp_cli trace-info <file>
 *   dlvp_cli serve-request <socket> <workload> [--scheme S] ...
 *   dlvp_cli serve-request <socket> --ping|--stats|--shutdown
 *
 * Parallelism: --jobs (or the DLVP_JOBS env var) sets the worker
 * count of sweep/suite and the thread budget of run/runfile --sample
 * (the trace walker plus up to three interval workers); output is
 * bit-identical for any value (see sim/sweep.hh, sim/sampler.hh).
 *
 * Sampling: --sample switches run/runfile/sweep/suite to the interval
 * sampler (sim/sampler.hh); --sample-check additionally runs the full
 * trace and reports the sampled-vs-full CPI error.
 *
 * Configurations: see `dlvp_cli list-configs` (the named design
 * points) and `dlvp_cli list-predictors` (the LoadAccelerator
 * registry those configurations instantiate).
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli_number.hh"
#include "common/fault_inject.hh"
#include "common/json_escape.hh"
#include "common/run_error.hh"
#include "pred/accel.hh"
#include "serve/client.hh"
#include "sim/configs.hh"
#include "sim/report.hh"
#include "sim/sampler.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "trace/mega.hh"
#include "trace/profilers.hh"
#include "trace/trace_v2.hh"
#include "trace/workloads.hh"

namespace
{

using namespace dlvp;

int
usage()
{
    std::fprintf(
        stderr,
        "usage: dlvp_cli <command> [args]\n"
        "  list                              list the workload suite\n"
        "  list-configs                      named design points\n"
        "  list-predictors                   accelerator registry\n"
        "  run <workload> [opts]             run one configuration\n"
        "  sweep <workload> [opts]           all schemes side by side\n"
        "  suite [opts]                      all schemes x all workloads\n"
        "  profile <workload> [opts]         Figure 1/2 trace profiles\n"
        "  gen <workload> <file> [opts]      generate and save a trace\n"
        "  gen-mega <file> [opts]            compose a mega trace\n"
        "  runfile <file> [opts]             run a saved trace\n"
        "  trace-info <file>                 describe a saved trace\n"
        "  serve-request <socket> <workload> [opts]\n"
        "                                    ask a dlvp-serve daemon\n"
        "                                    for one row (exit 0 ok,\n"
        "                                    3 rejected, 1 error)\n"
        "  serve-request <socket> --ping|--stats|--shutdown\n"
        "options: --scheme <name> --insts <n> --dump\n"
        "         --jobs <n> (or DLVP_JOBS) --json <file>\n"
        "         --deadline-ms <n> (sweep/suite wall-clock budget)\n"
        "         --fault-plan <spec> (or DLVP_FAULT_INJECT; see\n"
        "           README \"Fault tolerance\" for the grammar)\n"
        "         --sample (interval sampling for run/runfile/sweep/\n"
        "           suite) --sample-warmup <n> --sample-measure <n>\n"
        "           --sample-period <n> --sample-check (also run the\n"
        "           full trace and report the CPI error)\n"
        "         --chunk-insts <n> (gen, gen-mega)\n"
        "         --phases <a,b,c> --phase-insts <n> --density <d>\n"
        "           --name <s> (gen-mega)\n"
        "         --seed <n> --priority <p> --client <name>\n"
        "           --ping --stats --shutdown (serve-request)\n"
        "schemes: see `dlvp_cli list-configs`\n");
    return 2;
}

int
unknownConfig(const std::string &name)
{
    std::fprintf(stderr, "unknown scheme '%s'", name.c_str());
    const std::string hint = sim::suggestConfig(name);
    if (!hint.empty())
        std::fprintf(stderr, " (did you mean '%s'?)", hint.c_str());
    std::fprintf(stderr, "; see `dlvp_cli list-configs`\n");
    return 2;
}

struct Options
{
    std::string scheme = "dlvp";
    std::size_t insts = sim::kDefaultInsts;
    unsigned jobs = 0;       ///< 0: DLVP_JOBS env / hardware threads
    std::string jsonPath;    ///< write dlvp-sweep-v1 report here
    double deadlineMs = 0.0; ///< sweep wall-clock budget; 0 = none
    bool dump = false;
    /** Interval sampling; sample.enabled set by --sample*. */
    sim::SampleSpec sample;
    /** Trace-file chunk size (gen, gen-mega). */
    std::uint32_t chunkInsts = trace::kDefaultChunkInsts;
    /** gen-mega phase list (comma-separated registry names). */
    std::string phases = "mcf,perlbmk,gzip,crafty";
    /** gen-mega micro-ops per phase occurrence. */
    std::size_t phaseInsts = 60000;
    /** gen-mega storm-occurrence fraction. */
    double density = 0.0;
    /** gen-mega trace name. */
    std::string name = "mega";
    /** serve-request: VpConfig::rngSeed override (part of the key). */
    std::uint64_t seed = 0;
    /** serve-request: queue priority (higher first, per client). */
    double priority = 0.0;
    /** serve-request: client name for per-client fairness. */
    std::string client;
    /** serve-request: daemon commands instead of a run. */
    bool ping = false;
    bool stats = false;
    bool shutdown = false;
};

bool
parseOptions(int argc, char **argv, int start, Options &opt)
{
    for (int i = start; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--scheme" && i + 1 < argc) {
            opt.scheme = argv[++i];
        } else if (a == "--insts" && i + 1 < argc) {
            if (!tools::parseCount(a.c_str(), argv[++i], opt.insts))
                return false;
        } else if (a == "--jobs" && i + 1 < argc) {
            if (!tools::parseCount(a.c_str(), argv[++i], opt.jobs, 0,
                                   4096))
                return false;
        } else if (a == "--json" && i + 1 < argc) {
            opt.jsonPath = argv[++i];
        } else if (a == "--deadline-ms" && i + 1 < argc) {
            if (!tools::parseReal(a.c_str(), argv[++i], opt.deadlineMs,
                                  0.0))
                return false;
        } else if (a == "--fault-plan" && i + 1 < argc) {
            // Applied immediately: overrides DLVP_FAULT_INJECT.
            try {
                common::FaultPlan::setGlobal(argv[++i]);
            } catch (const common::RunError &e) {
                std::fprintf(stderr, "%s\n", e.what());
                return false;
            }
        } else if (a == "--dump") {
            opt.dump = true;
        } else if (a == "--sample") {
            opt.sample.enabled = true;
        } else if (a == "--sample-warmup" && i + 1 < argc) {
            opt.sample.enabled = true;
            if (!tools::parseCount(a.c_str(), argv[++i],
                                   opt.sample.warmupInsts))
                return false;
        } else if (a == "--sample-measure" && i + 1 < argc) {
            opt.sample.enabled = true;
            if (!tools::parseCount(a.c_str(), argv[++i],
                                   opt.sample.measureInsts))
                return false;
        } else if (a == "--sample-period" && i + 1 < argc) {
            opt.sample.enabled = true;
            if (!tools::parseCount(a.c_str(), argv[++i],
                                   opt.sample.periodInsts))
                return false;
        } else if (a == "--sample-check") {
            opt.sample.enabled = true;
            opt.sample.check = true;
        } else if (a == "--chunk-insts" && i + 1 < argc) {
            if (!tools::parseCount(a.c_str(), argv[++i], opt.chunkInsts,
                                   1, 1u << 24))
                return false;
        } else if (a == "--phases" && i + 1 < argc) {
            opt.phases = argv[++i];
        } else if (a == "--phase-insts" && i + 1 < argc) {
            if (!tools::parseCount(a.c_str(), argv[++i], opt.phaseInsts))
                return false;
        } else if (a == "--density" && i + 1 < argc) {
            if (!tools::parseReal(a.c_str(), argv[++i], opt.density, 0.0,
                                  1.0))
                return false;
        } else if (a == "--name" && i + 1 < argc) {
            opt.name = argv[++i];
        } else if (a == "--seed" && i + 1 < argc) {
            if (!tools::parseCount(a.c_str(), argv[++i], opt.seed))
                return false;
        } else if (a == "--priority" && i + 1 < argc) {
            if (!tools::parseReal(a.c_str(), argv[++i], opt.priority))
                return false;
        } else if (a == "--client" && i + 1 < argc) {
            opt.client = argv[++i];
        } else if (a == "--ping") {
            opt.ping = true;
        } else if (a == "--stats") {
            opt.stats = true;
        } else if (a == "--shutdown") {
            opt.shutdown = true;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", a.c_str());
            return false;
        }
    }
    return true;
}

void
printRun(const std::string &label, const core::CoreStats &base,
         const core::CoreStats &s, bool dump)
{
    std::printf("%-14s cycles %-10llu ipc %-7.3f speedup %+6.2f%%  "
                "cov %5.1f%%  acc %6.2f%%\n",
                label.c_str(),
                static_cast<unsigned long long>(s.cycles), s.ipc(),
                100.0 * (sim::speedup(base, s) - 1.0),
                100.0 * s.coverage(), 100.0 * s.accuracy());
    if (dump)
        s.dump(std::cout);
}

/**
 * Sampled run of baseline + scheme over one trace; with --sample-check
 * the full detailed run happens too and the CPI error is printed.
 */
int
runSampledPair(const trace::Trace &t, const core::VpConfig &vp,
               const Options &opt)
{
    const auto params = sim::baselineCore();
    const auto base = sim::runSampled(params, sim::baselineVp(), t,
                                      opt.sample, opt.jobs);
    const auto s = sim::runSampled(params, vp, t, opt.sample, opt.jobs);
    std::printf("sampled: %zu intervals, %llu of %zu uops measured\n",
                base.intervals,
                static_cast<unsigned long long>(base.sampledInsts()),
                t.size());
    printRun(opt.scheme, base.stats, s.stats, opt.dump);
    if (opt.sample.check) {
        sim::Simulator simulator(params, t.size());
        const auto fullBase = simulator.run(t, sim::baselineVp());
        const auto fullS = simulator.run(t, vp);
        std::printf("cpi error vs full: baseline %.3f%%  %s %.3f%%\n",
                    100.0 * sim::cpiError(base, fullBase),
                    opt.scheme.c_str(),
                    100.0 * sim::cpiError(s, fullS));
    }
    return 0;
}

int
cmdList()
{
    sim::Table t("workloads");
    t.columns({"name", "suite", "description"});
    for (const auto &w : trace::WorkloadRegistry::all())
        t.row({w.name, w.suite, w.description});
    t.print(std::cout);
    return 0;
}

int
cmdListConfigs()
{
    sim::Table t("named configurations");
    t.columns({"name", "accelerator", "description"});
    for (const auto &c : sim::configCatalog())
        t.row({c.name, c.make().accel, c.description});
    t.print(std::cout);
    return 0;
}

int
cmdListPredictors()
{
    sim::Table t("load-accelerator registry");
    t.columns({"key", "description"});
    for (const auto &a : pred::acceleratorCatalog())
        t.row({a.key, a.description});
    t.print(std::cout);
    return 0;
}

int
cmdRun(const std::string &workload, const Options &opt)
{
    core::VpConfig vp;
    if (!sim::configByName(opt.scheme, vp))
        return unknownConfig(opt.scheme);
    if (opt.sample.enabled) {
        const auto t =
            sim::TraceStore::global().acquire(workload, opt.insts);
        return runSampledPair(*t, vp, opt);
    }
    sim::Simulator simulator(sim::baselineCore(), opt.insts);
    const auto base = simulator.run(workload, sim::baselineVp());
    const auto s = simulator.run(workload, vp);
    printRun(opt.scheme, base, s, opt.dump);
    return 0;
}

std::vector<sim::SweepConfig>
defaultSchemes()
{
    std::vector<sim::SweepConfig> configs;
    for (const char *n :
         {"dlvp", "cap", "stride-dlvp", "vtage", "dvtage",
          "tournament", "balcvp", "hermes"}) {
        core::VpConfig vp;
        sim::configByName(n, vp);
        configs.push_back({n, vp});
    }
    return configs;
}

sim::SweepSpec
sweepSpec(const Options &opt)
{
    sim::SweepSpec spec;
    spec.configs = defaultSchemes();
    spec.insts = opt.insts;
    spec.core = sim::baselineCore();
    spec.baseline = sim::baselineVp();
    spec.jobs = opt.jobs;
    spec.sample = opt.sample;
    return spec;
}

int
maybeWriteJson(const sim::SweepResult &result, const Options &opt)
{
    if (opt.jsonPath.empty())
        return 0;
    std::ofstream os(opt.jsonPath);
    if (!os) {
        std::fprintf(stderr, "failed to write '%s'\n",
                     opt.jsonPath.c_str());
        return 1;
    }
    sim::writeSweepJson(os, result);
    std::fprintf(stderr, "wrote %s\n", opt.jsonPath.c_str());
    return 0;
}

void
printFailed(const std::string &label, const sim::JobOutcome &o)
{
    std::printf("%-14s %s: %s\n", label.c_str(),
                sim::jobStatusName(o.status), o.error.c_str());
}

int
cmdSweep(const std::string &workload, const Options &opt)
{
    auto spec = sweepSpec(opt);
    spec.workloads = {workload};
    spec.deadlineMs = opt.deadlineMs;
    const auto result = sim::runSweep(spec);
    const auto &row = result.rows.front();
    if (row.baselineOutcome.ok())
        std::printf("%s (%zu insts): baseline ipc %.3f\n",
                    workload.c_str(), opt.insts, row.baseline.ipc());
    else
        printFailed(workload + "/baseline", row.baselineOutcome);
    for (std::size_t i = 0; i < result.configNames.size(); ++i) {
        if (row.cellOk(i))
            printRun(result.configNames[i], row.baseline,
                     row.results[i], false);
        else
            printFailed(result.configNames[i],
                        row.baselineOutcome.ok()
                            ? row.outcomes[i]
                            : row.baselineOutcome);
    }
    // Failed rows are data, not process failure: the JSON report
    // carries their status, so exit 0 if the report was written.
    return maybeWriteJson(result, opt);
}

int
cmdSuite(const Options &opt)
{
    auto spec = sweepSpec(opt);
    spec.deadlineMs = opt.deadlineMs;
    spec.progress = [](std::size_t done, std::size_t total) {
        std::fprintf(stderr, "\r%zu/%zu jobs%s", done, total,
                     done == total ? "\n" : "");
        std::fflush(stderr);
    };
    const auto result = sim::runSweep(spec);
    sim::Table t("suite sweep: speedup per workload");
    std::vector<std::string> cols = {"workload"};
    cols.insert(cols.end(), result.configNames.begin(),
                result.configNames.end());
    t.columns(std::move(cols));
    for (const auto &row : result.rows) {
        std::vector<sim::Table::Cell> cells = {row.workload};
        for (std::size_t ci = 0; ci < row.results.size(); ++ci) {
            if (row.cellOk(ci))
                cells.emplace_back(
                    sim::speedup(row.baseline, row.results[ci]));
            else
                cells.emplace_back(std::string(sim::jobStatusName(
                    row.baselineOutcome.ok()
                        ? row.outcomes[ci].status
                        : row.baselineOutcome.status)));
        }
        t.row(std::move(cells));
    }
    if (result.failedJobs() != 0)
        std::fprintf(stderr,
                     "warn: %zu jobs did not complete (see JSON "
                     "status fields)\n",
                     result.failedJobs());
    std::vector<sim::Table::Cell> gm = {std::string("GEOMEAN")};
    for (std::size_t i = 0; i < result.configNames.size(); ++i)
        gm.emplace_back(result.geomeanSpeedup(i));
    t.row(std::move(gm));
    t.print(std::cout);
    return maybeWriteJson(result, opt);
}

int
cmdProfile(const std::string &workload, const Options &opt)
{
    const auto t = trace::WorkloadRegistry::build(workload, opt.insts);
    const auto mix = t.mix();
    std::printf("%s: %llu uops, %.1f%% loads, %.1f%% stores, %.1f%% "
                "branches, %.1f%% of loads multi-dest\n",
                workload.c_str(),
                static_cast<unsigned long long>(mix.total),
                100.0 * double(mix.loads) / double(mix.total),
                100.0 * double(mix.stores) / double(mix.total),
                100.0 * double(mix.branches) / double(mix.total),
                mix.loads ? 100.0 * double(mix.multiDestLoads) /
                                double(mix.loads)
                          : 0.0);
    const auto conf = trace::profileConflicts(t);
    std::printf("Figure 1: %.2f%% committed conflicts, %.2f%% "
                "in-flight conflicts\n",
                100.0 * conf.committedFraction(),
                100.0 * conf.inflightFraction());
    const auto rep = trace::profileRepeatability(t);
    std::printf("Figure 2: addr>=8 %.1f%%  value>=64 %.1f%%\n",
                100.0 * rep.fractionAddrAtLeast[3],
                100.0 * rep.fractionValueAtLeast[6]);
    return 0;
}

int
cmdGen(const std::string &workload, const std::string &path,
       const Options &opt)
{
    const auto t = trace::WorkloadRegistry::build(workload, opt.insts);
    if (!trace::saveTraceFileV2(t, path, opt.chunkInsts)) {
        std::fprintf(stderr, "failed to write '%s'\n", path.c_str());
        return 1;
    }
    std::printf("wrote %zu uops (%zu pages of memory image) to %s\n",
                t.size(), t.initialImage.numPages(), path.c_str());
    return 0;
}

int
cmdGenMega(const std::string &path, const Options &opt)
{
    trace::MegaSpec spec;
    spec.name = opt.name;
    spec.totalInsts = opt.insts;
    spec.phaseInsts = opt.phaseInsts;
    spec.conflictDensity = opt.density;
    spec.chunkInsts = opt.chunkInsts;
    for (std::size_t pos = 0; pos < opt.phases.size();) {
        const std::size_t comma = opt.phases.find(',', pos);
        const std::size_t end =
            comma == std::string::npos ? opt.phases.size() : comma;
        if (end > pos)
            spec.phases.push_back(opt.phases.substr(pos, end - pos));
        pos = end + 1;
    }
    trace::writeMegaV2(spec, path);
    const auto f = trace::ChunkedTraceFile::open(path);
    std::printf("wrote %llu uops in %llu chunks (%zu occurrences of "
                "%zu phases, density %.2f) to %s\n",
                static_cast<unsigned long long>(f->numInsts()),
                static_cast<unsigned long long>(f->numChunks()),
                trace::megaSchedule(spec).size(), spec.phases.size(),
                spec.conflictDensity, path.c_str());
    return 0;
}

int
cmdRunFile(const std::string &path, const Options &opt)
{
    trace::Trace t;
    // Streamed (O(chunk) resident). A malformed file throws
    // RunError{io_corrupt} with the precise validation failure (caught
    // in main) instead of a generic "failed to read".
    t.attachStream(trace::ChunkedTraceFile::open(path));
    if (t.verifyReplay() != t.size()) {
        std::fprintf(stderr, "trace failed functional replay\n");
        return 1;
    }
    core::VpConfig vp;
    if (!sim::configByName(opt.scheme, vp))
        return unknownConfig(opt.scheme);
    std::printf("%s (%zu uops from %s, streamed v2)\n", t.name.c_str(),
                t.size(), path.c_str());
    if (opt.sample.enabled)
        return runSampledPair(t, vp, opt);
    sim::Simulator simulator(sim::baselineCore(), t.size());
    const auto base = simulator.run(t, sim::baselineVp());
    const auto s = simulator.run(t, vp);
    printRun(opt.scheme, base, s, opt.dump);
    return 0;
}

int
cmdTraceInfo(const std::string &path)
{
    const auto f = trace::ChunkedTraceFile::open(path);
    const double perInst =
        f->numInsts() ? static_cast<double>(f->encodedBytes()) /
                            static_cast<double>(f->numInsts())
                      : 0.0;
    std::printf("format      dlvp-trace-v2 (on-disk version %c)\n"
                "name        %s\n"
                "suite       %s\n"
                "uops        %llu\n"
                "pages       %zu\n"
                "chunks      %llu x %u uops\n"
                "file bytes  %llu (%.2f B/uop encoded)\n",
                trace::kChunkedTraceVersion, f->name().c_str(),
                f->suite().c_str(),
                static_cast<unsigned long long>(f->numInsts()),
                f->initialImage().numPages(),
                static_cast<unsigned long long>(f->numChunks()),
                f->chunkInsts(),
                static_cast<unsigned long long>(f->fileBytes()), perInst);
    return 0;
}

/**
 * Client mode for the dlvp-serve daemon (tools/dlvp_serve.cc): send
 * one request, print the raw response JSON, and map the response
 * status to an exit code scripts can branch on (0 ok, 3 rejected,
 * 1 anything else).
 */
int
cmdServeRequest(const std::string &socketPath,
                const std::string &workload, const Options &opt)
{
    std::ostringstream os;
    if (opt.ping || opt.stats || opt.shutdown) {
        os << "{\"cmd\": \""
           << (opt.ping ? "ping"
                        : (opt.stats ? "stats" : "shutdown"))
           << "\"}";
    } else {
        os << "{\"cmd\": \"run\", \"workload\": \""
           << common::jsonEscape(workload) << "\", \"config\": \""
           << common::jsonEscape(opt.scheme) << "\", \"insts\": "
           << opt.insts;
        if (opt.seed != 0)
            os << ", \"seed\": " << opt.seed;
        if (opt.priority != 0.0)
            os << ", \"priority\": " << opt.priority;
        if (opt.deadlineMs > 0.0)
            os << ", \"deadline_ms\": " << opt.deadlineMs;
        if (!opt.client.empty())
            os << ", \"client\": \"" << common::jsonEscape(opt.client)
               << "\"";
        if (opt.sample.enabled)
            os << ", \"sample\": {\"warmup_insts\": "
               << opt.sample.warmupInsts << ", \"measure_insts\": "
               << opt.sample.measureInsts << ", \"period_insts\": "
               << opt.sample.periodInsts << ", \"check\": "
               << (opt.sample.check ? "true" : "false") << "}";
        os << "}";
    }
    serve::ServeClient cli(socketPath);
    const std::string response = cli.requestRaw(os.str());
    std::printf("%s\n", response.c_str());
    const serve::JsonValue v = serve::parseJson(response);
    std::string status;
    if (const serve::JsonValue *s = v.find("status"))
        status = s->asString();
    if (status == "ok")
        return 0;
    if (status == "rejected")
        return 3;
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    Options opt;
    // Single-run commands (run/profile/gen/runfile) surface RunError
    // as a clean one-line failure with exit 1, the way dlvp_fatal
    // used to; sweeps never throw per-cell errors (they become row
    // statuses) so this catch only sees caller mistakes there.
    try {
        if (cmd == "list")
            return cmdList();
        if (cmd == "list-configs")
            return cmdListConfigs();
        if (cmd == "list-predictors")
            return cmdListPredictors();
        if (cmd == "run" && argc >= 3 &&
            parseOptions(argc, argv, 3, opt))
            return cmdRun(argv[2], opt);
        if (cmd == "sweep" && argc >= 3 &&
            parseOptions(argc, argv, 3, opt))
            return cmdSweep(argv[2], opt);
        if (cmd == "suite" && parseOptions(argc, argv, 2, opt))
            return cmdSuite(opt);
        if (cmd == "profile" && argc >= 3 &&
            parseOptions(argc, argv, 3, opt))
            return cmdProfile(argv[2], opt);
        if (cmd == "gen" && argc >= 4 &&
            parseOptions(argc, argv, 4, opt))
            return cmdGen(argv[2], argv[3], opt);
        if (cmd == "gen-mega" && argc >= 3) {
            opt.insts = 1000000; // mega default, not kDefaultInsts
            if (parseOptions(argc, argv, 3, opt))
                return cmdGenMega(argv[2], opt);
            return usage();
        }
        if (cmd == "runfile" && argc >= 3 &&
            parseOptions(argc, argv, 3, opt))
            return cmdRunFile(argv[2], opt);
        if (cmd == "trace-info" && argc >= 3)
            return cmdTraceInfo(argv[2]);
        if (cmd == "serve-request" && argc >= 3) {
            // The workload operand is optional for --ping/--stats/
            // --shutdown, so peek before deciding where options start.
            const bool hasWorkload =
                argc >= 4 && argv[3][0] != '-';
            if (parseOptions(argc, argv, hasWorkload ? 4 : 3, opt)) {
                if (!hasWorkload && !opt.ping && !opt.stats &&
                    !opt.shutdown)
                    return usage();
                return cmdServeRequest(
                    argv[2], hasWorkload ? argv[3] : "", opt);
            }
            return usage();
        }
    } catch (const dlvp::common::RunError &e) {
        std::fprintf(stderr, "dlvp_cli: %s\n", e.describe().c_str());
        return 1;
    }
    return usage();
}
