/**
 * @file
 * The dlvp-serve daemon entry point (see src/serve/server.hh for the
 * architecture and README.md §dlvp-serve for the protocol).
 *
 *   dlvp_serve --socket <path> --cache <dir> [options]
 *
 * Runs until SIGINT/SIGTERM or a client's shutdown command, then
 * drains and exits 0. A final stats line goes to stderr so service
 * logs record what the instance did.
 */

#include <csignal>
#include <cstdio>
#include <string>
#include <thread>

#include <unistd.h>

#include "cli_number.hh"
#include "common/fault_inject.hh"
#include "common/run_error.hh"
#include "serve/server.hh"
#include "sim/configs.hh"

namespace
{

using namespace dlvp;

int
usage()
{
    std::fprintf(
        stderr,
        "usage: dlvp_serve --socket <path> --cache <dir> [options]\n"
        "  --workers <n>             simulation worker threads (2)\n"
        "  --max-queue <n>           admission limit; beyond it\n"
        "                            misses are rejected with\n"
        "                            retry_after_ms (32); cache hits\n"
        "                            are always served\n"
        "  --degrade-queue <n>       queue depth at which detailed\n"
        "                            misses shed to sampled runs\n"
        "                            marked degraded:true (8)\n"
        "  --insts <n>               default uops per workload trace\n"
        "  --io-timeout-ms <n>       per-connection socket timeout\n"
        "  --retry-after-ms <n>      backoff hint in reject replies\n"
        "  --default-deadline-ms <n> deadline for requests that set\n"
        "                            none (0 = unlimited)\n"
        "  --degrade-warmup <n> --degrade-measure <n>\n"
        "  --degrade-period <n>      sampling spec for shed requests\n"
        "  --degrade-check           also measure cpi_error on shed\n"
        "                            requests (costly; validation)\n"
        "  --fault-plan <spec>       DLVP_FAULT_INJECT override\n");
    return 2;
}

/**
 * Signal plumbing: handlers may only touch async-signal-safe state,
 * so they write one byte into a pipe and a watcher thread does the
 * actual (mutex-taking) Server::requestStop().
 */
int g_sigPipe[2] = {-1, -1};

extern "C" void
onStopSignal(int)
{
    const char byte = 1;
    // A full pipe just means a stop is already pending.
    (void)!::write(g_sigPipe[1], &byte, 1);
}

} // namespace

int
main(int argc, char **argv)
{
    serve::ServeOptions opts;
    opts.core = sim::baselineCore();
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--socket" && i + 1 < argc) {
            opts.socketPath = argv[++i];
        } else if (a == "--cache" && i + 1 < argc) {
            opts.cacheDir = argv[++i];
        } else if (a == "--workers" && i + 1 < argc) {
            if (!tools::parseCount(a.c_str(), argv[++i], opts.workers,
                                   0, 4096))
                return 2;
        } else if (a == "--max-queue" && i + 1 < argc) {
            if (!tools::parseCount(a.c_str(), argv[++i], opts.maxQueue))
                return 2;
        } else if (a == "--degrade-queue" && i + 1 < argc) {
            if (!tools::parseCount(a.c_str(), argv[++i],
                                   opts.degradeQueue))
                return 2;
        } else if (a == "--insts" && i + 1 < argc) {
            if (!tools::parseCount(a.c_str(), argv[++i], opts.insts))
                return 2;
        } else if (a == "--io-timeout-ms" && i + 1 < argc) {
            if (!tools::parseCount(a.c_str(), argv[++i],
                                   opts.ioTimeoutMs))
                return 2;
        } else if (a == "--retry-after-ms" && i + 1 < argc) {
            if (!tools::parseCount(a.c_str(), argv[++i],
                                   opts.retryAfterMs))
                return 2;
        } else if (a == "--default-deadline-ms" && i + 1 < argc) {
            if (!tools::parseReal(a.c_str(), argv[++i],
                                  opts.defaultDeadlineMs, 0.0))
                return 2;
        } else if (a == "--degrade-warmup" && i + 1 < argc) {
            if (!tools::parseCount(a.c_str(), argv[++i],
                                   opts.degradeSample.warmupInsts))
                return 2;
        } else if (a == "--degrade-measure" && i + 1 < argc) {
            if (!tools::parseCount(a.c_str(), argv[++i],
                                   opts.degradeSample.measureInsts))
                return 2;
        } else if (a == "--degrade-period" && i + 1 < argc) {
            if (!tools::parseCount(a.c_str(), argv[++i],
                                   opts.degradeSample.periodInsts))
                return 2;
        } else if (a == "--degrade-check") {
            opts.degradeSample.check = true;
        } else if (a == "--fault-plan" && i + 1 < argc) {
            try {
                common::FaultPlan::setGlobal(argv[++i]);
            } catch (const common::RunError &e) {
                std::fprintf(stderr, "dlvp_serve: %s\n", e.what());
                return 2;
            }
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", a.c_str());
            return usage();
        }
    }
    if (opts.socketPath.empty() || opts.cacheDir.empty())
        return usage();

    if (::pipe(g_sigPipe) != 0) {
        std::fprintf(stderr, "dlvp_serve: pipe failed\n");
        return 1;
    }
    std::signal(SIGINT, onStopSignal);
    std::signal(SIGTERM, onStopSignal);
    std::signal(SIGPIPE, SIG_IGN);

    try {
        serve::Server server(std::move(opts));
        std::thread sigWatcher([&server] {
            char byte = 0;
            if (::read(g_sigPipe[0], &byte, 1) == 1 && byte == 1)
                server.requestStop();
        });
        const serve::ServeOptions &o = server.options();
        const auto recovered = server.cache().stats();
        std::printf("dlvp-serve: listening on %s (cache %s: %zu "
                    "entries recovered, %zu quarantined; %u "
                    "workers)\n",
                    o.socketPath.c_str(), o.cacheDir.c_str(),
                    recovered.recoveredEntries,
                    recovered.recoveredQuarantined, o.workers);
        std::fflush(stdout);
        server.run();
        // Unblock the watcher if we stopped via a client command.
        const char byte = 0;
        (void)!::write(g_sigPipe[1], &byte, 1);
        sigWatcher.join();
        const serve::ServerStats s = server.statsSnapshot();
        std::fprintf(stderr,
                     "dlvp-serve: stopped after %llu requests "
                     "(%llu hits, %llu misses, %llu rejected, "
                     "%llu degraded, %llu watchdog timeouts)\n",
                     static_cast<unsigned long long>(s.requests),
                     static_cast<unsigned long long>(s.hits),
                     static_cast<unsigned long long>(s.misses),
                     static_cast<unsigned long long>(s.rejected),
                     static_cast<unsigned long long>(s.degraded),
                     static_cast<unsigned long long>(
                         s.watchdogTimeouts));
    } catch (const common::RunError &e) {
        std::fprintf(stderr, "dlvp_serve: %s\n",
                     e.describe().c_str());
        return 1;
    }
    return 0;
}
