/**
 * @file
 * `serve-mixed`: a dlvp_serve daemon with two workers, driven closed
 * loop by two in-process serve::ServeClient connections.
 *
 * Most requests repeat one of a fixed set of hot keys, cached during
 * set-up (hits: wire, JSON and the cache's verified read path). Every
 * kMissPeriod-th request carries a fresh `seed`, so it simulates and
 * then commits through the cache's fsync'd put (misses: the write
 * path). Client threads plus daemon workers stay within four busy
 * threads.
 *
 * The mix is synthetic: there is no recorded dlvp_serve traffic to
 * replay. It is chosen so that hits and misses each take about half
 * of the clients' time, and both outcomes collect enough samples for
 * their percentiles in one run. The measured split is reported as
 * serve_miss_time_share.
 *
 * Output checks: every response is ok and not degraded; a hit's row
 * bytes equal the row its key's miss returned; every miss row's stats
 * equal an in-process Simulator::run of the same key; the daemon's
 * `stats` counters agree with what the clients saw.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.hh"
#include "bench_math.hh"
#include "common/rng.hh"
#include "gauge.hh"
#include "serve/cache.hh"
#include "serve/client.hh"
#include "serve/json.hh"
#include "sim/configs.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"

namespace perfbench
{

namespace
{

using dlvp::serve::CacheKey;
using dlvp::serve::jsonQuote;
using dlvp::serve::JsonValue;
using dlvp::serve::ServeClient;

constexpr std::size_t kServeInsts = 20000;
constexpr unsigned kWorkers = 2;
constexpr unsigned kClients = 2;
/**
 * One request in kMissPeriod misses. A hit takes about 0.06 ms and a
 * 20k-uop miss about 16 ms on a 4-core Xeon, so one miss per 256
 * requests gives each path about half of the client time: requests
 * per second then moves with either path, hit latency isolates the
 * read path, and miss MIPS the write path.
 */
constexpr std::uint64_t kMissPeriod = 256;
/**
 * Each client runs a host-gauge slice every kGaugePeriod requests,
 * about a tenth of its time; latencies and rates are divided by the
 * run's slowdown (gauge.hh).
 */
constexpr std::uint64_t kGaugePeriod = 64;
const char *const kSocket = "serve.sock";
const char *const kCacheDir = "serve-cache";

/** A served workload set spanning memory-, compute- and store-bound. */
const std::vector<std::string> &
serveWorkloads()
{
    static const std::vector<std::string> w = {
        "gzip", "mcf", "crafty", "perlbmk",
        "libquantum", "storm", "gcc", "xalancbmk"};
    return w;
}

const std::vector<std::string> &
serveConfigs()
{
    static const std::vector<std::string> c = {"dlvp", "vtage"};
    return c;
}

std::string
requestJson(const CacheKey &k)
{
    return "{\"cmd\": \"run\", \"workload\": " + jsonQuote(k.workload) +
           ", \"config\": " + jsonQuote(k.config) +
           ", \"insts\": " + std::to_string(k.insts) +
           ", \"seed\": " + std::to_string(k.seed) + "}";
}

/** The row object of a run response, byte for byte. */
std::string
rowOf(const std::string &resp)
{
    static const std::string tag = "\"row\": ";
    const auto pos = resp.find(tag);
    if (pos == std::string::npos || resp.size() < pos + tag.size() + 1)
        return {};
    const std::size_t b = pos + tag.size();
    return resp.substr(b, resp.size() - b - 1);
}

/** Empty when @p resp is an ok, undegraded row with @p cache. */
std::string
envelopeError(const std::string &resp, const char *cache)
{
    if (resp.find("\"status\": \"ok\"") == std::string::npos)
        return "status is not ok: " + resp.substr(0, 200);
    if (resp.find(std::string("\"cache\": \"") + cache + "\"") ==
        std::string::npos)
        return std::string("expected cache ") + cache + ": " +
               resp.substr(0, 200);
    if (resp.find("\"degraded\": false") == std::string::npos)
        return "row was degraded";
    return {};
}

/** The dlvp_serve child process; stopped by the destructor. */
class Daemon
{
  public:
    Daemon(const std::string &bin, double *startS)
    {
        const auto t0 = Clock::now();
        const std::string workers = std::to_string(kWorkers);
        const std::string insts = std::to_string(kServeInsts);
        std::vector<const char *> argv = {
            bin.c_str(), "--socket", kSocket, "--cache", kCacheDir,
            "--workers", workers.c_str(), "--insts", insts.c_str(),
            nullptr};
        pid_ = ::fork();
        if (pid_ < 0)
            throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            // The daemon dies with the benchmark and keeps its banner
            // off the benchmark's stdout.
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            ::dup2(2, 1);
            ::execv(bin.c_str(), const_cast<char *const *>(argv.data()));
            ::_exit(127);
        }
        // Ready once a ping round-trips.
        for (;;) {
            try {
                ServeClient probe(kSocket, 5000);
                if (probe.requestRaw("{\"cmd\": \"ping\"}")
                        .find("\"pong\": true") != std::string::npos)
                    break;
            } catch (const std::exception &) {
            }
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                throw std::runtime_error("dlvp_serve exited at start");
            }
            if (secondsSince(t0) > 30.0) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, &status, 0);
                pid_ = -1;
                throw std::runtime_error("dlvp_serve did not start");
            }
            // Start-up takes a few ms; poll finely so setup_s is not
            // quantized to the polling period.
            ::usleep(100);
        }
        if (startS != nullptr)
            *startS = secondsSince(t0);
    }

    ~Daemon() { stop(); }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    int pid() const { return pid_; }

    /** Ask for shutdown, then wait; SIGKILL after a grace period. */
    void
    stop()
    {
        if (pid_ <= 0)
            return;
        try {
            ServeClient c(kSocket, 5000);
            c.requestRaw("{\"cmd\": \"shutdown\"}");
        } catch (const std::exception &) {
            ::kill(pid_, SIGTERM);
        }
        const auto t0 = Clock::now();
        int status = 0;
        while (::waitpid(pid_, &status, WNOHANG) == 0) {
            if (secondsSince(t0) > 10.0) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, &status, 0);
                break;
            }
            ::usleep(2000);
        }
        pid_ = -1;
    }

  private:
    int pid_ = -1;
};

/** One client thread's record of the closed loop. */
struct ClientLog
{
    std::vector<double> hitMs;
    std::vector<double> missMs;
    std::vector<double> pingUs;
    /** Hit cycles with and without the traced ping, for overhead. */
    std::vector<double> tracedCycleMs;
    std::vector<double> untracedCycleMs;
    std::vector<std::pair<CacheKey, std::string>> missRows;
    std::vector<std::string> failures;
    std::uint64_t attempted = 0;
    HostGauge gauge;
    /** The client's loop seconds, its gauge slices excluded. */
    double loopS = 0.0;
};

/** Compare a served row's stats with an in-process run. */
std::string
rowMismatch(const std::string &row, const dlvp::core::CoreStats &s)
{
    JsonValue v;
    try {
        v = dlvp::serve::parseJson(row);
    } catch (const std::exception &e) {
        return std::string("row does not parse: ") + e.what();
    }
    const JsonValue *st = v.find("stats");
    const JsonValue *status = v.find("status");
    if (st == nullptr || status == nullptr || status->asString() != "ok")
        return "row has no ok stats";
    const auto same = [](double a, double b) {
        return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b));
    };
    const struct
    {
        const char *name;
        double want;
    } fields[] = {
        {"cycles", static_cast<double>(s.cycles)},
        {"committed_insts", static_cast<double>(s.committedInsts)},
        {"vp_flushes", static_cast<double>(s.vpFlushes)},
        {"ipc", s.ipc()},
        {"coverage", s.coverage()},
        {"accuracy", s.accuracy()},
    };
    for (const auto &f : fields) {
        const JsonValue *got = st->find(f.name);
        if (got == nullptr || !same(got->asNumber(-1.0), f.want))
            return std::string("served ") + f.name +
                   " differs from an in-process run";
    }
    return {};
}

/** In-process stats for @p k over @p traces. */
dlvp::core::CoreStats
expectedStats(const CacheKey &k,
              const std::map<std::string,
                             std::shared_ptr<const dlvp::trace::Trace>>
                  &traces)
{
    dlvp::core::VpConfig vp;
    if (!dlvp::sim::configByName(k.config, vp))
        throw std::runtime_error("unknown config " + k.config);
    vp.rngSeed = k.seed;
    const dlvp::sim::Simulator sim(dlvp::sim::baselineCore(),
                                   kServeInsts);
    return sim.run(*traces.at(k.workload), vp);
}

std::uint64_t
statsCounter(const JsonValue &resp, const char *name)
{
    const JsonValue *st = resp.find("stats");
    const JsonValue *v = st != nullptr ? st->find(name) : nullptr;
    return v != nullptr ? static_cast<std::uint64_t>(v->asNumber(0.0))
                        : 0;
}

} // namespace

void
serveWorkload(const RunContext &ctx, Checks &checks, Report &report,
              std::string *sampleRow)
{
    std::filesystem::remove_all(kCacheDir);

    // In-process reference traces for the row checks (not timed).
    dlvp::sim::TraceStore store;
    std::map<std::string, std::shared_ptr<const dlvp::trace::Trace>>
        traces;
    for (const std::string &w : serveWorkloads())
        traces[w] = store.acquire(w, kServeInsts);

    // Seeds stay below 2^53: the daemon parses JSON numbers as double.
    const std::uint64_t seedBase = (ctx.seed % 1000000) * 10000000ULL;
    std::vector<CacheKey> hot;
    for (const std::string &w : serveWorkloads())
        for (const std::string &c : serveConfigs())
            hot.push_back(
                {w, c, kServeInsts, seedBase + 5000000 + hot.size()});

    // ---- set-up: start, cache the hot keys, restart K times ------
    std::vector<std::string> hotRows(hot.size());
    std::vector<std::pair<CacheKey, std::string>> missRows;
    std::unique_ptr<Daemon> daemon =
        std::make_unique<Daemon>(ctx.serveBin, nullptr);
    {
        ServeClient c(kSocket);
        for (std::size_t i = 0; i < hot.size(); ++i) {
            const std::string resp = c.requestRaw(requestJson(hot[i]));
            const std::string err = envelopeError(resp, "miss");
            checks.expect(err.empty(), "serve pre-warm: " + err);
            hotRows[i] = rowOf(resp);
            missRows.push_back({hot[i], hotRows[i]});
        }
    }
    // A restart takes milliseconds, so take three times the samples.
    std::vector<double> startS;
    for (unsigned rep = 0; rep < 3 * ctx.setupReps; ++rep) {
        daemon.reset();
        double s = 0.0;
        daemon = std::make_unique<Daemon>(ctx.serveBin, &s);
        startS.push_back(s);
    }

    // ---- closed loop: two clients --------------------------------
    std::atomic<std::uint64_t> missCounter{0};
    std::vector<ClientLog> logs(kClients);
    // Run at least ctx.seconds, and on until the reported
    // percentiles have ten samples beyond them (hit p99, miss p90).
    std::atomic<std::size_t> hitCount{0}, missCount{0};
    const auto t0 = Clock::now();
    const auto done = [&] {
        const double el = secondsSince(t0);
        return el > 60.0 ||
               (el >= ctx.seconds &&
                percentileSupported(hitCount.load(), 0.99) &&
                percentileSupported(missCount.load(), 0.90));
    };
    const auto clientLoop = [&](unsigned id) {
        ClientLog &log = logs[id];
        dlvp::Rng rng(dlvp::deriveSeed("perfbench-serve",
                                       std::to_string(ctx.seed), id));
        // Misses at a fixed period from a seeded phase, so the mix
        // does not vary from run to run.
        const std::uint64_t phase = rng.below(kMissPeriod);
        const auto c0 = Clock::now();
        try {
            ServeClient client(kSocket);
            for (std::uint64_t n = 0; !done(); ++n) {
                if (n % kGaugePeriod == 0)
                    log.gauge.sample();
                const bool miss = (n + phase) % kMissPeriod == 0;
                CacheKey key;
                std::size_t hotIdx = 0;
                if (miss) {
                    key = hot[rng.below(hot.size())];
                    key.seed = seedBase + 1 + missCounter.fetch_add(1);
                } else {
                    hotIdx = rng.below(hot.size());
                    key = hot[hotIdx];
                }
                ++log.attempted;
                const auto q0 = Clock::now();
                const std::string resp = client.requestRaw(requestJson(key));
                const double ms = 1e3 * secondsSince(q0);
                double pingUs = 0.0;
                const bool tracedReq = ctx.traced && id == 0 && n % 2 == 1;
                if (tracedReq) {
                    const auto p0 = Clock::now();
                    const std::string pong =
                        client.requestRaw("{\"cmd\": \"ping\"}");
                    pingUs = 1e6 * secondsSince(p0);
                    log.pingUs.push_back(pingUs);
                    if (pong.find("\"pong\": true") == std::string::npos)
                        log.failures.push_back("ping failed");
                }
                const std::string err =
                    envelopeError(resp, miss ? "miss" : "hit");
                if (!err.empty()) {
                    log.failures.push_back(err);
                    continue;
                }
                if (miss) {
                    log.missMs.push_back(ms);
                    log.missRows.push_back({key, rowOf(resp)});
                    ++missCount;
                } else {
                    log.hitMs.push_back(ms);
                    ++hitCount;
                    if (rowOf(resp) != hotRows[hotIdx])
                        log.failures.push_back(
                            "hit bytes differ from the miss row of " +
                            key.workload + "/" + key.config);
                    if (id == 0 && ctx.traced)
                        (tracedReq ? log.tracedCycleMs
                                   : log.untracedCycleMs)
                            .push_back(ms + pingUs / 1e3);
                }
            }
        } catch (const std::exception &e) {
            log.failures.push_back(std::string("client: ") + e.what());
        }
        log.loopS = secondsSince(c0) - log.gauge.totalSeconds();
    };
    std::vector<std::thread> threads;
    for (unsigned id = 0; id < kClients; ++id)
        threads.emplace_back(clientLoop, id);
    for (std::thread &t : threads)
        t.join();

    // ---- daemon-side counters and memory -------------------------
    JsonValue stats;
    {
        ServeClient c(kSocket);
        stats = c.request("{\"cmd\": \"stats\"}");
    }
    const double daemonRss = peakRssMb(daemon->pid());
    daemon->stop();

    ClientLog all;
    for (ClientLog &log : logs) {
        all.attempted += log.attempted;
        all.hitMs.insert(all.hitMs.end(), log.hitMs.begin(),
                         log.hitMs.end());
        all.missMs.insert(all.missMs.end(), log.missMs.begin(),
                          log.missMs.end());
        for (std::string &f : log.failures)
            all.failures.push_back(std::move(f));
        for (auto &m : log.missRows)
            missRows.push_back(std::move(m));
    }
    checks.attempt(all.attempted);
    for (const std::string &f : all.failures)
        checks.fail("serve: " + f);
    checks.expect(statsCounter(stats, "hits") == all.hitMs.size(),
                  "serve: daemon hit count disagrees with the clients");
    checks.expect(statsCounter(stats, "misses") == all.missMs.size(),
                  "serve: daemon miss count disagrees with the clients");
    checks.expect(statsCounter(stats, "rejected") == 0 &&
                      statsCounter(stats, "degraded") == 0 &&
                      statsCounter(stats, "watchdog_timeouts") == 0,
                  "serve: rows were rejected, degraded or timed out");
    checks.expect(percentileSupported(all.hitMs.size(), 0.99) &&
                      percentileSupported(all.missMs.size(), 0.90),
                  "serve: too few samples for hit p99 / miss p90");

    // ---- every miss row against an in-process run ----------------
    std::vector<std::string> mismatches;
    std::mutex mm;
    std::atomic<std::size_t> next{0};
    const auto verifier = [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= missRows.size())
                return;
            std::string err;
            try {
                err = rowMismatch(missRows[i].second,
                                  expectedStats(missRows[i].first, traces));
            } catch (const std::exception &e) {
                err = e.what();
            }
            if (!err.empty()) {
                std::lock_guard<std::mutex> lock(mm);
                mismatches.push_back(missRows[i].first.workload + "/" +
                                     missRows[i].first.config + ": " +
                                     err);
            }
        }
    };
    threads.clear();
    for (unsigned i = 0; i < 3; ++i)
        threads.emplace_back(verifier);
    for (std::thread &t : threads)
        t.join();
    checks.attempt(missRows.size());
    for (const std::string &m : mismatches)
        checks.fail("serve row: " + m);

    report.noteNumber("serve_hits", static_cast<double>(all.hitMs.size()));
    report.noteNumber("serve_misses",
                      static_cast<double>(all.missMs.size()));
    if (sampleRow != nullptr && !hotRows.empty())
        *sampleRow = hotRows[0];

    // Which path the clients spent their time on.
    double hitS = 0.0, missS = 0.0;
    for (const double ms : all.hitMs)
        hitS += ms / 1e3;
    for (const double ms : all.missMs)
        missS += ms / 1e3;
    const double missTimeShare = ratio(missS, hitS + missS);
    report.noteNumber("serve_miss_time_share", missTimeShare);

    // Host slowdown: the mean of the clients' median slices. Set-up is
    // divided by it too (see grid.cc). Requests per second add up
    // each client's rate over its loop time, gauge slices excluded.
    double slow = 0.0, rps = 0.0;
    for (const ClientLog &log : logs) {
        slow += log.gauge.slowdown(0, log.gauge.count()) / kClients;
        rps += ratio(log.attempted, log.loopS);
    }
    // A miss simulates the baseline cell and the config cell.
    const double mips =
        ratio(2.0 * kServeInsts * all.missMs.size(), missS * 1e6);
    const double hitP50 = median(all.hitMs);
    report.noteNumber("serve_host_slowdown", slow);
    report.noteNumber("serve_raw_setup_s", median(startS));
    report.noteNumber("serve_raw_mips", mips);
    report.noteNumber("serve_raw_ops_per_s", rps);
    report.noteNumber("serve_raw_op_p50_ms", hitP50);
    if (!ctx.traced) {
        report.metric("setup_s", median(startS) / slow, "s");
        report.metric("mips", mips * slow, "Muops/s");
        report.metric("ops_per_s", rps * slow, "1/s");
        report.metric("op_p50_ms", hitP50 / slow, "ms");
        report.metric("peak_rss_mb", daemonRss, "MB");
        return;
    }

    report.metric("serve.ping_rtt_us", median(logs[0].pingUs) / slow,
                  "us");
    report.metric("serve.hits",
                  static_cast<double>(statsCounter(stats, "hits")),
                  "count");
    report.metric("serve.misses",
                  static_cast<double>(statsCounter(stats, "misses")),
                  "count");
    report.metric("serve.rejected",
                  static_cast<double>(statsCounter(stats, "rejected")),
                  "count");
    report.metric("serve.degraded",
                  static_cast<double>(statsCounter(stats, "degraded")),
                  "count");
    report.metric("serve.hit_p50_ms", hitP50 / slow, "ms");
    report.metric("serve.hit_p99_ms", percentile(all.hitMs, 0.99) / slow,
                  "ms");
    report.metric("serve.miss_p50_ms", median(all.missMs) / slow, "ms");
    report.metric("serve.miss_p90_ms",
                  percentile(all.missMs, 0.90) / slow, "ms");
    report.metric("serve.rps", rps * slow, "1/s");
    report.metric("serve.miss_time_share", missTimeShare, "ratio");
    report.metric("bench.trace_overhead_pct.serve-mixed",
                  100.0 * (ratio(median(logs[0].tracedCycleMs),
                                 median(logs[0].untracedCycleMs)) -
                           1.0),
                  "%");
}

} // namespace perfbench
