/**
 * @file
 * The dlvp-serve daemon: sweep-as-a-service over a Unix socket.
 *
 * One process holds one warm refcounted TraceStore and one persistent
 * ResultCache (serve/cache.hh); every request is a single (workload,
 * config) grid cell (sim::runCell), answered as a dlvp-sweep-v1 row
 * with its speedup over the baseline cell of the same key. The
 * baseline does not depend on the request's config or seed, so the
 * daemon keeps each ok baseline's stats in memory and a later miss of
 * the same (workload, insts, core, sample) simulates only its config
 * cell. Cached, computed, degraded and failed rows all share the CLI
 * report's cell schema via sim::writeCellFieldsJson, so a hit is
 * byte-identical to the row a cold CLI sweep would print.
 *
 * Robustness layers (DESIGN.md §14):
 *
 *  - Admission control: a cached key is answered (hit or
 *    quarantined row) on the connection thread before it touches the
 *    queue, so a hit is never queued, degraded or rejected. Misses
 *    enter a bounded prioritized queue with per-client round-robin
 *    fairness. Beyond maxQueue the server rejects with a structured
 *    retry_after_ms instead of queueing unboundedly; request
 *    deadlines propagate into sim::CellSpec::deadline and the core
 *    wall-clock watchdog.
 *  - Graceful degradation: between degradeQueue and maxQueue,
 *    full-detail misses are shed to interval-sampled runs
 *    (sim/sampler) and marked "degraded": true. Degraded rows are
 *    cached under their *sampled* key, never the full-detail key. A
 *    miss too short to sample (insts <= the degrade warmup) keeps
 *    its full detail.
 *  - Watchdog: a dedicated thread turns jobs that outlive their
 *    deadline into structured timeout rows while the worker is still
 *    stuck, so a hung simulation can never hang a client or the
 *    daemon. Workers and the watchdog race for a per-job atomic
 *    claim, so exactly one response is ever sent.
 *  - Injectable failure: conn: fault rules (common/fault_inject.hh)
 *    drop accepted connections and truncate or garble responses, so
 *    client-side hardening is testable; cache: rules crash the
 *    process at the cache's commit points.
 *
 * Protocol: length-prefixed JSON frames (serve/wire.hh). Requests:
 *   {"cmd": "run", "workload": W, "config": C, ...}   → row envelope
 *   {"cmd": "ping"}                                   → pong
 *   {"cmd": "stats"}                                  → counters
 *   {"cmd": "shutdown"}                               → ack, then stop
 * Full field tables live in README.md §dlvp-serve.
 */

#ifndef DLVP_SERVE_SERVER_HH
#define DLVP_SERVE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/annotations.hh"
#include "core/core_stats.hh"
#include "core/params.hh"
#include "serve/cache.hh"
#include "serve/json.hh"
#include "serve/wire.hh"
#include "sim/sample_spec.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"

namespace dlvp::serve
{

struct ServeOptions
{
    /** Unix socket path the daemon listens on. */
    std::string socketPath;
    /** Persistent result-cache root (created if absent). */
    std::string cacheDir;
    /** Simulation worker threads. */
    unsigned workers = 2;
    /** Admission limit: queued jobs at/beyond this are rejected. */
    std::size_t maxQueue = 32;
    /**
     * Degradation threshold: at/beyond this queue depth, full-detail
     * requests are shed to interval-sampled runs. Must be below
     * maxQueue to be reachable.
     */
    std::size_t degradeQueue = 8;
    /** Per-connection socket send/receive timeout. */
    unsigned ioTimeoutMs = 30000;
    /** retry_after_ms hint carried by reject responses. */
    unsigned retryAfterMs = 250;
    /** Default per-request deadline when the request sets none; 0 = unlimited. */
    double defaultDeadlineMs = 0.0;
    /** Default micro-ops per workload trace. */
    std::size_t insts = sim::kDefaultInsts;
    /**
     * Sampling spec applied to shed requests (enabled is forced on).
     * check=true additionally measures cpi_error per degraded row —
     * costly, but lets validation sweeps quantify what shedding gave
     * up.
     */
    sim::SampleSpec degradeSample{};
};

/** Observability counters (the `stats` command and tests). */
struct ServerStats
{
    std::uint64_t connections = 0;
    std::uint64_t connDropped = 0; ///< conn:drop fault victims
    std::uint64_t requests = 0;
    std::uint64_t badRequests = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /** Misses that took their baseline from baselines_, not a run. */
    std::uint64_t baselineReuses = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t rejected = 0;
    std::uint64_t degraded = 0;
    std::uint64_t watchdogTimeouts = 0;
};

class Server
{
  public:
    /** Opens the cache (running crash recovery) and binds the socket. */
    explicit Server(ServeOptions opts);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Serve until requestStop(). Spawns workers, the watchdog, and
     * one thread per accepted connection; joins them all before
     * returning and unlinks the socket path.
     */
    void run();

    /** Stop accepting, drain, and make run() return. Thread-safe. */
    void requestStop();

    const ServeOptions &options() const { return opts_; }
    ResultCache &cache() { return cache_; }
    ServerStats statsSnapshot() const;

  private:
    struct Connection;
    struct Job;
    /** One accepted connection + the thread draining it. */
    struct ConnSlot;

    void connectionLoop(std::shared_ptr<Connection> conn);
    void workerLoop();
    void watchdogLoop();

    /**
     * Dispatch one parsed request, whose "id" connectionLoop already
     * read into @p id; sends the response itself.
     */
    void handleRequest(const std::shared_ptr<Connection> &conn,
                       const JsonValue &req, const std::string &id);

    /**
     * Admission for cmd=run: answers a cached key on the spot,
     * otherwise queues (possibly degraded) or rejects.
     */
    void admit(const std::shared_ptr<Connection> &conn,
               const JsonValue &req, const std::string &id);

    /**
     * One cache lookup for @p job's key: the hit or quarantined
     * envelope, counted in stats_, or empty on a miss (not counted).
     */
    std::string cachedResponse(const Job &job);

    /** Pop the next job with per-client round-robin fairness. */
    std::shared_ptr<Job> popJob();

    /**
     * Run one cell (cache lookup again, simulate, cache fill,
     * respond).
     */
    void execute(const std::shared_ptr<Job> &job);

    /** Send @p payload on @p conn, applying conn: fault rules. */
    void sendResponse(const std::shared_ptr<Connection> &conn,
                      const std::string &payload);

    /**
     * Claim-and-send for a job. Returns true if this call won the
     * worker/watchdog race and sent (or tried to send) the response.
     */
    bool respondOnce(const std::shared_ptr<Job> &job,
                     const std::string &payload);

    ServeOptions opts_;
    ResultCache cache_;
    sim::TraceStore store_;
    Socket listener_;

    std::atomic<bool> stopping_{false};

    mutable std::mutex qm_;
    std::condition_variable qcv_;
    /** Per-client FIFO-within-priority queues (fairness unit). */
    std::map<std::string, std::deque<std::shared_ptr<Job>>> queues_;
    DLVP_GUARDED_BY(qm_);
    std::size_t queuedTotal_ = 0;
    DLVP_GUARDED_BY(qm_);
    /** Round-robin cursor: last client a worker served. */
    std::string rrCursor_;
    DLVP_GUARDED_BY(qm_);

    mutable std::mutex im_;
    std::vector<std::shared_ptr<Job>> inflight_;
    DLVP_GUARDED_BY(im_);

    /**
     * Lock order: qm_ may nest sm_ inside it (admission bumps
     * counters); never take qm_ while holding sm_.
     */
    mutable std::mutex sm_;
    ServerStats stats_;
    DLVP_GUARDED_BY(sm_);

    mutable std::mutex cm_;
    std::vector<std::unique_ptr<ConnSlot>> conns_;
    DLVP_GUARDED_BY(cm_);

    /**
     * Stats of every baseline cell that ran ok, keyed by the
     * cacheKeyHash of its own key (config "baseline", seed 0, vp
     * sim::baselineVp()). Stats only, never a trace; not persisted.
     */
    std::mutex bm_;
    std::map<std::string, core::CoreStats> baselines_;
    DLVP_GUARDED_BY(bm_);
};

} // namespace dlvp::serve

#endif // DLVP_SERVE_SERVER_HH
