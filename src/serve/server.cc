#include "server.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <iomanip>
#include <limits>
#include <sstream>

#include <sys/socket.h>
#include <unistd.h>

#include "common/deadline.hh"
#include "common/fault_inject.hh"
#include "common/json_escape.hh"
#include "common/run_error.hh"
#include "core/core_stats.hh"
#include "sim/configs.hh"
#include "sim/report.hh"

namespace dlvp::serve
{

namespace
{

using common::ErrorKind;
using common::FaultPlan;
using common::RunError;
using Clock = std::chrono::steady_clock;

/** How often the watchdog looks for in-flight jobs past deadline. */
constexpr unsigned kWatchdogPollMs = 20;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

/** '{"schema": "dlvp-serve-v1"' plus the optional id echo. */
std::string
envelopeHead(const std::string &id)
{
    std::string head = "{\"schema\": \"dlvp-serve-v1\"";
    if (!id.empty())
        head += ", \"id\": " + jsonQuote(id);
    return head;
}

/** Reject request field @p name: it is not @p want. */
[[noreturn]] void
badField(const std::string &name, const char *want)
{
    throw RunError(ErrorKind::Internal,
                   "\"" + name + "\" must be " + want);
}

/**
 * Request field @p v as a non-negative integer. asSize() caps valid
 * values at 1e15, so its SIZE_MAX fallback marks a malformed one.
 */
std::size_t
sizeField(const JsonValue &v, const std::string &name)
{
    constexpr std::size_t kBad = std::numeric_limits<std::size_t>::max();
    const std::size_t n = v.asSize(kBad);
    if (n == kBad)
        badField(name, "a non-negative integer");
    return n;
}

std::string
errorEnvelope(const std::string &id, const RunError &e)
{
    return envelopeHead(id) + ", \"status\": \"error\"" +
           ", \"error_kind\": \"" +
           common::errorKindName(e.kind()) + "\"" +
           ", \"error\": " + jsonQuote(e.what()) + "}";
}

} // namespace

struct Server::Connection
{
    Socket sock;
    std::mutex sendMu;
    std::atomic<bool> done{false};
};

struct Server::ConnSlot
{
    std::shared_ptr<Connection> conn;
    std::thread thread;
};

struct Server::Job
{
    std::string id;
    std::string client;
    double priority = 0.0;
    CacheKey key;
    std::string keyHash;
    core::VpConfig vp;
    bool degraded = false;
    double deadlineMs = 0.0; ///< 0 = unlimited
    Clock::time_point admitted;
    Clock::time_point deadline = Clock::time_point::max();
    std::shared_ptr<Connection> conn;
    /** Worker/watchdog claim: exactly one response per job. */
    std::atomic<bool> responded{false};
};

namespace
{

/**
 * Render one dlvp-sweep-v1 row for a serve response. The cell fields
 * come from the exact writer the CLI report uses, at the exact
 * precision writeSweepJson sets, so a row computed here is
 * byte-identical to the row a cold CLI sweep would print — which is
 * what makes caching the rendered string sound.
 */
std::string
renderRow(const CacheKey &key, const core::CoreStats *baseline,
          const sim::CellResult &cell)
{
    std::ostringstream os;
    os << std::setprecision(12);
    os << "{\"workload\": \"" << common::jsonEscape(key.workload)
       << "\", \"config\": \"" << common::jsonEscape(key.config)
       << "\", \"insts\": " << key.insts << ", ";
    if (baseline != nullptr && cell.outcome.ok())
        os << "\"speedup\": " << sim::speedup(*baseline, cell.stats)
           << ", ";
    sim::writeCellFieldsJson(os, cell.outcome, cell.stats, cell.perf,
                             key.sample.enabled ? &cell.sample
                                                : nullptr);
    os << "}";
    return os.str();
}

/** Row for a cell that never produced stats (timeout/quarantine). */
std::string
renderOutcomeRow(const std::string &workload,
                 const std::string &config, std::size_t insts,
                 const sim::JobOutcome &outcome)
{
    const core::CoreStats zeroStats{};
    const sim::RunPerf zeroPerf{};
    std::ostringstream os;
    os << std::setprecision(12);
    os << "{\"workload\": \"" << common::jsonEscape(workload)
       << "\", \"config\": \"" << common::jsonEscape(config)
       << "\", \"insts\": " << insts << ", ";
    sim::writeCellFieldsJson(os, outcome, zeroStats, zeroPerf,
                             nullptr);
    os << "}";
    return os.str();
}

std::string
rowEnvelope(const std::string &id, const char *cacheStatus,
            bool degraded, const std::string &key,
            const std::string &row)
{
    return envelopeHead(id) + ", \"status\": \"ok\"" +
           ", \"cache\": \"" + cacheStatus + "\"" +
           ", \"degraded\": " + (degraded ? "true" : "false") +
           ", \"key\": \"" + key + "\", \"row\": " + row + "}";
}

} // namespace

Server::Server(ServeOptions opts)
    : opts_(std::move(opts)), cache_(opts_.cacheDir),
      listener_(listenUnix(opts_.socketPath, 64))
{
    if (opts_.workers == 0)
        opts_.workers = 1;
    if (opts_.degradeQueue > opts_.maxQueue)
        opts_.degradeQueue = opts_.maxQueue;
}

Server::~Server()
{
    requestStop();
    // Join outside cm_: a connection thread running requestStop()
    // (the shutdown command) needs cm_ itself.
    std::vector<std::unique_ptr<ConnSlot>> slots;
    {
        std::lock_guard<std::mutex> lock(cm_);
        slots.swap(conns_);
    }
    for (auto &slot : slots)
        if (slot->thread.joinable())
            slot->thread.join();
}

void
Server::requestStop()
{
    stopping_.store(true);
    listener_.shutdownBoth();
    {
        std::lock_guard<std::mutex> lock(cm_);
        for (auto &slot : conns_)
            slot->conn->sock.shutdownBoth();
    }
    qcv_.notify_all();
}

ServerStats
Server::statsSnapshot() const
{
    std::lock_guard<std::mutex> lock(sm_);
    return stats_;
}

void
Server::run()
{
    std::vector<std::thread> workers;
    workers.reserve(opts_.workers);
    for (unsigned i = 0; i < opts_.workers; ++i)
        workers.emplace_back([this] { workerLoop(); });
    std::thread watchdog([this] { watchdogLoop(); });

    while (!stopping_.load()) {
        const int fd = ::accept(listener_.fd(), nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR || errno == ECONNABORTED ||
                errno == EMFILE || errno == ENFILE)
                continue; // transient; keep the daemon alive
            break;        // listener shut down (stop) or unusable
        }
        auto conn = std::make_shared<Connection>();
        conn->sock = Socket(fd);
        {
            std::lock_guard<std::mutex> lock(sm_);
            ++stats_.connections;
        }
        if (FaultPlan::global().connOp("drop")) {
            std::lock_guard<std::mutex> lock(sm_);
            ++stats_.connDropped;
            continue; // conn destructs → immediate close
        }
        setSocketTimeouts(conn->sock, opts_.ioTimeoutMs);
        std::lock_guard<std::mutex> lock(cm_);
        // Reap finished connection threads so a long-lived daemon
        // doesn't accumulate one slot per client ever seen.
        for (auto it = conns_.begin(); it != conns_.end();) {
            if ((*it)->conn->done.load()) {
                if ((*it)->thread.joinable())
                    (*it)->thread.join();
                it = conns_.erase(it);
            } else {
                ++it;
            }
        }
        auto slot = std::make_unique<ConnSlot>();
        slot->conn = conn;
        slot->thread =
            std::thread([this, conn] { connectionLoop(conn); });
        conns_.push_back(std::move(slot));
    }

    stopping_.store(true);
    std::vector<std::unique_ptr<ConnSlot>> slots;
    {
        std::lock_guard<std::mutex> lock(cm_);
        for (auto &slot : conns_)
            slot->conn->sock.shutdownBoth();
        slots.swap(conns_);
    }
    qcv_.notify_all();
    for (auto &t : workers)
        t.join();
    watchdog.join();
    for (auto &slot : slots)
        if (slot->thread.joinable())
            slot->thread.join();
    ::unlink(opts_.socketPath.c_str());
}

void
Server::connectionLoop(std::shared_ptr<Connection> conn)
{
    std::string payload;
    while (!stopping_.load()) {
        try {
            if (!recvFrame(conn->sock, payload))
                break; // clean EOF
        } catch (const RunError &) {
            break; // timeout / torn frame / shutdown
        }
        {
            std::lock_guard<std::mutex> lock(sm_);
            ++stats_.requests;
        }
        std::string id;
        try {
            const JsonValue req = parseJson(payload);
            if (!req.isObject())
                throw RunError(ErrorKind::Internal,
                               "request must be a JSON object");
            if (const JsonValue *v = req.find("id")) {
                if (!v->isString())
                    badField("id", "a string");
                id = v->str;
            }
            handleRequest(conn, req, id);
        } catch (const RunError &e) {
            {
                std::lock_guard<std::mutex> lock(sm_);
                ++stats_.badRequests;
            }
            try {
                sendResponse(conn, errorEnvelope(id, e));
            } catch (const RunError &) {
                break; // client gone mid-error: drop the connection
            }
        }
    }
    conn->done.store(true);
}

void
Server::handleRequest(const std::shared_ptr<Connection> &conn,
                      const JsonValue &req, const std::string &id)
{
    std::string cmd = "run";
    if (const JsonValue *v = req.find("cmd")) {
        if (!v->isString())
            badField("cmd", "a string");
        cmd = v->str;
    }

    if (cmd == "run") {
        admit(conn, req, id);
        return;
    }
    if (cmd == "ping") {
        sendResponse(conn, envelopeHead(id) +
                               ", \"status\": \"ok\", \"pong\": "
                               "true}");
        return;
    }
    if (cmd == "stats") {
        const ServerStats s = statsSnapshot();
        const ResultCache::Stats cs = cache_.stats();
        std::size_t depth = 0;
        {
            std::lock_guard<std::mutex> lock(qm_);
            depth = queuedTotal_;
        }
        std::size_t inFlight = 0;
        {
            std::lock_guard<std::mutex> lock(im_);
            inFlight = inflight_.size();
        }
        std::ostringstream os;
        os << envelopeHead(id) << ", \"status\": \"ok\", "
           << "\"stats\": {\"connections\": " << s.connections
           << ", \"conn_dropped\": " << s.connDropped
           << ", \"requests\": " << s.requests
           << ", \"bad_requests\": " << s.badRequests
           << ", \"hits\": " << s.hits
           << ", \"misses\": " << s.misses
           << ", \"baseline_reuses\": " << s.baselineReuses
           << ", \"quarantined\": " << s.quarantined
           << ", \"rejected\": " << s.rejected
           << ", \"degraded\": " << s.degraded
           << ", \"watchdog_timeouts\": " << s.watchdogTimeouts
           << ", \"queue_depth\": " << depth
           << ", \"in_flight\": " << inFlight
           << ", \"cache\": {\"entries\": " << cs.entries
           << ", \"hits\": " << cs.hits
           << ", \"misses\": " << cs.misses
           << ", \"quarantined_served\": " << cs.quarantinedServed
           << ", \"recovered_entries\": " << cs.recoveredEntries
           << ", \"recovered_quarantined\": "
           << cs.recoveredQuarantined << "}}}";
        sendResponse(conn, os.str());
        return;
    }
    if (cmd == "shutdown") {
        sendResponse(conn, envelopeHead(id) +
                               ", \"status\": \"ok\", "
                               "\"stopping\": true}");
        requestStop();
        return;
    }
    throw RunError(ErrorKind::Internal,
                   "unknown cmd \"" + cmd +
                       "\" (expected run/ping/stats/shutdown)");
}

void
Server::admit(const std::shared_ptr<Connection> &conn,
              const JsonValue &req, const std::string &id)
{
    auto job = std::make_shared<Job>();
    job->id = id;

    const JsonValue *w = req.find("workload");
    if (w == nullptr || !w->isString() || w->str.empty())
        throw RunError(ErrorKind::Internal,
                       "run request needs a \"workload\" string");
    const JsonValue *c = req.find("config");
    if (c == nullptr || !c->isString() || c->str.empty())
        throw RunError(ErrorKind::Internal,
                       "run request needs a \"config\" string");
    if (!sim::configByName(c->str, job->vp)) {
        std::string msg = "unknown config \"" + c->str + "\"";
        const std::string hint = sim::suggestConfig(c->str);
        if (!hint.empty())
            msg += " (did you mean \"" + hint + "\"?)";
        throw RunError(ErrorKind::Internal, msg);
    }

    job->key.workload = w->str;
    job->key.config = c->str;
    job->key.core = opts_.core;
    job->key.insts = opts_.insts;
    if (const JsonValue *v = req.find("insts")) {
        job->key.insts = v->asSize(0);
        if (job->key.insts == 0)
            badField("insts", "a positive integer");
    }
    if (const JsonValue *v = req.find("seed")) {
        job->key.seed = sizeField(*v, "seed");
        job->vp.rngSeed = job->key.seed;
    }
    if (const JsonValue *v = req.find("client")) {
        if (!v->isString())
            badField("client", "a string");
        job->client = v->str;
    }
    if (job->client.empty())
        job->client = "anon";
    if (const JsonValue *v = req.find("priority")) {
        if (!v->isNumber())
            badField("priority", "a number");
        job->priority = v->number;
    }
    job->deadlineMs = opts_.defaultDeadlineMs;
    if (const JsonValue *v = req.find("deadline_ms")) {
        job->deadlineMs = v->asNumber(-1.0);
        if (job->deadlineMs < 0.0)
            badField("deadline_ms", "a non-negative number");
    }
    if (const JsonValue *v = req.find("sample")) {
        if (v->isBool()) {
            if (v->boolean) {
                job->key.sample = opts_.degradeSample;
                job->key.sample.enabled = true;
            }
        } else if (v->isObject()) {
            sim::SampleSpec s;
            s.enabled = true;
            if (const JsonValue *f = v->find("warmup_insts"))
                s.warmupInsts = sizeField(*f, "sample.warmup_insts");
            if (const JsonValue *f = v->find("measure_insts"))
                s.measureInsts = sizeField(*f, "sample.measure_insts");
            if (const JsonValue *f = v->find("period_insts"))
                s.periodInsts = sizeField(*f, "sample.period_insts");
            if (const JsonValue *f = v->find("check")) {
                if (!f->isBool())
                    badField("sample.check", "a bool");
                s.check = f->boolean;
            }
            job->key.sample = s;
        } else {
            throw RunError(ErrorKind::Internal,
                           "\"sample\" must be a bool or an object");
        }
    }

    job->admitted = Clock::now();
    if (job->deadlineMs > 0.0)
        job->deadline =
            common::deadlineAfterMs(job->admitted, job->deadlineMs);
    job->conn = conn;
    job->keyHash = cacheKeyHash(job->key);

    // A cached row costs no worker, so it is answered here on the
    // connection thread: a hit never waits behind simulations, and the
    // limits below guard simulation capacity only.
    const std::string cached = cachedResponse(*job);
    if (!cached.empty()) {
        respondOnce(job, cached);
        return;
    }

    bool rejected = false;
    {
        std::lock_guard<std::mutex> lock(qm_);
        if (queuedTotal_ >= opts_.maxQueue) {
            rejected = true;
        } else {
            // A trace no longer than the degrade warmup would sample
            // to nothing, so such a miss keeps its full detail.
            if (queuedTotal_ >= opts_.degradeQueue &&
                !job->key.sample.enabled &&
                job->key.insts > opts_.degradeSample.warmupInsts) {
                // Graceful degradation: shed detail, keep answering.
                job->degraded = true;
                job->key.sample = opts_.degradeSample;
                job->key.sample.enabled = true;
                job->keyHash = cacheKeyHash(job->key);
                std::lock_guard<std::mutex> slock(sm_);
                ++stats_.degraded;
            }
            auto &dq = queues_[job->client];
            auto pos = dq.end();
            for (auto it = dq.begin(); it != dq.end(); ++it) {
                if ((*it)->priority < job->priority) {
                    pos = it;
                    break;
                }
            }
            dq.insert(pos, job);
            ++queuedTotal_;
        }
    }
    if (rejected) {
        {
            std::lock_guard<std::mutex> lock(sm_);
            ++stats_.rejected;
        }
        sendResponse(conn,
                     envelopeHead(job->id) +
                         ", \"status\": \"rejected\", "
                         "\"retry_after_ms\": " +
                         std::to_string(opts_.retryAfterMs) + "}");
        return;
    }
    qcv_.notify_one();
}

std::shared_ptr<Server::Job>
Server::popJob()
{
    std::unique_lock<std::mutex> lock(qm_);
    qcv_.wait(lock, [this] {
        return stopping_.load() || queuedTotal_ > 0;
    });
    if (stopping_.load())
        return nullptr;
    // Per-client round robin: resume after the last served client,
    // wrapping once, so one chatty client cannot starve the rest.
    auto it = queues_.upper_bound(rrCursor_);
    for (int pass = 0; pass < 2; ++pass) {
        for (; it != queues_.end(); ++it) {
            if (it->second.empty())
                continue;
            auto job = it->second.front();
            it->second.pop_front();
            rrCursor_ = it->first;
            if (it->second.empty())
                queues_.erase(it);
            --queuedTotal_;
            return job;
        }
        it = queues_.begin();
    }
    return nullptr; // unreachable while queuedTotal_ > 0
}

void
Server::workerLoop()
{
    while (!stopping_.load()) {
        auto job = popJob();
        if (job == nullptr)
            return;
        {
            std::lock_guard<std::mutex> lock(im_);
            inflight_.push_back(job);
        }
        try {
            execute(job);
        } catch (...) {
            const RunError e = common::normalizeCurrentException(
                "serve workload=" + job->key.workload +
                " config=" + job->key.config);
            respondOnce(job, errorEnvelope(job->id, e));
        }
        std::lock_guard<std::mutex> lock(im_);
        inflight_.erase(std::remove(inflight_.begin(),
                                    inflight_.end(), job),
                        inflight_.end());
    }
}

std::string
Server::cachedResponse(const Job &job)
{
    const ResultCache::Lookup hit = cache_.lookup(job.keyHash);
    if (hit.status == ResultCache::Status::Hit) {
        {
            std::lock_guard<std::mutex> lock(sm_);
            ++stats_.hits;
        }
        return rowEnvelope(job.id, "hit", job.degraded, job.keyHash,
                           hit.payload);
    }
    if (hit.status == ResultCache::Status::Quarantined) {
        {
            std::lock_guard<std::mutex> lock(sm_);
            ++stats_.quarantined;
        }
        sim::JobOutcome out;
        out.status = sim::JobStatus::Failed;
        out.errorKind = ErrorKind::IoCorrupt;
        out.error = "cache entry quarantined: " + hit.reason;
        out.attempts = 0;
        return rowEnvelope(job.id, "quarantined", job.degraded,
                           job.keyHash,
                           renderOutcomeRow(job.key.workload,
                                            job.key.config,
                                            job.key.insts, out));
    }
    return {};
}

void
Server::execute(const std::shared_ptr<Job> &job)
{
    const std::string &workload = job->key.workload;
    const std::string &config = job->key.config;
    const char *cacheStatus = "miss";

    double remainingMs = 0.0;
    if (job->deadlineMs > 0.0) {
        remainingMs = job->deadlineMs - msSince(job->admitted);
        if (remainingMs <= 0.0) {
            sim::JobOutcome out;
            out.status = sim::JobStatus::Timeout;
            out.errorKind = ErrorKind::SimTimeout;
            out.error = "deadline expired while queued";
            out.attempts = 0;
            respondOnce(job,
                        rowEnvelope(job->id, "miss", job->degraded,
                                    job->keyHash,
                                    renderOutcomeRow(workload,
                                                     config,
                                                     job->key.insts,
                                                     out)));
            return;
        }
    }

    // Admission missed, but the key may have been committed while the
    // job waited, and a degraded job's sampled key was never looked up.
    const std::string cached = cachedResponse(*job);
    if (!cached.empty()) {
        respondOnce(job, cached);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(sm_);
        ++stats_.misses;
    }

    sim::CellSpec cell;
    cell.workload = workload;
    cell.insts = job->key.insts;
    cell.core = job->key.core;
    cell.sample = job->key.sample;
    cell.deadline = job->deadline;
    if (job->deadlineMs > 0.0)
        // The core's wall watchdog aborts a runaway simulation from
        // the inside; the deadline cancels a cell not yet started.
        cell.core.maxWallMs = remainingMs;

    // The baseline cell is the one a "baseline" request with seed 0
    // would run; its stats depend on nothing else in the job.
    CacheKey baselineKey = job->key;
    baselineKey.config = "baseline";
    baselineKey.seed = 0;
    const std::string baselineHash = cacheKeyHash(baselineKey);
    core::CoreStats baseline;
    bool baselineOk = false;
    {
        std::lock_guard<std::mutex> lock(bm_);
        const auto it = baselines_.find(baselineHash);
        if (it != baselines_.end()) {
            baseline = it->second;
            baselineOk = true;
        }
    }
    if (baselineOk) {
        std::lock_guard<std::mutex> lock(sm_);
        ++stats_.baselineReuses;
    } else {
        cell.config = "baseline";
        cell.vp = sim::baselineVp();
        const sim::CellResult base = sim::runCell(cell, store_);
        // Only ok stats are kept: a timeout or failure belongs to this
        // request's deadline or fault plan, not to the key.
        if (base.outcome.ok()) {
            baseline = base.stats;
            baselineOk = true;
            std::lock_guard<std::mutex> lock(bm_);
            baselines_.emplace(baselineHash, baseline);
        }
    }
    cell.config = config;
    cell.vp = job->vp;
    const sim::CellResult res = sim::runCell(cell, store_);
    store_.evict(workload, job->key.insts);

    const std::string row =
        renderRow(job->key, baselineOk ? &baseline : nullptr, res);
    // Only rows with valid stats are worth persisting: a timeout or
    // failure row depends on this request's deadline/fault plan, not
    // on the key, so caching it would poison future requests.
    if (res.outcome.ok() && baselineOk)
        cache_.put(job->keyHash, row);
    respondOnce(job, rowEnvelope(job->id, cacheStatus,
                                 job->degraded, job->keyHash, row));
}

void
Server::watchdogLoop()
{
    while (!stopping_.load()) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(kWatchdogPollMs));
        const Clock::time_point now = Clock::now();
        std::vector<std::shared_ptr<Job>> expired;
        {
            std::lock_guard<std::mutex> lock(im_);
            for (const auto &job : inflight_)
                if (job->deadlineMs > 0.0 && now >= job->deadline &&
                    !job->responded.load())
                    expired.push_back(job);
        }
        for (const auto &job : expired) {
            sim::JobOutcome out;
            out.status = sim::JobStatus::Timeout;
            out.errorKind = ErrorKind::SimTimeout;
            out.error = "serve watchdog: deadline of " +
                        std::to_string(job->deadlineMs) +
                        " ms exceeded";
            out.attempts = 1;
            const std::string row = renderOutcomeRow(
                job->key.workload, job->key.config, job->key.insts,
                out);
            if (respondOnce(job,
                            rowEnvelope(job->id, "miss",
                                        job->degraded, job->keyHash,
                                        row))) {
                std::lock_guard<std::mutex> lock(sm_);
                ++stats_.watchdogTimeouts;
            }
        }
    }
}

bool
Server::respondOnce(const std::shared_ptr<Job> &job,
                    const std::string &payload)
{
    bool expected = false;
    if (!job->responded.compare_exchange_strong(expected, true))
        return false;
    try {
        sendResponse(job->conn, payload);
    } catch (const RunError &) {
        // Client hung up; the row (if cacheable) is cached anyway.
    }
    return true;
}

void
Server::sendResponse(const std::shared_ptr<Connection> &conn,
                     const std::string &payload)
{
    std::lock_guard<std::mutex> lock(conn->sendMu);
    if (FaultPlan::global().connOp("trunc")) {
        // Advertise the full frame, deliver half, hang up: the client
        // must see RunError{io_corrupt}, never a partial parse.
        const auto len =
            static_cast<std::uint32_t>(payload.size());
        char prefix[4];
        prefix[0] = static_cast<char>(len & 0xff);
        prefix[1] = static_cast<char>((len >> 8) & 0xff);
        prefix[2] = static_cast<char>((len >> 16) & 0xff);
        prefix[3] = static_cast<char>((len >> 24) & 0xff);
        sendRaw(conn->sock, prefix, sizeof(prefix));
        sendRaw(conn->sock, payload.data(), payload.size() / 2);
        conn->sock.shutdownBoth();
        return;
    }
    if (FaultPlan::global().connOp("garble")) {
        // Flip bytes across the payload: framing stays intact but the
        // JSON inside must fail the client's strict parse.
        std::string garbled = payload;
        for (std::size_t i = 0; i < garbled.size(); i += 7)
            garbled[i] = static_cast<char>(garbled[i] ^ 0x5a);
        sendFrame(conn->sock, garbled);
        return;
    }
    sendFrame(conn->sock, payload);
}

} // namespace dlvp::serve
