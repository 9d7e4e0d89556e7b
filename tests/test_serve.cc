/**
 * @file
 * Tests of the dlvp-serve stack (ctest label "serve"): the JSON
 * parser, wire framing, the cache key, and — the heart of the suite —
 * the crash-safety contract of the persistent result cache plus the
 * daemon's admission / degradation / watchdog behavior.
 *
 * Crash coverage forks a child that arms a `cache:` fault plan and
 * gets SIGKILLed inside put() on each side of the commit rename, then
 * reopens the cache in the parent and asserts it recovers to a
 * consistent state where no corrupt entry is ever served. Exhaustive
 * sweeps over a committed entry file (test_mega.cc fuzz style) — every
 * truncation length and every single-bit flip, header included —
 * prove the same holds for every possible torn or rotted file, found
 * at recovery or on read.
 *
 * Daemon-level tests exec the real dlvp_serve binary (DLVP_SERVE_BIN)
 * and speak the wire protocol through serve::ServeClient — the same
 * code path `dlvp_cli serve-request` uses.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/fault_inject.hh"
#include "common/fields.hh"
#include "common/run_error.hh"
#include "serve/cache.hh"
#include "serve/client.hh"
#include "serve/json.hh"
#include "serve/wire.hh"
#include "sim/configs.hh"
#include "sim/report.hh"
#include "sim/sweep.hh"

namespace
{

namespace fs = std::filesystem;
using namespace dlvp;
using namespace dlvp::serve;
using common::ErrorKind;
using common::FaultPlan;
using common::RunError;

/** Unique scratch directory, recursively removed on scope exit. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        char buf[] = "/tmp/dlvp_serve_test_XXXXXX";
        const char *p = ::mkdtemp(buf);
        EXPECT_NE(p, nullptr);
        path = p != nullptr ? p : "/tmp/dlvp_serve_test_fallback";
    }

    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
};

std::string
readFile(const std::string &p)
{
    std::ifstream in(p, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeFile(const std::string &p, const std::string &bytes)
{
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

std::string
keyFor(const char *tag)
{
    return hex16(fnv1a64(tag, std::string(tag).size()));
}

/** The "row": suffix of a serve envelope (byte-identity checks). */
std::string
rowPart(const std::string &resp)
{
    const auto p = resp.find("\"row\": ");
    return p == std::string::npos ? std::string() : resp.substr(p);
}

/** Value of a top-level `"field": "..."` string in raw response text. */
std::string
strField(const std::string &resp, const std::string &field)
{
    const std::string marker = "\"" + field + "\": \"";
    const auto p = resp.find(marker);
    if (p == std::string::npos)
        return {};
    const auto start = p + marker.size();
    const auto end = resp.find('"', start);
    return resp.substr(start, end - start);
}

// ======================================================== JSON parser

TEST(ServeJson, ParsesDocumentsAndPreservesValues)
{
    const JsonValue v = parseJson(
        "{\"a\": 1.5, \"b\": [true, null, \"x\\u0041\\n\"], "
        "\"neg\": -2.5e3, \"obj\": {\"k\": \"v\"}}");
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.find("a")->asNumber(0.0), 1.5);
    const JsonValue *b = v.find("b");
    ASSERT_TRUE(b != nullptr && b->isArray());
    ASSERT_EQ(b->array.size(), 3u);
    EXPECT_TRUE(b->array[0].asBool(false));
    EXPECT_TRUE(b->array[1].isNull());
    EXPECT_EQ(b->array[2].asString(), "xA\n");
    EXPECT_EQ(v.find("neg")->asNumber(0.0), -2500.0);
    ASSERT_TRUE(v.find("obj") != nullptr);
    EXPECT_EQ(v.find("obj")->find("k")->asString(), "v");
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(ServeJson, RejectsMalformedDocuments)
{
    for (const char *bad :
         {"", "{", "[1, 2", "{} trailing", "{\"a\": 1, \"a\": 2}",
          "tru", "\"unterminated", "{\"a\":}", "1e", "nan",
          "\"\\ud800\"", "{\"a\" 1}", "[1,]", "'single'"}) {
        EXPECT_THROW((void)parseJson(bad), RunError) << bad;
    }
    // Nesting past the parser depth limit is rejected, not a crash.
    std::string deep;
    for (int i = 0; i < 100; ++i)
        deep += '[';
    EXPECT_THROW((void)parseJson(deep), RunError);
}

TEST(ServeJson, SweepReportErrorsRoundTrip)
{
    // A cell's error text reaches a dlvp-sweep-v1 reader byte for
    // byte, control characters included.
    const std::string error = "line one\nline two\ttab\x01\"q\"\\";
    sim::SweepResult r;
    r.configNames = {"dlvp"};
    sim::SweepRow row;
    row.workload = "mcf";
    row.baselineOutcome.status = sim::JobStatus::Failed;
    row.baselineOutcome.error = error;
    row.results.resize(1);
    row.perf.resize(1);
    row.outcomes.resize(1);
    r.rows.push_back(row);
    std::ostringstream os;
    sim::writeSweepJson(os, r);
    const JsonValue doc = parseJson(os.str());
    const JsonValue *rows = doc.find("rows");
    ASSERT_TRUE(rows != nullptr && rows->isArray());
    ASSERT_EQ(rows->array.size(), 1u);
    const JsonValue *baseline = rows->array[0].find("baseline");
    ASSERT_TRUE(baseline != nullptr);
    EXPECT_EQ(baseline->find("error")->asString(), error);
}

TEST(ServeJson, AsSizeRejectsNonIntegers)
{
    const JsonValue v =
        parseJson("{\"f\": 1.5, \"n\": -3, \"ok\": 8000}");
    EXPECT_EQ(v.find("f")->asSize(7), 7u);
    EXPECT_EQ(v.find("n")->asSize(7), 7u);
    EXPECT_EQ(v.find("ok")->asSize(7), 8000u);
}

// ========================================================= cache key

/**
 * Generated from the field lists, so it misses no listed field: each
 * field of the key's core, vp (AccelParams base included) and sample,
 * perturbed in turn, makes its struct unequal and changes the key's
 * hash, and its text and the perturbed text are no prefix of each
 * other, so the concatenated canonical text stays decodable.
 */
TEST(ServeCacheKey, CoversEveryArchitecturalInput)
{
    CacheKey base;
    base.workload = "mcf";
    base.config = "dlvp";
    base.insts = 8000;
    const std::string h = cacheKeyHash(base);
    EXPECT_EQ(h.size(), 16u);
    EXPECT_EQ(cacheKeyHash(base), h) << "hash must be stable";

    std::size_t fields = 0;
    const auto everyField = [&](auto place) {
        CacheKey k = base;
        common::forEachField(k.*place, [&](const std::string &path,
                                           auto &leaf) {
            const auto saved = leaf;
            std::string was, now;
            common::appendCanonical(was, leaf);
            common::perturb(leaf);
            common::appendCanonical(now, leaf);
            EXPECT_FALSE(k.*place == base.*place) << path;
            EXPECT_NE(cacheKeyHash(k), h) << path;
            EXPECT_FALSE(now.starts_with(was) || was.starts_with(now))
                << path << ": " << was << " vs " << now;
            leaf = saved;
            ++fields;
        });
    };
    everyField(&CacheKey::core);
    everyField(&CacheKey::vp);
    everyField(&CacheKey::sample);
    // The listed fields today: a visitor that skipped a struct (or the
    // AccelParams base) would reach fewer. A new field raises it.
    EXPECT_EQ(fields, 113u);

    auto differs = [&](auto mutate, const char *what) {
        CacheKey k = base;
        mutate(k);
        EXPECT_NE(cacheKeyHash(k), h) << what;
    };
    differs([](CacheKey &k) { k.workload = "vpr"; }, "workload");
    differs([](CacheKey &k) { k.config = "vtage"; }, "config");
    differs([](CacheKey &k) { k.insts = 8001; }, "insts");
    differs([](CacheKey &k) { k.seed = 1; }, "seed");
}

TEST(ServeCacheKey, ExcludesWallClockWatchdogBudgets)
{
    CacheKey base;
    base.workload = "mcf";
    base.config = "dlvp";
    base.insts = 8000;
    base.core = sim::baselineCore();
    const std::string h = cacheKeyHash(base);
    // serve derives maxWallMs from each request's deadline; budgets
    // bound wall clock, never architectural results, so two requests
    // differing only in deadline must share one cache entry.
    CacheKey k = base;
    k.core.maxWallMs = 1234;
    k.core.maxNoCommitCycles = 99;
    EXPECT_EQ(cacheKeyHash(k), h);
}

// ================================================= result cache (hot)

TEST(ResultCache, RoundTripAndPersistenceAcrossReopen)
{
    TempDir td;
    const std::string dir = td.path + "/cache";
    const std::string key = keyFor("k1");
    const std::string payload = "{\"workload\": \"mcf\", \"v\": 1}";
    {
        ResultCache cache(dir);
        EXPECT_EQ(cache.lookup(key).status,
                  ResultCache::Status::Miss);
        cache.put(key, payload);
        const auto hit = cache.lookup(key);
        ASSERT_EQ(hit.status, ResultCache::Status::Hit);
        EXPECT_EQ(hit.payload, payload);
        // First write wins: payloads for one key are identical by
        // construction, so a racing second put must not rewrite.
        cache.put(key, "{\"v\": 2}");
        EXPECT_EQ(cache.lookup(key).payload, payload);
    }
    ResultCache reopened(dir);
    EXPECT_EQ(reopened.stats().recoveredEntries, 1u);
    const auto hit = reopened.lookup(key);
    ASSERT_EQ(hit.status, ResultCache::Status::Hit);
    EXPECT_EQ(hit.payload, payload) << "hit must be byte-identical "
                                       "across a daemon restart";
}

TEST(ResultCache, PostCommitCorruptionIsQuarantinedThenHeals)
{
    for (const char *op : {"trunc-entry", "flip-entry"}) {
        TempDir td;
        ResultCache cache(td.path + "/cache");
        const std::string key = keyFor(op);
        const std::string payload =
            "{\"workload\": \"mcf\", \"speedup\": 1.25}";
        FaultPlan::setGlobal(std::string("cache:") + op);
        cache.put(key, payload);
        FaultPlan::clearGlobal();
        // The read path re-verifies length + checksum on every hit:
        // the corrupt bytes must never come back as a payload.
        const auto first = cache.lookup(key);
        EXPECT_EQ(first.status, ResultCache::Status::Quarantined)
            << op;
        EXPECT_FALSE(first.reason.empty()) << op;
        // Quarantine is one-shot: the key heals to a miss so the
        // next request recomputes and re-caches.
        EXPECT_EQ(cache.lookup(key).status,
                  ResultCache::Status::Miss)
            << op;
        cache.put(key, payload);
        const auto healed = cache.lookup(key);
        ASSERT_EQ(healed.status, ResultCache::Status::Hit) << op;
        EXPECT_EQ(healed.payload, payload) << op;
    }
}

TEST(ResultCache, EntriesPathThatIsAFileFailsAtOpen)
{
    // A cache that cannot hold entries must fail at open, not start a
    // daemon that simulates every miss and then fails each commit.
    TempDir td;
    const std::string dir = td.path + "/cache";
    fs::create_directories(dir);
    writeFile(dir + "/entries", "not a directory");
    try {
        ResultCache cache(dir);
        FAIL() << "opening a cache whose entries path is a file must "
                  "throw";
    } catch (const RunError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::IoCorrupt);
        EXPECT_NE(std::string(e.what()).find("/entries"),
                  std::string::npos)
            << e.what();
    }
}

// =========================================== result cache (crashes)

/**
 * Run put() in a forked child armed with @p plan; the injected fault
 * SIGKILLs it on one side of the commit rename. Returns true if the
 * child actually died by SIGKILL (i.e. the fault fired).
 */
bool
crashDuringPut(const std::string &dir, const std::string &plan,
               const std::string &key, const std::string &payload)
{
    const pid_t pid = ::fork();
    if (pid == 0) {
        // Child: no gtest machinery, no return — either the fault
        // SIGKILLs us inside put() or we report failure via exit 42.
        try {
            FaultPlan::setGlobal(plan);
            ResultCache cache(dir);
            cache.put(key, payload);
        } catch (...) {
        }
        ::_exit(42);
    }
    if (pid < 0)
        return false;
    int st = 0;
    ::waitpid(pid, &st, 0);
    return WIFSIGNALED(st) && WTERMSIG(st) == SIGKILL;
}

TEST(ResultCacheCrash, KillMidEntryWriteLeavesOnlyATemp)
{
    TempDir td;
    const std::string dir = td.path + "/cache";
    const std::string key = keyFor("crash1");
    const std::string payload = "{\"v\": 1}";
    ASSERT_TRUE(
        crashDuringPut(dir, "cache:kill-entry", key, payload));

    ResultCache cache(dir);
    const auto s = cache.stats();
    EXPECT_EQ(s.recoveredTempsDeleted, 1u);
    EXPECT_EQ(s.recoveredEntries, 0u);
    EXPECT_EQ(s.recoveredQuarantined, 0u);
    // A torn temp is invisible: straight miss, then normal reuse.
    EXPECT_EQ(cache.lookup(key).status, ResultCache::Status::Miss);
    cache.put(key, payload);
    EXPECT_EQ(cache.lookup(key).payload, payload);
}

TEST(ResultCacheCrash, KillAfterRenameServesTheCommittedRow)
{
    TempDir td;
    const std::string dir = td.path + "/cache";
    const std::string key = keyFor("crash2");
    const std::string payload = "{\"v\": 2}";
    ASSERT_TRUE(
        crashDuringPut(dir, "cache:kill-rename", key, payload));

    // The rename committed a complete, self-checked entry: the
    // restart serves it byte-identically, with nothing quarantined.
    ResultCache cache(dir);
    const auto s = cache.stats();
    EXPECT_EQ(s.recoveredEntries, 1u);
    EXPECT_EQ(s.recoveredQuarantined, 0u);
    EXPECT_EQ(s.recoveredTempsDeleted, 0u);
    const auto hit = cache.lookup(key);
    ASSERT_EQ(hit.status, ResultCache::Status::Hit);
    EXPECT_EQ(hit.payload, payload);
}

TEST(ResultCacheCrash, SurvivesRepeatedCrashesOnTheSameKey)
{
    TempDir td;
    const std::string dir = td.path + "/cache";
    const std::string key = keyFor("crash4");
    const std::string payload = "{\"v\": 4}";
    // A flaky host can die at a different point on every attempt;
    // each recovery must leave the cache usable for the next.
    for (const char *plan : {"cache:kill-entry", "cache:kill-entry",
                             "cache:kill-rename"}) {
        ASSERT_TRUE(crashDuringPut(dir, plan, key, payload)) << plan;
        ResultCache cache(dir);
        auto l = cache.lookup(key);
        if (l.status == ResultCache::Status::Hit) {
            EXPECT_EQ(l.payload, payload) << plan;
        }
    }
    ResultCache cache(dir);
    if (cache.lookup(key).status != ResultCache::Status::Hit)
        cache.put(key, payload);
    EXPECT_EQ(cache.lookup(key).payload, payload);
}

/**
 * A committed three-key cache, for sweeps that damage the middle
 * key's entry file and check that the damage is never served.
 */
struct ThreeKeyCache
{
    TempDir td;
    std::vector<std::string> keys = {keyFor("t1"), keyFor("t2"),
                                     keyFor("t3")};
    std::vector<std::string> payloads;
    std::string entry; ///< keys[1]'s committed entry file

    ThreeKeyCache()
    {
        ResultCache cache(td.path + "/A");
        for (std::size_t i = 0; i < keys.size(); ++i) {
            payloads.push_back("{\"workload\": \"w" +
                               std::to_string(i) +
                               "\", \"speedup\": 1.0" +
                               std::to_string(i) + "}");
            cache.put(keys[i], payloads[i]);
        }
        entry = readFile(td.path + "/A/entries/" + keys[1] + ".json");
    }

    /**
     * Copy the cache to a fresh directory, write @p bytes as keys[1]'s
     * entry file before the open (@p atRecovery) or behind the open
     * cache's back, and return keys[1]'s first lookup. A quarantined
     * key must heal to a miss, and the other two keys must stay
     * byte-identical hits either way.
     */
    ResultCache::Lookup
    serveVariant(const std::string &bytes, bool atRecovery) const
    {
        const std::string dir = td.path + "/B";
        std::error_code ec;
        fs::remove_all(dir, ec);
        fs::create_directories(dir + "/entries");
        for (const auto &k : keys)
            fs::copy_file(td.path + "/A/entries/" + k + ".json",
                          dir + "/entries/" + k + ".json");
        const std::string target = dir + "/entries/" + keys[1] + ".json";
        if (atRecovery)
            writeFile(target, bytes);
        ResultCache cache(dir);
        if (!atRecovery)
            writeFile(target, bytes);
        const auto first = cache.lookup(keys[1]);
        if (first.status == ResultCache::Status::Quarantined) {
            EXPECT_EQ(cache.stats().recoveredQuarantined,
                      atRecovery ? 1u : 0u);
            EXPECT_EQ(cache.lookup(keys[1]).status,
                      ResultCache::Status::Miss);
        }
        for (const std::size_t i : {0u, 2u}) {
            const auto l = cache.lookup(keys[i]);
            EXPECT_EQ(l.status, ResultCache::Status::Hit) << i;
            EXPECT_EQ(l.payload, payloads[i]) << i;
        }
        return first;
    }
};

TEST(ResultCacheCrash, ExhaustiveEntryTruncationSweep)
{
    // A power cut can leave an entry file at any length: every proper
    // prefix, header included, is quarantined and never served.
    const ThreeKeyCache c;
    ASSERT_GT(c.entry.size(), 0u);
    for (std::size_t len = 0; len <= c.entry.size(); ++len) {
        for (const bool atRecovery : {true, false}) {
            const auto l =
                c.serveVariant(c.entry.substr(0, len), atRecovery);
            if (len == c.entry.size()) {
                ASSERT_EQ(l.status, ResultCache::Status::Hit);
                EXPECT_EQ(l.payload, c.payloads[1]);
            } else {
                EXPECT_EQ(l.status, ResultCache::Status::Quarantined)
                    << "truncated at " << len
                    << (atRecovery ? " before open" : " after open");
            }
        }
    }
}

TEST(ResultCacheCrash, EveryEntryBitFlipIsQuarantined)
{
    // FNV-1a changes under any one-byte change of the payload, and
    // the header must match its payload exactly, so every single-bit
    // flip anywhere in the file is caught.
    const ThreeKeyCache c;
    for (std::size_t i = 0; i < c.entry.size(); ++i) {
        for (unsigned bit = 0; bit < 8; ++bit) {
            std::string bad = c.entry;
            bad[i] = static_cast<char>(bad[i] ^ (1u << bit));
            for (const bool atRecovery : {true, false}) {
                EXPECT_EQ(c.serveVariant(bad, atRecovery).status,
                          ResultCache::Status::Quarantined)
                    << "bit " << bit << " of byte " << i
                    << (atRecovery ? " before open" : " after open");
            }
        }
    }
}

// ============================================================= wire

TEST(ServeWire, FramesRoundTripOverASocketPair)
{
    int fds[2] = {-1, -1};
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    Socket a(fds[0]), b(fds[1]);
    sendFrame(a, "{\"cmd\": \"ping\"}");
    sendFrame(a, "");
    std::string got;
    ASSERT_TRUE(recvFrame(b, got));
    EXPECT_EQ(got, "{\"cmd\": \"ping\"}");
    ASSERT_TRUE(recvFrame(b, got));
    EXPECT_EQ(got, "");
    a.reset();
    EXPECT_FALSE(recvFrame(b, got)) << "clean EOF is not an error";
}

TEST(ServeWire, TornAndOversizedFramesAreIoCorrupt)
{
    {
        int fds[2] = {-1, -1};
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        Socket a(fds[0]), b(fds[1]);
        // Prefix promises 10 bytes; deliver 3 and hang up.
        const char torn[] = {10, 0, 0, 0, 'a', 'b', 'c'};
        sendRaw(a, torn, sizeof(torn));
        a.reset();
        std::string got;
        try {
            (void)recvFrame(b, got);
            FAIL() << "torn frame must throw";
        } catch (const RunError &e) {
            EXPECT_EQ(e.kind(), ErrorKind::IoCorrupt);
        }
    }
    {
        int fds[2] = {-1, -1};
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        Socket a(fds[0]), b(fds[1]);
        const std::uint32_t huge = kMaxFrameBytes + 1;
        char prefix[4];
        std::memcpy(prefix, &huge, 4);
        sendRaw(a, prefix, 4);
        std::string got;
        try {
            (void)recvFrame(b, got);
            FAIL() << "oversized prefix must throw";
        } catch (const RunError &e) {
            EXPECT_EQ(e.kind(), ErrorKind::IoCorrupt);
        }
    }
}

// =========================================================== daemon

/** fork/exec harness around the real dlvp_serve binary. */
struct Daemon
{
    pid_t pid = -1;
    std::string sock;
    std::string cacheDir;
    std::string outPath;
    int exitStatus = -1; ///< waitpid status when start() saw an exit

    ~Daemon()
    {
        if (pid > 0) {
            ::kill(pid, SIGKILL);
            (void)waitExit();
        }
    }

    /**
     * Launch with --socket/--cache under @p base plus @p extra args;
     * returns once the readiness line appears on the daemon's stdout
     * (so tests with conn: faults never consume a fault on a probe).
     */
    bool
    start(const std::string &base,
          const std::vector<std::string> &extra,
          const std::string &cacheSub = "cache")
    {
        sock = base + "/sock";
        cacheDir = base + "/" + cacheSub;
        outPath = base + "/daemon.out";
        // Restart tests reuse the base dir: a stale readiness line
        // from the previous daemon must not satisfy the wait below.
        std::error_code ec;
        fs::remove(outPath, ec);
        std::vector<std::string> args = {
            DLVP_SERVE_BIN, "--socket", sock, "--cache", cacheDir,
            "--insts",      "8000"};
        args.insert(args.end(), extra.begin(), extra.end());
        pid = ::fork();
        if (pid == 0) {
            const int fd = ::open(outPath.c_str(),
                                  O_WRONLY | O_CREAT | O_APPEND,
                                  0644);
            if (fd >= 0) {
                ::dup2(fd, 1);
                ::dup2(fd, 2);
            }
            std::vector<char *> argv;
            argv.reserve(args.size() + 1);
            for (auto &a : args)
                argv.push_back(const_cast<char *>(a.c_str()));
            argv.push_back(nullptr);
            ::execv(argv[0], argv.data());
            ::_exit(127);
        }
        if (pid < 0)
            return false;
        for (int i = 0; i < 600; ++i) {
            if (readFile(outPath).find("dlvp-serve: listening") !=
                std::string::npos)
                return true;
            if (::waitpid(pid, &exitStatus, WNOHANG) == pid) {
                pid = -1;
                return false;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
        }
        return false;
    }

    /** Reap the process; returns the raw waitpid status. */
    int
    waitExit()
    {
        int st = -1;
        if (pid > 0)
            ::waitpid(pid, &st, 0);
        pid = -1;
        return st;
    }

    /** Ask politely over the protocol, then reap. */
    int
    shutdownAndWait()
    {
        try {
            ServeClient client(sock, 5000);
            (void)client.requestRaw("{\"cmd\": \"shutdown\"}");
        } catch (const RunError &) {
            // Daemon may finish stopping before the reply lands.
        }
        return waitExit();
    }
};

std::string
runReq(const std::string &workload, const std::string &config,
       const std::string &extra = "")
{
    return "{\"cmd\": \"run\", \"workload\": \"" + workload +
           "\", \"config\": \"" + config + "\"" + extra + "}";
}

TEST(ServeDaemon, MissThenHitIsByteIdenticalAndCounted)
{
    TempDir td;
    Daemon d;
    ASSERT_TRUE(d.start(td.path, {"--workers", "1"}));

    ServeClient client(d.sock, 120000);
    const std::string cold =
        client.requestRaw(runReq("mcf", "dlvp"));
    EXPECT_EQ(strField(cold, "status"), "ok");
    EXPECT_EQ(strField(cold, "cache"), "miss");
    EXPECT_NE(cold.find("\"speedup\": "), std::string::npos);
    EXPECT_NE(cold.find("\"degraded\": false"), std::string::npos);

    const std::string warm =
        client.requestRaw(runReq("mcf", "dlvp"));
    EXPECT_EQ(strField(warm, "cache"), "hit");
    EXPECT_EQ(strField(warm, "key"), strField(cold, "key"));
    ASSERT_FALSE(rowPart(cold).empty());
    EXPECT_EQ(rowPart(warm), rowPart(cold))
        << "a cache hit must be byte-identical to the cold row";

    const JsonValue resp = client.request("{\"cmd\": \"stats\"}");
    const JsonValue *s = resp.find("stats");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->find("misses")->asNumber(-1), 1.0);
    EXPECT_EQ(s->find("hits")->asNumber(-1), 1.0);
    EXPECT_EQ(s->find("cache")->find("entries")->asNumber(-1), 1.0);

    const int st = d.shutdownAndWait();
    EXPECT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0);
}

// Integer options are range-checked: a value with trailing
// characters, a sign, or out of range exits 2 with a message naming
// the option before the daemon binds its socket or spawns a worker.
TEST(ServeDaemon, MalformedNumericOptionExitsTwoBeforeBinding)
{
    const std::vector<std::vector<std::string>> bad = {
        {"--max-queue", "-1"},      {"--workers", "2x"},
        {"--workers", "-1"},        {"--workers", "4097"},
        {"--insts", "12x"},         {"--io-timeout-ms", "4294967296"},
        {"--degrade-period", " 5"},  {"--default-deadline-ms", "-5"},
        {"--default-deadline-ms", "5ms"},
    };
    for (const auto &extra : bad) {
        TempDir td;
        Daemon d;
        const std::string arg = extra[0] + " " + extra[1];
        ASSERT_FALSE(d.start(td.path, extra)) << arg;
        EXPECT_TRUE(WIFEXITED(d.exitStatus) &&
                    WEXITSTATUS(d.exitStatus) == 2)
            << arg;
        EXPECT_FALSE(fs::exists(d.sock)) << arg;
        const std::string out = readFile(d.outPath);
        EXPECT_NE(out.find("bad " + extra[0] + " value '" + extra[1] +
                           "'"),
                  std::string::npos)
            << out;
    }
}

TEST(ServeDaemon, RestartServesTheSameBytesFromDisk)
{
    TempDir td;
    std::string cold;
    {
        Daemon d;
        ASSERT_TRUE(d.start(td.path, {"--workers", "1"}));
        ServeClient client(d.sock, 120000);
        cold = client.requestRaw(runReq("mcf", "dlvp"));
        EXPECT_EQ(strField(cold, "cache"), "miss");
        const int st = d.shutdownAndWait();
        EXPECT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0);
    }
    Daemon d2;
    ASSERT_TRUE(d2.start(td.path, {"--workers", "1"}));
    ServeClient client(d2.sock, 120000);
    const std::string warm = client.requestRaw(runReq("mcf", "dlvp"));
    EXPECT_EQ(strField(warm, "cache"), "hit");
    EXPECT_EQ(rowPart(warm), rowPart(cold));
    EXPECT_TRUE(WIFEXITED(d2.shutdownAndWait()));
}

/**
 * Blank the two wall-clock measurement fields (wall_ms, mips): they
 * report how fast *this* compute ran, so two independent cold
 * computes legitimately differ there. Every architectural byte must
 * still match exactly.
 */
std::string
maskWallClock(std::string row)
{
    for (const char *field : {"\"wall_ms\": ", "\"mips\": "}) {
        const auto p = row.find(field);
        if (p == std::string::npos)
            continue;
        const auto start = p + std::string(field).size();
        auto end = start;
        while (end < row.size() && row[end] != ',' &&
               row[end] != '}')
            ++end;
        row.replace(start, end - start, "*");
    }
    return row;
}

TEST(ServeDaemon, WorkerCountNeverChangesRowBytes)
{
    const std::vector<std::pair<std::string, std::string>> cells = {
        {"mcf", "dlvp"},
        {"mcf", "vtage"},
        {"crafty", "dlvp"},
        {"crafty", "vtage"}};

    auto collect = [&](const std::string &base, const char *workers) {
        Daemon d;
        EXPECT_TRUE(d.start(base, {"--workers", workers}));
        // Issue all cells on parallel connections so a multi-worker
        // daemon actually computes them concurrently.
        std::vector<std::string> rows(cells.size());
        std::vector<std::thread> threads;
        for (std::size_t i = 0; i < cells.size(); ++i)
            threads.emplace_back([&, i] {
                ServeClient client(d.sock, 120000);
                rows[i] = rowPart(client.requestRaw(
                    runReq(cells[i].first, cells[i].second)));
            });
        for (auto &t : threads)
            t.join();
        // Re-request every cell on one connection: each hit must be
        // byte-identical to its cold row, including wall-clock
        // fields — the daemon serves the cached render, verbatim.
        ServeClient client(d.sock, 120000);
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const std::string warm = client.requestRaw(
                runReq(cells[i].first, cells[i].second));
            EXPECT_EQ(strField(warm, "cache"), "hit")
                << cells[i].first;
            EXPECT_EQ(rowPart(warm), rows[i]) << cells[i].first;
        }
        EXPECT_TRUE(WIFEXITED(d.shutdownAndWait()));
        return rows;
    };

    TempDir one, eight;
    const auto rows1 = collect(one.path, "1");
    const auto rows8 = collect(eight.path, "8");
    for (std::size_t i = 0; i < cells.size(); ++i) {
        ASSERT_FALSE(rows1[i].empty()) << cells[i].first;
        EXPECT_EQ(maskWallClock(rows1[i]), maskWallClock(rows8[i]))
            << cells[i].first << "/" << cells[i].second;
    }
}

TEST(ServeDaemon, SigkillMidCommitThenRestartRecovers)
{
    TempDir td;
    {
        Daemon d;
        ASSERT_TRUE(d.start(
            td.path,
            {"--workers", "1", "--fault-plan", "cache:kill-rename@1"}));
        ServeClient client(d.sock, 120000);
        // The daemon is SIGKILLed inside the cache commit, after
        // computing but before responding: the client sees a hangup,
        // never a wrong answer.
        EXPECT_THROW((void)client.requestRaw(runReq("mcf", "dlvp")),
                     RunError);
        const int st = d.waitExit();
        EXPECT_TRUE(WIFSIGNALED(st) && WTERMSIG(st) == SIGKILL);
    }

    std::string dlvpRow;
    {
        // The rename had committed a complete entry: the restart
        // serves it. The first new commit is bit-flipped on disk.
        Daemon d;
        ASSERT_TRUE(d.start(
            td.path,
            {"--workers", "1", "--fault-plan", "cache:flip-entry@1"}));
        ServeClient client(d.sock, 120000);
        const std::string hit = client.requestRaw(runReq("mcf", "dlvp"));
        EXPECT_EQ(strField(hit, "cache"), "hit");
        EXPECT_NE(hit.find("\"speedup\": "), std::string::npos);
        dlvpRow = rowPart(hit);
        const std::string miss =
            client.requestRaw(runReq("mcf", "vtage"));
        EXPECT_EQ(strField(miss, "cache"), "miss");
        EXPECT_TRUE(WIFEXITED(d.shutdownAndWait()));
    }

    Daemon d;
    ASSERT_TRUE(d.start(td.path, {"--workers", "1"}));
    ServeClient client(d.sock, 120000);
    // First touch surfaces the entry that recovery quarantined as a
    // structured io_corrupt row — observable, never silent, never
    // fatal.
    const std::string first = client.requestRaw(runReq("mcf", "vtage"));
    EXPECT_EQ(strField(first, "status"), "ok");
    EXPECT_EQ(strField(first, "cache"), "quarantined");
    EXPECT_EQ(strField(first, "error_kind"), "io_corrupt");
    // The key then heals: recompute, re-cache, serve hits again.
    const std::string second = client.requestRaw(runReq("mcf", "vtage"));
    EXPECT_EQ(strField(second, "cache"), "miss");
    EXPECT_NE(second.find("\"speedup\": "), std::string::npos);
    const std::string third = client.requestRaw(runReq("mcf", "vtage"));
    EXPECT_EQ(strField(third, "cache"), "hit");
    EXPECT_EQ(rowPart(third), rowPart(second));
    // The untouched key still serves the same bytes.
    const std::string dlvp = client.requestRaw(runReq("mcf", "dlvp"));
    EXPECT_EQ(strField(dlvp, "cache"), "hit");
    EXPECT_EQ(rowPart(dlvp), dlvpRow);
    EXPECT_TRUE(WIFEXITED(d.shutdownAndWait()));
}

TEST(ServeDaemon, OverloadShedsToDegradedThenRejects)
{
    TempDir td;
    Daemon d;
    // One worker pinned by a 1500 ms stall fault, tiny queue: the
    // fourth concurrent request must be rejected, the third shed.
    ASSERT_TRUE(d.start(
        td.path,
        {"--workers", "1", "--max-queue", "2", "--degrade-queue",
         "1", "--retry-after-ms", "77", "--degrade-warmup", "1000",
         "--degrade-measure", "1000", "--degrade-period", "4000",
         "--degrade-check", "--fault-plan", "stall:*/*=1500"}));

    // Raw connections so requests can be *sent* without blocking on
    // their replies; ordering is enforced by sleeps inside the stall
    // window, so admission decisions are deterministic.
    std::vector<Socket> conns;
    for (int i = 0; i < 4; ++i) {
        conns.push_back(connectUnix(d.sock));
        setSocketTimeouts(conns.back(), 120000);
    }
    sendFrame(conns[0], runReq("mcf", "dlvp"));
    // Wait for the worker to pop request 0 and start stalling.
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    sendFrame(conns[1], runReq("mcf", "dlvp")); // queued, full detail
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    sendFrame(conns[2], runReq("mcf", "dlvp")); // depth 1 → degraded
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    sendFrame(conns[3], runReq("mcf", "dlvp")); // depth 2 → rejected

    std::string r3;
    ASSERT_TRUE(recvFrame(conns[3], r3));
    EXPECT_EQ(strField(r3, "status"), "rejected");
    EXPECT_NE(r3.find("\"retry_after_ms\": 77"), std::string::npos);

    std::string r2;
    ASSERT_TRUE(recvFrame(conns[2], r2));
    EXPECT_EQ(strField(r2, "status"), "ok");
    EXPECT_NE(r2.find("\"degraded\": true"), std::string::npos);
    EXPECT_NE(r2.find("\"sample\": {"), std::string::npos)
        << "a shed request must actually run sampled";
    EXPECT_NE(r2.find("\"cpi_error\": "), std::string::npos)
        << "--degrade-check must report what shedding gave up";

    std::string r1;
    ASSERT_TRUE(recvFrame(conns[1], r1));
    EXPECT_NE(r1.find("\"degraded\": false"), std::string::npos);
    std::string r0;
    ASSERT_TRUE(recvFrame(conns[0], r0));
    EXPECT_EQ(strField(r0, "status"), "ok");
    // Degraded rows cache under the *sampled* key, never the
    // full-detail key.
    EXPECT_NE(strField(r2, "key"), strField(r0, "key"));

    ServeClient client(d.sock, 120000);
    const JsonValue resp = client.request("{\"cmd\": \"stats\"}");
    const JsonValue *s = resp.find("stats");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->find("rejected")->asNumber(-1), 1.0);
    EXPECT_EQ(s->find("degraded")->asNumber(-1), 1.0);
    EXPECT_TRUE(WIFEXITED(d.shutdownAndWait()));
}

/** Counter @p name of a fresh `stats` reply (-1 if absent). */
double
statCounter(ServeClient &client, const char *name)
{
    const JsonValue resp = client.request("{\"cmd\": \"stats\"}");
    const JsonValue *s = resp.find("stats");
    const JsonValue *v = s != nullptr ? s->find(name) : nullptr;
    return v != nullptr ? v->asNumber(-1) : -1.0;
}

TEST(ServeDaemon, CachedKeyIsServedPastAFullQueue)
{
    TempDir td;
    Daemon d;
    // One worker, every simulated cell stalls 1000 ms, a queue of two
    // that degrades at depth one: the same limits that reject and
    // shed misses must not touch a key that is already cached.
    ASSERT_TRUE(d.start(
        td.path,
        {"--workers", "1", "--max-queue", "2", "--degrade-queue", "1",
         "--degrade-warmup", "1000", "--degrade-measure", "1000",
         "--degrade-period", "4000", "--fault-plan", "stall:*/*=1000"}));
    ServeClient client(d.sock, 120000);
    const std::string cold = client.requestRaw(runReq("mcf", "dlvp"));
    ASSERT_EQ(strField(cold, "cache"), "miss");

    std::vector<Socket> conns;
    for (int i = 0; i < 3; ++i) {
        conns.push_back(connectUnix(d.sock));
        setSocketTimeouts(conns.back(), 120000);
    }
    sendFrame(conns[0], runReq("mcf", "vtage")); // pins the worker
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    sendFrame(conns[1], runReq("mcf", "dlvp", ", \"seed\": 7"));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    sendFrame(conns[2], runReq("mcf", "dlvp", ", \"seed\": 8"));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    // The queue is full (the next miss would be rejected) and the
    // worker is busy with the stalled job.
    ASSERT_EQ(statCounter(client, "queue_depth"), 2.0);
    EXPECT_EQ(statCounter(client, "in_flight"), 1.0);
    const double rejected = statCounter(client, "rejected");
    const double degraded = statCounter(client, "degraded");
    EXPECT_EQ(rejected, 0.0);
    EXPECT_EQ(degraded, 1.0);

    const std::string warm = client.requestRaw(runReq("mcf", "dlvp"));
    EXPECT_EQ(strField(warm, "status"), "ok");
    EXPECT_EQ(strField(warm, "cache"), "hit");
    EXPECT_NE(warm.find("\"degraded\": false"), std::string::npos);
    EXPECT_EQ(strField(warm, "key"), strField(cold, "key"));
    EXPECT_EQ(rowPart(warm), rowPart(cold));

    EXPECT_EQ(statCounter(client, "rejected"), rejected);
    EXPECT_EQ(statCounter(client, "degraded"), degraded);
    EXPECT_EQ(statCounter(client, "in_flight"), 1.0)
        << "the hit must be served while the stalled job still runs";
    EXPECT_EQ(statCounter(client, "queue_depth"), 2.0);
    EXPECT_EQ(statCounter(client, "hits"), 1.0);

    std::string r0, r1, r2;
    ASSERT_TRUE(recvFrame(conns[0], r0));
    ASSERT_TRUE(recvFrame(conns[1], r1));
    ASSERT_TRUE(recvFrame(conns[2], r2));
    EXPECT_EQ(strField(r0, "cache"), "miss");
    EXPECT_NE(r1.find("\"degraded\": false"), std::string::npos);
    EXPECT_EQ(strField(r2, "status"), "ok");
    EXPECT_NE(r2.find("\"degraded\": true"), std::string::npos);
    EXPECT_TRUE(WIFEXITED(d.shutdownAndWait()));
}

TEST(ServeDaemon, ShortMissIsNotDegraded)
{
    TempDir td;
    Daemon d;
    // The default degrade spec warms up for 40000 uops, longer than the
    // 8000-uop traces served here: shedding such a miss would sample
    // nothing, so it must queue at full detail even past degradeQueue.
    ASSERT_TRUE(d.start(
        td.path,
        {"--workers", "1", "--max-queue", "2", "--degrade-queue", "1",
         "--fault-plan", "stall:*/*=1000"}));
    ServeClient client(d.sock, 120000);

    std::vector<Socket> conns;
    for (int i = 0; i < 3; ++i) {
        conns.push_back(connectUnix(d.sock));
        setSocketTimeouts(conns.back(), 120000);
    }
    sendFrame(conns[0], runReq("mcf", "vtage")); // pins the worker
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    sendFrame(conns[1], runReq("mcf", "dlvp"));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    sendFrame(conns[2], runReq("mcf", "dlvp", ", \"seed\": 8"));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    ASSERT_EQ(statCounter(client, "queue_depth"), 2.0);
    EXPECT_EQ(statCounter(client, "degraded"), 0.0);

    std::string r0, r1, r2;
    ASSERT_TRUE(recvFrame(conns[0], r0));
    ASSERT_TRUE(recvFrame(conns[1], r1));
    ASSERT_TRUE(recvFrame(conns[2], r2));
    for (const std::string *r : {&r0, &r1, &r2}) {
        EXPECT_EQ(strField(*r, "status"), "ok") << *r;
        EXPECT_NE(r->find("\"degraded\": false"), std::string::npos)
            << *r;
    }
    EXPECT_EQ(statCounter(client, "degraded"), 0.0);
    EXPECT_TRUE(WIFEXITED(d.shutdownAndWait()));
}

TEST(ServeDaemon, ConcurrentHitsMatchColdRowsWhileMissesCommit)
{
    TempDir td;
    Daemon d;
    ASSERT_TRUE(d.start(td.path, {"--workers", "2"}));
    const std::vector<std::pair<std::string, std::string>> hot = {
        {"mcf", "dlvp"},
        {"mcf", "vtage"},
        {"crafty", "dlvp"},
        {"crafty", "vtage"}};
    std::vector<std::string> coldRows;
    {
        ServeClient client(d.sock, 120000);
        for (const auto &[w, c] : hot) {
            const std::string cold = client.requestRaw(runReq(w, c));
            EXPECT_EQ(strField(cold, "cache"), "miss") << w << "/" << c;
            coldRows.push_back(rowPart(cold));
        }
    }

    // Four clients read hot keys on their connection threads while a
    // fifth commits fresh-seed misses through the workers.
    constexpr int kClients = 4;
    constexpr int kHitsPerClient = 250;
    constexpr int kMisses = 10;
    std::atomic<int> notHit{0};
    std::atomic<int> wrongRow{0};
    std::atomic<int> notMiss{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c)
        threads.emplace_back([&, c] {
            ServeClient client(d.sock, 120000);
            for (int i = 0; i < kHitsPerClient; ++i) {
                const std::size_t k = (c + i) % hot.size();
                const std::string resp = client.requestRaw(
                    runReq(hot[k].first, hot[k].second));
                if (strField(resp, "cache") != "hit")
                    ++notHit;
                if (rowPart(resp) != coldRows[k])
                    ++wrongRow;
            }
        });
    threads.emplace_back([&] {
        ServeClient client(d.sock, 120000);
        for (int i = 0; i < kMisses; ++i) {
            const std::string resp = client.requestRaw(runReq(
                "mcf", "dlvp", ", \"seed\": " + std::to_string(100 + i)));
            if (strField(resp, "cache") != "miss")
                ++notMiss;
        }
    });
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(notHit.load(), 0);
    EXPECT_EQ(wrongRow.load(), 0)
        << "every hit must be byte-identical to its cold row";
    EXPECT_EQ(notMiss.load(), 0);

    ServeClient client(d.sock, 120000);
    const double runs = static_cast<double>(
        hot.size() + kClients * kHitsPerClient + kMisses);
    EXPECT_EQ(statCounter(client, "hits") + statCounter(client, "misses"),
              runs);
    EXPECT_EQ(statCounter(client, "hits"), kClients * kHitsPerClient);
    EXPECT_EQ(statCounter(client, "quarantined"), 0.0);
    // Under TSan a race report turns the daemon's exit status nonzero.
    const int st = d.shutdownAndWait();
    EXPECT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0);
}

TEST(ServeDaemon, HugeDeadlineIsNoDeadline)
{
    // A deadline past the clock's range must not overflow into one
    // that has already expired: the row simulates and is ok.
    TempDir td;
    Daemon d;
    ASSERT_TRUE(d.start(td.path, {"--workers", "1"}));
    ServeClient client(d.sock, 120000);
    const std::string resp = client.requestRaw(
        runReq("mcf", "dlvp", ", \"deadline_ms\": 1e300"));
    EXPECT_EQ(strField(resp, "status"), "ok");
    EXPECT_EQ(strField(resp, "cache"), "miss");
    EXPECT_EQ(resp.find("\"error_kind\""), std::string::npos) << resp;
    EXPECT_NE(resp.find("\"speedup\": "), std::string::npos) << resp;
    const int st = d.shutdownAndWait();
    EXPECT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0);
}

TEST(ServeDaemon, WatchdogTurnsHungJobsIntoTimeoutRows)
{
    TempDir td;
    Daemon d;
    ASSERT_TRUE(d.start(td.path,
                        {"--workers", "1", "--fault-plan",
                         "stall:*/*=2500"}));
    ServeClient client(d.sock, 120000);
    const auto t0 = std::chrono::steady_clock::now();
    const std::string resp = client.requestRaw(
        runReq("mcf", "dlvp", ", \"deadline_ms\": 300"));
    const auto waited =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_EQ(strField(resp, "status"), "ok");
    EXPECT_EQ(strField(resp, "error_kind"), "sim_timeout");
    EXPECT_NE(resp.find("\"status\": \"timeout\""),
              std::string::npos);
    EXPECT_LT(waited, 2000)
        << "the watchdog must answer while the worker is stuck";
    // The daemon survives its own hung job.
    const std::string pong =
        client.requestRaw("{\"cmd\": \"ping\"}");
    EXPECT_NE(pong.find("\"pong\": true"), std::string::npos);
    // The watchdog increments its counter after winning the claim
    // race, so poll briefly rather than racing the first snapshot.
    double seen = 0.0;
    for (int i = 0; i < 40 && seen < 1.0; ++i) {
        const JsonValue resp2 =
            client.request("{\"cmd\": \"stats\"}");
        const JsonValue *s = resp2.find("stats");
        ASSERT_NE(s, nullptr);
        seen = s->find("watchdog_timeouts")->asNumber(-1);
        if (seen < 1.0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
    }
    EXPECT_GE(seen, 1.0);
    EXPECT_TRUE(WIFEXITED(d.shutdownAndWait()));
}

/** Wait until the daemon's worker has finished every job. */
void
waitIdle(ServeClient &client)
{
    for (int i = 0; i < 200 && (statCounter(client, "in_flight") != 0.0 ||
                                statCounter(client, "queue_depth") != 0.0);
         ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
}

TEST(ServeDaemon, MissReusesTheBaselineOfItsKey)
{
    TempDir td;
    Daemon d;
    // Only the baseline cell of mcf stalls: a miss that simulates it
    // pays 3 s, one that reuses it does not.
    ASSERT_TRUE(d.start(td.path, {"--workers", "1", "--fault-plan",
                                  "stall:mcf/baseline=3000"}));
    ServeClient client(d.sock, 120000);
    const auto t0 = std::chrono::steady_clock::now();
    const std::string cold = client.requestRaw(runReq("mcf", "dlvp"));
    EXPECT_GE(std::chrono::steady_clock::now() - t0,
              std::chrono::milliseconds(3000));
    EXPECT_EQ(strField(cold, "cache"), "miss");
    EXPECT_NE(cold.find("\"speedup\": "), std::string::npos) << cold;
    EXPECT_EQ(statCounter(client, "baseline_reuses"), 0.0);

    // Another config and seed share the baseline: inside a deadline
    // the stall would miss.
    const std::string reused = client.requestRaw(runReq(
        "mcf", "vtage", ", \"seed\": 7, \"deadline_ms\": 1500"));
    EXPECT_EQ(strField(reused, "cache"), "miss");
    EXPECT_NE(reused.find("\"status\": \"ok\", \"attempts\""),
              std::string::npos)
        << reused;
    EXPECT_NE(reused.find("\"speedup\": "), std::string::npos)
        << reused;
    EXPECT_EQ(statCounter(client, "baseline_reuses"), 1.0);

    // A sampled key and a key of another length have baselines of
    // their own: each simulates it, stalls, and times out.
    for (const std::string &extra :
         {std::string(", \"sample\": {\"warmup_insts\": 1000, "
                      "\"measure_insts\": 1000, "
                      "\"period_insts\": 4000}"),
          std::string(", \"insts\": 9000")}) {
        waitIdle(client);
        const std::string resp = client.requestRaw(runReq(
            "mcf", "dlvp", extra + ", \"deadline_ms\": 1500"));
        EXPECT_EQ(strField(resp, "error_kind"), "sim_timeout")
            << extra << ": " << resp;
        EXPECT_EQ(statCounter(client, "baseline_reuses"), 1.0) << extra;
    }
    EXPECT_TRUE(WIFEXITED(d.shutdownAndWait()));
}

TEST(ServeDaemon, TimedOutBaselineIsNotReused)
{
    TempDir td;
    Daemon d;
    ASSERT_TRUE(d.start(td.path, {"--workers", "1"}));
    ServeClient client(d.sock, 120000);
    // A 400k-uop baseline runs for about 100 ms, so the core's wall
    // watchdog stops it at the 30 ms deadline and the cell times out.
    const std::string longKey = ", \"insts\": 400000";
    const std::string late = client.requestRaw(
        runReq("mcf", "dlvp", longKey + ", \"deadline_ms\": 30"));
    EXPECT_EQ(strField(late, "error_kind"), "sim_timeout") << late;
    waitIdle(client);

    const std::string resp =
        client.requestRaw(runReq("mcf", "vtage", longKey));
    EXPECT_EQ(strField(resp, "cache"), "miss");
    EXPECT_EQ(resp.find("\"error_kind\""), std::string::npos) << resp;
    EXPECT_NE(resp.find("\"speedup\": "), std::string::npos) << resp;
    EXPECT_EQ(statCounter(client, "baseline_reuses"), 0.0)
        << "a baseline that timed out must be simulated again";
    EXPECT_TRUE(WIFEXITED(d.shutdownAndWait()));
}

TEST(ServeDaemon, ReusedBaselineRowsEqualColdRows)
{
    const std::string sampled =
        ", \"sample\": {\"warmup_insts\": 1000, "
        "\"measure_insts\": 1000, \"period_insts\": 4000}";
    std::vector<std::pair<std::string, std::string>> cells;
    for (const char *config : {"dlvp", "vtage", "tournament", "baseline"})
        for (const std::string &extra : {std::string(), sampled})
            cells.emplace_back(config, extra);

    TempDir td;
    std::vector<std::string> reused;
    {
        Daemon d;
        ASSERT_TRUE(d.start(td.path, {"--workers", "1"}));
        ServeClient client(d.sock, 120000);
        // One miss per sampling mode leaves its baseline behind.
        for (const std::string &extra : {std::string(), sampled})
            EXPECT_EQ(strField(client.requestRaw(
                                   runReq("mcf", "balcvp", extra)),
                               "cache"),
                      "miss");
        for (const auto &[config, extra] : cells)
            reused.push_back(
                rowPart(client.requestRaw(runReq("mcf", config, extra))));
        EXPECT_EQ(statCounter(client, "baseline_reuses"),
                  static_cast<double>(cells.size()));
        EXPECT_TRUE(WIFEXITED(d.shutdownAndWait()));
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
        Daemon d;
        ASSERT_TRUE(
            d.start(td.path, {"--workers", "1"}, "cold" + std::to_string(i)));
        ServeClient client(d.sock, 120000);
        const std::string cold = client.requestRaw(
            runReq("mcf", cells[i].first, cells[i].second));
        EXPECT_EQ(strField(cold, "cache"), "miss");
        EXPECT_EQ(statCounter(client, "baseline_reuses"), 0.0);
        ASSERT_NE(rowPart(cold).find("\"speedup\": "), std::string::npos)
            << cold;
        EXPECT_EQ(maskWallClock(reused[i]), maskWallClock(rowPart(cold)))
            << cells[i].first << cells[i].second;
        EXPECT_TRUE(WIFEXITED(d.shutdownAndWait()));
    }
}

TEST(ServeDaemon, ConnDropFaultIsAClientSideHangupOnly)
{
    TempDir td;
    Daemon d;
    ASSERT_TRUE(d.start(td.path, {"--workers", "1", "--fault-plan",
                                  "conn:drop@1"}));
    // First accepted connection is dropped before any read: the
    // client sees a structured hangup, not a hang or a garbage row.
    {
        ServeClient client(d.sock, 5000);
        try {
            (void)client.requestRaw("{\"cmd\": \"ping\"}");
            FAIL() << "dropped connection must surface as an error";
        } catch (const RunError &e) {
            // EOF before the reply (io_corrupt) or EPIPE on the send
            // (internal), depending on who loses the close race —
            // both are structured, neither is a hang.
            EXPECT_TRUE(e.kind() == ErrorKind::IoCorrupt ||
                        e.kind() == ErrorKind::Internal)
                << e.describe();
        }
    }
    // The daemon itself is unharmed.
    ServeClient client(d.sock, 5000);
    EXPECT_NE(client.requestRaw("{\"cmd\": \"ping\"}")
                  .find("\"pong\": true"),
              std::string::npos);
    const JsonValue resp = client.request("{\"cmd\": \"stats\"}");
    const JsonValue *s = resp.find("stats");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->find("conn_dropped")->asNumber(-1), 1.0);
    EXPECT_TRUE(WIFEXITED(d.shutdownAndWait()));
}

TEST(ServeDaemon, BadRequestsGetStructuredErrorsNotDisconnects)
{
    TempDir td;
    Daemon d;
    ASSERT_TRUE(d.start(td.path, {"--workers", "1"}));
    ServeClient client(d.sock, 30000);

    const std::string notJson = client.requestRaw("not json at all");
    EXPECT_EQ(strField(notJson, "status"), "error");

    const std::string typo = client.requestRaw(
        runReq("mcf", "dlvpp", ", \"id\": \"req-7\""));
    EXPECT_EQ(strField(typo, "status"), "error");
    EXPECT_EQ(strField(typo, "id"), "req-7") << "id echo";
    EXPECT_NE(typo.find("did you mean \\\"dlvp\\\"?"),
              std::string::npos)
        << typo;

    const std::string noWorkload =
        client.requestRaw("{\"cmd\": \"run\", \"config\": \"dlvp\"}");
    EXPECT_EQ(strField(noWorkload, "status"), "error");
    const std::string badCmd =
        client.requestRaw("{\"cmd\": \"explode\"}");
    EXPECT_EQ(strField(badCmd, "status"), "error");

    // A malformed field is an error naming it, never its default.
    const std::vector<std::pair<std::string, std::string>> badFields = {
        {"\"seed\": -1", "seed"},
        {"\"seed\": 1.5", "seed"},
        {"\"seed\": \"7\"", "seed"},
        {"\"sample\": {\"warmup_insts\": -1}", "sample.warmup_insts"},
        {"\"sample\": {\"measure_insts\": 2.5}", "sample.measure_insts"},
        {"\"sample\": {\"period_insts\": \"9\"}", "sample.period_insts"},
        {"\"sample\": {\"check\": 1}", "sample.check"},
        {"\"priority\": \"high\"", "priority"},
        {"\"client\": 7", "client"},
    };
    for (const auto &[field, name] : badFields) {
        const std::string resp =
            client.requestRaw(runReq("mcf", "dlvp", ", " + field));
        EXPECT_EQ(strField(resp, "status"), "error") << field;
        EXPECT_NE(resp.find("\\\"" + name + "\\\" must be"),
                  std::string::npos)
            << resp;
    }

    // A non-string cmd or id is an error naming it: a numeric cmd
    // does not fall back to a run, and a numeric id is refused rather
    // than left out of the reply.
    const std::vector<std::pair<std::string, std::string>> badIds = {
        {"{\"cmd\": 5, \"workload\": \"mcf\", \"config\": \"dlvp\", "
         "\"id\": \"req-9\"}",
         "cmd"},
        {"{\"cmd\": 5, \"workload\": \"mcf\", \"config\": \"dlvp\", "
         "\"id\": 7}",
         "id"},
        {"{\"cmd\": \"ping\", \"id\": 7}", "id"},
    };
    for (const auto &[req, name] : badIds) {
        const std::string resp = client.requestRaw(req);
        EXPECT_EQ(strField(resp, "status"), "error") << req;
        EXPECT_NE(resp.find("\\\"" + name + "\\\" must be a string"),
                  std::string::npos)
            << resp;
    }
    EXPECT_EQ(strField(client.requestRaw(badIds[0].first), "id"), "req-9")
        << "a string id is echoed on a bad cmd";

    // The connection is still healthy after every bad request.
    EXPECT_NE(client.requestRaw("{\"cmd\": \"ping\"}")
                  .find("\"pong\": true"),
              std::string::npos);
    EXPECT_TRUE(WIFEXITED(d.shutdownAndWait()));
}

} // namespace
