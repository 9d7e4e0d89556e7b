#include "cache.hh"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/fault_inject.hh"
#include "common/run_error.hh"

namespace dlvp::serve
{

namespace fs = std::filesystem;

namespace
{

using common::ErrorKind;
using common::FaultPlan;
using common::RunError;

[[noreturn]] void
ioFail(const std::string &what)
{
    throw RunError(ErrorKind::IoCorrupt,
                   "cache: " + what + ": " +
                       std::string(std::strerror(errno)));
}

/**
 * The cache: fault hooks. Two of the ops model a crash, and a real
 * crash is the only honest way to test crash recovery — a thrown
 * exception would run destructors and flush buffers the way a power
 * cut never does. SIGKILL is uncatchable, so the process dies at
 * exactly the injected point. Tests fork first (tests/test_serve.cc).
 */
void
maybeKill(const char *op)
{
    if (FaultPlan::global().cacheOp(op))
        ::kill(::getpid(), SIGKILL);
}

/** POSIX write loop (EINTR-safe); throws on short writes. */
void
writeAll(int fd, const char *data, std::size_t n,
         const std::string &what)
{
    std::size_t done = 0;
    while (done < n) {
        const ssize_t w = ::write(fd, data + done, n - done);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            ioFail(what);
        }
        done += static_cast<std::size_t>(w);
    }
}

/** RAII fd so a thrown RunError can't leak a descriptor. */
struct Fd
{
    int fd = -1;
    ~Fd()
    {
        if (fd >= 0)
            ::close(fd);
    }
};

bool
readFileBytes(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    out = buf.str();
    return true;
}

/**
 * The header line an entry file with payload @p data[0, n) opens
 * with: "<len:decimal> <payload-fnv:16hex>\n".
 */
std::string
entryHeader(const char *data, std::size_t n)
{
    std::string h = std::to_string(n);
    h += ' ';
    h += hex16(fnv1a64(data, n));
    h += '\n';
    return h;
}

/**
 * Verify entry file @p bytes against its own header and strip the
 * header, leaving the payload. Requiring the exact header the payload
 * renders (not a lenient parse of it) makes every torn or bit-flipped
 * file fail, header bytes included.
 */
bool
verifyEntry(std::string &bytes)
{
    const std::size_t nl = bytes.find('\n');
    if (nl == std::string::npos)
        return false;
    const char *payload = bytes.data() + nl + 1;
    if (bytes.compare(0, nl + 1,
                      entryHeader(payload, bytes.size() - nl - 1)) != 0)
        return false;
    bytes.erase(0, nl + 1);
    return true;
}

} // namespace

std::uint64_t
fnv1a64(const char *data, std::size_t n)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= static_cast<unsigned char>(data[i]);
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
hex16(std::uint64_t v)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[v & 0xf];
        v >>= 4;
    }
    return out;
}

std::string
cacheKeyCanonical(const CacheKey &key)
{
    const core::CoreParams &c = key.core;
    const mem::HierarchyParams &m = c.memory;
    const sim::SampleSpec &s = key.sample;
    std::ostringstream os;
    os << "epoch=" << kCacheEpoch;
    os << "|workload=" << key.workload;
    os << "|config=" << key.config;
    os << "|insts=" << key.insts;
    os << "|seed=" << key.seed;
    os << "|core=" << c.fetchWidth << ',' << c.dispatchWidth << ','
       << c.issueWidth << ',' << c.lsLanes << ',' << c.commitWidth
       << ',' << c.robSize << ',' << c.iqSize << ',' << c.ldqSize
       << ',' << c.stqSize << ',' << c.numPhysRegs << ','
       << c.fetchToDispatch << ',' << c.fetchToRename << ','
       << c.aluLatency << ',' << c.loadExtraLatency << ','
       << c.mulLatency << ',' << c.divLatency << ',' << c.fpLatency
       << ',' << c.storeLatency << ',' << c.forwardLatency;
    os << "|mem=" << m.memLatency << ','
       << (m.enablePrefetcher ? 1 : 0);
    for (const mem::CacheParams *cp :
         {&m.l1i, &m.l1d, &m.l2, &m.l3})
        os << ';' << cp->sizeBytes << ',' << cp->assoc << ','
           << cp->blockBytes << ',' << cp->hitLatency;
    os << "|tlb=" << m.tlb.entries << ',' << m.tlb.assoc << ','
       << m.tlb.pageBytes << ',' << m.tlb.missPenalty;
    os << "|pf=" << m.prefetcher.entries << ','
       << m.prefetcher.confThreshold << ',' << m.prefetcher.degree;
    os << "|sample=" << (s.enabled ? 1 : 0) << ',' << s.warmupInsts
       << ',' << s.measureInsts << ',' << s.periodInsts << ','
       << (s.check ? 1 : 0);
    return os.str();
}

std::string
cacheKeyHash(const CacheKey &key)
{
    const std::string canon = cacheKeyCanonical(key);
    return hex16(fnv1a64(canon.data(), canon.size()));
}

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir))
{
    for (const char *sub : {"/entries", "/quarantine"}) {
        const std::string path = dir_ + sub;
        std::error_code ec;
        fs::create_directories(path, ec);
        if (ec)
            throw RunError(ErrorKind::IoCorrupt,
                           "cache: cannot create " + path + ": " +
                               ec.message());
    }
    recover();
}

std::string
ResultCache::entryPath(const std::string &key) const
{
    return dir_ + "/entries/" + key + ".json";
}

void
ResultCache::quarantineFile(const std::string &key)
{
    std::error_code ec;
    fs::rename(entryPath(key), dir_ + "/quarantine/" + key + ".json",
               ec);
    // A missing source just means there is nothing to preserve.
}

void
ResultCache::recover()
{
    std::lock_guard<std::mutex> lock(m_);
    std::vector<std::string> names;
    std::error_code ec;
    for (const auto &de :
         fs::directory_iterator(dir_ + "/entries", ec))
        names.push_back(de.path().filename().string());
    for (const std::string &name : names) {
        const std::string path = dir_ + "/entries/" + name;
        if (name.ends_with(".tmp")) {
            fs::remove(path, ec);
            ++stats_.recoveredTempsDeleted;
            continue;
        }
        if (name.size() != 21 || !name.ends_with(".json") ||
            name.find_first_not_of("0123456789abcdef") != 16)
            continue; // not ours; leave it alone
        std::string bytes;
        if (readFileBytes(path, bytes) && verifyEntry(bytes)) {
            ++stats_.recoveredEntries;
            continue;
        }
        const std::string key = name.substr(0, 16);
        quarantined_[key] = "entry failed its self-check at recovery";
        quarantineFile(key);
        ++stats_.recoveredQuarantined;
    }
    stats_.entries = stats_.recoveredEntries;
}

ResultCache::Lookup
ResultCache::lookup(const std::string &key)
{
    std::lock_guard<std::mutex> lock(m_);
    Lookup out;
    const auto it = quarantined_.find(key);
    if (it != quarantined_.end()) {
        // One-shot: report the corruption once, then heal to a miss
        // so the next request recomputes and re-caches the key.
        out.status = Status::Quarantined;
        out.reason = std::move(it->second);
        quarantined_.erase(it);
        ++stats_.quarantinedServed;
        return out;
    }
    std::string bytes;
    if (!readFileBytes(entryPath(key), bytes)) {
        ++stats_.misses;
        return out;
    }
    if (!verifyEntry(bytes)) {
        // Post-commit corruption (bit rot / cache:flip-entry): never
        // serve it. Quarantine the file and surface io_corrupt once
        // via this lookup; the key then heals to a miss.
        quarantineFile(key);
        if (stats_.entries > 0)
            --stats_.entries;
        out.status = Status::Quarantined;
        out.reason = "entry failed its self-check on read";
        ++stats_.quarantinedServed;
        return out;
    }
    out.status = Status::Hit;
    out.payload = std::move(bytes);
    ++stats_.hits;
    return out;
}

void
ResultCache::put(const std::string &key, const std::string &payload)
{
    std::lock_guard<std::mutex> lock(m_);
    const std::string path = entryPath(key);
    if (::access(path.c_str(), F_OK) == 0)
        return; // determinism: an existing entry is already this row

    // Crash point 1: die mid-way through the temp-file write. The
    // torn .tmp must be swept (never served) on recovery.
    const std::string tmp = path + ".tmp";
    const std::string bytes =
        entryHeader(payload.data(), payload.size()) + payload;
    {
        Fd fd;
        fd.fd = ::open(tmp.c_str(),
                       O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd.fd < 0)
            ioFail("open " + tmp);
        const std::size_t half = bytes.size() / 2;
        writeAll(fd.fd, bytes.data(), half, "write entry");
        maybeKill("kill-entry");
        writeAll(fd.fd, bytes.data() + half, bytes.size() - half,
                 "write entry");
        if (::fsync(fd.fd) != 0)
            ioFail("fsync " + tmp);
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec)
        throw RunError(ErrorKind::IoCorrupt,
                       std::string("cache: commit rename failed: ") +
                           ec.message());

    // Crash point 2: die right after the rename. The entry is
    // complete and self-checked, so recovery serves it as a hit.
    maybeKill("kill-rename");

    quarantined_.erase(key);
    ++stats_.entries;

    // Bit-rot injection: corrupt the *committed* entry in place so
    // the read path's re-verification is what catches it.
    if (FaultPlan::global().cacheOp("trunc-entry")) {
        fs::resize_file(path, bytes.size() / 2, ec);
    }
    if (FaultPlan::global().cacheOp("flip-entry")) {
        std::string bad = bytes;
        bad[bad.size() / 2] =
            static_cast<char>(bad[bad.size() / 2] ^ 0x10);
        Fd fd;
        fd.fd = ::open(path.c_str(), O_WRONLY | O_TRUNC, 0644);
        if (fd.fd >= 0)
            writeAll(fd.fd, bad.data(), bad.size(), "flip entry");
    }
}

ResultCache::Stats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(m_);
    return stats_;
}

} // namespace dlvp::serve
