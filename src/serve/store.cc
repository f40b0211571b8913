#include "serve/store.h"

#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>

#include <sys/stat.h>
#include <sys/types.h>

#include "common/log.h"
#include "fault/error.h"
#include "serve/confighash.h"

namespace bds {

namespace {

/** Read one header line; Error(Io) on EOF. */
std::string
readLine(std::istream &is, const std::string &what)
{
    std::string line;
    if (!std::getline(is, line))
        BDS_RAISE(ErrorCode::Io,
                  what << ": truncated result entry (unexpected EOF)");
    return line;
}

/** Parse "<key> <value>" where value is a non-negative integer. */
std::uint64_t
readSizeField(std::istream &is, const std::string &what,
              const std::string &key)
{
    const std::string line = readLine(is, what);
    std::istringstream ss(line);
    std::string k;
    std::uint64_t v = 0;
    if (!(ss >> k >> v) || k != key)
        BDS_RAISE(ErrorCode::Io, what << ": expected '" << key
                                      << " <n>', got '" << line << "'");
    return v;
}

/** Read exactly `n` payload bytes; Error(Io) on short reads. */
std::string
readBytes(std::istream &is, const std::string &what, std::uint64_t n,
          const std::string &label)
{
    std::string out;
    // The size field comes from the (possibly corrupt) entry itself:
    // an implausible value must stay a typed Io error, not a
    // length_error/bad_alloc that escapes the corrupt-entry recovery.
    try {
        out.resize(static_cast<std::size_t>(n));
    } catch (const std::exception &) {
        BDS_RAISE(ErrorCode::Io,
                  what << ": " << label << " declares implausible size "
                       << n << " (corrupt entry)");
    }
    is.read(out.data(), static_cast<std::streamsize>(n));
    if (is.gcount() != static_cast<std::streamsize>(n))
        BDS_RAISE(ErrorCode::Io,
                  what << ": " << label << " payload truncated ("
                       << is.gcount() << " of " << n << " bytes)");
    return out;
}

} // namespace

void
writeResultEntry(std::ostream &os, const ResultEntry &entry)
{
    os << "BDSRESULT " << kResultStoreVersion << '\n'
       << "hash " << entry.hashHex << '\n'
       << "config_bytes " << entry.canonicalConfig.size() << '\n'
       << entry.canonicalConfig
       << "names " << entry.names.size() << '\n';
    for (const std::string &name : entry.names)
        os << name << '\n';
    os << "manifest_bytes " << entry.manifestJson.size() << '\n'
       << entry.manifestJson
       << "csv_fnv " << toHex64(fnv1a64(entry.csv)) << '\n'
       << "csv_bytes " << entry.csv.size() << '\n'
       << entry.csv
       << "END\n";
}

ResultEntry
readResultEntry(std::istream &is, const std::string &what)
{
    ResultEntry entry;

    {
        const std::string line = readLine(is, what);
        std::istringstream ss(line);
        std::string magic;
        unsigned version = 0;
        if (!(ss >> magic >> version) || magic != "BDSRESULT")
            BDS_RAISE(ErrorCode::Io,
                      what << ": not a bds result entry (bad magic)");
        if (version != kResultStoreVersion)
            BDS_RAISE(ErrorCode::Io,
                      what << ": unsupported result-entry version "
                           << version << " (expected "
                           << kResultStoreVersion << ")");
    }
    {
        const std::string line = readLine(is, what);
        std::istringstream ss(line);
        std::string key;
        if (!(ss >> key >> entry.hashHex) || key != "hash"
            || entry.hashHex.size() != 16)
            BDS_RAISE(ErrorCode::Io,
                      what << ": malformed hash line '" << line << "'");
    }
    entry.canonicalConfig = readBytes(
        is, what, readSizeField(is, what, "config_bytes"), "config");
    const std::uint64_t names = readSizeField(is, what, "names");
    for (std::uint64_t i = 0; i < names; ++i)
        entry.names.push_back(readLine(is, what));
    entry.manifestJson = readBytes(
        is, what, readSizeField(is, what, "manifest_bytes"),
        "manifest");
    std::string declared_fnv;
    {
        const std::string line = readLine(is, what);
        std::istringstream ss(line);
        std::string key;
        if (!(ss >> key >> declared_fnv) || key != "csv_fnv"
            || declared_fnv.size() != 16)
            BDS_RAISE(ErrorCode::Io,
                      what << ": malformed csv_fnv line '" << line
                           << "'");
    }
    entry.csv = readBytes(is, what,
                          readSizeField(is, what, "csv_bytes"), "csv");
    if (toHex64(fnv1a64(entry.csv)) != declared_fnv)
        BDS_RAISE(ErrorCode::Io,
                  what << ": csv payload checksum mismatch "
                       << "(corrupt entry)");
    if (readLine(is, what) != "END")
        BDS_RAISE(ErrorCode::Io,
                  what << ": missing END sentinel (truncated entry)");
    return entry;
}

struct ResultStore::Flight
{
    std::size_t followers = 0; ///< guarded by ResultStore::mutex_
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    ComputedResult result;
    std::exception_ptr error;
};

namespace {

SharedStoreOptions
resultStoreOptions(std::string dir, std::uint64_t maxBytes)
{
    SharedStoreOptions opts;
    opts.dir = std::move(dir);
    opts.suffix = ".result";
    opts.maxBytes = maxBytes;
    return opts;
}

} // namespace

ResultStore::ResultStore(std::string dir, std::uint64_t maxBytes)
    : backend_(resultStoreOptions(std::move(dir), maxBytes))
{
}

std::string
ResultStore::entryName(const std::string &hashHex)
{
    return hashHex + ".result";
}

std::string
ResultStore::entryPath(const std::string &hashHex) const
{
    return backend_.entryPath(entryName(hashHex));
}

bool
ResultStore::load(const std::string &hashHex, ResultEntry *out) const
{
    const std::string name = entryName(hashHex);
    std::string bytes;
    if (!backend_.read(name, &bytes)) {
        forget(name);
        return false;
    }

    // Identical bytes always parse the same way, so bytes equal to
    // the last ones that passed the full check skip it.
    std::shared_ptr<const Verified> memo;
    {
        std::lock_guard<std::mutex> lock(verifiedMutex_);
        auto it = verified_.find(name);
        if (it != verified_.end())
            memo = it->second;
    }
    if (memo && memo->bytes == bytes) {
        *out = memo->entry;
        return true;
    }

    auto fresh = std::make_shared<Verified>();
    try {
        const std::string path = entryPath(hashHex);
        std::istringstream in(bytes);
        fresh->entry = readResultEntry(in, path);
        if (fresh->entry.hashHex != hashHex)
            BDS_RAISE(ErrorCode::Io,
                      path << ": entry is keyed to "
                           << fresh->entry.hashHex << ", expected "
                           << hashHex);
    } catch (...) {
        forget(name);
        throw;
    }
    fresh->bytes = std::move(bytes);
    *out = fresh->entry;
    std::lock_guard<std::mutex> lock(verifiedMutex_);
    verified_[name] = std::move(fresh);
    return true;
}

void
ResultStore::forget(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(verifiedMutex_);
    verified_.erase(name);
}

bool
ResultStore::store(const ResultEntry &entry) const
{
    std::ostringstream out;
    writeResultEntry(out, entry);
    std::vector<std::string> evicted;
    if (!backend_.publish(entryName(entry.hashHex), out.str(), &evicted))
        return false;
    for (const std::string &name : evicted)
        forget(name);
    return true;
}

bool
ResultStore::tryLoad(const std::string &hashHex, ResultEntry *out) const
{
    try {
        return load(hashHex, out);
    } catch (const std::exception &e) {
        // Corrupt/truncated entry: report, recompute, replace.
        // std::exception, not just Error, so no corruption mode can
        // dodge the recompute path.
        warn(std::string("result store: dropping corrupt entry: ")
             + e.what());
        return false;
    }
}

ComputedResult
ResultStore::getOrCompute(const std::string &hashHex,
                          const std::function<ComputedResult()> &compute,
                          bool *hit)
{
    *hit = false;

    std::shared_ptr<Flight> flight;
    bool leader = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = inflight_.find(hashHex);
        if (it != inflight_.end()) {
            flight = it->second;
            ++flight->followers;
        } else {
            flight = std::make_shared<Flight>();
            inflight_[hashHex] = flight;
            leader = true;
        }
    }

    if (!leader) {
        // Someone else is computing this cell right now: wait for
        // their result instead of duplicating a whole sweep. An
        // uncacheable (quarantined) result is not a hit — the
        // follower inherits its quarantine list and must report it.
        std::unique_lock<std::mutex> lock(flight->mutex);
        flight->cv.wait(lock, [&] { return flight->done; });
        if (flight->error)
            std::rethrow_exception(flight->error);
        *hit = flight->result.cacheable;
        return flight->result;
    }

    ComputedResult result;
    std::exception_ptr error;
    try {
        ResultEntry cached;
        bool have = tryLoad(hashHex, &cached);
        if (!have) {
            // Cross-process single-flight: take (or wait out) the
            // entry's lease so only one daemon computes this cell.
            // A waiter whose wait ends with the entry on disk — or a
            // leader whose lease arrived after the previous holder
            // published — re-reads instead of recomputing. A null
            // lease without entryAppeared means the store is down or
            // the lease machinery failed: compute uncoordinated,
            // correctness over deduplication.
            FlightTicket ticket =
                backend_.singleFlight(entryName(hashHex));
            have = tryLoad(hashHex, &cached);
            if (!have) {
                result = compute();
                if (result.cacheable)
                    store(result.entry);
            }
        }
        if (have) {
            *hit = true;
            result.entry = std::move(cached);
        }
    } catch (...) {
        error = std::current_exception();
    }

    // Once the flight leaves inflight_ no follower can join it, so
    // the result is copied only when someone is already waiting.
    std::size_t followers = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        inflight_.erase(hashHex);
        followers = flight->followers;
    }
    {
        std::lock_guard<std::mutex> lock(flight->mutex);
        if (followers)
            flight->result = result;
        flight->error = error;
        flight->done = true;
    }
    flight->cv.notify_all();
    if (error)
        std::rethrow_exception(error);
    return result;
}

} // namespace bds
