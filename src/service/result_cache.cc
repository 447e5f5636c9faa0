#include "service/result_cache.hh"

#include <cstdio>
#include <filesystem>

#include "base/logging.hh"
#include "base/sim_error.hh"

namespace fs = std::filesystem;

namespace g5p::service
{

ResultCache::ResultCache(const std::string &dir,
                         const std::string &binaryVersion)
    : dir_(dir), version_(binaryVersion)
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        g5p_throw(CheckpointError, "service.cache", 0,
                  "cannot create cache directory '%s': %s",
                  dir_.c_str(), ec.message().c_str());
}

std::string
ResultCache::entryPath(const JobSpec &job) const
{
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx.res",
                  (unsigned long long)jobDigest(job));
    return dir_ + "/" + name;
}

void
serializeResult(const ServiceResult &result, sim::CheckpointOut &cp)
{
    cp.param("workload", result.workload);
    cp.param("platform", result.platform);
    cp.param("cpuModel", result.cpuModel);
    cp.param("cores", result.cores);
    cp.param("guestInsts", result.guestInsts);
    cp.param("simTicks", result.simTicks);
    cp.param("guestResult", result.guestResult);
    cp.param("resultChecked", (unsigned)result.resultChecked);
    cp.param("resultOk", (unsigned)result.resultOk);
    cp.param("hostSeconds", result.hostSeconds);
    cp.param("ipc", result.ipc);
    cp.param("hostInsts", result.hostInsts);
    cp.param("codeBytes", result.codeBytes);
    cp.param("distinctFunctions", result.distinctFunctions);
    cp.param("countersDigest", result.countersDigest);
    cp.param("statsDigest", result.statsDigest);
    cp.param("memDigest", result.memDigest);
}

ServiceResult
unserializeResult(const sim::CheckpointIn &cp)
{
    ServiceResult result;
    unsigned checked = 0, ok = 0;
    cp.param("workload", result.workload);
    cp.param("platform", result.platform);
    cp.param("cpuModel", result.cpuModel);
    cp.param("cores", result.cores);
    cp.param("guestInsts", result.guestInsts);
    cp.param("simTicks", result.simTicks);
    cp.param("guestResult", result.guestResult);
    cp.param("resultChecked", checked);
    cp.param("resultOk", ok);
    result.resultChecked = checked != 0;
    result.resultOk = ok != 0;
    cp.param("hostSeconds", result.hostSeconds);
    cp.param("ipc", result.ipc);
    cp.param("hostInsts", result.hostInsts);
    cp.param("codeBytes", result.codeBytes);
    cp.param("distinctFunctions", result.distinctFunctions);
    cp.param("countersDigest", result.countersDigest);
    cp.param("statsDigest", result.statsDigest);
    cp.param("memDigest", result.memDigest);
    return result;
}

bool
ResultCache::lookup(const JobSpec &job, ServiceResult &out)
{
    std::string key;
    try {
        key = jobKey(job);
    } catch (const ConfigError &) {
        // A job that does not lower to a run config has no result to
        // find; dispatching it lets the runner poison it.
        ++stats_.misses;
        return false;
    }
    std::string path = entryPath(job);
    std::error_code ec;
    if (!fs::exists(path, ec)) {
        ++stats_.misses;
        return false;
    }

    sim::CheckpointIn cp;
    try {
        cp = sim::CheckpointIn::readFile(path);
    } catch (const CheckpointError &err) {
        // Truncated or bit-flipped entry: evict, recompute upstream.
        g5p_warn("cache: evicting corrupt entry %s: %s",
                 path.c_str(), err.summary().c_str());
        fs::remove(path, ec);
        ++stats_.corruptEvicted;
        ++stats_.misses;
        return false;
    }

    try {
        cp.pushSection("entry");
        std::string version, stored_key;
        cp.param("binaryVersion", version);
        cp.param("jobKey", stored_key);
        if (version != version_) {
            g5p_warn("cache: evicting stale entry %s "
                     "(built by '%s', this is '%s')",
                     path.c_str(), version.c_str(), version_.c_str());
            fs::remove(path, ec);
            ++stats_.staleEvicted;
            ++stats_.misses;
            return false;
        }
        if (stored_key != key) {
            // Digest collision: the full key is the authority.
            ++stats_.collisionMisses;
            ++stats_.misses;
            return false;
        }
        cp.pushSection("result");
        out = unserializeResult(cp);
        cp.popSection();
        cp.popSection();
    } catch (const CheckpointError &err) {
        // Verified footer but missing fields: written by an
        // incompatible layout; treat as stale.
        g5p_warn("cache: evicting unreadable entry %s: %s",
                 path.c_str(), err.summary().c_str());
        fs::remove(path, ec);
        ++stats_.staleEvicted;
        ++stats_.misses;
        return false;
    }
    ++stats_.hits;
    return true;
}

void
ResultCache::store(const JobSpec &job, const ServiceResult &result)
{
    sim::CheckpointOut cp;
    cp.pushSection("entry");
    cp.param("binaryVersion", version_);
    cp.param("jobKey", jobKey(job));
    cp.pushSection("result");
    serializeResult(result, cp);
    cp.popSection();
    cp.popSection();
    cp.writeFile(entryPath(job));
    ++stats_.stores;
}

} // namespace g5p::service
