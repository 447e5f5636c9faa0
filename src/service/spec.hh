/**
 * @file
 * Sweep specifications: the JSON experiment description a client
 * submits to the sweep service, and its expansion into jobs.
 *
 * A SweepSpec names axes (workloads x CPU models x core counts x
 * platforms x L2 sizes x DRAM bandwidths); expandSweep takes the
 * cross product, one JobSpec per point. A JobSpec is the unit the
 * spool queues, the executor runs, and the result cache keys.
 *
 * The cache key (jobKey/jobDigest) covers exactly the fields that
 * determine the result bytes — core::runKey of the lowered run
 * config (workload, model, cores, the full platform after geometry
 * overrides, scale, instruction limit, seed) plus the job kind
 * (resumable guest-only vs full profile). Scheduling knobs
 * (priority, wall cap, retry budget, chaos fields) deliberately do
 * NOT enter the key: re-running the same experiment under a
 * different retry policy must hit the same cache entry.
 *
 * The JSON parser is a deliberately small recursive-descent one
 * (objects, arrays, strings, numbers, booleans, null; UTF-8 passed
 * through verbatim) — enough for spec files, no dependency added.
 * All spec errors are reported as ConfigError with position info.
 */

#ifndef G5P_SERVICE_SPEC_HH
#define G5P_SERVICE_SPEC_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "sim/serialize.hh"

namespace g5p::service
{

/** A parsed JSON value (tree form). */
struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    /** Insertion order preserved separately for error messages. */
    std::map<std::string, JsonValue> object;

    bool isNull() const { return kind == Kind::Null; }
    bool has(const std::string &key) const
    { return object.count(key) != 0; }

    /** Member lookup; null value if absent (object kind required). */
    const JsonValue &get(const std::string &key) const;
};

/** Parse JSON text; throws ConfigError with offset on malformed
 *  input or trailing garbage. */
JsonValue parseJson(const std::string &text);

/** One point of a sweep: everything one run needs, plus how the
 *  service should schedule it. */
struct JobSpec
{
    /** @{ Experiment identity — these enter the cache key. */
    std::string workload = "sieve";
    os::CpuModel cpuModel = os::CpuModel::Atomic;
    unsigned cores = 1;
    std::string platform = "Intel_Xeon";
    unsigned l2KB = 0;        ///< L2 size override (0 = platform's)
    double dramGBs = 0.0;     ///< DRAM bandwidth override (0 = keep)
    double workloadScale = 1.0;
    std::uint64_t maxGuestInsts = 0;
    std::uint64_t seed = 1;
    /** Resumable guest-only job: runs under auto-checkpoint and
     *  reports guest-side digests instead of host-model counters
     *  (the host trace side is not serialized, so only guest-kind
     *  jobs can continue from a checkpoint after a daemon crash). */
    bool resume = false;
    /** @} */

    /** @{ Scheduling — excluded from the cache key. */
    int priority = 0;         ///< higher runs (and is kept) first
    double wallCapSeconds = 0.0; ///< per-job override (0 = service's)
    unsigned maxAttempts = 0;    ///< retry budget override (0 = ...)
    /** Chaos knob: the runner fails this job's first N attempts with
     *  an injected transient InvariantError (tests the retry path
     *  end-to-end without a flaky workload). */
    unsigned failFirstAttempts = 0;
    /** @} */
};

/** A sweep request: axes plus shared settings. */
struct SweepSpec
{
    std::string name = "sweep";
    std::vector<std::string> workloads{"sieve"};
    std::vector<std::string> cpuModels{"Atomic"};
    std::vector<unsigned> cores{1};
    std::vector<std::string> platforms{"Intel_Xeon"};
    std::vector<unsigned> l2KB{0};
    std::vector<double> dramGBs{0.0};

    double workloadScale = 1.0;
    std::uint64_t maxGuestInsts = 0;
    std::uint64_t seed = 1;
    bool resume = false;
    int priority = 0;
    double wallCapSeconds = 0.0;
    unsigned maxAttempts = 0;
    unsigned failFirstAttempts = 0;
};

/** Parse a sweep spec from JSON text (see README for the schema);
 *  throws ConfigError on unknown keys, wrong types, or empty axes. */
SweepSpec parseSweepSpec(const std::string &json);

/** Cross product of the axes, in deterministic order (workloads
 *  outermost, dramGBs innermost). */
std::vector<JobSpec> expandSweep(const SweepSpec &sweep);

/** Canonical identity text of a job: core::runKey of its
 *  toRunConfig() lowering plus the resume flag; scheduling fields
 *  excluded. Throws ConfigError where toRunConfig does. */
std::string jobKey(const JobSpec &job);

/** FNV-1a digest of jobKey — the result-cache address. */
std::uint64_t jobDigest(const JobSpec &job);

/**
 * Lower a job to the experiment harness config. Validates workload
 * and platform names and the geometry overrides; throws ConfigError
 * (a *permanent* failure — the service poisons, not retries) on
 * anything unknown.
 */
core::RunConfig toRunConfig(const JobSpec &job);

/** @{ Spool-file round-trip (checkpoint text format). */
void serializeJob(const JobSpec &job, sim::CheckpointOut &cp);
JobSpec unserializeJob(const sim::CheckpointIn &cp);
/** @} */

/** Parse "Atomic|Timing|Minor|O3" (the paper's spellings);
 *  throws ConfigError otherwise. */
os::CpuModel cpuModelFromName(const std::string &name);

/** Resolve a platform by its Table I/II name; throws ConfigError. */
host::HostPlatformConfig platformByName(const std::string &name);

} // namespace g5p::service

#endif // G5P_SERVICE_SPEC_HH
