/**
 * @file
 * Sweep-service fast path: spec parsing/expansion, the cache key
 * contract, spool state transitions, and crash recovery on a cold
 * spool — everything that needs no simulation, so it runs in the
 * quick tier (the `quick` ctest label run_sanitize.sh smokes).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/sim_error.hh"
#include "service/result_cache.hh"
#include "service/spool.hh"

using namespace g5p;
using namespace g5p::service;

namespace fs = std::filesystem;

namespace
{

/** A fresh (removed if left over) spool/cache dir for @p tag. */
std::string
freshDir(const std::string &tag)
{
    std::string dir = ::testing::TempDir() + "/g5p_svcq_" + tag;
    fs::remove_all(dir);
    return dir;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
spit(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
}

// ---------------------------------------------------------------------
// JSON parser
// ---------------------------------------------------------------------

TEST(ServiceJson, ParsesNestedDocument)
{
    JsonValue v = parseJson(R"({
        "name": "demo \"quoted\" A",
        "axes": [1, 2.5, -3e2],
        "on": true, "off": false, "nothing": null,
        "nested": {"deep": [{"x": 7}]}
    })");

    ASSERT_EQ(v.kind, JsonValue::Kind::Object);
    EXPECT_EQ(v.get("name").string, "demo \"quoted\" A");
    ASSERT_EQ(v.get("axes").array.size(), 3u);
    EXPECT_DOUBLE_EQ(v.get("axes").array[1].number, 2.5);
    EXPECT_DOUBLE_EQ(v.get("axes").array[2].number, -300.0);
    EXPECT_TRUE(v.get("on").boolean);
    EXPECT_FALSE(v.get("off").boolean);
    EXPECT_TRUE(v.get("nothing").isNull());
    EXPECT_DOUBLE_EQ(v.get("nested")
                         .get("deep")
                         .array[0]
                         .get("x")
                         .number,
                     7.0);
    EXPECT_FALSE(v.has("absent"));
    EXPECT_TRUE(v.get("absent").isNull());
}

TEST(ServiceJson, RejectsMalformedInput)
{
    EXPECT_THROW(parseJson("{"), ConfigError);
    EXPECT_THROW(parseJson("{\"a\": }"), ConfigError);
    EXPECT_THROW(parseJson("[1, 2,]"), ConfigError);
    EXPECT_THROW(parseJson("\"bad \\q escape\""), ConfigError);
    EXPECT_THROW(parseJson("1 2"), ConfigError); // trailing garbage
    EXPECT_THROW(parseJson(""), ConfigError);
}

// ---------------------------------------------------------------------
// Sweep specs: schema, validation, expansion
// ---------------------------------------------------------------------

const char *fullSpec = R"({
    "name": "full",
    "workloads": ["sieve", "dedup"],
    "cpu_models": ["Atomic", "Timing"],
    "cores": [1, 2],
    "platforms": ["Intel_Xeon", "M1_Pro"],
    "l2_kb": [0, 512],
    "dram_gb_s": [0, 60.5],
    "workload_scale": 0.25,
    "max_guest_insts": 12345,
    "seed": 9,
    "resume": true,
    "priority": 3,
    "wall_cap_seconds": 1.5,
    "max_attempts": 4,
    "chaos": {"fail_first_attempts": 2}
})";

TEST(ServiceSpec, ParsesFullSchema)
{
    SweepSpec sweep = parseSweepSpec(fullSpec);
    EXPECT_EQ(sweep.name, "full");
    EXPECT_EQ(sweep.workloads,
              (std::vector<std::string>{"sieve", "dedup"}));
    EXPECT_EQ(sweep.cpuModels,
              (std::vector<std::string>{"Atomic", "Timing"}));
    EXPECT_EQ(sweep.cores, (std::vector<unsigned>{1, 2}));
    EXPECT_EQ(sweep.platforms,
              (std::vector<std::string>{"Intel_Xeon", "M1_Pro"}));
    EXPECT_EQ(sweep.l2KB, (std::vector<unsigned>{0, 512}));
    ASSERT_EQ(sweep.dramGBs.size(), 2u);
    EXPECT_DOUBLE_EQ(sweep.dramGBs[1], 60.5);
    EXPECT_DOUBLE_EQ(sweep.workloadScale, 0.25);
    EXPECT_EQ(sweep.maxGuestInsts, 12345u);
    EXPECT_EQ(sweep.seed, 9u);
    EXPECT_TRUE(sweep.resume);
    EXPECT_EQ(sweep.priority, 3);
    EXPECT_DOUBLE_EQ(sweep.wallCapSeconds, 1.5);
    EXPECT_EQ(sweep.maxAttempts, 4u);
    EXPECT_EQ(sweep.failFirstAttempts, 2u);
}

TEST(ServiceSpec, DefaultsAreMinimalSweep)
{
    SweepSpec sweep = parseSweepSpec("{}");
    std::vector<JobSpec> jobs = expandSweep(sweep);
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].workload, "sieve");
    EXPECT_EQ(jobs[0].cpuModel, os::CpuModel::Atomic);
    EXPECT_EQ(jobs[0].cores, 1u);
    EXPECT_EQ(jobs[0].platform, "Intel_Xeon");
}

TEST(ServiceSpec, RejectsBadSpecs)
{
    // Unknown key: catches typos before the daemon wastes a slot.
    EXPECT_THROW(parseSweepSpec(R"({"worklods": ["sieve"]})"),
                 ConfigError);
    // Wrong type.
    EXPECT_THROW(parseSweepSpec(R"({"cores": "two"})"), ConfigError);
    // Empty axis would expand to zero jobs silently.
    EXPECT_THROW(parseSweepSpec(R"({"workloads": []})"), ConfigError);
    // Unknown CPU model / platform are rejected up front.
    EXPECT_THROW(parseSweepSpec(R"({"cpu_models": ["Quantum"]})"),
                 ConfigError);
    EXPECT_THROW(parseSweepSpec(R"({"platforms": ["Abacus"]})"),
                 ConfigError);
    EXPECT_THROW(parseSweepSpec(R"({"cores": [0]})"), ConfigError);
    EXPECT_THROW(parseSweepSpec(R"({"workload_scale": -1})"),
                 ConfigError);
}

TEST(ServiceSpec, ExpansionIsTheDeterministicCrossProduct)
{
    SweepSpec sweep = parseSweepSpec(fullSpec);
    std::vector<JobSpec> jobs = expandSweep(sweep);
    // 2 workloads x 2 models x 2 cores x 2 platforms x 2 L2 x 2 DRAM.
    ASSERT_EQ(jobs.size(), 64u);

    // Workloads are the outermost axis, DRAM bandwidth the innermost.
    EXPECT_EQ(jobs[0].workload, "sieve");
    EXPECT_EQ(jobs[63].workload, "dedup");
    EXPECT_DOUBLE_EQ(jobs[0].dramGBs, 0.0);
    EXPECT_DOUBLE_EQ(jobs[1].dramGBs, 60.5);
    EXPECT_EQ(jobs[0].l2KB, 0u);
    EXPECT_EQ(jobs[2].l2KB, 512u);

    // Shared settings reach every job.
    for (const JobSpec &job : jobs) {
        EXPECT_DOUBLE_EQ(job.workloadScale, 0.25);
        EXPECT_EQ(job.seed, 9u);
        EXPECT_TRUE(job.resume);
        EXPECT_EQ(job.priority, 3);
        EXPECT_EQ(job.failFirstAttempts, 2u);
    }

    // Every point is a distinct cache entry.
    std::vector<std::uint64_t> digests;
    for (const JobSpec &job : jobs)
        digests.push_back(jobDigest(job));
    std::sort(digests.begin(), digests.end());
    EXPECT_EQ(std::unique(digests.begin(), digests.end()),
              digests.end());
}

// ---------------------------------------------------------------------
// The cache key contract
// ---------------------------------------------------------------------

TEST(ServiceJobKey, SchedulingFieldsDoNotEnterTheKey)
{
    JobSpec a;
    JobSpec b = a;
    b.priority = 9;
    b.wallCapSeconds = 2.0;
    b.maxAttempts = 7;
    b.failFirstAttempts = 3;
    // Re-running the same experiment under a different retry policy
    // must hit the same cache entry.
    EXPECT_EQ(jobKey(a), jobKey(b));
    EXPECT_EQ(jobDigest(a), jobDigest(b));
}

TEST(ServiceJobKey, IdentityFieldsAllEnterTheKey)
{
    JobSpec base;
    auto differs = [&](auto mutate) {
        JobSpec m = base;
        mutate(m);
        return jobDigest(m) != jobDigest(base);
    };
    EXPECT_TRUE(differs([](JobSpec &j) { j.workload = "dedup"; }));
    EXPECT_TRUE(differs(
        [](JobSpec &j) { j.cpuModel = os::CpuModel::O3; }));
    EXPECT_TRUE(differs([](JobSpec &j) { j.cores = 4; }));
    EXPECT_TRUE(differs([](JobSpec &j) { j.platform = "M1_Pro"; }));
    EXPECT_TRUE(differs([](JobSpec &j) { j.l2KB = 256; }));
    EXPECT_TRUE(differs([](JobSpec &j) { j.dramGBs = 42.0; }));
    EXPECT_TRUE(differs([](JobSpec &j) { j.workloadScale = 0.5; }));
    EXPECT_TRUE(differs([](JobSpec &j) { j.maxGuestInsts = 100; }));
    EXPECT_TRUE(differs([](JobSpec &j) { j.seed = 2; }));
    EXPECT_TRUE(differs([](JobSpec &j) { j.resume = true; }));
}

TEST(ServiceSpec, ToRunConfigValidatesAndAppliesOverrides)
{
    JobSpec job;
    job.l2KB = 256;
    job.dramGBs = 50.0;
    core::RunConfig config = toRunConfig(job);
    EXPECT_EQ(config.workload, "sieve");
    EXPECT_EQ(config.platform.l2.sizeBytes, 256u * 1024u);
    EXPECT_GE(config.platform.l2.numSets(config.platform.lineBytes),
              1u);
    EXPECT_DOUBLE_EQ(config.platform.memBwGBs, 50.0);

    JobSpec bogus;
    bogus.workload = "no-such-kernel";
    EXPECT_THROW(toRunConfig(bogus), ConfigError);
}

// ---------------------------------------------------------------------
// Spool: transitions and recovery
// ---------------------------------------------------------------------

TEST(ServiceSpool, SubmitReadMoveRoundTrip)
{
    Spool spool(freshDir("roundtrip"));

    JobSpec spec;
    spec.workload = "dedup";
    spec.cpuModel = os::CpuModel::Minor;
    spec.cores = 2;
    spec.l2KB = 512;
    spec.dramGBs = 31.5;
    spec.workloadScale = 0.5;
    spec.seed = 77;
    spec.resume = true;
    spec.priority = -2;
    spec.wallCapSeconds = 0.75;
    spec.maxAttempts = 5;
    spec.failFirstAttempts = 1;

    std::uint64_t first = spool.submit(spec);
    std::uint64_t second = spool.submit(JobSpec{});
    EXPECT_EQ(second, first + 1); // ids in submission order

    SpoolJob job = spool.read(JobState::Queued, first);
    EXPECT_EQ(job.id, first);
    EXPECT_EQ(jobKey(job.spec), jobKey(spec));
    EXPECT_EQ(job.spec.priority, -2);
    EXPECT_DOUBLE_EQ(job.spec.wallCapSeconds, 0.75);
    EXPECT_EQ(job.spec.maxAttempts, 5u);
    EXPECT_EQ(job.spec.failFirstAttempts, 1u);
    EXPECT_EQ(job.attempts, 0u);

    job.attempts = 2;
    job.lastError = "Invariant: injected";
    spool.move(job, JobState::Queued, JobState::Running);
    EXPECT_EQ(spool.count(JobState::Queued), 1u);
    EXPECT_EQ(spool.count(JobState::Running), 1u);

    SpoolJob running = spool.read(JobState::Running, first);
    EXPECT_EQ(running.attempts, 2u);
    EXPECT_EQ(running.lastError, "Invariant: injected");
    EXPECT_THROW(spool.read(JobState::Queued, first),
                 CheckpointError);

    spool.remove(JobState::Queued, second);
    EXPECT_EQ(spool.count(JobState::Queued), 0u);

    std::vector<SpoolJob> listed = spool.list(JobState::Running);
    ASSERT_EQ(listed.size(), 1u);
    EXPECT_EQ(listed[0].id, first);
}

TEST(ServiceSpool, IdsResumeAfterReopen)
{
    std::string dir = freshDir("reopen");
    std::uint64_t last = 0;
    {
        Spool spool(dir);
        spool.submit(JobSpec{});
        last = spool.submit(JobSpec{});
    }
    Spool reopened(dir);
    // A restarted daemon must never reuse a live id.
    EXPECT_GT(reopened.submit(JobSpec{}), last);
}

TEST(ServiceSpool, RecoverHealsEveryCrashArtifact)
{
    std::string dir = freshDir("recover");
    Spool spool(dir);

    // j1 was dispatched when the daemon died.
    std::uint64_t running_id = spool.submit(JobSpec{});
    SpoolJob j1 = spool.read(JobState::Queued, running_id);
    spool.move(j1, JobState::Queued, JobState::Running);

    // j2's move to done/ crashed between write and remove: the job
    // is visible in both states.
    std::uint64_t dup_id = spool.submit(JobSpec{});
    SpoolJob j2 = spool.read(JobState::Queued, dup_id);
    fs::copy_file(spool.stateDir(JobState::Queued) + "/j" +
                      std::to_string(dup_id) + ".job",
                  spool.stateDir(JobState::Done) + "/j" +
                      std::to_string(dup_id) + ".job");

    // A torn tmp file and a corrupt job file.
    spit(spool.stateDir(JobState::Queued) + "/j9.job.tmp", "torn");
    spit(spool.stateDir(JobState::Queued) + "/j8.job",
         "not a checkpoint at all");

    RecoveryReport report = spool.recover();
    EXPECT_EQ(report.requeuedRunning, 1u);
    EXPECT_EQ(report.duplicatesDropped, 1u);
    EXPECT_EQ(report.tmpFilesRemoved, 1u);
    EXPECT_EQ(report.corruptQuarantined, 1u);

    // The most advanced state wins: j2 stays done, j1 is queued
    // again, the corrupt file is quarantined out of the way.
    EXPECT_EQ(spool.count(JobState::Running), 0u);
    EXPECT_EQ(spool.count(JobState::Queued), 1u);
    EXPECT_EQ(spool.list(JobState::Queued)[0].id, running_id);
    EXPECT_EQ(spool.count(JobState::Done), 1u);
    EXPECT_EQ(spool.list(JobState::Done)[0].id, dup_id);
    EXPECT_TRUE(fs::exists(spool.stateDir(JobState::Poisoned) +
                           "/j8.job.corrupt"));
    EXPECT_FALSE(fs::exists(spool.stateDir(JobState::Queued) +
                            "/j9.job.tmp"));

    // Recovery is idempotent.
    RecoveryReport again = spool.recover();
    EXPECT_EQ(again.requeuedRunning, 0u);
    EXPECT_EQ(again.duplicatesDropped, 0u);
    EXPECT_EQ(again.corruptQuarantined, 0u);
}

// ---------------------------------------------------------------------
// Result cache basics (corruption scenarios live in test_service.cc)
// ---------------------------------------------------------------------

ServiceResult
sampleResult()
{
    ServiceResult r;
    r.workload = "sieve";
    r.platform = "Intel_Xeon";
    r.cpuModel = "Atomic";
    r.cores = 2;
    r.guestInsts = 1234567;
    r.simTicks = 7654321;
    r.guestResult = 0xdeadbeef;
    r.resultChecked = true;
    r.resultOk = true;
    r.hostSeconds = 12.34375; // exactly representable
    r.ipc = 1.5;
    r.hostInsts = 42;
    r.codeBytes = 4096;
    r.distinctFunctions = 17;
    r.countersDigest = 0x1122334455667788ull;
    return r;
}

TEST(ServiceCache, StoreThenVerifiedLookupHits)
{
    ResultCache cache(freshDir("hit"), "v1");
    JobSpec job;
    cache.store(job, sampleResult());

    ServiceResult out;
    ASSERT_TRUE(cache.lookup(job, out));
    EXPECT_EQ(out.guestInsts, 1234567u);
    EXPECT_EQ(out.guestResult, 0xdeadbeefull);
    EXPECT_TRUE(out.resultChecked);
    EXPECT_TRUE(out.resultOk);
    // Doubles survive bit-exactly (hex-float rendering).
    EXPECT_EQ(out.hostSeconds, 12.34375);
    EXPECT_EQ(out.ipc, 1.5);
    EXPECT_EQ(out.countersDigest, 0x1122334455667788ull);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().stores, 1u);
}

TEST(ServiceCache, MissOnAbsentEntry)
{
    ResultCache cache(freshDir("miss"), "v1");
    ServiceResult out;
    JobSpec job;
    EXPECT_FALSE(cache.lookup(job, out));
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(ServiceCache, DigestCollisionMissesInsteadOfServingWrongResult)
{
    ResultCache cache(freshDir("collision"), "v1");
    JobSpec a;
    JobSpec b;
    b.seed = 999; // different identity, different digest
    cache.store(a, sampleResult());

    // Simulate an FNV collision: b's address holds a's entry.
    fs::copy_file(cache.entryPath(a), cache.entryPath(b));

    ServiceResult out;
    EXPECT_FALSE(cache.lookup(b, out));
    EXPECT_EQ(cache.stats().collisionMisses, 1u);
    // The full key is the authority; a's entry itself still serves.
    EXPECT_TRUE(cache.lookup(a, out));
    EXPECT_EQ(out.guestResult, 0xdeadbeefull);
}

TEST(ServiceCache, EntryBytesArePureFunctionOfKeyAndResult)
{
    std::string dir_a = freshDir("pure_a");
    std::string dir_b = freshDir("pure_b");
    JobSpec job;
    {
        ResultCache cache(dir_a, "v1");
        cache.store(job, sampleResult());
    }
    {
        ResultCache cache(dir_b, "v1");
        cache.store(job, sampleResult());
        cache.store(job, sampleResult()); // overwrite changes nothing
    }
    std::string name = fs::path(ResultCache(dir_a, "v1")
                                    .entryPath(job))
                           .filename()
                           .string();
    EXPECT_EQ(slurp(dir_a + "/" + name), slurp(dir_b + "/" + name));
}

} // namespace
