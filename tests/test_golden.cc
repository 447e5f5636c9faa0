/**
 * @file
 * Golden-run regression harness: every row of one table runs a fixed
 * machine and workload, and the complete stats dump is reduced to an
 * FNV-1a digest over the sorted (name, value) pairs. The digest is
 * compared against a checked-in fixture in tests/golden/; any drift —
 * a changed counter, a renamed stat, a perturbed timing model — fails
 * the test with a line-level diff against the fixture.
 *
 * Rows that carry digests also pin a per-CPU commit-trace digest
 * (tick, pc folded in commit order) and PhysicalMemory's content
 * digest, so a service-order or data change that happens to leave
 * every counter alone still fails.
 *
 * The table holds three groups:
 *  - the per-model and workload rows (first six);
 *  - the detailed memory-path rows (timing_*, o3_1c, minor_*): the
 *    scenarios of the memory-path optimization round, recorded from
 *    the pre-optimization cache/xbar with heap-allocated packets;
 *  - the dispatch rows (dispatch_*): recorded with every event
 *    serviced through virtual process(); they pin the service
 *    loop's order for all four CPU models and a 4-core coherence
 *    stress.
 * The shipped code must reproduce all of them byte for byte.
 *
 * A second table (ProfiledRun) pins the host side of the profiled
 * pipeline: each row runs the trace -> synthesizer -> HostCore chain
 * (or a SPEC reference stream through HostCore::op) and records every
 * HostCounters field and Top-Down fraction (doubles as bit patterns),
 * the host instruction count, the laid-out code bytes and the ranked
 * function CDF. Its rows cover the structures each host-model path
 * touches: L1/L2/LLC miss paths, no-LLC and no-DSB machines, 128 B
 * lines with 16 KB pages, huge-page TLB entries and SMT-partitioned
 * caches and TLBs.
 *
 * Intentional changes are blessed by re-running with --update-golden,
 * which rewrites the fixtures in the source tree.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <fstream>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "mem/mem_tester.hh"
#include "os/system.hh"
#include "workloads/workload.hh"

using namespace g5p;
using namespace g5p::isa;
using namespace g5p::os;

namespace
{

bool updateGolden = false;

class GoldenWorkload : public GuestWorkload
{
  public:
    std::string name() const override { return "golden"; }

    void
    emit(Assembler &as, unsigned num_cpus, SimMode mode) const override
    {
        // A mix of ALU ops, strided stores, dependent loads, and a
        // data-dependent branch: enough to give every stat in the
        // machine a nonzero, model-specific value.
        as.label("_start");
        as.li(RegS1, 0);
        as.li(RegS0, 0);
        as.li(RegT3, 1200);
        as.li(RegT2, 0x400000);
        as.label("loop");
        as.mul(RegT0, RegS0, RegS0);
        as.andi(RegT1, RegS0, 255);
        as.slli(RegT1, RegT1, 3);
        as.add(RegT1, RegT1, RegT2);
        as.sd(RegT0, RegT1, 0);
        as.ld(RegT0, RegT1, 0);
        as.andi(RegT4, RegS0, 3);
        as.bne(RegT4, RegZero, "skip");
        as.add(RegS1, RegS1, RegT0);
        as.label("skip");
        as.addi(RegS0, RegS0, 1);
        as.blt(RegS0, RegT3, "loop");
        as.li(RegT0, (std::int64_t)resultAddr);
        as.sd(RegS1, RegT0, 0);
        as.halt();
    }
};

class DispatchWorkload : public GuestWorkload
{
  public:
    std::string name() const override { return "dispatch-mix"; }

    void
    emit(Assembler &as, unsigned num_cpus, SimMode mode) const override
    {
        // Arithmetic + aliasing stores + data-dependent branches:
        // enough event traffic (fetch, cache, writeback) that a
        // service-order change surfaces in the stats within a few
        // thousand instructions.
        as.label("_start");
        as.li(RegS1, 0);
        as.li(RegS0, 0);
        as.li(RegT3, 600);
        as.li(RegT2, 0x300000);
        as.label("loop");
        as.mul(RegT0, RegS0, RegS0);
        as.xor_(RegT0, RegT0, RegS1);
        as.andi(RegT1, RegS0, 63);
        as.slli(RegT1, RegT1, 3);
        as.add(RegT1, RegT1, RegT2);
        as.sd(RegT0, RegT1, 0);
        as.ld(RegT0, RegT1, 0);
        as.andi(RegT4, RegS0, 1);
        as.beq(RegT4, RegZero, "even");
        as.add(RegS1, RegS1, RegT0);
        as.j("next");
        as.label("even");
        as.sub(RegS1, RegS1, RegT0);
        as.label("next");
        as.addi(RegS0, RegS0, 1);
        as.blt(RegS0, RegT3, "loop");
        as.li(RegT0, (std::int64_t)resultAddr);
        as.sd(RegS1, RegT0, 0);
        as.halt();
    }
};

/** The in-file guests; any other name comes from the registry. */
const char *const goldenGuest = "golden";
const char *const dispatchGuest = "dispatch-mix";
/** Not a guest: the row runs the 4-core MemTester stress instead. */
const char *const memTesterRig = "mem_tester";

struct GoldenRow
{
    const char *name;  ///< fixture stem and test-name suffix
    CpuModel model;
    unsigned cores;
    const char *workload;
    double scale;
    std::uint64_t maxInstsPerCpu;
    bool digests;      ///< also pin commit and memory digests
};

void
PrintTo(const GoldenRow &row, std::ostream *os)
{
    *os << row.name;
}

const GoldenRow goldenRows[] = {
    {"Atomic", CpuModel::Atomic, 1, goldenGuest, 1.0, 0, false},
    {"Timing", CpuModel::Timing, 1, goldenGuest, 1.0, 0, false},
    {"Minor", CpuModel::Minor, 1, goldenGuest, 1.0, 0, false},
    {"O3", CpuModel::O3, 1, goldenGuest, 1.0, 0, false},
    // The long-horizon sampling guest at a CI-sized scale, so the
    // variant can't silently drift apart from plain water_nsquared.
    {"water_nsquared_long", CpuModel::Atomic, 1,
     "water_nsquared_long", 0.25, 0, false},
    // The coherent multi-core path: cache invalidations, xbar snoop
    // counts and per-core commit counts.
    {"radix_threads_2core", CpuModel::Timing, 2, "radix_threads",
     0.25, 0, false},

    {"timing_1c", CpuModel::Timing, 1, "water_nsquared", 2.0, 200000,
     true},
    {"timing_4c_mesi", CpuModel::Timing, 4, "radix_threads", 2.0,
     80000, true},
    {"o3_1c", CpuModel::O3, 1, "water_nsquared", 2.0, 60000, true},
    {"minor_1c", CpuModel::Minor, 1, "water_nsquared", 2.0, 120000,
     true},
    {"minor_4c_mesi", CpuModel::Minor, 4, "radix_threads", 2.0, 60000,
     true},

    {"dispatch_Atomic", CpuModel::Atomic, 1, dispatchGuest, 1.0, 0,
     true},
    {"dispatch_Timing", CpuModel::Timing, 1, dispatchGuest, 1.0, 0,
     true},
    {"dispatch_Minor", CpuModel::Minor, 1, dispatchGuest, 1.0, 0,
     true},
    {"dispatch_O3", CpuModel::O3, 1, dispatchGuest, 1.0, 0, true},
    {"dispatch_mem_tester_4c", CpuModel::Timing, 4, memTesterRig, 1.0,
     0, false},
};

/**
 * Sorted "name value" pairs straight off the stats visitor — the
 * same reduction the text dump used to be re-parsed into (default
 * ostream double formatting keeps the digests fixture-compatible).
 */
class LineVisitor : public sim::stats::Visitor
{
  public:
    void
    value(const std::string &dotted, double value,
          const sim::stats::Info &) override
    {
        std::ostringstream os;
        os << dotted << " " << value;
        lines.push_back(os.str());
    }

    std::vector<std::string> lines;
};

constexpr std::uint64_t fnvBasis = 14695981039346656037ULL;
constexpr std::uint64_t fnvPrime = 1099511628211ULL;

std::uint64_t
fnv1a(const std::vector<std::string> &lines)
{
    std::uint64_t hash = fnvBasis;
    for (const std::string &line : lines) {
        for (unsigned char c : line)
            hash = (hash ^ c) * fnvPrime;
        hash = (hash ^ (unsigned char)'\n') * fnvPrime;
    }
    return hash;
}

std::string
hexLine(const std::string &label, std::uint64_t value)
{
    std::ostringstream os;
    os << label << " " << std::hex << value;
    return os.str();
}

std::unique_ptr<GuestWorkload>
makeWorkload(const GoldenRow &row)
{
    std::string name = row.workload;
    if (name == goldenGuest)
        return std::make_unique<GoldenWorkload>();
    if (name == dispatchGuest)
        return std::make_unique<DispatchWorkload>();
    return workloads::Registry::instance().create(name, row.scale);
}

/** Run @p row to completion; its sorted fixture lines. */
std::vector<std::string>
runRow(const GoldenRow &row)
{
    sim::Simulator sim("system");
    std::vector<std::string> lines;

    if (std::string(row.workload) == memTesterRig) {
        mem::MemTesterParams p;
        p.numCores = row.cores;
        p.seed = 7;
        p.opsPerCore = 400;
        mem::MemTester tester(sim, "mt", p);
        auto res = sim.run();
        EXPECT_EQ(res.cause, sim::ExitCause::Finished)
            << sim::exitCauseName(res.cause) << "\n"
            << sim.diagnosticDump();
        EXPECT_TRUE(tester.allDone());
        EXPECT_TRUE(tester.violations().empty());
        LineVisitor v;
        sim.visit(v);
        lines = std::move(v.lines);
    } else {
        auto wl = makeWorkload(row);
        SystemConfig cfg;
        cfg.cpuModel = row.model;
        cfg.numCpus = row.cores;
        cfg.maxInstsPerCpu = row.maxInstsPerCpu;
        System system(sim, cfg, *wl);

        std::vector<std::uint64_t> commits(row.cores, fnvBasis);
        if (row.digests) {
            for (unsigned i = 0; i < row.cores; ++i) {
                system.cpu(i).setCommitHook(
                    [&commits, i](Tick tick, Addr pc,
                                  const isa::StaticInst &) {
                        std::uint64_t &h = commits[i];
                        h = ((h ^ tick) * fnvPrime ^ pc) * fnvPrime;
                    });
            }
        }
        auto res = system.run(5'000'000'000'000ULL);
        EXPECT_EQ(res.cause, sim::ExitCause::Finished);
        std::uint64_t want = wl->expectedResult(row.cores);
        if (row.maxInstsPerCpu == 0 && want != 0) {
            EXPECT_EQ(system.result(), want);
        }

        LineVisitor v;
        sim.visit(v);
        lines = std::move(v.lines);
        if (row.digests) {
            for (unsigned i = 0; i < row.cores; ++i)
                lines.push_back(hexLine(
                    "commit.cpu" + std::to_string(i), commits[i]));
            lines.push_back(hexLine("physmem.contentDigest",
                                    system.physmem().contentDigest()));
        }
    }
    std::sort(lines.begin(), lines.end());
    return lines;
}

void
writeFixture(const std::string &path, std::uint64_t digest,
             const std::vector<std::string> &lines)
{
    std::ofstream os(path);
    ASSERT_TRUE(os.good()) << "cannot write fixture " << path;
    os << "digest " << std::hex << digest << std::dec << "\n";
    for (const auto &line : lines)
        os << line << "\n";
}

struct Fixture
{
    bool present = false;
    std::uint64_t digest = 0;
    std::vector<std::string> lines;
};

Fixture
readFixture(const std::string &path)
{
    Fixture fx;
    std::ifstream is(path);
    if (!is.good())
        return fx;
    std::string word;
    is >> word >> std::hex >> fx.digest >> std::dec;
    if (word != "digest") {
        ADD_FAILURE() << "malformed fixture " << path;
        return fx;
    }
    std::string line;
    std::getline(is, line); // rest of the digest line
    while (std::getline(is, line))
        if (!line.empty())
            fx.lines.push_back(line);
    fx.present = true;
    return fx;
}

/** First few fixture-vs-run line differences, for the failure text. */
std::string
diffLines(const std::vector<std::string> &want,
          const std::vector<std::string> &got)
{
    std::ostringstream os;
    int shown = 0;
    std::size_t i = 0, j = 0;
    while ((i < want.size() || j < got.size()) && shown < 12) {
        if (i < want.size() && j < got.size() &&
            want[i] == got[j]) {
            ++i, ++j;
        } else if (j >= got.size() ||
                   (i < want.size() && want[i] < got[j])) {
            os << "  - " << want[i++] << "\n";
            ++shown;
        } else {
            os << "  + " << got[j++] << "\n";
            ++shown;
        }
    }
    if (i < want.size() || j < got.size())
        os << "  ... (more differences)\n";
    return os.str();
}

/**
 * Compare @p lines with the fixture named @p stem, or rewrite that
 * fixture under --update-golden.
 */
void
checkFixture(const std::string &stem,
             const std::vector<std::string> &lines)
{
    std::uint64_t digest = fnv1a(lines);
    std::string path = std::string(G5P_GOLDEN_DIR) + "/" + stem + ".txt";

    if (updateGolden) {
        writeFixture(path, digest, lines);
        std::printf("updated %s\n", path.c_str());
        return;
    }

    Fixture fx = readFixture(path);
    ASSERT_TRUE(fx.present)
        << "no golden fixture at " << path
        << "; run test_golden --update-golden to create it";
    EXPECT_EQ(fx.digest, digest)
        << "results drifted from golden run " << stem
        << "; if intentional, bless with --update-golden.\n"
        << "Line diff (- fixture, + this run):\n"
        << diffLines(fx.lines, lines);
}

class GoldenRun : public ::testing::TestWithParam<GoldenRow>
{};

TEST_P(GoldenRun, StatsDigestMatchesFixture)
{
    const GoldenRow &row = GetParam();
    checkFixture(row.name, runRow(row));
}

INSTANTIATE_TEST_SUITE_P(
    Rows, GoldenRun, ::testing::ValuesIn(goldenRows),
    [](const auto &info) { return std::string(info.param.name); });

/** A profiled-pipeline row: fixture stem plus the run it pins. */
struct ProfiledRow
{
    const char *name;
    core::RunResult (*run)();
};

void
PrintTo(const ProfiledRow &row, std::ostream *os)
{
    *os << row.name;
}

/** A capped profiled run of @p workload on @p platform. */
core::RunConfig
profiledConfig(const char *workload, CpuModel model,
               const host::HostPlatformConfig &platform,
               std::uint64_t max_insts)
{
    core::RunConfig cfg;
    cfg.workload = workload;
    cfg.cpuModel = model;
    cfg.workloadScale = 0.25;
    cfg.maxGuestInsts = max_insts;
    cfg.platform = platform;
    return cfg;
}

const ProfiledRow profiledRows[] = {
    {"profiled_water_atomic_xeon",
     [] {
         return core::runProfiledSimulation(profiledConfig(
             "water_nsquared", CpuModel::Atomic, host::xeonConfig(),
             3000));
     }},
    {"profiled_water_o3_xeon",
     [] {
         return core::runProfiledSimulation(profiledConfig(
             "water_nsquared", CpuModel::O3, host::xeonConfig(),
             1500));
     }},
    // Fig. 14's smallest and largest L1s: the miss path on a
    // machine with no LLC and no DSB.
    {"profiled_sieve_atomic_fig14_8k2",
     [] {
         return core::runProfiledSimulation(profiledConfig(
             "sieve", CpuModel::Atomic,
             host::firesimCacheConfig(8, 2, 8, 2, 512, 8), 3000));
     }},
    {"profiled_sieve_atomic_fig14_64k16",
     [] {
         return core::runProfiledSimulation(profiledConfig(
             "sieve", CpuModel::Atomic,
             host::firesimCacheConfig(64, 16, 64, 16, 512, 8),
             3000));
     }},
    // 128 B lines, 16 KB pages, no DSB.
    {"profiled_water_timing_m1pro",
     [] {
         return core::runProfiledSimulation(profiledConfig(
             "water_nsquared", CpuModel::Timing, host::m1ProConfig(),
             2000));
     }},
    // THP-backed text: huge-page entries in the iTLB.
    {"profiled_water_o3_xeon_thp",
     [] {
         core::RunConfig cfg = profiledConfig(
             "water_nsquared", CpuModel::O3, host::xeonConfig(), 1500);
         cfg.tuning.thpCode = true;
         return core::runProfiledSimulation(cfg);
     }},
    // Two SMT threads: way-partitioned caches, halved TLBs and DSB.
    {"profiled_water_atomic_xeon_smt2",
     [] {
         core::RunConfig cfg = profiledConfig(
             "water_nsquared", CpuModel::Atomic, host::xeonConfig(),
             3000);
         cfg.corun = host::CorunScenario{2, true};
         return core::runProfiledSimulation(cfg);
     }},
    // The SPEC reference streams reach the core through op().
    {"spec_x264_xeon",
     [] {
         return core::runSpecReference(workloads::specX264(),
                                       host::xeonConfig());
     }},
    {"spec_deepsjeng_xeon",
     [] {
         return core::runSpecReference(workloads::specDeepsjeng(),
                                       host::xeonConfig());
     }},
    {"spec_mcf_xeon",
     [] {
         return core::runSpecReference(workloads::specMcf(),
                                       host::xeonConfig());
     }},
};

/** Every host-side result of @p r, sorted, doubles as bit patterns. */
std::vector<std::string>
profiledLines(const core::RunResult &r)
{
    // Each field is listed by name below; a new counter or Top-Down
    // fraction must be added there too.
    static_assert(sizeof(host::HostCounters) == 32 * 8);
    static_assert(sizeof(host::TopdownBreakdown) == 14 * 8);

    std::vector<std::string> lines;
    auto u = [&lines](const std::string &name, std::uint64_t v) {
        lines.push_back(name + " " + std::to_string(v));
    };
    auto d = [&lines](const std::string &name, double v) {
        lines.push_back(hexLine(name, std::bit_cast<std::uint64_t>(v)));
    };

    const host::HostCounters &c = r.counters;
    u("counters.insts", c.insts);
    u("counters.uops", c.uops);
    u("counters.loads", c.loads);
    u("counters.stores", c.stores);
    u("counters.branches", c.branches);
    d("counters.baseCycles", c.baseCycles);
    d("counters.feLatIcacheCycles", c.feLatIcacheCycles);
    d("counters.feLatItlbCycles", c.feLatItlbCycles);
    d("counters.feLatMispredictCycles", c.feLatMispredictCycles);
    d("counters.feLatUnknownCycles", c.feLatUnknownCycles);
    d("counters.feLatClearCycles", c.feLatClearCycles);
    d("counters.feBwMiteCycles", c.feBwMiteCycles);
    d("counters.feBwDsbCycles", c.feBwDsbCycles);
    d("counters.badSpecCycles", c.badSpecCycles);
    d("counters.beMemCycles", c.beMemCycles);
    d("counters.beCoreCycles", c.beCoreCycles);
    u("counters.icacheAccesses", c.icacheAccesses);
    u("counters.icacheMisses", c.icacheMisses);
    u("counters.dcacheAccesses", c.dcacheAccesses);
    u("counters.dcacheMisses", c.dcacheMisses);
    u("counters.itlbAccesses", c.itlbAccesses);
    u("counters.itlbMisses", c.itlbMisses);
    u("counters.dtlbAccesses", c.dtlbAccesses);
    u("counters.dtlbMisses", c.dtlbMisses);
    u("counters.l2Misses", c.l2Misses);
    u("counters.llcMisses", c.llcMisses);
    u("counters.mispredicts", c.mispredicts);
    u("counters.unknownBranches", c.unknownBranches);
    u("counters.uopsFromDsb", c.uopsFromDsb);
    u("counters.uopsFromMite", c.uopsFromMite);
    u("counters.dramBytes", c.dramBytes);
    u("counters.llcOccupancyBytes", c.llcOccupancyBytes);

    const host::TopdownBreakdown &t = r.topdown;
    d("topdown.retiring", t.retiring);
    d("topdown.badSpeculation", t.badSpeculation);
    d("topdown.frontendLatency", t.frontendLatency);
    d("topdown.frontendBandwidth", t.frontendBandwidth);
    d("topdown.backendBound", t.backendBound);
    d("topdown.feIcache", t.feIcache);
    d("topdown.feItlb", t.feItlb);
    d("topdown.feMispredictResteers", t.feMispredictResteers);
    d("topdown.feUnknownBranches", t.feUnknownBranches);
    d("topdown.feClearResteers", t.feClearResteers);
    d("topdown.feMite", t.feMite);
    d("topdown.feDsb", t.feDsb);
    d("topdown.beMemory", t.beMemory);
    d("topdown.beCore", t.beCore);

    d("hostSeconds", r.hostSeconds);
    u("hostInsts", r.hostInsts);
    u("codeBytes", r.codeBytes);
    u("guestInsts", r.guestInsts);
    const auto &ranked = r.functionCdf.ranked();
    for (std::size_t i = 0; i < ranked.size(); ++i) {
        char rank[32];
        std::snprintf(rank, sizeof rank, "cdf.%05zu ", i);
        lines.push_back(
            hexLine(rank + ranked[i].name + " " +
                        std::to_string(ranked[i].selfOps),
                    std::bit_cast<std::uint64_t>(ranked[i].share)));
    }
    std::sort(lines.begin(), lines.end());
    return lines;
}

class ProfiledRun : public ::testing::TestWithParam<ProfiledRow>
{};

TEST_P(ProfiledRun, HostResultsMatchFixture)
{
    const ProfiledRow &row = GetParam();
    checkFixture(row.name, profiledLines(row.run()));
}

INSTANTIATE_TEST_SUITE_P(
    Rows, ProfiledRun, ::testing::ValuesIn(profiledRows),
    [](const auto &info) { return std::string(info.param.name); });

} // namespace

int
main(int argc, char **argv)
{
    // Strip our flag before gtest parses the rest.
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--update-golden") {
            updateGolden = true;
            for (int j = i; j + 1 < argc; ++j)
                argv[j] = argv[j + 1];
            --argc;
            break;
        }
    }
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
