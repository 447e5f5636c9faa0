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
 * Intentional changes are blessed by re-running with --update-golden,
 * which rewrites the fixtures in the source tree.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

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

std::string
goldenPath(const GoldenRow &row)
{
    return std::string(G5P_GOLDEN_DIR) + "/" + row.name + ".txt";
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

class GoldenRun : public ::testing::TestWithParam<GoldenRow>
{};

TEST_P(GoldenRun, StatsDigestMatchesFixture)
{
    const GoldenRow &row = GetParam();
    std::vector<std::string> lines = runRow(row);
    std::uint64_t digest = fnv1a(lines);
    std::string path = goldenPath(row);

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
        << "stats drifted from golden run " << row.name
        << "; if intentional, bless with --update-golden.\n"
        << "Line diff (- fixture, + this run):\n"
        << diffLines(fx.lines, lines);
}

INSTANTIATE_TEST_SUITE_P(
    Rows, GoldenRun, ::testing::ValuesIn(goldenRows),
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
