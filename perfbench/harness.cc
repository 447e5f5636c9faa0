/**
 * @file
 * Benchmark harness: runs one named workload of the repository's two
 * end-to-end paths (the profiled pipeline and the unprofiled detailed
 * path) in one single-threaded process, verifies every result row,
 * and prints its figures as JSON on stdout.
 *
 * Every layer is timed from outside, around calls into its public
 * API; nothing is instrumented inside the library. See README.md for
 * the workloads, the metrics and which layer each one reads.
 *
 * Usage:
 *   perfbench_harness --workload <name> --seed <n> --digests <file>
 *                     (--setup-only | --seconds <s> --trace <0|1> |
 *                      --emit-digests)
 *
 * Output (stdout): with --setup-only, one line "ready <ns>" holding
 * the CPU time the process has used by the point at which the first
 * timed pass could begin (before the benchmark reads its own digest
 * table). Otherwise a report line {"report": ...} with the per-row
 * results, then the result line {"correct", "attempted", "failed",
 * "metrics"}. With --emit-digests, one "<workload> <seed> <row>
 * <digest>" line per row instead. Exit status is non-zero on bad
 * arguments or when the traced pipeline is not identical to the
 * measured program.
 */

#include <sched.h>
#include <time.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/func_profile.hh"
#include "host/platforms.hh"
#include "mem/packet_pool.hh"
#include "os/system.hh"
#include "sim/profiler.hh"
#include "sim/simulator.hh"
#include "trace/code_layout.hh"
#include "trace/recorder.hh"
#include "trace/synthesizer.hh"
#include "workloads/workload.hh"

namespace
{

using namespace g5p;
/**
 * The clock every figure is timed with: this thread's CPU time. On a
 * shared virtual host the wall clock also counts the time the
 * hypervisor gives this vCPU to other guests (steal time); the guest
 * kernel leaves steal time out of a thread's CPU time. The harness is
 * single-threaded and does no I/O while it times, so on a quiet host
 * the two clocks agree (the report lists both per pass).
 */
struct Clock
{
    using duration = std::chrono::nanoseconds;
    using rep = duration::rep;
    using period = duration::period;
    using time_point = std::chrono::time_point<Clock>;
    static constexpr bool is_steady = true;

    static time_point
    now() noexcept
    {
        timespec ts{};
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
        return time_point(duration(ts.tv_sec * 1000000000LL + ts.tv_nsec));
    }
};

/** Wall time: only for the run's --seconds budget and the report. */
using WallClock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
wallSince(WallClock::time_point t0)
{
    return std::chrono::duration<double>(WallClock::now() - t0).count();
}

/**
 * Number of distinct program seeds. A run with benchmark seed s runs
 * every pass of its profiled rows at RunConfig::seed = 1 + s mod
 * seedSpace, so the per-row mean compares identical configs; the
 * code layout varies only from run to run. The digest file holds the
 * expected result of every seed.
 */
constexpr std::uint64_t seedSpace = 64;

// ---------------------------------------------------------------
// Digests (FNV-1a over exact bit patterns).
// ---------------------------------------------------------------

struct Fnv
{
    std::uint64_t h = 1469598103934665603ull;

    void
    u64(std::uint64_t x)
    {
        for (int i = 0; i < 8; ++i) {
            h = (h ^ ((x >> (8 * i)) & 0xff)) * 1099511628211ull;
        }
    }

    void
    f64(double d)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &d, sizeof bits);
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        for (unsigned char c : s)
            h = (h ^ c) * 1099511628211ull;
    }
};

/** HostCounters + Top-Down + FunctionCdf, byte for byte. */
std::uint64_t
profiledDigest(const host::HostCounters &c,
               const host::TopdownBreakdown &t,
               const core::FunctionCdf &cdf)
{
    Fnv f;
    for (std::uint64_t v :
         {c.insts, c.uops, c.loads, c.stores, c.branches,
          c.icacheAccesses, c.icacheMisses, c.dcacheAccesses,
          c.dcacheMisses, c.itlbAccesses, c.itlbMisses,
          c.dtlbAccesses, c.dtlbMisses, c.l2Misses, c.llcMisses,
          c.mispredicts, c.unknownBranches, c.uopsFromDsb,
          c.uopsFromMite, c.dramBytes, c.llcOccupancyBytes})
        f.u64(v);
    for (double v :
         {c.baseCycles, c.feLatIcacheCycles, c.feLatItlbCycles,
          c.feLatMispredictCycles, c.feLatUnknownCycles,
          c.feLatClearCycles, c.feBwMiteCycles, c.feBwDsbCycles,
          c.badSpecCycles, c.beMemCycles, c.beCoreCycles})
        f.f64(v);
    for (double v :
         {t.retiring, t.badSpeculation, t.frontendLatency,
          t.frontendBandwidth, t.backendBound, t.feIcache, t.feItlb,
          t.feMispredictResteers, t.feUnknownBranches,
          t.feClearResteers, t.feMite, t.feDsb, t.beMemory,
          t.beCore})
        f.f64(v);
    f.u64(cdf.size());
    for (const core::HotFunction &fn : cdf.ranked()) {
        f.str(fn.name);
        f.u64(fn.selfOps);
        f.f64(fn.share);
    }
    return f.h;
}

// ---------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------

/** One row of the unprofiled detailed path (fixed guest inputs). */
struct PlainRow
{
    std::string label;
    os::CpuModel model;
    unsigned cores;
    std::string workload;
    double scale;
};

struct Workload
{
    std::string name;
    std::uint64_t seedIndex = 0;           ///< 0 when unseeded
    std::vector<core::RunConfig> profiled; ///< profiled rows
    std::vector<PlainRow> plain;           ///< unprofiled rows
};

std::string
rowLabel(const core::RunConfig &cfg)
{
    return cfg.workload + "/" + cfg.platform.name + "/" +
           os::cpuModelName(cfg.cpuModel);
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    Workload w;
    w.name = name;
    w.seedIndex = seed % seedSpace;
    std::uint64_t program_seed = 1 + w.seedIndex;
    auto profiled = [&](const std::string &guest, double scale,
                        os::CpuModel model,
                        const host::HostPlatformConfig &platform) {
        core::RunConfig cfg;
        cfg.workload = guest;
        cfg.workloadScale = scale;
        cfg.cpuModel = model;
        cfg.platform = platform;
        cfg.seed = program_seed;
        w.profiled.push_back(cfg);
    };

    if (name == "profiled_single") {
        // The two ends of the host-ops-per-guest-inst range.
        for (auto model : {os::CpuModel::Atomic, os::CpuModel::O3})
            profiled("water_nsquared", 0.3, model, host::xeonConfig());
    } else if (name == "profiled_host_sweep") {
        // The fig14 geometries (i$KB/assoc : d$KB/assoc : L2KB/assoc).
        struct Geometry
        {
            unsigned i_kb, i_w, d_kb, d_w, l2_kb, l2_w;
        };
        const Geometry sweep[] = {
            {8, 2, 8, 2, 512, 8},     {16, 4, 16, 4, 512, 8},
            {32, 8, 32, 8, 512, 8},   {32, 8, 32, 8, 1024, 8},
            {32, 8, 32, 8, 2048, 16}, {64, 16, 64, 16, 512, 8},
        };
        for (const Geometry &g : sweep) {
            auto platform = host::firesimCacheConfig(
                g.i_kb, g.i_w, g.d_kb, g.d_w, g.l2_kb, g.l2_w);
            for (auto model : {os::CpuModel::Atomic, os::CpuModel::O3})
                profiled("sieve", 0.005, model, platform);
        }
    } else if (name == "unprofiled_detailed") {
        // Fixed guest inputs: this path takes no seed.
        w.seedIndex = 0;
        w.plain.push_back({"o3-1c", os::CpuModel::O3, 1,
                           "water_nsquared_long", 1.6});
        w.plain.push_back({"timing-4c-mesi", os::CpuModel::Timing, 4,
                           "radix_threads", 12.0});
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return w;
}

// ---------------------------------------------------------------
// Row outcomes and verification.
// ---------------------------------------------------------------

struct RowOutcome
{
    std::string label;
    double wall = 0;          ///< host CPU seconds for the row (Clock)
    std::uint64_t guestInsts = 0;
    std::uint64_t hostInsts = 0;
    std::uint64_t digest = 0;
    bool finished = false;
    bool checksumOk = false;
    bool digestOk = false;

    bool ok() const { return finished && checksumOk && digestOk; }
};

/** Expected digests keyed by "<workload> <seed> <row>". */
using DigestTable = std::map<std::string, std::uint64_t>;

DigestTable
loadDigests(const std::string &path)
{
    DigestTable table;
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read digests from " + path);
    std::string workload, row, hex;
    std::uint64_t seed;
    while (in >> workload >> seed >> row >> hex)
        table[workload + " " + std::to_string(seed) + " " + row] =
            std::stoull(hex, nullptr, 16);
    return table;
}

std::string
digestKey(const Workload &w, const std::string &row)
{
    return w.name + " " + std::to_string(w.seedIndex) + " " + row;
}

void
checkDigest(RowOutcome &row, const DigestTable &table,
            const std::string &key)
{
    auto it = table.find(key);
    row.digestOk = it != table.end() && it->second == row.digest;
    if (!row.digestOk)
        std::fprintf(stderr, "digest mismatch: %s: got %016llx\n",
                     key.c_str(), (unsigned long long)row.digest);
}

RowOutcome
fromRunResult(const core::RunConfig &cfg, const core::RunResult &r,
              double wall)
{
    RowOutcome row;
    row.label = rowLabel(cfg);
    row.wall = wall;
    row.guestInsts = r.guestInsts;
    row.hostInsts = r.hostInsts;
    row.finished = r.exitCause == sim::ExitCause::Finished;
    row.checksumOk = r.resultChecked && r.resultOk;
    row.digest = profiledDigest(r.counters, r.topdown, r.functionCdf);
    return row;
}

/** Plain accessors of the detailed memory path after a run. */
struct MemHealth
{
    std::uint64_t poolHighWater = 0;
    std::uint64_t snoopProbes = 0, snoopSteps = 0;
    std::uint64_t mshrProbes = 0, mshrSteps = 0;

    void
    read(os::System &system)
    {
        poolHighWater = mem::PacketPool::highWater();
        auto &xb = system.xbar();
        snoopProbes = xb.filterProbes();
        snoopSteps = xb.filterProbeSteps();
        mshrProbes = system.l2().mshrIndexProbes();
        mshrSteps = system.l2().mshrIndexProbeSteps();
        for (unsigned i = 0; i < system.numCpus(); ++i) {
            mshrProbes += system.l1i(i).mshrIndexProbes() +
                          system.l1d(i).mshrIndexProbes();
            mshrSteps += system.l1i(i).mshrIndexProbeSteps() +
                         system.l1d(i).mshrIndexProbeSteps();
        }
    }
};

/**
 * Self-profiler event classes grouped by owning layer. Event times
 * include the synchronous port calls made from inside an event, so a
 * CPU tick that calls into a cache in atomic/functional mode charges
 * that cache time to `cpu`.
 */
struct EventSplit
{
    std::uint64_t events = 0;
    double cpu = 0, mem = 0, loop = 0;
};

bool
isMemOwner(const std::string &name)
{
    static const char *const memParts[] = {"cache", "l2.", "xbar",
                                           "dram", "Walk"};
    for (const char *part : memParts)
        if (name.find(part) != std::string::npos)
            return true;
    return false;
}

EventSplit
splitEvents(const sim::Profiler &prof)
{
    EventSplit split;
    double attributed = 0;
    for (const sim::EventClassStats &cls : prof.eventClasses()) {
        split.events += cls.count;
        double s = cls.wallNs * 1e-9;
        attributed += s;
        if (isMemOwner(cls.name))
            split.mem += s;
        else if (cls.name.find("cpu") != std::string::npos)
            split.cpu += s;
        else
            split.loop += s;
    }
    split.loop += prof.wallSeconds() - attributed;
    return split;
}

// ---------------------------------------------------------------
// The unprofiled detailed path: plain os::System::run.
// ---------------------------------------------------------------

/**
 * What the identity leg's commit hook saw of the trace layer while
 * the guest ran. The host model gets ops only from a Synthesizer fed
 * by an active Recorder, so no Recorder at any commit means neither
 * `trace` nor `host` did work.
 */
struct BypassProbe
{
    std::uint64_t commits = 0;       ///< guest commits observed
    std::uint64_t tracedCommits = 0; ///< of those, with a Recorder active
    std::uint64_t scopes = 0;        ///< largest Recorder::enterCount seen
};

struct PlainRun
{
    RowOutcome row;
    double runWall = 0; ///< os::System::run alone
    MemHealth health;
    EventSplit events;
    BypassProbe probe;               ///< identity leg only
    std::uint64_t identityDigest = 0; ///< digest + commit digests
};

/** Table key of a plain row's identity digest. */
std::string
identityLabel(const PlainRow &spec)
{
    return spec.label + "+commits";
}

/**
 * One unprofiled row. Its digest covers the stats dump and the guest
 * memory digest. The identity leg (@p identity) also arms a commit
 * hook on every CPU: identityDigest adds a per-CPU commit digest
 * (tick, pc), and the hook fills the bypass probe. The hook costs a
 * call per guest instruction, so timed passes run without it.
 * @p prof, when given, is attached for the run (the traced leg).
 */
PlainRun
runPlainRow(const PlainRow &spec, sim::Profiler *prof, bool identity)
{
    PlainRun out;
    out.row.label = spec.label;
    auto t0 = Clock::now();
    auto sim = std::make_unique<sim::Simulator>("system");
    auto wl = workloads::Registry::instance().create(spec.workload,
                                                     spec.scale);
    os::SystemConfig cfg;
    cfg.cpuModel = spec.model;
    cfg.numCpus = spec.cores;
    auto system = std::make_unique<os::System>(*sim, cfg, *wl);
    std::vector<Fnv> commits(identity ? spec.cores : 0);
    BypassProbe &probe = out.probe;
    for (unsigned i = 0; i < commits.size(); ++i) {
        system->cpu(i).setCommitHook(
            [&commits, &probe, i](Tick tick, Addr pc,
                                  const isa::StaticInst &) {
                commits[i].u64(tick);
                commits[i].u64(pc);
                ++probe.commits;
                if (const trace::Recorder *rec = trace::Recorder::active()) {
                    ++probe.tracedCommits;
                    probe.scopes = std::max(probe.scopes, rec->enterCount());
                }
            });
    }
    mem::PacketPool::resetHighWater();
    if (prof)
        sim->attachProfiler(*prof);
    auto t_run = Clock::now();
    sim::SimResult res = system->run();
    out.runWall = since(t_run);
    if (prof)
        prof->disarm();
    double wall = since(t0);

    out.row.finished = res.cause == sim::ExitCause::Finished;
    out.row.guestInsts = system->totalInsts();
    std::uint64_t expected = wl->expectedResult(spec.cores);
    out.row.checksumOk = expected != 0 && system->result() == expected;
    std::ostringstream stats;
    sim->dumpStats(stats);
    Fnv f;
    f.str(stats.str());
    f.u64(system->physmem().contentDigest());
    f.u64(sim->curTick());
    f.u64(out.row.guestInsts);
    out.row.digest = f.h;
    for (const Fnv &c : commits)
        f.u64(c.h);
    out.identityDigest = f.h;
    out.health.read(*system);
    if (prof)
        out.events = splitEvents(*prof);

    auto t1 = Clock::now();
    system.reset();
    sim.reset();
    out.row.wall = wall + since(t1);
    return out;
}

// ---------------------------------------------------------------
// The profiled pipeline, rebuilt from its public classes with a
// timing sink between the Synthesizer and the HostCore.
// ---------------------------------------------------------------

/** Forwards every batch to the HostCore, timing each ops() call. */
class TimedSink final : public trace::HostInstSink
{
  public:
    explicit TimedSink(host::HostCore &core) : core_(core) {}

    void
    op(const trace::HostOp &op) override
    {
        ops(&op, 1);
    }

    void
    ops(const trace::HostOp *batch, std::size_t count) override
    {
        auto t0 = Clock::now();
        core_.ops(batch, count);
        busy += since(t0);
        opCount += count;
        ++batches;
    }

    double busy = 0;
    std::uint64_t opCount = 0;
    std::uint64_t batches = 0;

  private:
    host::HostCore &core_;
};

/** Layer figures of one traced profiled row. */
struct TracedRow
{
    double wall = 0;     ///< whole traced row (build + run + report)
    double runWall = 0;  ///< guest run + trace + host, live
    double hostBusy = 0;
    std::uint64_t hostOps = 0;
    std::uint64_t batches = 0;
    std::uint64_t scopes = 0;
    std::uint64_t dataRefs = 0;
    double layoutBuild = 0;
    double hostcoreBuild = 0;
    double report = 0;
    host::HostCounters counters;
    std::uint64_t digest = 0;
};

/** The guest machine runProfiledSimulation builds for @p config. */
os::SystemConfig
guestSystem(const core::RunConfig &config)
{
    os::SystemConfig sys_cfg;
    sys_cfg.cpuModel = config.cpuModel;
    sys_cfg.mode = config.mode;
    sys_cfg.numCpus = config.guestCpus;
    sys_cfg.maxInstsPerCpu = config.maxGuestInsts;
    return sys_cfg;
}

/** The self-profiler in trace mode, keeping no slices. */
sim::ProfilerConfig
tracingProfiler()
{
    sim::ProfilerConfig pc;
    pc.traceSlices = true;
    pc.maxTraceSlices = 0;
    return pc;
}

/**
 * The same pipeline runProfiledSimulation builds, for the untuned,
 * non-fast-forward configs this benchmark runs (construction order
 * included: the guest machine assigns host data addresses as it is
 * built). The identity check compares its digest with the measured
 * program's.
 */
TracedRow
runTracedRow(const core::RunConfig &config)
{
    TracedRow out;
    auto t_row = Clock::now();
    {
        sim::Simulator simulator("system");
        auto workload = workloads::Registry::instance().create(
            config.workload, config.workloadScale);
        os::System system(simulator, guestSystem(config), *workload);

        host::HostPlatformConfig platform =
            core::effectivePlatform(config);
        trace::LayoutOptions layout_opts;
        layout_opts.seed ^= config.seed * 0x9e3779b97f4a7c15ULL;
        auto t0 = Clock::now();
        trace::CodeLayout layout(trace::FuncRegistry::instance(),
                                 layout_opts);
        out.layoutBuild = since(t0);

        host::PageSizePolicy policy(platform.pageBits);
        t0 = Clock::now();
        host::HostCore core(platform, policy);
        out.hostcoreBuild = since(t0);

        TimedSink sink(core);
        trace::Synthesizer synth(layout, sink, config.seed, 1.0);
        core::FuncProfile profile;
        trace::Recorder recorder;
        recorder.addConsumer(&synth);
        recorder.addConsumer(&profile);
        recorder.activate();
        simulator.configure(config.run);
        mem::PacketPool::resetHighWater();

        t0 = Clock::now();
        system.run();
        recorder.deactivate();
        synth.flush();
        out.runWall = since(t0);

        t0 = Clock::now();
        out.counters = core.counters();
        host::TopdownBreakdown topdown = core.topdown();
        core::FunctionCdf cdf = core::FunctionCdf::build(synth.selfOps());
        out.report = since(t0);

        out.hostBusy = sink.busy;
        out.hostOps = sink.opCount;
        out.batches = sink.batches;
        out.scopes = recorder.enterCount();
        out.dataRefs = recorder.dataCount();
        out.digest = profiledDigest(out.counters, topdown, cdf);
    }
    out.wall = since(t_row);
    return out;
}

/**
 * Guest-only (@p with_recorder false) or Recorder + FuncProfile leg
 * of a profiled row: the same machine, run without the synthesizer
 * and host model. Returns the run's wall seconds; @p prof, when
 * given, is attached for the run.
 */
double
runGuestLeg(const core::RunConfig &config, bool with_recorder,
            sim::Profiler *prof, MemHealth *health)
{
    sim::Simulator simulator("system");
    auto workload = workloads::Registry::instance().create(
        config.workload, config.workloadScale);
    os::System system(simulator, guestSystem(config), *workload);
    core::FuncProfile profile;
    trace::Recorder recorder;
    recorder.addConsumer(&profile);
    simulator.configure(config.run);
    mem::PacketPool::resetHighWater();
    if (prof)
        simulator.attachProfiler(*prof);
    if (with_recorder)
        recorder.activate();

    auto t0 = Clock::now();
    system.run();
    double wall = since(t0);

    recorder.deactivate();
    if (prof)
        prof->disarm();
    if (health)
        health->read(system);
    return wall;
}

// ---------------------------------------------------------------
// Passes.
// ---------------------------------------------------------------

struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    add(const RowOutcome &row)
    {
        ++attempted;
        if (!row.ok()) {
            ++failed;
            std::fprintf(stderr,
                         "row failed: %s (finished %d, checksum %d, "
                         "digest %d)\n",
                         row.label.c_str(), row.finished,
                         row.checksumOk, row.digestOk);
        }
    }
};

/** One untraced pass over every row. */
struct Pass
{
    double wall = 0;      ///< CPU seconds of its rows (Clock)
    double wallClock = 0; ///< the same pass on the wall clock
    std::uint64_t hostInsts = 0;
    std::vector<RowOutcome> rows; ///< profiled rows, then unprofiled
    std::vector<PlainRun> plain;  ///< unprofiled rows
};

Pass
runPass(const Workload &w, const DigestTable *table)
{
    Pass pass;
    auto t_pass = WallClock::now();
    for (const core::RunConfig &cfg : w.profiled) {
        auto t0 = Clock::now();
        core::RunResult r = core::runProfiledSimulation(cfg);
        RowOutcome row = fromRunResult(cfg, r, since(t0));
        if (table)
            checkDigest(row, *table, digestKey(w, row.label));
        pass.rows.push_back(row);
    }
    for (const PlainRow &spec : w.plain) {
        PlainRun run = runPlainRow(spec, nullptr, false);
        if (table)
            checkDigest(run.row, *table, digestKey(w, spec.label));
        pass.rows.push_back(run.row);
        pass.plain.push_back(std::move(run));
    }
    for (const RowOutcome &row : pass.rows) {
        pass.wall += row.wall;
        pass.hostInsts += row.hostInsts;
    }
    pass.wallClock = wallSince(t_pass);
    return pass;
}

/**
 * The identity legs of the unprofiled rows, untimed: each row once
 * with its commit hooks armed. Checked against the table when given.
 */
std::vector<PlainRun>
runIdentityLegs(const Workload &w, const DigestTable *table)
{
    std::vector<PlainRun> legs;
    for (const PlainRow &spec : w.plain) {
        PlainRun run = runPlainRow(spec, nullptr, true);
        run.row.label = identityLabel(spec);
        run.row.digest = run.identityDigest;
        if (table)
            checkDigest(run.row, *table, digestKey(w, run.row.label));
        legs.push_back(std::move(run));
    }
    return legs;
}

/** The CPUs this process may run on. */
std::vector<int>
allowedCpus()
{
    std::vector<int> cpus;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
    }
    return cpus;
}

/**
 * Pin the process to @p cpu. On a shared host a CPU whose sibling
 * hyper-thread is busy runs the program up to 1.4x slower than its
 * neighbours, for seconds to minutes, and an unpinned single thread
 * stays on one CPU about that long. Pass i therefore runs on the
 * i-th allowed CPU in turn, so the per-row mean is taken over
 * every CPU and not only the one the run started on.
 */
void
pinTo(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    if (sched_setaffinity(0, sizeof set, &set) != 0)
        std::perror("perfbench_harness: sched_setaffinity");
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Mean of @p v without its lowest and its highest tenth. */
double
trimmedMean(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t cut = v.size() / 10;
    double sum = 0;
    for (std::size_t i = cut; i < v.size() - cut; ++i)
        sum += v[i];
    return sum / (double)(v.size() - 2 * cut);
}

/**
 * Guest kilo-instructions per host CPU second of a pass whose every
 * row takes its trimmed mean time over the run (every pass of a run
 * has the same configs and program seed). On a shared host the pass
 * times fall in two groups, the slower one up to 1.8x the faster,
 * mixed in a share that changes from run to run.
 * A median jumps between the groups as that share crosses one half
 * and a minimum depends on how many passes fit in the run; the mean
 * moves only in proportion to the share. Trimming a tenth at each
 * end drops the odd outlier, such as a first pass paying first-use
 * costs.
 */
double
rowMeanKips(const std::vector<Pass> &passes)
{
    double insts = 0, seconds = 0;
    for (std::size_t i = 0; i < passes.front().rows.size(); ++i) {
        std::vector<double> times;
        for (const Pass &p : passes)
            times.push_back(p.rows[i].wall);
        insts += (double)passes.front().rows[i].guestInsts;
        seconds += trimmedMean(times);
    }
    return insts / seconds / 1e3;
}

/** Per-layer figures of one traced pass, by metric name. */
using LayerSample = std::map<std::string, double>;

/** Guest-side legs are short; keep the fastest of a few. */
constexpr int guestLegReps = 3;

LayerSample
runTracedPass(const Workload &w, const Pass &reference,
              const std::vector<PlainRun> &identity)
{
    LayerSample s;
    for (const char *name :
         {"host.busy_s", "host.ops", "host.batches", "host.l1_misses",
          "host.llc_misses", "host.mispredicts", "trace.synth.busy_s",
          "trace.scopes", "trace.data_refs", "trace.recorder.busy_s",
          "guest.busy_s", "sim.events", "sim.loop_s", "cpu.busy_s",
          "mem.busy_s", "mem.pool_high_water", "mem.snoop_avg_probe",
          "mem.mshr_avg_probe", "core.layout_build_s",
          "core.hostcore_build_s", "core.report_s"})
        s[name] = 0;
    double traced_wall = 0;
    MemHealth total;
    auto addHealth = [&](const MemHealth &h) {
        total.poolHighWater = std::max(total.poolHighWater,
                                       h.poolHighWater);
        total.snoopProbes += h.snoopProbes;
        total.snoopSteps += h.snoopSteps;
        total.mshrProbes += h.mshrProbes;
        total.mshrSteps += h.mshrSteps;
    };
    auto addEvents = [&](const EventSplit &e) {
        s["sim.events"] += (double)e.events;
        s["sim.loop_s"] += e.loop;
        s["cpu.busy_s"] += e.cpu;
        s["mem.busy_s"] += e.mem;
    };

    for (std::size_t i = 0; i < w.profiled.size(); ++i) {
        const core::RunConfig &cfg = w.profiled[i];
        TracedRow t = runTracedRow(cfg);
        if (t.digest != reference.rows[i].digest ||
            t.hostOps != reference.rows[i].hostInsts) {
            std::fprintf(stderr,
                         "identity check failed: traced pipeline "
                         "differs from runProfiledSimulation on %s\n",
                         reference.rows[i].label.c_str());
            std::exit(3);
        }
        double guest = 1e30, recorded = 1e30;
        for (int rep = 0; rep < guestLegReps; ++rep) {
            guest = std::min(guest,
                             runGuestLeg(cfg, false, nullptr, nullptr));
            recorded = std::min(
                recorded, runGuestLeg(cfg, true, nullptr, nullptr));
        }
        sim::Profiler prof(tracingProfiler());
        MemHealth health;
        runGuestLeg(cfg, false, &prof, &health);
        addEvents(splitEvents(prof));
        addHealth(health);

        traced_wall += t.wall;
        s["host.busy_s"] += t.hostBusy;
        s["host.ops"] += (double)t.hostOps;
        s["host.batches"] += (double)t.batches;
        s["host.l1_misses"] += (double)(t.counters.icacheMisses +
                                        t.counters.dcacheMisses);
        s["host.llc_misses"] += (double)t.counters.llcMisses;
        s["host.mispredicts"] += (double)t.counters.mispredicts;
        s["trace.scopes"] += (double)t.scopes;
        s["trace.data_refs"] += (double)t.dataRefs;
        s["trace.synth.busy_s"] += t.runWall - t.hostBusy - recorded;
        s["trace.recorder.busy_s"] += recorded - guest;
        s["guest.busy_s"] += guest;
        s["core.layout_build_s"] += t.layoutBuild;
        s["core.hostcore_build_s"] += t.hostcoreBuild;
        s["core.report_s"] += t.report;
    }
    for (std::size_t i = 0; i < w.plain.size(); ++i) {
        sim::Profiler prof(tracingProfiler());
        PlainRun run = runPlainRow(w.plain[i], &prof, false);
        const PlainRun &ref = reference.plain[i];
        if (run.row.digest != ref.row.digest) {
            std::fprintf(stderr,
                         "identity check failed: profiled leg of %s "
                         "differs from the plain run\n",
                         w.plain[i].label.c_str());
            std::exit(3);
        }
        traced_wall += run.row.wall;
        s["trace.scopes"] += (double)identity[i].probe.scopes;
        s["guest.busy_s"] += ref.runWall;
        addEvents(run.events);
        addHealth(run.health);
    }

    double ops = s["host.ops"];
    s["host.ns_per_op"] = ops > 0 ? s["host.busy_s"] * 1e9 / ops : 0;
    s["trace.synth.ns_per_scope"] =
        s["trace.scopes"] > 0
            ? s["trace.synth.busy_s"] * 1e9 / s["trace.scopes"]
            : 0;
    s["mem.pool_high_water"] = (double)total.poolHighWater;
    s["mem.snoop_avg_probe"] =
        total.snoopProbes ? 1.0 + (double)total.snoopSteps /
                                      (double)total.snoopProbes
                          : 0;
    s["mem.mshr_avg_probe"] =
        total.mshrProbes ? 1.0 + (double)total.mshrSteps /
                                     (double)total.mshrProbes
                         : 0;
    s["core.ns_per_host_op"] =
        ops > 0 ? reference.wall * 1e9 / ops : 0;
    s["trace_overhead"] = traced_wall / reference.wall;
    return s;
}

// ---------------------------------------------------------------
// Output.
// ---------------------------------------------------------------

/** A JSON string literal (names and labels hold no control chars). */
std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    out += '"';
    return out;
}

/** Units of the per-layer metrics, by name suffix. */
std::string
layerUnit(const std::string &name)
{
    auto ends = [&](const char *suffix) {
        std::size_t n = std::strlen(suffix);
        return name.size() >= n &&
               name.compare(name.size() - n, n, suffix) == 0;
    };
    if (ends("_s"))
        return "s";
    if (ends("ns_per_op") || ends("ns_per_scope") ||
        ends("ns_per_host_op"))
        return "ns";
    if (ends("avg_probe"))
        return "probes";
    if (name == "trace_overhead")
        return "ratio";
    return "count";
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printReport(const Workload &w, std::uint64_t seed,
            const std::vector<Pass> &passes,
            const std::vector<PlainRun> &identity,
            const std::vector<int> &cpus, double seconds_measured)
{
    std::ostringstream os;
    os.precision(17);
    os << "{\"report\": {\"workload\": " << jsonString(w.name)
       << ", \"seed\": " << seed << ", \"passes\": " << passes.size()
       << ", \"seconds_measured\": " << seconds_measured;
    // Unprofiled rows take no seed.
    os << ", \"program_seed\": "
       << (w.profiled.empty() ? 0 : 1 + w.seedIndex);
    BypassProbe probe;
    for (const PlainRun &leg : identity) {
        probe.commits += leg.probe.commits;
        probe.tracedCommits += leg.probe.tracedCommits;
        probe.scopes += leg.probe.scopes;
    }
    os << ", \"bypass_probe\": {\"commits\": " << probe.commits
       << ", \"traced_commits\": " << probe.tracedCommits
       << ", \"scopes\": " << probe.scopes << "}";
    os << ", \"pass_cpus\": [";
    for (std::size_t i = 0; i < cpus.size(); ++i)
        os << (i ? ", " : "") << cpus[i];
    os << "], \"pass_host_insts\": [";
    for (std::size_t i = 0; i < passes.size(); ++i)
        os << (i ? ", " : "") << passes[i].hostInsts;
    os << "], \"pass_cpu_s\": [";
    for (std::size_t i = 0; i < passes.size(); ++i)
        os << (i ? ", " : "") << passes[i].wall;
    os << "], \"pass_wall_s\": [";
    for (std::size_t i = 0; i < passes.size(); ++i)
        os << (i ? ", " : "") << passes[i].wallClock;
    os << "], \"build\": {\"compiler\": " << jsonString(PB_COMPILER)
       << ", \"build_type\": " << jsonString(PB_BUILD_TYPE)
       << ", \"cxx_flags\": " << jsonString(PB_CXX_FLAGS)
       << ", \"compile_options\": " << jsonString(PB_COMPILE_OPTIONS)
       << ", \"hot_layout\": " << jsonString(PB_HOT_LAYOUT)
       << ", \"pgo\": " << jsonString(PB_PGO) << "}, \"rows\": [";
    const Pass &last = passes.back();
    for (std::size_t i = 0; i < last.rows.size(); ++i) {
        const RowOutcome &r = last.rows[i];
        char digest[32];
        std::snprintf(digest, sizeof digest, "%016llx",
                      (unsigned long long)r.digest);
        os << (i ? ", " : "") << "{\"row\": " << jsonString(r.label)
           << ", \"guest_insts\": " << r.guestInsts
           << ", \"host_insts\": " << r.hostInsts
           << ", \"cpu_s\": " << r.wall << ", \"digest\": \"" << digest
           << "\"}";
    }
    os << "]}}";
    std::printf("%s\n", os.str().c_str());
}

void
printResult(const Tally &tally, const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << tally.attempted
       << ", \"failed\": " << tally.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        os << (i ? ", " : "") << jsonString(metrics[i].name)
           << ": {\"value\": " << metrics[i].value
           << ", \"unit\": " << jsonString(metrics[i].unit) << "}";
    os << "}}";
    std::printf("%s\n", os.str().c_str());
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return (double)ru.ru_maxrss / 1024.0; // ru_maxrss is in KiB
}

// ---------------------------------------------------------------
// main
// ---------------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    int trace = 0;
    bool setupOnly = false;
    bool emitDigests = false;
    std::string digests;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(k + " needs a value");
            return argv[++i];
        };
        if (k == "--workload") {
            a.workload = value();
        } else if (k == "--seed") {
            std::string v = value();
            if (v.empty() || v.find_first_not_of("0123456789") !=
                                 std::string::npos)
                throw std::invalid_argument("--seed must be a "
                                            "non-negative integer");
            a.seed = std::stoull(v);
            have_seed = true;
        } else if (k == "--seconds") {
            a.seconds = std::stod(value());
        } else if (k == "--trace") {
            a.trace = std::stoi(value());
        } else if (k == "--digests") {
            a.digests = value();
        } else if (k == "--setup-only") {
            a.setupOnly = true;
        } else if (k == "--emit-digests") {
            a.emitDigests = true;
        } else {
            throw std::invalid_argument("unknown argument " + k);
        }
    }
    if (a.workload.empty() || !have_seed)
        throw std::invalid_argument("--workload and --seed are required");
    if (a.trace != 0 && a.trace != 1)
        throw std::invalid_argument("--trace must be 0 or 1");
    if (!(a.seconds > 0) || !std::isfinite(a.seconds))
        throw std::invalid_argument("--seconds must be positive and finite");
    if (a.digests.empty() && !a.emitDigests)
        throw std::invalid_argument("--digests is required");
    return a;
}

int
run(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    Workload w = makeWorkload(args.workload, args.seed);

    if (args.setupOnly) {
        // CPU time the process has used since it was forked: exec,
        // loading, static initialisation and the workload's configs.
        timespec ts{};
        clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
        std::printf("ready %lld\n",
                    (long long)ts.tv_sec * 1000000000LL + ts.tv_nsec);
        return 0;
    }

    if (args.emitDigests) {
        std::vector<RowOutcome> rows = runPass(w, nullptr).rows;
        for (const PlainRun &leg : runIdentityLegs(w, nullptr))
            rows.push_back(leg.row);
        for (const RowOutcome &r : rows) {
            if (!r.finished || !r.checksumOk)
                throw std::runtime_error("row " + r.label +
                                         " did not verify");
            std::printf("%s %016llx\n", digestKey(w, r.label).c_str(),
                        (unsigned long long)r.digest);
        }
        return 0;
    }

    DigestTable table = loadDigests(args.digests);
    Tally tally;
    // Untimed, before the passes: the traced passes read the probe.
    std::vector<PlainRun> identity = runIdentityLegs(w, &table);
    for (const PlainRun &leg : identity)
        tally.add(leg.row);

    // Every pass is timed; the first one also pays the process's
    // first-use costs, which the trimmed per-row mean discounts.
    std::vector<Pass> passes;
    std::vector<LayerSample> layers;
    std::vector<int> cpus = allowedCpus();
    auto t0 = WallClock::now();
    constexpr std::size_t minPasses = 3;
    while (passes.size() < minPasses || wallSince(t0) < args.seconds) {
        if (!cpus.empty())
            pinTo(cpus[passes.size() % cpus.size()]);
        Pass pass = runPass(w, &table);
        for (const RowOutcome &r : pass.rows)
            tally.add(r);
        if (args.trace)
            layers.push_back(runTracedPass(w, pass, identity));
        passes.push_back(std::move(pass));
        if (args.trace && wallSince(t0) >= args.seconds)
            break;
    }
    double measured = wallSince(t0);

    std::vector<Metric> metrics;
    if (args.trace) {
        for (const auto &kv : layers.front()) {
            std::vector<double> v;
            for (const LayerSample &s : layers)
                v.push_back(s.at(kv.first));
            metrics.push_back({kv.first, median(v), layerUnit(kv.first)});
        }
    } else {
        metrics.push_back({"guest_kips", rowMeanKips(passes), "kinst/s"});
        metrics.push_back({"peak_rss_mb", peakRssMb(), "MB"});
    }
    printReport(w, args.seed, passes, identity, cpus, measured);
    printResult(tally, metrics);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
        return 2;
    }
}
