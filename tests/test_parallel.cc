/**
 * @file
 * Parallel experiment harness: pooled sweeps must be byte-identical
 * to serial execution. The gate test (ParallelDeterminismGate) is the
 * acceptance check for the whole isolation refactor — every RunResult
 * field, doubles compared bit-for-bit, across all four CPU models.
 *
 * Beyond the executor itself, the machine-level tests run whole
 * simulators on raw threads (stats text + memory digest comparison,
 * checkpoint/restore mid-job) to prove the retired process-globals —
 * recorder, DataSpace, event pool, checkpoint I/O hook — really are
 * per-thread now.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "base/sim_error.hh"
#include "core/parallel.hh"
#include "host/host_core.hh"
#include "isa/decoder.hh"
#include "os/system.hh"
#include "trace/code_layout.hh"
#include "trace/recorder.hh"
#include "trace/synthesizer.hh"
#include "workloads/workload.hh"

using namespace g5p;
using namespace g5p::core;

namespace
{

// ---------------------------------------------------------------
// Bitwise result signatures
// ---------------------------------------------------------------

void
putBits(std::ostringstream &os, double v)
{
    os << std::bit_cast<std::uint64_t>(v) << ',';
}

/**
 * Serialize every RunResult field, doubles as raw bit patterns, so
 * two results compare equal only if they are byte-identical. EXPECT
 * on the strings gives a readable first-divergence diff.
 */
std::string
resultSignature(const RunResult &r)
{
    std::ostringstream os;
    os << r.workload << '|' << r.platform << '|'
       << os::cpuModelName(r.cpuModel) << '|' << (int)r.mode << '|';

    const host::HostCounters &c = r.counters;
    os << c.insts << ',' << c.uops << ',' << c.loads << ','
       << c.stores << ',' << c.branches << ',';
    putBits(os, c.baseCycles);
    putBits(os, c.feLatIcacheCycles);
    putBits(os, c.feLatItlbCycles);
    putBits(os, c.feLatMispredictCycles);
    putBits(os, c.feLatUnknownCycles);
    putBits(os, c.feLatClearCycles);
    putBits(os, c.feBwMiteCycles);
    putBits(os, c.feBwDsbCycles);
    putBits(os, c.badSpecCycles);
    putBits(os, c.beMemCycles);
    putBits(os, c.beCoreCycles);
    os << c.icacheAccesses << ',' << c.icacheMisses << ','
       << c.dcacheAccesses << ',' << c.dcacheMisses << ','
       << c.itlbAccesses << ',' << c.itlbMisses << ','
       << c.dtlbAccesses << ',' << c.dtlbMisses << ','
       << c.l2Misses << ',' << c.llcMisses << ','
       << c.mispredicts << ',' << c.unknownBranches << ','
       << c.uopsFromDsb << ',' << c.uopsFromMite << ','
       << c.dramBytes << ',' << c.llcOccupancyBytes << '|';

    const host::TopdownBreakdown &t = r.topdown;
    putBits(os, t.retiring);
    putBits(os, t.badSpeculation);
    putBits(os, t.frontendLatency);
    putBits(os, t.frontendBandwidth);
    putBits(os, t.backendBound);
    putBits(os, t.feIcache);
    putBits(os, t.feItlb);
    putBits(os, t.feMispredictResteers);
    putBits(os, t.feUnknownBranches);
    putBits(os, t.feClearResteers);
    putBits(os, t.feMite);
    putBits(os, t.feDsb);
    putBits(os, t.beMemory);
    putBits(os, t.beCore);
    os << '|';

    putBits(os, r.hostSeconds);
    putBits(os, r.ipc);
    os << r.hostInsts << ',' << r.codeBytes << ',' << r.guestInsts
       << ',' << r.simTicks << ',' << r.guestResult << ','
       << r.resultChecked << ',' << r.resultOk << ','
       << r.distinctFunctions << '|';

    for (const HotFunction &f : r.functionCdf.ranked()) {
        os << f.name << ':' << f.selfOps << ':';
        putBits(os, f.share);
    }
    return os.str();
}

std::vector<std::string>
signatures(const std::vector<RunResult> &results)
{
    std::vector<std::string> sigs;
    sigs.reserve(results.size());
    for (const RunResult &r : results)
        sigs.push_back(resultSignature(r));
    return sigs;
}

// ---------------------------------------------------------------
// The reference sweep: every CPU model on two platforms
// ---------------------------------------------------------------

std::vector<RunConfig>
sweepConfigs()
{
    std::vector<RunConfig> configs;
    for (os::CpuModel model : os::allCpuModels) {
        for (int p = 0; p < 2; ++p) {
            RunConfig cfg;
            cfg.workload = "water_nsquared";
            cfg.workloadScale = 0.25;
            cfg.cpuModel = model;
            cfg.platform =
                p ? host::m1ProConfig() : host::xeonConfig();
            cfg.seed = 7 + (std::uint64_t)p;
            configs.push_back(cfg);
        }
    }
    return configs;
}

/** Serial reference, computed once and shared by every test here. */
const std::vector<std::string> &
serialSweepSignatures()
{
    static const std::vector<std::string> sigs =
        signatures(runExperiments(sweepConfigs(), 1));
    return sigs;
}

} // namespace

// ---------------------------------------------------------------
// The acceptance gate: serial == 4-thread, bit for bit
// ---------------------------------------------------------------

TEST(ParallelDeterminismGate, SerialEqualsFourThreads)
{
    std::vector<RunConfig> configs = sweepConfigs();
    const std::vector<std::string> &serial = serialSweepSignatures();

    ParallelExecutor pool(4);
    EXPECT_EQ(pool.jobs(), 4u);
    std::vector<std::string> pooled = signatures(pool.run(configs));

    ASSERT_EQ(serial.size(), pooled.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], pooled[i])
            << "config " << i << " ("
            << os::cpuModelName(configs[i].cpuModel) << ")";
}

TEST(Parallel, DeterministicUnderShuffledSubmission)
{
    const std::vector<RunConfig> configs = sweepConfigs();
    const std::vector<std::string> &serial = serialSweepSignatures();

    // Whatever order jobs are submitted (and therefore stolen) in,
    // each config's result must equal its serial reference.
    std::mt19937 rng(1234);
    for (int round = 0; round < 2; ++round) {
        std::vector<std::size_t> perm(configs.size());
        std::iota(perm.begin(), perm.end(), 0u);
        std::shuffle(perm.begin(), perm.end(), rng);

        std::vector<RunConfig> shuffled;
        for (std::size_t idx : perm)
            shuffled.push_back(configs[idx]);

        std::vector<std::string> pooled =
            signatures(ParallelExecutor(4).run(shuffled));
        ASSERT_EQ(pooled.size(), perm.size());
        for (std::size_t i = 0; i < perm.size(); ++i)
            EXPECT_EQ(serial[perm[i]], pooled[i])
                << "round " << round << " slot " << i;
    }
}

namespace
{

/** Captures a profiled run's synthesized host-op stream. */
struct RecordingSink : trace::HostInstSink
{
    void op(const trace::HostOp &op) override { stream.push_back(op); }

    std::vector<trace::HostOp> stream;
};

/** The host-op stream of @p config's guest run, as the profiled
 *  pipeline synthesizes it for the Xeon host model. */
std::vector<trace::HostOp>
recordStream(const RunConfig &config)
{
    sim::Simulator simulator("system");
    auto workload = workloads::Registry::instance().create(
        config.workload, config.workloadScale);
    os::SystemConfig sys_cfg;
    sys_cfg.cpuModel = config.cpuModel;
    sys_cfg.maxInstsPerCpu = config.maxGuestInsts;
    os::System system(simulator, sys_cfg, *workload);

    trace::LayoutOptions layout_opts;
    layout_opts.seed ^= config.seed * 0x9e3779b97f4a7c15ULL;
    trace::CodeLayout layout(trace::FuncRegistry::instance(),
                             layout_opts);
    RecordingSink sink;
    {
        trace::Synthesizer synth(layout, sink, config.seed);
        trace::Recorder recorder;
        recorder.addConsumer(&synth);
        recorder.activate();
        system.run();
        recorder.deactivate();
    }
    return std::move(sink.stream);
}

/**
 * Counters and Top-Down of a fresh HostCore fed @p stream in ops()
 * spans of @p span (0 = one op() call per instruction), as raw
 * 64-bit words: every field of both structs is 8 bytes wide, so
 * doubles compare as bit patterns and no padding is read.
 */
std::vector<std::uint64_t>
replay(const std::vector<trace::HostOp> &stream, std::size_t span)
{
    host::HostPlatformConfig platform = host::xeonConfig();
    host::PageSizePolicy policy(platform.pageBits);
    host::HostCore core(platform, policy);
    trace::HostInstSink &sink = core;
    if (span == 0) {
        for (const trace::HostOp &op : stream)
            sink.op(op);
    } else {
        for (std::size_t i = 0; i < stream.size(); i += span)
            sink.ops(stream.data() + i,
                     std::min(span, stream.size() - i));
    }

    host::HostCounters c = core.counters();
    host::TopdownBreakdown td = core.topdown();
    static_assert(sizeof c % 8 == 0 && sizeof td % 8 == 0);
    std::vector<std::uint64_t> words((sizeof c + sizeof td) / 8);
    std::memcpy(words.data(), &c, sizeof c);
    std::memcpy(words.data() + sizeof c / 8, &td, sizeof td);
    return words;
}

} // namespace

TEST(Parallel, HostCoreReplayIdenticalAcrossDeliverySpans)
{
    // Delivery granularity must be invisible to the host model: one
    // profiled run's op stream, replayed per op, in the
    // synthesizer's 4096-op spans and in odd 7-op spans, yields
    // bit-identical counters and Top-Down.
    for (os::CpuModel model :
         {os::CpuModel::Atomic, os::CpuModel::O3}) {
        RunConfig cfg;
        cfg.workload = "water_nsquared";
        cfg.workloadScale = 0.25;
        cfg.maxGuestInsts = 200;
        cfg.cpuModel = model;
        std::vector<trace::HostOp> stream = recordStream(cfg);
        ASSERT_GT(stream.size(), 100000u) << os::cpuModelName(model);

        std::vector<std::uint64_t> per_op = replay(stream, 0);
        EXPECT_EQ(per_op, replay(stream,
                                 trace::Synthesizer::defaultBatchOps))
            << os::cpuModelName(model);
        EXPECT_EQ(per_op, replay(stream, 7)) << os::cpuModelName(model);
    }
}

TEST(Parallel, FirstFailureByIndexAfterDrain)
{
    // One bad job must not stop the others; the first failure in
    // submission order is rethrown once the pool has drained.
    std::vector<RunConfig> configs = sweepConfigs();
    configs.resize(4);
    configs[1].workload = "no_such_workload";
    EXPECT_THROW(ParallelExecutor(4).run(configs), WorkloadError);
}

TEST(Parallel, ExecutorDefaultsAndSerialFallback)
{
    EXPECT_GE(ParallelExecutor::hardwareJobs(), 1u);
    EXPECT_GE(ParallelExecutor().jobs(), 1u);

    // jobs<=1 takes the plain serial path; empty input is a no-op.
    EXPECT_TRUE(runExperiments({}, 4).empty());
    std::vector<RunConfig> one{sweepConfigs()[0]};
    std::vector<std::string> serial =
        signatures(runExperiments(one, 0));
    ASSERT_EQ(serial.size(), 1u);
    EXPECT_EQ(serial[0], serialSweepSignatures()[0]);
}

// ---------------------------------------------------------------
// Machine-level isolation: whole simulators on raw threads
// ---------------------------------------------------------------

namespace
{

using namespace g5p::isa;
using namespace g5p::os;

/** Workload built from a lambda, for ad-hoc guest programs. */
class InlineWorkload : public GuestWorkload
{
  public:
    using EmitFn = std::function<void(Assembler &, unsigned)>;

    InlineWorkload(std::string name, EmitFn emit)
        : name_(std::move(name)), emit_(std::move(emit))
    {}

    std::string name() const override { return name_; }

    void
    emit(Assembler &as, unsigned num_cpus, SimMode mode) const override
    {
        emit_(as, num_cpus);
    }

  private:
    std::string name_;
    EmitFn emit_;
};

/**
 * A store/load/branch loop with enough traffic to exercise caches,
 * TLBs, the decode cache and (on Minor/O3) the branch predictor —
 * the structures whose pooled state used to be process-global.
 */
const InlineWorkload &
poolWorkload()
{
    static InlineWorkload wl("pool-loop", [](Assembler &as, unsigned) {
        as.label("_start");
        as.li(RegS1, 0);
        as.li(RegS0, 0);
        as.li(RegT3, 1200);
        as.li(RegT2, 0x200000);
        as.label("loop");
        as.andi(RegT0, RegS0, 127);
        as.slli(RegT0, RegT0, 3);
        as.add(RegT0, RegT0, RegT2);
        as.sd(RegS0, RegT0, 0);
        as.ld(RegT1, RegT0, 0);
        as.add(RegS1, RegS1, RegT1);
        as.addi(RegS0, RegS0, 1);
        as.blt(RegS0, RegT3, "loop");
        as.li(RegT0, (std::int64_t)GuestWorkload::resultAddr);
        as.sd(RegS1, RegT0, 0);
        as.halt();
    });
    return wl;
}

/** Everything we compare between a serial and a threaded machine. */
struct Artifacts
{
    std::string stats;
    std::uint64_t result = 0;
    std::uint64_t insts = 0;
    std::uint64_t memDigest = 0;
    Tick finalTick = 0;
};

/** One simulator+system pair owned entirely by one thread. */
struct Machine
{
    sim::Simulator sim{"system"};
    System system;

    explicit Machine(CpuModel model)
        : system(sim,
                 [model] {
                     SystemConfig cfg;
                     cfg.cpuModel = model;
                     return cfg;
                 }(),
                 poolWorkload())
    {}

    Artifacts
    finish(Tick tick_limit = maxTick)
    {
        auto res = system.run(tick_limit);
        EXPECT_EQ(res.cause, sim::ExitCause::Finished);
        Artifacts a;
        // Stats first: System::result() reads guest memory through
        // the instrumented path and would bump physmem counters.
        std::ostringstream stats;
        sim.dumpStats(stats);
        a.stats = stats.str();
        a.result = system.result();
        a.insts = system.totalInsts();
        a.memDigest = system.physmem().contentDigest();
        a.finalTick = res.tick;
        return a;
    }
};

void
expectSameArtifacts(const Artifacts &a, const Artifacts &b)
{
    EXPECT_EQ(a.result, b.result);
    EXPECT_EQ(a.insts, b.insts);
    EXPECT_EQ(a.finalTick, b.finalTick);
    EXPECT_EQ(a.memDigest, b.memDigest);
    EXPECT_EQ(a.stats, b.stats);
}

/** Serial reference artifacts, one machine per CPU model. */
std::vector<Artifacts>
serialArtifacts()
{
    std::vector<Artifacts> ref;
    for (CpuModel model : allCpuModels)
        ref.push_back(Machine(model).finish());
    return ref;
}

} // namespace

TEST(Parallel, ConcurrentMachinesMatchSerialStatsAndMemory)
{
    // Reference: each model run serially on the main thread.
    std::vector<Artifacts> ref = serialArtifacts();

    // All four models at once, one whole machine per thread. The
    // stats text and the memory digest — the strictest observables we
    // have — must match the serial run exactly.
    std::vector<Artifacts> out(ref.size());
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < ref.size(); ++i)
        threads.emplace_back([i, &out] {
            out[i] = Machine(allCpuModels[i]).finish();
        });
    for (auto &t : threads)
        t.join();

    for (std::size_t i = 0; i < ref.size(); ++i) {
        SCOPED_TRACE(cpuModelName(allCpuModels[i]));
        expectSameArtifacts(ref[i], out[i]);
    }
}

TEST(Parallel, CheckpointRestoreInsidePooledJob)
{
    // PR-2's bit-identical checkpoint/restore guarantee must survive
    // pooling: four jobs checkpoint and restore concurrently (the
    // checkpoint I/O hook used to be a process-global).
    std::vector<Artifacts> ref = serialArtifacts();

    std::vector<Artifacts> resumed(ref.size());
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < ref.size(); ++i)
        threads.emplace_back([i, &ref, &resumed] {
            CpuModel model = allCpuModels[i];
            std::string path = ::testing::TempDir() +
                               "/g5p_pool_" + cpuModelName(model) +
                               ".ckpt";
            {
                Machine mb(model);
                auto part = mb.system.run(ref[i].finalTick / 2);
                ASSERT_EQ(part.cause, sim::ExitCause::TickLimit);
                mb.sim.checkpoint(path);
            }
            Machine mc(model);
            mc.sim.restore(path);
            resumed[i] = mc.finish();
            std::remove(path.c_str());
        });
    for (auto &t : threads)
        t.join();

    for (std::size_t i = 0; i < ref.size(); ++i) {
        SCOPED_TRACE(cpuModelName(allCpuModels[i]));
        expectSameArtifacts(ref[i], resumed[i]);
    }
}

// ---------------------------------------------------------------
// Per-job wall cap: one hung config cannot stall the sweep
// ---------------------------------------------------------------

namespace
{

/** Register a branch-to-self guest that never halts. */
void
registerHangWorkload()
{
    static bool once = [] {
        workloads::Registry::instance().add(
            "par-hang", [](double) {
                return std::make_unique<InlineWorkload>(
                    "par-hang", [](Assembler &as, unsigned) {
                        as.label("_start");
                        as.label("spin");
                        as.j("spin");
                    });
            });
        return true;
    }();
    (void)once;
}

/** Register a short counting loop that finishes in milliseconds. */
void
registerTinyWorkload()
{
    static bool once = [] {
        workloads::Registry::instance().add(
            "par-tiny", [](double) {
                return std::make_unique<InlineWorkload>(
                    "par-tiny", [](Assembler &as, unsigned) {
                        as.label("_start");
                        as.li(RegS0, 0);
                        as.li(RegT3, 200);
                        as.label("loop");
                        as.addi(RegS0, RegS0, 1);
                        as.blt(RegS0, RegT3, "loop");
                        as.halt();
                    });
            });
        return true;
    }();
    (void)once;
}

} // namespace

TEST(Parallel, WallCapSurfacesWatchdogTimeoutInPooledResults)
{
    registerHangWorkload();
    registerTinyWorkload();

    // A hung config and a healthy one in the same sweep: under a
    // per-job wall cap the hung job comes back as a normal result
    // with exitCause == WatchdogTimeout and the sweep completes.
    RunConfig hung;
    hung.workload = "par-hang";
    hung.platform = host::xeonConfig();

    // The healthy job is a milliseconds-long counting loop, so the
    // cap has orders-of-magnitude headroom even under TSan (where
    // simulation is ~10x slower) and even while the hung job's spin
    // steals wall-clock on a one-core host. The hung job gets cut
    // at the cap regardless of how large it is.
    RunConfig healthy;
    healthy.workload = "par-tiny";
    healthy.platform = host::xeonConfig();

    std::vector<RunResult> results =
        runExperiments({hung, healthy}, 2, 10.0);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].exitCause, sim::ExitCause::WatchdogTimeout);
    EXPECT_FALSE(results[0].exitMessage.empty());
    EXPECT_EQ(results[1].exitCause, sim::ExitCause::Finished);

    // The healthy job's result under the cap is byte-identical to
    // the serial capped reference — the cap changes scheduling
    // safety, never results.
    std::vector<RunResult> serial =
        runExperiments({healthy}, 1, 10.0);
    ASSERT_EQ(serial.size(), 1u);
    EXPECT_EQ(resultSignature(results[1]), resultSignature(serial[0]));

    // A config that already supervises with a tighter budget keeps
    // it: withJobWallCap is the identity there.
    RunConfig tight = hung;
    tight.run.supervise = true;
    tight.run.watchdog.maxWallSeconds = 0.05;
    RunConfig capped = withJobWallCap(tight, 0.2);
    EXPECT_DOUBLE_EQ(capped.run.watchdog.maxWallSeconds, 0.05);

    RunConfig widened = withJobWallCap(RunConfig{}, 0.2);
    EXPECT_TRUE(widened.run.supervise);
    EXPECT_DOUBLE_EQ(widened.run.watchdog.maxWallSeconds, 0.2);
}

// ---------------------------------------------------------------
// Decoder isolation audit
// ---------------------------------------------------------------

TEST(Parallel, DecoderInstancesShareNothing)
{
    // Each run owns its Decoder: caching in one instance must not be
    // visible in another, and the uncached path must mint fresh
    // instructions (no hidden global instance pool).
    std::uint64_t word = encode(Opcode::Add, 1, 2, 3, 0);

    Decoder a;
    Decoder b;
    auto ia = a.decode(word);
    EXPECT_EQ(a.cacheSize(), 1u);
    EXPECT_EQ(b.cacheSize(), 0u);
    EXPECT_EQ(b.numDecodes(), 0u);

    auto ib = b.decode(word);
    EXPECT_NE(ia.get(), ib.get());
    EXPECT_EQ(ia->disassemble(), ib->disassemble());

    EXPECT_NE(Decoder::decodeOne(word).get(),
              Decoder::decodeOne(word).get());
}

TEST(Parallel, ConcurrentDecodersAreIndependent)
{
    std::vector<std::uint64_t> words{
        encode(Opcode::Add, 1, 2, 3, 0),
        encode(Opcode::Addi, 1, 2, 0, -5),
        encode(Opcode::Ld, 1, 2, 0, 16),
        encode(Opcode::Sd, 0, 2, 3, 24),
        encode(Opcode::Beq, 0, 1, 2, 8),
    };

    std::vector<std::size_t> cacheSizes(4);
    std::vector<std::uint64_t> decodes(4);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < 4; ++t)
        threads.emplace_back([t, &words, &cacheSizes, &decodes] {
            Decoder d;
            for (int round = 0; round < 100; ++round)
                for (std::uint64_t w : words)
                    d.decode(w);
            cacheSizes[t] = d.cacheSize();
            decodes[t] = d.numDecodes();
        });
    for (auto &thread : threads)
        thread.join();

    for (std::size_t t = 0; t < 4; ++t) {
        EXPECT_EQ(cacheSizes[t], words.size());
        EXPECT_EQ(decodes[t], 100u * words.size());
    }
}
