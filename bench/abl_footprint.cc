/**
 * @file
 * Ablation: instruction-footprint growth vs front-end pressure.
 * Sweeps the workload input scale and the CPU detail level, showing
 * how the simulator's own code footprint (functions touched, text
 * bytes, LLC occupancy) drives iCache/iTLB misses — the causal chain
 * at the heart of the paper.
 */

#include "bench_common.hh"

using namespace g5p;
using namespace g5p::bench;

int
main(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parse(argc, argv);
    std::ostream &os = std::cout;

    core::printBanner(os,
        "Ablation: footprint vs front-end pressure (Xeon)");

    // --quick drops the largest scale; --jobs runs the points on a
    // pool (results are byte-identical to serial).
    std::vector<double> scales{0.05, 0.15, 0.4};
    if (opts.quick)
        scales.pop_back();
    std::vector<core::RunConfig> configs;
    for (os::CpuModel model :
         {os::CpuModel::Atomic, os::CpuModel::O3}) {
        for (double scale : scales) {
            core::RunConfig cfg;
            cfg.workload = "water_nsquared";
            cfg.workloadScale = scale;
            cfg.cpuModel = model;
            cfg.platform = host::xeonConfig();
            configs.push_back(cfg);
        }
    }
    std::vector<core::RunResult> runs =
        core::runExperiments(configs, opts.jobs);

    core::Table table({"CPU", "scale", "guest insts", "functions",
                       "text", "LLC occ", "ic miss/kI",
                       "itlb miss/kI", "FE bound"});
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const core::RunResult &run = runs[i];
        table.addRow(
            {os::cpuModelName(run.cpuModel),
             fmtDouble(configs[i].workloadScale, 2),
             std::to_string(run.guestInsts),
             std::to_string(run.distinctFunctions),
             fmtBytes(run.codeBytes),
             fmtBytes(run.counters.llcOccupancyBytes),
             fmtDouble(1000.0 * run.counters.icacheMisses /
                           run.counters.insts, 2),
             fmtDouble(1000.0 * run.counters.itlbMisses /
                           run.counters.insts, 2),
             fmtPercent(run.topdown.frontendBound())});
    }
    table.print(os);

    os << "\nLonger runs touch more of the simulator (functions, "
          "text) and the detailed model\ntouches several times "
          "more than Atomic — which is exactly why it is "
          "front-end bound.\n";
    return 0;
}
