/**
 * @file
 * Domain example: graph analytics on tiered memory.
 *
 * Runs the three GAP-style graph workloads (CC, SSSP, PageRank) under
 * ArtMem and a chosen baseline across shrinking DRAM shares, printing
 * runtime and fast-tier access ratio — the scenario from the paper's
 * "Graph" evaluation, where locality-aware promotion gives ArtMem
 * 12%-509% improvements.
 *
 *   ./graph_analytics --baseline=autonuma --accesses=4000000
 */
#include <iostream>

#include "sim/experiment.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int
main(int argc, char** argv)
{
    using namespace artmem;
    const auto args = CliArgs::parse(argc, argv);
    const auto accesses = args.get_uint<std::uint64_t>("accesses", 4000000);
    const std::string baseline = args.get_string("baseline", "autonuma");
    const auto seed = args.get_uint<std::uint64_t>("seed", 42);

    const std::vector<sim::RatioSpec> ratios = {{1, 1}, {1, 4}, {1, 16}};

    std::cout << "Graph analytics on tiered memory: ArtMem vs " << baseline
              << "\n\n";

    for (const std::string workload : {"cc", "sssp", "pr"}) {
        Table table({"ratio", baseline + " ms", "artmem ms", "speedup",
                     baseline + " ratio", "artmem ratio"});
        for (const auto& ratio : ratios) {
            sim::RunSpec spec;
            spec.workload = workload;
            spec.ratio = ratio;
            spec.accesses = accesses;
            spec.seed = seed;

            spec.policy = baseline;
            const auto base = sim::run_experiment(spec);
            spec.policy = "artmem";
            const auto art = sim::run_experiment(spec);

            table.row()
                .cell(ratio.label())
                .cell(base.seconds() * 1e3, 1)
                .cell(art.seconds() * 1e3, 1)
                .cell(static_cast<double>(base.runtime_ns) /
                          static_cast<double>(art.runtime_ns),
                      2)
                .cell(base.fast_ratio, 3)
                .cell(art.fast_ratio, 3);
        }
        std::cout << "Workload: " << workload << "\n";
        table.print(std::cout);
        std::cout << "\n";
    }
    return 0;
}
