/**
 * @file
 * Quickstart: run one workload under ArtMem and a baseline, print the
 * headline numbers. Start here to see the public API end to end.
 *
 *   ./quickstart --workload=ycsb --baseline=memtis --ratio=1:4
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

    sim::RunSpec spec;
    spec.workload = args.get_string("workload", "ycsb");
    spec.accesses = args.get_uint<std::uint64_t>("accesses", 4000000);
    spec.seed = args.get_uint<std::uint64_t>("seed", 42);

    spec.ratio = sim::parse_ratio_cli(args, {1, 4});

    const std::string baseline = args.get_string("baseline", "memtis");

    std::cout << "workload=" << spec.workload << " ratio="
              << spec.ratio.label() << " accesses=" << spec.accesses
              << " seed=" << spec.seed << "\n\n";

    Table table({"policy", "runtime (ms)", "fast-tier ratio",
                 "migrated pages", "speedup vs static"});

    spec.policy = "static";
    const auto base = sim::run_experiment(spec);

    for (const std::string& policy :
         {std::string("static"), baseline, std::string("artmem")}) {
        spec.policy = policy;
        const auto r = sim::run_experiment(spec);
        table.row()
            .cell(policy)
            .cell(r.seconds() * 1e3, 2)
            .cell(r.fast_ratio, 3)
            .cell(static_cast<std::uint64_t>(r.totals.migrated_pages()))
            .cell(static_cast<double>(base.runtime_ns) /
                      static_cast<double>(r.runtime_ns),
                  2);
    }
    table.print(std::cout);
    std::cout << "\nHigher fast-tier ratio and fewer migrations at the "
                 "same speedup indicate better scope control.\n";
    return 0;
}
