/**
 * @file
 * Table 2 reproduction: per-tier latency and bandwidth measured with
 * the Intel MLC-style microbench against the simulated machine.
 *
 * Paper values (DRAM + Optane testbed):
 *   fast memory: 92 ns, 81 GB/s
 *   slow memory: 323 ns, 26 GB/s
 */
#include <iostream>

#include "bench_common.hpp"
#include "memsim/mlc.hpp"

int
main(int argc, char** argv)
{
    using namespace artmem;
    using namespace artmem::bench;
    const auto opt = BenchOptions::parse(argc, argv, 200000);

    std::cout << "Table 2: hardware overview of the simulated system\n"
              << "(paper: fast 92 ns / 81 GB/s, slow 323 ns / 26 GB/s)\n\n";

    // The per-tier probes are not RunResults, so this harness uses the
    // runner's generic map(): one MLC probe per tier, its own machine.
    const memsim::Tier tiers[] = {memsim::Tier::kFast, memsim::Tier::kSlow};
    auto runner = make_runner(opt);
    const auto probes = runner.map<memsim::MlcResult>(
        std::size(tiers), [&](std::size_t idx) {
            memsim::MachineConfig config;
            config.address_space = 256ull << 20;
            config.tiers[0].capacity = 128ull << 20;
            config.tiers[1].capacity = 512ull << 20;
            memsim::TieredMachine machine(config);
            return memsim::measure_tier(machine, tiers[idx], opt.accesses,
                                        8ull << 30);
        });

    Table table({"Memory Tier", "Latency (ns)", "Bandwidth (GB/s)"});
    for (std::size_t i = 0; i < std::size(tiers); ++i) {
        table.row()
            .cell(std::string(tiers[i] == memsim::Tier::kFast
                                  ? "Fast Memory"
                                  : "Slow Memory"))
            .cell(probes[i].latency_ns, 1)
            .cell(probes[i].bandwidth_gbps, 1);
    }
    emit(table, opt);
    return finish_stdout();
}
