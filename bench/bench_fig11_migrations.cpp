/**
 * @file
 * Figure 11 reproduction: page migration volume of every system on CC
 * and DLRM (1:1 ratio). Paper shape: MEMTIS migrates far more than
 * everyone else (its capacity-derived threshold fluctuates, ~10x CPU
 * overhead); ArtMem and AutoNUMA stay low; ArtMem migrates orders of
 * magnitude less on DLRM (largely unskewed) than on CC.
 */
#include "bench_common.hpp"

int
main(int argc, char** argv)
{
    using namespace artmem;
    using namespace artmem::bench;
    const auto opt = BenchOptions::parse(argc, argv, 6000000);

    const std::vector<std::string> systems = {
        "memtis",     "autotiering", "tpp",      "autonuma",
        "multiclock", "nimble",      "tiering08", "artmem"};
    const std::vector<std::string> apps = {"cc", "dlrm"};

    sweep::SweepSpec sweepspec;
    for (const auto& system : systems)
        for (const auto& workload : apps)
            sweepspec.add(make_spec(opt, workload, system, {1, 1}));
    const auto runs = make_runner(opt).run(sweepspec);

    std::cout << "Figure 11: page migration volume (1:1 ratio)\n"
              << "accesses=" << opt.accesses << " seed=" << opt.seed
              << "\n\n";

    Table table({"system", "cc pages", "cc GiB", "cc cpu%",
                 "dlrm pages", "dlrm GiB", "dlrm cpu%"});
    std::size_t job = 0;
    for (const auto& system : systems) {
        auto& row = table.row().cell(system);
        for (std::size_t w = 0; w < apps.size(); ++w) {
            const auto& r = runs[job++];
            row.cell(r.totals.migrated_pages())
                .cell(r.migrated_gib(2ull << 20), 2)
                .cell(100.0 * static_cast<double>(r.totals.overhead_ns) /
                          static_cast<double>(r.runtime_ns),
                      2);
        }
    }
    emit(table, opt);
    std::cout << "\nExpected shape: MEMTIS highest volume and ~10x "
                 "ArtMem's migration-thread CPU overhead; ArtMem and "
                 "AutoNUMA low; ArtMem's DLRM volume far below its CC "
                 "volume.\n";
    return finish_stdout();
}
