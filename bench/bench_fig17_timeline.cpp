/**
 * @file
 * Figure 17 reproduction: migration operations and DRAM access ratio
 * over time while running the mixed SSSP+XSBench workload — ArtMem vs
 * TPP. Paper shape: ArtMem performs exploratory migrations early and
 * then stabilizes (Q-table picks action 0 once the ratio is high);
 * TPP reaches a good ratio early but keeps migrating (~17.5x more than
 * ArtMem) and fails to respond when the ratio later drops.
 */
#include "bench_common.hpp"
#include "tenancy/tenant_set.hpp"
#include "workloads/factory.hpp"

int
main(int argc, char** argv)
{
    using namespace artmem;
    using namespace artmem::bench;
    const auto opt = BenchOptions::parse(argc, argv, 6000000);

    constexpr Bytes kPage = 2ull << 20;
    constexpr Bytes kFast = 32ull << 30;

    sweep::SweepSpec sweepspec;
    for (const std::string system : {"artmem", "tpp"}) {
        sweepspec.add_run([system, &opt] {
            std::vector<std::unique_ptr<workloads::AccessGenerator>> children;
            children.push_back(workloads::make_workload(
                "sssp", kPage, opt.accesses / 2, opt.seed));
            children.push_back(workloads::make_workload(
                "xsbench", kPage, opt.accesses / 2, opt.seed + 1));
            tenancy::TenantSet gen(std::move(children), {1, 1}, kPage, 256,
                                   0);
            auto mc = sim::make_machine_config(gen.footprint(), kFast, kPage);
            memsim::TieredMachine machine(mc);
            auto policy = sim::make_policy(system, opt.seed);
            sim::EngineConfig engine;
            engine.record_timeline = true;
            return sim::run_simulation(gen, *policy, machine, engine);
        });
    }
    const auto runs = make_runner(opt).run(sweepspec);

    std::cout << "Figure 17: migrations and DRAM access ratio over time "
                 "(mixed SSSP+XSBench, 32 GiB DRAM)\naccesses="
              << opt.accesses << " seed=" << opt.seed << "\n\n";

    const auto& artmem = runs[0];
    const auto& tpp = runs[1];

    Table table({"t (ms)", "artmem migrations", "artmem ratio",
                 "tpp migrations", "tpp ratio"});
    const std::size_t rows =
        std::min(artmem.timeline.size(), tpp.timeline.size());
    for (std::size_t i = 0; i < rows; i += 4) {
        const auto& a = artmem.timeline[i];
        const auto& b = tpp.timeline[i];
        table.row()
            .cell(static_cast<double>(a.end_time) * 1e-6, 0)
            .cell(a.promoted + a.demoted + 2 * a.exchanges)
            .cell(a.fast_ratio, 3)
            .cell(b.promoted + b.demoted + 2 * b.exchanges)
            .cell(b.fast_ratio, 3);
    }
    emit(table, opt);

    std::cout << "\ntotals: artmem migrated "
              << artmem.totals.migrated_pages() << " pages, tpp migrated "
              << tpp.totals.migrated_pages() << " pages ("
              << format_fixed(
                     static_cast<double>(tpp.totals.migrated_pages()) /
                         static_cast<double>(std::max<std::uint64_t>(
                             1, artmem.totals.migrated_pages())),
                     1)
              << "x; paper: 17.5x)\n";
    return finish_stdout();
}
