/**
 * @file
 * Figure 16a reproduction: memory-size scalability. CC's footprint is
 * grown from 69 GiB to 290 GiB by scaling the input graph while the
 * fast tier stays fixed at 54 GiB; ArtMem vs the strongest baselines.
 * Paper: ArtMem keeps improving (>= 6%) as the footprint grows.
 */
#include "bench_common.hpp"
#include "workloads/graph.hpp"

int
main(int argc, char** argv)
{
    using namespace artmem;
    using namespace artmem::bench;
    const auto opt = BenchOptions::parse(argc, argv, 6000000);

    constexpr Bytes kPage = 2ull << 20;
    constexpr Bytes kFast = 54ull << 30;
    const std::vector<Bytes> footprints = {69ull << 30, 120ull << 30,
                                           200ull << 30, 290ull << 30};
    const std::vector<std::string> systems = {"memtis", "autonuma",
                                              "multiclock", "artmem"};

    std::cout << "Figure 16a: CC memory-size scalability, fast tier "
                 "fixed at 54 GiB (runtime normalized to static)\n"
              << "accesses=" << opt.accesses << " seed=" << opt.seed
              << "\n\n";

    // Custom machines (fixed fast tier, scaled footprint), so each job
    // carries its own run lambda instead of a RunSpec.
    sweep::SweepSpec sweepspec;
    for (const Bytes footprint : footprints) {
        auto params = workloads::GraphWorkload::cc(opt.accesses);
        params.footprint = footprint;
        auto add_job = [&](const std::string& system) {
            sweepspec.add_run([params, footprint, system, &opt] {
                workloads::GraphWorkload gen(params, kPage, opt.seed);
                auto mc = sim::make_machine_config(footprint, kFast, kPage);
                memsim::TieredMachine machine(mc);
                auto policy = sim::make_policy(system, opt.seed);
                sim::EngineConfig engine;
                return sim::run_simulation(gen, *policy, machine, engine);
            });
        };
        add_job("static");
        for (const auto& system : systems)
            add_job(system);
    }
    const auto runs = make_runner(opt).run(sweepspec);

    std::vector<std::string> headers = {"footprint"};
    for (const auto& s : systems)
        headers.push_back(s);
    Table table(std::move(headers));

    std::size_t job = 0;
    for (const Bytes footprint : footprints) {
        const auto& base = runs[job++];
        auto& row = table.row().cell(
            std::to_string(footprint >> 30) + " GiB");
        for (std::size_t s = 0; s < systems.size(); ++s)
            row.cell(normalized_runtime(runs[job++], base), 3);
    }
    emit(table, opt);
    std::cout << "\nExpected: ArtMem stays below 1.0 at every footprint "
                 "(the paper reports >= 6% improvement up to 290 GiB).\n";
    return finish_stdout();
}
