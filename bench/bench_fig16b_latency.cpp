/**
 * @file
 * Figure 16b reproduction: sensitivity to the relative latency of the
 * slow tier. The capacity tier is configured as remote-socket DRAM
 * (152 ns), local PM (323 ns) and remote PM (410 ns); SSSP with 32 GiB
 * of local DRAM; all systems normalized to AutoNUMA at 152 ns. Paper:
 * the gap between systems widens with the latency gap, and ArtMem
 * stays best across all three.
 */
#include "bench_common.hpp"
#include "workloads/factory.hpp"

int
main(int argc, char** argv)
{
    using namespace artmem;
    using namespace artmem::bench;
    const auto opt = BenchOptions::parse(argc, argv, 6000000);

    constexpr Bytes kPage = 2ull << 20;
    constexpr Bytes kFast = 32ull << 30;

    struct SlowTier {
        const char* label;
        SimTimeNs latency_ns;
        double bandwidth_gbps;
    };
    const SlowTier tiers[] = {
        {"remote DRAM (152ns)", 152, 40.0},
        {"local PM (323ns)", 323, 26.0},
        {"remote PM (410ns)", 410, 18.0},
    };
    const std::vector<std::string> systems = {
        "memtis", "autotiering", "tpp",      "autonuma",
        "nimble", "tiering08",   "artmem"};

    std::cout << "Figure 16b: sensitivity to slow-tier latency (SSSP, "
                 "32 GiB local DRAM; normalized to AutoNUMA at 152ns; "
                 "Multi-clock omitted as in the paper)\n"
              << "accesses=" << opt.accesses << " seed=" << opt.seed
              << "\n\n";

    auto add_job = [&](sweep::SweepSpec& spec, const std::string& system,
                       const SlowTier& slow) {
        return spec.add_run([system, slow, &opt] {
            auto gen = workloads::make_workload("sssp", kPage, opt.accesses,
                                                opt.seed);
            auto mc =
                sim::make_machine_config(gen->footprint(), kFast, kPage);
            mc.tiers[1].load_latency_ns = slow.latency_ns;
            mc.tiers[1].bandwidth_gbps = slow.bandwidth_gbps;
            memsim::TieredMachine machine(mc);
            auto policy = sim::make_policy(system, opt.seed);
            sim::EngineConfig engine;
            return sim::run_simulation(*gen, *policy, machine, engine);
        });
    };

    sweep::SweepSpec sweepspec;
    const std::size_t base_job = add_job(sweepspec, "autonuma", tiers[0]);
    for (const auto& system : systems)
        for (const auto& tier : tiers)
            add_job(sweepspec, system, tier);
    const auto runs = make_runner(opt).run(sweepspec);
    const auto& base = runs[base_job];

    std::vector<std::string> headers = {"system"};
    for (const auto& t : tiers)
        headers.push_back(t.label);
    Table table(std::move(headers));
    std::size_t job = base_job + 1;
    for (const auto& system : systems) {
        auto& row = table.row().cell(system);
        for (std::size_t t = 0; t < std::size(tiers); ++t)
            row.cell(normalized_runtime(runs[job++], base), 3);
    }
    emit(table, opt);
    return finish_stdout();
}
