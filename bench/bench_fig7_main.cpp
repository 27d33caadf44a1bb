/**
 * @file
 * Figure 7 + Table 3 reproduction: the main evaluation. Eight
 * memory-intensive workloads x six DRAM:PM ratios x the seven baseline
 * systems plus ArtMem, normalized to AutoNUMA at 1:16 (lower is
 * better), followed by the paper's summary statistics (average ArtMem
 * improvement per ratio; headline 35%-172% / 114% average).
 *
 * All 8 x (1 + 8 x 6) runs execute as one deterministic sweep
 * (--jobs N); output is bit-identical for any worker count.
 */
#include <map>

#include "bench_common.hpp"
#include "util/stats.hpp"

int
main(int argc, char** argv)
{
    using namespace artmem;
    using namespace artmem::bench;
    const auto opt = BenchOptions::parse(argc, argv, 6000000);

    const auto workloads = workloads::app_workload_names();
    const std::vector<std::string> systems = {
        "memtis",     "autotiering", "tpp",      "autonuma",
        "multiclock", "nimble",      "tiering08", "artmem"};
    const auto ratios = sim::paper_ratios();

    // One flat job list: per workload, the AutoNUMA 1:16 baseline
    // followed by the system x ratio grid (the old serial loop order).
    sweep::SweepSpec sweepspec;
    std::vector<std::size_t> base_jobs;
    std::vector<std::vector<std::vector<std::size_t>>> grid_jobs;
    for (const auto workload : workloads) {
        base_jobs.push_back(add_autonuma_baseline_job(
            sweepspec, opt, std::string(workload)));
        auto& by_system = grid_jobs.emplace_back();
        for (const auto& system : systems) {
            auto& by_ratio = by_system.emplace_back();
            for (const auto& ratio : ratios) {
                by_ratio.push_back(sweepspec.add(
                    make_spec(opt, std::string(workload), system, ratio)));
            }
        }
    }
    const auto runs = make_runner(opt).run(sweepspec);

    std::cout << "Table 3 workloads: ";
    for (auto w : workloads)
        std::cout << w << " ";
    std::cout << "\nFigure 7: runtime normalized to AutoNUMA at 1:16 "
                 "(lower is better)\n"
              << "accesses=" << opt.accesses << " seed=" << opt.seed
              << "\n";

    // improvement[ratio] accumulates (baseline / artmem - 1) per system.
    std::map<std::string, OnlineStats> improvement_by_ratio;
    OnlineStats improvement_all;
    std::map<std::string, OnlineStats> improvement_by_system;

    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const auto& base = runs[base_jobs[w]];

        std::vector<std::string> headers = {"system"};
        for (const auto& ratio : ratios)
            headers.push_back(ratio.label());
        Table table(std::move(headers));

        std::map<std::string, std::vector<double>> results;
        for (std::size_t s = 0; s < systems.size(); ++s) {
            auto& row = table.row().cell(systems[s]);
            for (std::size_t r = 0; r < ratios.size(); ++r) {
                const double value =
                    normalized_runtime(runs[grid_jobs[w][s][r]], base);
                results[systems[s]].push_back(value);
                row.cell(value, 3);
            }
        }
        for (std::size_t i = 0; i < ratios.size(); ++i) {
            const double artmem = results["artmem"][i];
            for (const auto& system : systems) {
                if (system == "artmem")
                    continue;
                const double gain = results[system][i] / artmem - 1.0;
                improvement_by_ratio[ratios[i].label()].add(gain);
                improvement_by_system[system].add(gain);
                improvement_all.add(gain);
            }
        }

        std::cout << "\nWorkload: " << workloads[w] << "\n";
        emit(table, opt);
    }

    std::cout << "\nSummary: average ArtMem improvement over the seven "
                 "baselines per DRAM:PM ratio\n"
              << "(paper: 132%, 124%, 104%, 91%, 72%, 67%)\n";
    Table summary({"ratio", "avg improvement %"});
    for (const auto& ratio : ratios) {
        summary.row()
            .cell(ratio.label())
            .cell(improvement_by_ratio[ratio.label()].mean() * 100.0, 1);
    }
    emit(summary, opt);

    std::cout << "\nAverage ArtMem improvement per baseline system "
                 "(paper: 10.4% - 43.65% vs the best baseline; "
                 "114% on average over all)\n";
    Table per_system({"baseline", "avg improvement %"});
    for (const auto& system : systems) {
        if (system == "artmem")
            continue;
        per_system.row().cell(system).cell(
            improvement_by_system[system].mean() * 100.0, 1);
    }
    emit(per_system, opt);
    std::cout << "\nOverall average improvement: "
              << format_fixed(improvement_all.mean() * 100.0, 1)
              << "% (paper: 114%)\n";
    return finish_stdout();
}
