/**
 * @file
 * Figure 9 reproduction: DRAM access ratio of SSSP and CC as the
 * DRAM:PM ratio varies, comparing the heuristic scope adjustment
 * (ArtMem with use_rl = false) against the full RL-based system.
 * Paper shape: RL >= heuristic everywhere; for CC both converge once
 * the compact hot set fits (>= 1:4 in the paper), while SSSP's broad
 * hot set keeps improving with more DRAM and RL stays ahead.
 */
#include "bench_common.hpp"

int
main(int argc, char** argv)
{
    using namespace artmem;
    using namespace artmem::bench;
    const auto opt = BenchOptions::parse(argc, argv, 6000000);
    const auto ratios = sim::paper_ratios();
    const std::vector<std::string> apps = {"sssp", "cc"};

    sweep::SweepSpec sweepspec;
    for (const auto& workload : apps) {
        for (const bool use_rl : {false, true}) {
            for (const auto& ratio : ratios) {
                core::ArtMemConfig cfg;
                cfg.seed = opt.seed;
                cfg.use_rl = use_rl;
                sweepspec.add_with_policy(
                    make_spec(opt, workload, "artmem", ratio),
                    [cfg] { return sim::make_artmem(cfg); });
            }
        }
    }
    const auto runs = make_runner(opt).run(sweepspec);

    std::cout << "Figure 9: DRAM access ratio, heuristic vs RL scope "
                 "adjustment\naccesses="
              << opt.accesses << " seed=" << opt.seed << "\n";

    std::size_t job = 0;
    for (const auto& workload : apps) {
        std::vector<std::string> headers = {"method"};
        for (const auto& ratio : ratios)
            headers.push_back(ratio.label());
        Table ratio_table(headers);
        Table runtime_table(headers);

        for (const bool use_rl : {false, true}) {
            auto& ratio_row =
                ratio_table.row().cell(use_rl ? "RL" : "heuristic");
            auto& runtime_row =
                runtime_table.row().cell(use_rl ? "RL" : "heuristic");
            for (std::size_t r = 0; r < ratios.size(); ++r) {
                const auto& run = runs[job++];
                ratio_row.cell(run.fast_ratio, 3);
                runtime_row.cell(run.seconds() * 1e3, 1);
            }
        }
        std::cout << "\nWorkload: " << workload << " — DRAM access ratio\n";
        emit(ratio_table, opt);
        std::cout << "Workload: " << workload << " — runtime (ms; the "
                     "heuristic buys its ratio with far more migration "
                     "traffic)\n";
        emit(runtime_table, opt);
    }
    return finish_stdout();
}
