/**
 * @file
 * Figure 13 + Section 6.3.5 reproduction: Q-learning vs SARSA inside
 * ArtMem. Four workload scenarios x six memory ratios; normalized
 * improvement over static tiering, averaged per workload. Paper
 * finding: the two algorithms perform similarly.
 */
#include "bench_common.hpp"
#include "util/stats.hpp"

int
main(int argc, char** argv)
{
    using namespace artmem;
    using namespace artmem::bench;
    const auto opt = BenchOptions::parse(argc, argv, 4000000);

    const std::vector<std::string> workloads = {"s1", "ycsb", "xsbench",
                                                "cc"};
    const std::vector<rl::Algorithm> algos = {rl::Algorithm::kQLearning,
                                              rl::Algorithm::kSarsa};
    const auto ratios = sim::paper_ratios();

    // Old serial order: workload -> algorithm -> ratio -> {static,
    // artmem}; the static baseline is re-run per cell exactly as the
    // serial harness did, so the emitted numbers stay bit-identical.
    sweep::SweepSpec sweepspec;
    for (const auto& workload : workloads) {
        for (const auto algo : algos) {
            for (const auto& ratio : ratios) {
                sweepspec.add(make_spec(opt, workload, "static", ratio));
                core::ArtMemConfig cfg;
                cfg.seed = opt.seed;
                cfg.agent.algorithm = algo;
                sweepspec.add_with_policy(
                    make_spec(opt, workload, "artmem", ratio),
                    [cfg] { return sim::make_artmem(cfg); });
            }
        }
    }
    const auto runs = make_runner(opt).run(sweepspec);

    std::cout << "Figure 13: Q-learning vs SARSA (speedup over static, "
                 "averaged across the six ratios)\naccesses="
              << opt.accesses << " seed=" << opt.seed << "\n\n";

    Table table({"workload", "q-learning", "sarsa"});
    std::size_t job = 0;
    for (const auto& workload : workloads) {
        auto& row = table.row().cell(workload);
        for (std::size_t a = 0; a < algos.size(); ++a) {
            OnlineStats speedup;
            for (std::size_t r = 0; r < ratios.size(); ++r) {
                const auto& base = runs[job++];
                const auto& artmem = runs[job++];
                speedup.add(static_cast<double>(base.runtime_ns) /
                            static_cast<double>(artmem.runtime_ns));
            }
            row.cell(speedup.mean(), 3);
        }
    }
    emit(table, opt);
    std::cout << "\nExpected: both columns close to each other "
                 "(paper: similar performance).\n";
    return finish_stdout();
}
