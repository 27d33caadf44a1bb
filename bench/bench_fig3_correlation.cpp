/**
 * @file
 * Figure 3 reproduction: correlation between performance and DRAM
 * access ratio. Each point is one workload run under one tiering
 * system; performance is normalized to DRAM-only execution (all
 * accesses at fast latency). The paper reports Pearson coefficients of
 * 0.89, 0.81 and 0.87 for three recent systems — the reproduction
 * target is "strong positive correlation", not the exact values.
 */
#include <vector>

#include "bench_common.hpp"
#include "util/stats.hpp"

int
main(int argc, char** argv)
{
    using namespace artmem;
    using namespace artmem::bench;
    const auto opt = BenchOptions::parse(argc, argv, 4000000);

    const std::vector<std::string> systems = {"memtis", "tpp", "multiclock"};
    const std::vector<std::string> points = {"s1", "s2",  "s3",    "s4",
                                             "ycsb", "btree", "xsbench",
                                             "liblinear"};

    sweep::SweepSpec sweepspec;
    for (const auto& system : systems)
        for (const auto& workload : points)
            sweepspec.add(make_spec(opt, workload, system, {1, 1}));
    const auto runs = make_runner(opt).run(sweepspec);

    std::cout << "Figure 3: performance vs DRAM access ratio "
              << "(performance normalized to DRAM-only; 1:1 ratio)\n"
              << "accesses=" << opt.accesses << " seed=" << opt.seed
              << "\n\n";

    std::size_t job = 0;
    for (const auto& system : systems) {
        Table table({"workload", "dram_ratio", "perf_vs_dram_only"});
        std::vector<double> xs, ys;
        for (const auto& workload : points) {
            const auto& r = runs[job++];
            // DRAM-only: every access at the fast latency.
            const double dram_only_ns =
                static_cast<double>(r.accesses) * 92.0;
            const double perf =
                dram_only_ns / static_cast<double>(r.runtime_ns);
            xs.push_back(r.fast_ratio);
            ys.push_back(perf);
            table.row().cell(workload).cell(r.fast_ratio, 3).cell(perf, 3);
        }
        std::cout << "System: " << system << "\n";
        emit(table, opt);
        std::cout << "Pearson correlation = "
                  << format_fixed(pearson(xs, ys), 2)
                  << "  (paper: 0.81-0.89)\n\n";
    }
    return finish_stdout();
}
