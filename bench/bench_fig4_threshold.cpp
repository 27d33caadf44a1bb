/**
 * @file
 * Figure 4 reproduction: MEMTIS's DRAM-capacity-derived hotness
 * threshold vs a manually tuned threshold, on Liblinear and XSBench —
 * (a) migration volume, (b) normalized runtime. The paper's manual
 * tuning reduced Liblinear migrations dramatically and improved
 * performance by 47% (Liblinear) and 42% (XSBench).
 */
#include "bench_common.hpp"
#include "policies/memtis.hpp"

int
main(int argc, char** argv)
{
    using namespace artmem;
    using namespace artmem::bench;
    const auto opt = BenchOptions::parse(argc, argv, 6000000);

    std::cout << "Figure 4: MEMTIS default (capacity) threshold vs "
                 "manually tuned threshold (1:2 ratio)\n"
              << "accesses=" << opt.accesses << " seed=" << opt.seed
              << "\n\n";

    const std::vector<std::string> apps = {"liblinear", "xsbench"};
    const std::vector<std::uint32_t> thresholds = {8, 16, 32, 64, 128};

    // Per workload: the default-threshold run, then the tuning sweep.
    sweep::SweepSpec sweepspec;
    std::vector<std::size_t> default_jobs;
    std::vector<std::vector<std::size_t>> tuned_jobs;
    for (const auto& workload : apps) {
        auto spec = make_spec(opt, workload, "memtis", {1, 2});
        default_jobs.push_back(sweepspec.add_with_policy(
            spec, [] { return std::make_unique<policies::Memtis>(); }));
        auto& jobs = tuned_jobs.emplace_back();
        for (const auto threshold : thresholds) {
            jobs.push_back(sweepspec.add_with_policy(
                spec, [threshold] {
                    policies::Memtis::Config cfg;
                    cfg.manual_threshold = threshold;
                    return std::make_unique<policies::Memtis>(cfg);
                }));
        }
    }
    const auto runs = make_runner(opt).run(sweepspec);

    Table table({"workload", "variant", "threshold",
                 "migrated GiB", "runtime (ms)", "vs default"});

    for (std::size_t w = 0; w < apps.size(); ++w) {
        const auto& base = runs[default_jobs[w]];
        table.row()
            .cell(apps[w])
            .cell("default")
            .cell("capacity")
            .cell(base.migrated_gib(2ull << 20), 2)
            .cell(base.seconds() * 1e3, 1)
            .cell(1.0, 2);

        // Manual tuning sweep: count pages of the hottest bins into the
        // warm bins by raising the threshold (the paper's experiment).
        double best_runtime = static_cast<double>(base.runtime_ns);
        std::uint32_t best_threshold = 0;
        sim::RunResult best = base;
        for (std::size_t t = 0; t < thresholds.size(); ++t) {
            const auto& r = runs[tuned_jobs[w][t]];
            if (static_cast<double>(r.runtime_ns) < best_runtime) {
                best_runtime = static_cast<double>(r.runtime_ns);
                best_threshold = thresholds[t];
                best = r;
            }
        }
        table.row()
            .cell(apps[w])
            .cell("tuned")
            .cell(std::to_string(best_threshold))
            .cell(best.migrated_gib(2ull << 20), 2)
            .cell(best.seconds() * 1e3, 1)
            .cell(static_cast<double>(base.runtime_ns) /
                      static_cast<double>(best.runtime_ns),
                  2);
    }
    emit(table, opt);
    std::cout << "\n'vs default' > 1.0 means the tuned threshold is "
                 "faster (paper: 1.47x Liblinear, 1.42x XSBench).\n";
    return finish_stdout();
}
