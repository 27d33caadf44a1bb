/**
 * @file
 * Figure 8 reproduction: ablation of ArtMem's three key components —
 * the RL scope control, the LRU page sorting, and the dynamic hotness
 * threshold — against the full system and the DRAM-only lower bound.
 * The paper finds RL contributes most, with its advantage growing as
 * the DRAM share shrinks; page sorting adds >10% on PR/XSBench-like
 * workloads.
 */
#include "bench_common.hpp"
#include "util/stats.hpp"

int
main(int argc, char** argv)
{
    using namespace artmem;
    using namespace artmem::bench;
    const auto opt = BenchOptions::parse(argc, argv, 6000000);

    struct Variant {
        const char* label;
        bool use_rl;
        bool use_sorting;
        bool use_dynamic_threshold;
    };
    const std::vector<Variant> variants = {
        {"artmem (full)", true, true, true},
        {"-rl (heuristic scope)", false, true, true},
        {"-sorting (freq only)", true, false, true},
        {"-dyn-threshold", true, true, false},
    };
    const std::vector<std::string> workloads = {"ycsb", "cc", "xsbench",
                                                "pr"};
    const std::vector<sim::RatioSpec> ratios = {{1, 1}, {1, 4}, {1, 8}};

    // Per ratio: the full-system reference per workload, then every
    // ablation variant x workload (the old serial loop order).
    sweep::SweepSpec sweepspec;
    auto add_variant_job = [&](const Variant& variant,
                               const std::string& workload,
                               const sim::RatioSpec& ratio) {
        core::ArtMemConfig cfg;
        cfg.seed = opt.seed;
        cfg.use_rl = variant.use_rl;
        cfg.use_sorting = variant.use_sorting;
        cfg.use_dynamic_threshold = variant.use_dynamic_threshold;
        return sweepspec.add_with_policy(
            make_spec(opt, workload, "artmem", ratio),
            [cfg] { return sim::make_artmem(cfg); });
    };
    std::vector<std::vector<std::size_t>> full_jobs;
    std::vector<std::vector<std::vector<std::size_t>>> variant_jobs;
    for (const auto& ratio : ratios) {
        auto& full = full_jobs.emplace_back();
        for (const auto& workload : workloads)
            full.push_back(add_variant_job(variants[0], workload, ratio));
        auto& by_variant = variant_jobs.emplace_back();
        for (const auto& variant : variants) {
            auto& jobs = by_variant.emplace_back();
            for (const auto& workload : workloads)
                jobs.push_back(add_variant_job(variant, workload, ratio));
        }
    }
    const auto runs = make_runner(opt).run(sweepspec);

    std::cout << "Figure 8: ArtMem component ablation, runtime "
                 "normalized to the full system (lower is better;\n"
              << "'dram-only' shows the remaining gap to all-fast "
                 "execution).\naccesses="
              << opt.accesses << " seed=" << opt.seed << "\n";

    for (std::size_t ri = 0; ri < ratios.size(); ++ri) {
        std::cout << "\nDRAM:PM = " << ratios[ri].label() << "\n";
        std::vector<std::string> headers = {"variant"};
        for (const auto& w : workloads)
            headers.push_back(w);
        headers.push_back("geomean");
        Table table(std::move(headers));

        std::vector<double> full(workloads.size());
        for (std::size_t i = 0; i < workloads.size(); ++i)
            full[i] =
                static_cast<double>(runs[full_jobs[ri][i]].runtime_ns);

        for (std::size_t v = 0; v < variants.size(); ++v) {
            auto& row = table.row().cell(variants[v].label);
            std::vector<double> normalized;
            for (std::size_t i = 0; i < workloads.size(); ++i) {
                const auto& r = runs[variant_jobs[ri][v][i]];
                const double value =
                    static_cast<double>(r.runtime_ns) / full[i];
                normalized.push_back(value);
                row.cell(value, 3);
            }
            row.cell(geomean(normalized), 3);
        }

        // DRAM-only lower bound: accesses * fast latency.
        auto& dram_row = table.row().cell("dram-only");
        std::vector<double> dram_norm;
        for (std::size_t i = 0; i < workloads.size(); ++i) {
            const double bound =
                static_cast<double>(opt.accesses) * 92.0 / full[i];
            dram_norm.push_back(bound);
            dram_row.cell(bound, 3);
        }
        dram_row.cell(geomean(dram_norm), 3);
        emit(table, opt);
    }
    return finish_stdout();
}
