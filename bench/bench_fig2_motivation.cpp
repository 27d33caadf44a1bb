/**
 * @file
 * Figure 2 reproduction: the seven tiering systems (plus ArtMem) on the
 * four synthetic access patterns S1-S4, 16 GiB DRAM + 16 GiB PM,
 * normalized execution time (static tiering = 1.0; lower is better)
 * and the per-run DRAM access ratio.
 *
 * Expected shape (paper Section 3.1):
 *  - S1: AutoTiering/Multi-clock strong; MEMTIS good but migrates ~15GB;
 *  - S2: everything struggles; MEMTIS and Nimble worst (frequency lags
 *    recency); several systems barely beat static;
 *  - S3: Multi-clock's gap narrows; Nimble's weakness amplified;
 *  - S4: AutoNUMA/TPP best; Multi-clock stuck; MEMTIS thrashes.
 */
#include "bench_common.hpp"

int
main(int argc, char** argv)
{
    using namespace artmem;
    using namespace artmem::bench;
    const auto opt = BenchOptions::parse(argc, argv);

    std::cout << "Figure 2: normalized runtime on synthetic patterns "
                 "(static = 1.00, lower is better)\n"
              << "accesses=" << opt.accesses << " seed=" << opt.seed
              << "  [16 GiB fast : 16 GiB slow]\n\n";

    const std::vector<std::string> systems = {
        "memtis", "autotiering", "tpp",       "autonuma",
        "multiclock", "nimble",  "tiering08", "artmem"};

    // Per pattern: the static baseline followed by every system.
    sweep::SweepSpec sweepspec;
    std::vector<std::size_t> base_jobs;
    std::vector<std::vector<std::size_t>> system_jobs;
    for (int k = 1; k <= 4; ++k) {
        std::string pattern = "s";  // built up to dodge gcc-12 PR105651
        pattern += std::to_string(k);
        base_jobs.push_back(
            sweepspec.add(make_spec(opt, pattern, "static", {1, 1})));
        auto& jobs = system_jobs.emplace_back();
        for (const auto& system : systems) {
            jobs.push_back(
                sweepspec.add(make_spec(opt, pattern, system, {1, 1})));
        }
    }
    const auto runs = make_runner(opt).run(sweepspec);

    Table runtime({"pattern", "static", "memtis", "autotiering", "tpp",
                   "autonuma", "multiclock", "nimble", "tiering08",
                   "artmem"});
    Table ratio({"pattern", "static", "memtis", "autotiering", "tpp",
                 "autonuma", "multiclock", "nimble", "tiering08", "artmem"});
    Table volume({"pattern", "memtis", "autotiering", "tpp", "autonuma",
                  "multiclock", "nimble", "tiering08", "artmem"});

    for (std::size_t k = 0; k < 4; ++k) {
        std::string pattern = "s";  // built up to dodge gcc-12 PR105651
        pattern += std::to_string(k + 1);
        const auto& base = runs[base_jobs[k]];

        auto& rt = runtime.row().cell(pattern).cell(1.0, 2);
        auto& ra = ratio.row().cell(pattern).cell(base.fast_ratio, 3);
        auto& vol = volume.row().cell(pattern);
        for (std::size_t s = 0; s < systems.size(); ++s) {
            const auto& r = runs[system_jobs[k][s]];
            rt.cell(normalized_runtime(r, base), 2);
            ra.cell(r.fast_ratio, 3);
            vol.cell(r.migrated_gib(2ull << 20), 2);
        }
    }

    emit(runtime, opt);
    std::cout << "\nDRAM access ratio (fraction of accesses served by the "
                 "fast tier):\n";
    emit(ratio, opt);
    std::cout << "\nMigrated volume (GiB):\n";
    emit(volume, opt);
    return finish_stdout();
}
