/**
 * @file
 * Figure 12 + Section 6.3.4 reproduction: ArtMem with the DRAM access
 * ratio reward vs the latency-based reward on XSBench — migrations
 * over time and overall runtime. The paper finds the latency reward
 * adjusts migration decisions with a delay and ends ~3.4% slower.
 */
#include "bench_common.hpp"

int
main(int argc, char** argv)
{
    using namespace artmem;
    using namespace artmem::bench;
    const auto opt = BenchOptions::parse(argc, argv, 6000000);

    std::cout << "Figure 12: migrations over time with ratio-based vs "
                 "latency-based RL reward (XSBench, 1:2)\naccesses="
              << opt.accesses << " seed=" << opt.seed << "\n\n";

    const char* labels[2] = {"ratio-reward", "latency-reward"};
    sweep::SweepSpec sweepspec;
    for (int mode = 0; mode < 2; ++mode) {
        core::ArtMemConfig cfg;
        cfg.seed = opt.seed;
        cfg.reward_mode = mode == 0 ? core::RewardMode::kAccessRatio
                                    : core::RewardMode::kLatency;
        auto spec = make_spec(opt, "xsbench", "artmem", {1, 2});
        spec.engine.record_timeline = true;
        sweepspec.add_with_policy(std::move(spec),
                                  [cfg] { return sim::make_artmem(cfg); });
    }
    const auto results = make_runner(opt).run(sweepspec);

    Table table({"t (ms)", "ratio-reward migrations",
                 "latency-reward migrations"});
    const std::size_t rows =
        std::min(results[0].timeline.size(), results[1].timeline.size());
    for (std::size_t i = 0; i < rows; i += 4) {
        const auto& a = results[0].timeline[i];
        const auto& b = results[1].timeline[i];
        table.row()
            .cell(static_cast<double>(a.end_time) * 1e-6, 0)
            .cell(a.promoted + a.demoted)
            .cell(b.promoted + b.demoted);
    }
    emit(table, opt);

    const double delta =
        (static_cast<double>(results[1].runtime_ns) /
             static_cast<double>(results[0].runtime_ns) -
         1.0) *
        100.0;
    std::cout << "\nruntime: " << labels[0] << " "
              << format_fixed(results[0].seconds() * 1e3, 1)
              << " ms, " << labels[1] << " "
              << format_fixed(results[1].seconds() * 1e3, 1)
              << " ms  -> latency reward is "
              << format_fixed(delta, 1)
              << "% slower (paper: ~3.4% average)\n";
    return finish_stdout();
}
