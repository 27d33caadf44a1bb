/**
 * @file
 * Figure 15 reproduction: sensitivity of ArtMem to its RL and system
 * hyperparameters — (a) learning rate alpha, (b) discount factor
 * gamma, (c) exploration epsilon, (d) PEBS sampling period, (e) reward
 * target beta, (f) migration/decision interval. Each sweep reports the
 * speedup over static tiering averaged across ratios {1:1, 1:4, 1:8}
 * on a skewed workload. Paper optima: alpha=e^-2, gamma=e^-1,
 * epsilon=0.3, beta in 8-10, interval in the moderate band. Each
 * sweep has its own axis, so each prints as its own table.
 */
#include <cmath>
#include <functional>

#include "bench_common.hpp"
#include "util/stats.hpp"

namespace {

using namespace artmem;
using namespace artmem::bench;

using Apply =
    std::function<void(core::ArtMemConfig&, sim::EngineConfig&)>;

struct Sweep {
    std::string name;
    std::vector<std::pair<std::string, Apply>> settings;
};

const std::vector<sim::RatioSpec> kRatios = {{1, 1}, {1, 4}, {1, 8}};

}  // namespace

int
main(int argc, char** argv)
{
    const auto opt = BenchOptions::parse(argc, argv, 4000000);

    std::cout << "Figure 15: hyperparameter sensitivity (speedup over "
                 "static on pattern S3, averaged over 1:1/1:4/1:8)\n"
              << "accesses=" << opt.accesses << " seed=" << opt.seed
              << "\n";

    const std::vector<Sweep> sweeps = {
        {"a. learning rate alpha",
         {{"e^-1", [](auto& c, auto&) { c.agent.alpha = std::exp(-1.0); }},
          {"e^-2 (paper)",
           [](auto& c, auto&) { c.agent.alpha = std::exp(-2.0); }},
          {"e^-3", [](auto& c, auto&) { c.agent.alpha = std::exp(-3.0); }},
          {"e^-4",
           [](auto& c, auto&) { c.agent.alpha = std::exp(-4.0); }}}},
        {"b. discount factor gamma",
         {{"e^-1 (paper)",
           [](auto& c, auto&) { c.agent.gamma = std::exp(-1.0); }},
          {"e^-2", [](auto& c, auto&) { c.agent.gamma = std::exp(-2.0); }},
          {"e^-3", [](auto& c, auto&) { c.agent.gamma = std::exp(-3.0); }},
          {"0.9", [](auto& c, auto&) { c.agent.gamma = 0.9; }}}},
        {"c. exploration epsilon",
         {{"0.1", [](auto& c, auto&) { c.agent.epsilon = 0.1; }},
          {"0.3 (paper)", [](auto& c, auto&) { c.agent.epsilon = 0.3; }},
          {"0.5", [](auto& c, auto&) { c.agent.epsilon = 0.5; }},
          {"0.7", [](auto& c, auto&) { c.agent.epsilon = 0.7; }}}},
        {"d. PEBS sampling period",
         {{"5", [](auto&, auto& e) { e.pebs.period = 5; }},
          {"10 (default)", [](auto&, auto& e) { e.pebs.period = 10; }},
          {"20", [](auto&, auto& e) { e.pebs.period = 20; }},
          {"50", [](auto&, auto& e) { e.pebs.period = 50; }}}},
        {"e. reward target beta",
         {{"6", [](auto& c, auto&) { c.beta = 6.0; }},
          {"8", [](auto& c, auto&) { c.beta = 8.0; }},
          {"9 (paper 8-10)", [](auto& c, auto&) { c.beta = 9.0; }},
          {"10", [](auto& c, auto&) { c.beta = 10.0; }},
          {"12", [](auto& c, auto&) { c.beta = 12.0; }}}},
        {"f. migration interval",
         {{"2ms", [](auto&, auto& e) { e.decision_interval = 2000000; }},
          {"5ms", [](auto&, auto& e) { e.decision_interval = 5000000; }},
          {"10ms (default)",
           [](auto&, auto& e) { e.decision_interval = 10000000; }},
          {"25ms",
           [](auto&, auto& e) { e.decision_interval = 25000000; }},
          {"80ms",
           [](auto&, auto& e) { e.decision_interval = 80000000; }}}}};

    // Flatten every sweep into one job list in the old serial order:
    // sweep -> setting -> ratio -> {static, artmem}.
    sweep::SweepSpec sweepspec;
    for (const auto& sw : sweeps) {
        for (const auto& [label, apply] : sw.settings) {
            core::ArtMemConfig cfg;
            cfg.seed = opt.seed;
            sim::EngineConfig engine;
            apply(cfg, engine);
            for (const auto& ratio : kRatios) {
                auto static_spec = make_spec(opt, "s3", "static", ratio);
                static_spec.engine = engine;
                sweepspec.add(std::move(static_spec));
                auto spec = make_spec(opt, "s3", "artmem", ratio);
                spec.engine = engine;
                sweepspec.add_with_policy(
                    std::move(spec), [cfg] { return sim::make_artmem(cfg); });
            }
        }
    }
    const auto runs = make_runner(opt).run(sweepspec);

    std::size_t job = 0;
    for (const auto& sw : sweeps) {
        Table table({sw.name, "speedup vs static"});
        for (const auto& [label, apply] : sw.settings) {
            OnlineStats speedup;
            for (std::size_t r = 0; r < kRatios.size(); ++r) {
                const auto& base = runs[job++];
                const auto& artmem = runs[job++];
                speedup.add(static_cast<double>(base.runtime_ns) /
                            static_cast<double>(artmem.runtime_ns));
            }
            table.row().cell(label).cell(speedup.mean(), 3);
        }
        std::cout << "\n(" << sw.name << ")\n";
        emit(table, opt);
    }

    std::cout << "\nThe paper's migration interval of 10 s wall-clock "
                 "maps to the 10 ms simulated default here; the sweep "
                 "covers the same too-short..too-long band.\n";
    return finish_stdout();
}
