/**
 * @file
 * Figure 14 + Section 6.3.6 reproduction: sensitivity of the RL model
 * to its training data. Each of five applications is run once to
 * convergence and its Q-tables captured; every (train, eval) pair is
 * then evaluated by running the eval workload starting from the train
 * workload's tables. Cells show % runtime degradation relative to
 * self-training. Paper: only 7 of 25 combinations degrade > 10%.
 *
 * Two chained sweeps: the training phase must finish before the
 * cross-evaluation jobs (which consume the captured tables) start.
 */
#include <sstream>

#include "bench_common.hpp"

int
main(int argc, char** argv)
{
    using namespace artmem;
    using namespace artmem::bench;
    const auto opt = BenchOptions::parse(argc, argv, 4000000);

    const std::vector<std::string> apps = {"liblinear", "ycsb", "cc",
                                           "xsbench", "btree"};

    std::cout << "Figure 14: Q-table cross-training robustness "
                 "(% runtime degradation vs self-trained; 1:2 ratio)\n"
              << "accesses=" << opt.accesses << " seed=" << opt.seed
              << "\n\n";

    auto runner = make_runner(opt);

    // Phase 1: train per app, capture converged Q-tables. Each job
    // writes only its own slot of `tables`, so the sweep stays
    // data-race-free.
    std::vector<std::string> tables(apps.size());
    sweep::SweepSpec train_spec;
    for (std::size_t i = 0; i < apps.size(); ++i) {
        auto spec = make_spec(opt, apps[i], "artmem", {1, 2});
        train_spec.add_run([&tables, i, spec, &opt] {
            core::ArtMemConfig cfg;
            cfg.seed = opt.seed;
            auto policy = sim::make_artmem(cfg);
            const auto r = sim::run_experiment(spec, *policy);
            std::ostringstream os;
            policy->save_qtables(os);
            tables[i] = os.str();
            return r;
        });
    }
    runner.run(train_spec);

    // Phase 2: evaluate every (train, eval) pair from the saved tables.
    sweep::SweepSpec eval_spec;
    for (const auto& train : apps) {
        for (const auto& eval : apps) {
            const std::size_t train_idx =
                static_cast<std::size_t>(&train - apps.data());
            auto spec = make_spec(opt, eval, "artmem", {1, 2});
            eval_spec.add_run([&tables, train_idx, spec, &opt] {
                core::ArtMemConfig cfg;
                cfg.seed = opt.seed;
                auto policy = sim::make_artmem(cfg);
                policy->set_pretrained_qtables(tables[train_idx]);
                return sim::run_experiment(spec, *policy);
            });
        }
    }
    const auto evals = runner.run(eval_spec);

    std::vector<std::string> headers = {"train \\ eval"};
    for (const auto& app : apps)
        headers.push_back(app);
    Table table(std::move(headers));

    std::vector<double> self(apps.size(), 0.0);
    std::vector<std::vector<double>> runtime(
        apps.size(), std::vector<double>(apps.size(), 0.0));
    for (std::size_t train = 0; train < apps.size(); ++train)
        for (std::size_t eval = 0; eval < apps.size(); ++eval)
            runtime[train][eval] = static_cast<double>(
                evals[train * apps.size() + eval].runtime_ns);
    for (std::size_t eval = 0; eval < apps.size(); ++eval)
        self[eval] = runtime[eval][eval];

    int above_10 = 0;
    for (std::size_t train = 0; train < apps.size(); ++train) {
        auto& row = table.row().cell(apps[train]);
        for (std::size_t eval = 0; eval < apps.size(); ++eval) {
            const double degradation =
                (runtime[train][eval] / self[eval] - 1.0) * 100.0;
            if (train != eval && degradation > 10.0)
                ++above_10;
            row.cell(degradation, 1);
        }
    }
    emit(table, opt);
    std::cout << "\nCombinations degrading more than 10%: " << above_10
              << " of " << apps.size() * (apps.size() - 1)
              << " cross pairs (paper: 7 of 25 incl. diagonal)\n";
    return finish_stdout();
}
