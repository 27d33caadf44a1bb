/**
 * @file
 * CLI tool example: run any MASIM-style workload config file under any
 * registered policy (the workflow the paper's Section 3 used to study
 * policy behaviour on hand-written patterns).
 *
 *   ./masim_runner my_pattern.cfg --policy=artmem --ratio=1:1
 *
 * Config format (key = value):
 *   name = mypattern
 *   footprint_mib = 32768
 *   phases = 1
 *   phase0.accesses = 4000000
 *   phase0.regions = 2
 *   phase0.region0 = 20480 500 45.0        # offset_mib size_mib weight
 *   phase0.region1 = 0 32768 10.0 seq      # trailing 'seq' = sequential
 */
#include <fstream>
#include <iostream>

#include "sim/experiment.hpp"
#include "telemetry/telemetry.hpp"
#include "util/cli.hpp"
#include "util/config.hpp"
#include "util/table.hpp"
#include "workloads/masim.hpp"

int
main(int argc, char** argv)
{
    using namespace artmem;
    const auto args = CliArgs::parse(argc, argv);
    if (args.positional().empty()) {
        std::cerr << "usage: " << args.program()
                  << " <config-file> [--policy=artmem] [--ratio=1:1]"
                     " [--seed=N] [--timeline] [--check-invariants]\n"
                     "       [--metrics-out=FILE] [--trace-out=BASE]"
                     " [--trace-categories=LIST] [--profile]\n";
        return 1;
    }

    const auto cfg = KvConfig::load(args.positional()[0]);
    auto spec = workloads::Masim::parse_spec(cfg);
    const auto seed = args.get_uint<std::uint64_t>("seed", 42);

    constexpr Bytes kPage = 2ull << 20;
    workloads::Masim gen(spec, kPage, seed);

    const sim::RatioSpec ratio = sim::parse_ratio_cli(args, {1, 1});

    auto machine_config =
        sim::make_machine_config(gen.footprint(), ratio, kPage);
    memsim::TieredMachine machine(machine_config);
    auto policy =
        sim::make_policy(args.get_string("policy", "artmem"), seed);
    sim::EngineConfig engine;
    engine.record_timeline = args.get_bool("timeline", false);
    engine.check_invariants = args.get_bool("check-invariants", false);

    const std::string metrics_out = args.get_string("metrics-out", "");
    const std::string trace_out = args.get_string("trace-out", "");
    engine.telemetry.metrics = !metrics_out.empty();
    engine.telemetry.profile = args.get_bool("profile", false);
    if (!trace_out.empty()) {
        engine.telemetry.trace_categories = telemetry::parse_categories(
            args.get_string("trace-categories", "all"));
    }

    const auto r = sim::run_simulation(gen, *policy, machine, engine);

    std::cout << "workload=" << gen.name() << " footprint="
              << gen.footprint() / (1ull << 20) << "MiB policy="
              << policy->name() << " ratio=" << ratio.label() << "\n"
              << "runtime=" << format_fixed(r.seconds() * 1e3, 2)
              << "ms fast_ratio=" << format_fixed(r.fast_ratio, 3)
              << " migrated_pages=" << r.totals.migrated_pages()
              << " hint_faults=" << r.totals.hint_faults << "\n";

    if (engine.record_timeline) {
        Table table({"t (ms)", "ratio", "promoted", "demoted"});
        for (const auto& iv : r.timeline) {
            table.row()
                .cell(static_cast<double>(iv.end_time) * 1e-6, 1)
                .cell(iv.fast_ratio, 3)
                .cell(iv.promoted)
                .cell(iv.demoted);
        }
        table.print(std::cout);
    }

    if (r.telemetry != nullptr) {
        if (!metrics_out.empty()) {
            std::ofstream out(metrics_out);
            r.telemetry->metrics_registry().write_json(out);
        }
        if (!trace_out.empty()) {
            if (const auto* sink = r.telemetry->sink()) {
                std::ofstream jsonl(trace_out + ".jsonl");
                sink->write_jsonl(jsonl);
                std::ofstream chrome(trace_out + ".json");
                sink->write_chrome(chrome);
            }
        }
        if (engine.telemetry.profile)
            r.telemetry->phase_profiler().write_table(std::cerr);
    }
    return 0;
}
