/**
 * @file
 * Developer utility: run one (workload, policy, ratio) combination with
 * a timeline dump. Not part of the paper reproduction; used to inspect
 * policy behaviour interval by interval.
 */
#include "bench_common.hpp"

int
main(int argc, char** argv)
{
    using namespace artmem;
    using namespace artmem::bench;
    const auto args = CliArgs::parse(argc, argv);
    const auto opt = BenchOptions::parse(argc, argv, 8000000,
                                         {"workload", "policy", "timeline"});

    sim::RunSpec spec = make_spec(opt, args.get_string("workload", "s1"),
                                  args.get_string("policy", "artmem"),
                                  {1, 1});
    spec.engine.record_timeline = true;

    // A single job, but routed through the sweep runner so this utility
    // exercises the same dispatch path as every figure harness.
    sweep::SweepSpec sweepspec;
    sweepspec.add(std::move(spec));
    const auto runs = make_runner(opt).run(sweepspec);
    const auto& r = runs[0];

    std::cout << "runtime_ms=" << r.seconds() * 1e3
              << " ratio=" << r.fast_ratio
              << " migrated_pages=" << r.totals.migrated_pages()
              << " hint_faults=" << r.totals.hint_faults
              << " pebs=" << r.pebs_recorded << "/" << r.pebs_dropped
              << "\n";
    if (args.get_bool("timeline", false)) {
        Table t({"t_ms", "accesses", "ratio", "promoted",
                 "demoted", "exchanges"});
        for (const auto& iv : r.timeline) {
            t.row()
                .cell(static_cast<double>(iv.end_time) * 1e-6, 1)
                .cell(iv.accesses)
                .cell(iv.fast_ratio, 3)
                .cell(iv.promoted)
                .cell(iv.demoted)
                .cell(iv.exchanges);
        }
        if (!t.emit(std::cout, Table::Format::kTable))
            fatal("result emission failed: output stream went bad");
    }
    return 0;
}
