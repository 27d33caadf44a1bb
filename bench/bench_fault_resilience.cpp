/**
 * @file
 * Fault-resilience comparison: every policy runs the same workload under
 * each built-in fault scenario (memsim/fault_injector.hpp) —
 *
 *   none       fault-free baseline,
 *   migration  pinned pages + transient copy aborts + contention,
 *   degrade    periodic slow-tier latency/bandwidth degradation,
 *   blackout   periodic PEBS outages + sample drop bursts,
 *   pressure   a co-tenant periodically reserving fast-tier slots —
 *
 * and reports runtime (plus the slowdown against that policy's own
 * fault-free run), fast-tier access ratio, migration volume, per-reason
 * failure counts, and suppressed samples. The fault schedule is seeded
 * and fully deterministic, so runs are reproducible bit-for-bit.
 *
 * With --tx the sweep additionally runs every scenario (plus the
 * abort_storm write-storm scenario) under the transactional migration
 * engine and appends its abort/retry columns; without the flag the
 * output is byte-identical to what it was before the engine existed.
 *
 * Usage: bench_fault_resilience [--workload=ycsb] [--fault-seed=1] [--tx]
 *                               [--accesses=N] [--seed=N] [--quick] [--csv]
 */
#include <map>
#include <vector>

#include "bench_common.hpp"
#include "memsim/fault_injector.hpp"

int
main(int argc, char** argv)
{
    using namespace artmem;
    using namespace artmem::bench;
    const auto opt = BenchOptions::parse(argc, argv, 4000000,
                                         {"workload", "fault-seed", "tx"});
    const auto args = CliArgs::parse(argc, argv);
    const std::string workload = args.get_string("workload", "ycsb");
    const auto fault_seed =
        args.get_uint<std::uint64_t>("fault-seed", 1);
    const bool with_tx = args.get_bool("tx", false);

    std::vector<std::string_view> scenarios;
    for (const auto scenario : memsim::fault_scenario_names())
        scenarios.push_back(scenario);
    if (with_tx)
        scenarios.push_back("abort_storm");

    std::cout << "Fault resilience: workload=" << workload
              << " ratio=1:4 accesses=" << opt.accesses
              << " seed=" << opt.seed << " fault-seed=" << fault_seed;
    if (with_tx)
        std::cout << " tx=on";
    std::cout << "\n";

    // Every scenario x policy cell is independent; the "vs clean"
    // column is derived after the sweep from the "none" scenario's
    // results, so parallel execution cannot reorder the arithmetic.
    sweep::SweepSpec sweepspec;
    for (const auto scenario : scenarios) {
        for (const auto policy : sim::policy_names()) {
            auto spec =
                make_spec(opt, workload, std::string(policy), {1, 4});
            spec.engine.faults =
                memsim::make_fault_scenario(scenario, fault_seed);
            if (with_tx) {
                spec.engine.tx.enabled = true;
                spec.engine.tx.write_ratio = 0.02;
                spec.engine.check_invariants = true;
            }
            sweepspec.add(std::move(spec),
                          {std::string(scenario), std::string(policy)});
        }
    }
    const auto runs = make_runner(opt).run(sweepspec);

    // Fault-free reference runtime per policy, for the slowdown column.
    std::map<std::string, std::uint64_t> clean_runtime;

    std::size_t job = 0;
    for (const auto scenario : scenarios) {
        std::cout << "\nScenario: " << scenario << "\n";
        std::vector<std::string> headers = {
            "policy",    "runtime (ms)", "vs clean", "fast ratio",
            "migrated",  "pinned",       "transient", "contended",
            "no_slot",   "pebs lost"};
        if (with_tx) {
            headers.insert(headers.end(), {"tx aborts", "tx retries"});
        }
        sweep::ResultSink table(std::move(headers));
        for (const auto policy : sim::policy_names()) {
            const auto& r = runs[job++];
            if (scenario == "none")
                clean_runtime[std::string(policy)] = r.runtime_ns;
            const double clean = static_cast<double>(
                clean_runtime[std::string(policy)]);
            auto& row = table.row();
            row.cell(std::string(policy))
                .cell(r.seconds() * 1e3, 1)
                .cell(static_cast<double>(r.runtime_ns) / clean, 3)
                .cell(r.fast_ratio, 3)
                .cell(r.totals.migrated_pages())
                .cell(r.totals.failed_pinned)
                .cell(r.totals.failed_transient)
                .cell(r.totals.failed_contended)
                .cell(r.totals.failed_no_slot)
                .cell(r.pebs_suppressed);
            if (with_tx)
                row.cell(r.totals.tx_aborted).cell(r.totals.tx_retries);
        }
        emit(table, opt);
    }
    return 0;
}
