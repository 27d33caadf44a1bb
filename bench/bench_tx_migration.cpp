/**
 * @file
 * Transactional-migration study: every policy runs the write-heavy
 * YCSB mix (ycsb_w) under three migration engines —
 *
 *   off          the classic atomic engine (baseline),
 *   tx           transactional copy-then-commit with a baseline write
 *                ratio hitting in-flight pages,
 *   abort_storm  the same engine under the seeded write-storm fault
 *                scenario (75% write probability at 40% duty),
 *
 * and reports runtime (plus the slowdown against that policy's own
 * atomic-engine run), fast-tier access ratio, and the transaction
 * ledger: opens, commits, aborts, retries, free demotion flips, and
 * dual-copy reclaims. Every cell is invariant-audited; the schedule is
 * seeded and bit-for-bit reproducible.
 *
 * Usage: bench_tx_migration [--workload=ycsb_w] [--write-ratio=0.02]
 *                           [--tx-seed=1] [--fault-seed=1]
 *                           [--accesses=N] [--seed=N] [--quick] [--csv]
 */
#include <map>

#include "bench_common.hpp"
#include "memsim/fault_injector.hpp"

int
main(int argc, char** argv)
{
    using namespace artmem;
    using namespace artmem::bench;
    const auto opt = BenchOptions::parse(
        argc, argv, 4000000,
        {"workload", "write-ratio", "tx-seed", "fault-seed"});
    const auto args = CliArgs::parse(argc, argv);
    const std::string workload = args.get_string("workload", "ycsb_w");
    const double write_ratio = args.get_double("write-ratio", 0.02);
    const auto tx_seed =
        args.get_uint<std::uint64_t>("tx-seed", 1);
    const auto fault_seed =
        args.get_uint<std::uint64_t>("fault-seed", 1);

    std::cout << "Transactional migration: workload=" << workload
              << " ratio=1:4 accesses=" << opt.accesses
              << " seed=" << opt.seed << " write-ratio=" << write_ratio
              << " tx-seed=" << tx_seed << " fault-seed=" << fault_seed
              << "\n";

    memsim::TxConfig tx;
    tx.enabled = true;
    tx.seed = tx_seed;
    tx.write_ratio = write_ratio;

    const std::string_view engines[] = {"off", "tx", "abort_storm"};
    sweep::SweepSpec sweepspec;
    for (const auto engine : engines) {
        for (const auto policy : sim::policy_names()) {
            auto spec =
                make_spec(opt, workload, std::string(policy), {1, 4});
            if (engine != "off")
                spec.engine.tx = tx;
            if (engine == "abort_storm") {
                spec.engine.faults = memsim::make_fault_scenario(
                    "abort_storm", fault_seed);
            }
            spec.engine.check_invariants = true;
            sweepspec.add(std::move(spec),
                          {std::string(engine), std::string(policy)});
        }
    }
    const auto runs = make_runner(opt).run(sweepspec);

    // Atomic-engine reference runtime per policy, for the slowdown column.
    std::map<std::string, std::uint64_t> atomic_runtime;

    std::size_t job = 0;
    for (const auto engine : engines) {
        std::cout << "\nEngine: " << engine << "\n";
        sweep::ResultSink table({"policy", "runtime (ms)", "vs atomic",
                                 "fast ratio", "opened", "committed",
                                 "aborted", "retries", "busy", "free flips",
                                 "dual reclaims"});
        for (const auto policy : sim::policy_names()) {
            const auto& r = runs[job++];
            if (engine == "off")
                atomic_runtime[std::string(policy)] = r.runtime_ns;
            const double atomic = static_cast<double>(
                atomic_runtime[std::string(policy)]);
            table.row()
                .cell(std::string(policy))
                .cell(r.seconds() * 1e3, 1)
                .cell(static_cast<double>(r.runtime_ns) / atomic, 3)
                .cell(r.fast_ratio, 3)
                .cell(r.totals.tx_opened)
                .cell(r.totals.tx_committed)
                .cell(r.totals.tx_aborted)
                .cell(r.totals.tx_retries)
                .cell(r.totals.failed_tx_busy)
                .cell(r.totals.tx_free_flips)
                .cell(r.totals.tx_dual_reclaims);
        }
        emit(table, opt);
    }
    return 0;
}
