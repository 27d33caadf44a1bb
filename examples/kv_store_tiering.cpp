/**
 * @file
 * Domain example: an in-memory key-value store (Memcached + YCSB)
 * whose hot set shifts mid-run.
 *
 * YCSB runs A-B-C-F-D; workload D switches popularity to the most
 * recently inserted keys at the top of the arena. The example prints a
 * timeline of ArtMem's fast-tier access ratio and migrations so you can
 * watch the RL agent detect the shift (ratio drop) and re-place the new
 * hot set — the adaptivity that static-threshold systems miss.
 *
 *   ./kv_store_tiering --ratio=1:4 --accesses=6000000
 */
#include <iostream>

#include "sim/experiment.hpp"
#include "util/cli.hpp"
#include "util/output.hpp"
#include "util/table.hpp"

int
main(int argc, char** argv)
{
    using namespace artmem;
    const auto args = CliArgs::parse(argc, argv);
    static constexpr std::string_view kFlags[] = {"ratio", "accesses",
                                                  "seed"};
    args.reject_unknown({kFlags},
                        "kv_store_tiering reads --ratio --accesses --seed");

    sim::RunSpec spec;
    spec.workload = "ycsb";
    spec.policy = "artmem";
    spec.accesses = args.get_uint<std::uint64_t>("accesses", 6000000);
    spec.seed = args.get_uint<std::uint64_t>("seed", 42);
    spec.engine.record_timeline = true;

    spec.ratio = sim::parse_ratio_cli(args, {1, 4});

    std::cout << "KV-store tiering: YCSB A-B-C-F-D under ArtMem, ratio "
              << spec.ratio.label() << "\n\n";

    const auto r = sim::run_experiment(spec);

    Table table({"t (ms)", "progress %", "fast-tier ratio",
                 "promoted", "demoted"});
    std::uint64_t done = 0;
    for (std::size_t i = 0; i < r.timeline.size(); ++i) {
        const auto& iv = r.timeline[i];
        done += iv.accesses;
        if (i % 3 != 0)
            continue;
        table.row()
            .cell(static_cast<double>(iv.end_time) * 1e-6, 0)
            .cell(100.0 * static_cast<double>(done) /
                      static_cast<double>(r.accesses),
                  0)
            .cell(iv.fast_ratio, 3)
            .cell(iv.promoted)
            .cell(iv.demoted);
    }
    table.emit(std::cout, Table::Format::kTable);

    std::cout << "\nOverall: runtime "
              << format_fixed(r.seconds() * 1e3, 1) << " ms, fast-tier "
              << format_fixed(r.fast_ratio, 3) << ", migrated "
              << r.totals.migrated_pages()
              << " pages.\nThe last ~20% of the run is workload D: watch "
                 "the ratio dip and recover as the hot set moves.\n";
    return finish_stdout();
}
