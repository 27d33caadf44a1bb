/**
 * @file
 * Figure 10 reproduction: DAMON-style access footprints of SSSP and
 * CC, shown as time x address heatmaps. CC should show hot data
 * concentrated in a compact region with a sharp hot/cold separation;
 * SSSP a broader distribution with smaller frequency differences and a
 * moving frontier.
 */
#include <vector>

#include "bench_common.hpp"
#include "workloads/factory.hpp"

namespace {

constexpr artmem::Bytes kPage = 2ull << 20;
constexpr int kTimeBuckets = 10;
constexpr int kAddrBuckets = 20;

/** Per-workload product of the sweep. */
struct Heatmap {
    std::vector<std::vector<std::uint64_t>> heat;
    artmem::Bytes footprint = 0;
};

}  // namespace

int
main(int argc, char** argv)
{
    using namespace artmem;
    using namespace artmem::bench;
    const auto opt = BenchOptions::parse(argc, argv, 3000000);

    const std::vector<std::string> apps = {"sssp", "cc"};

    std::cout << "Figure 10: access footprints measured DAMON-style\n"
              << "(rows: time deciles; columns: address 5%-buckets; "
                 "cell: % of the decile's accesses)\n";

    // Heatmaps are not RunResults, so this sweep goes through the
    // runner's generic map(): one job per workload, results by index.
    auto runner = make_runner(opt);
    const auto maps =
        runner.map<Heatmap>(apps.size(), [&](std::size_t idx) {
            auto gen = workloads::make_workload(apps[idx], kPage,
                                                opt.accesses, opt.seed);
            const auto pages =
                static_cast<PageId>(gen->footprint() / kPage);

            Heatmap out;
            out.footprint = gen->footprint();
            out.heat.assign(static_cast<std::size_t>(kTimeBuckets),
                            std::vector<std::uint64_t>(
                                static_cast<std::size_t>(kAddrBuckets), 0));
            std::vector<PageId> buf(8192);
            std::uint64_t emitted = 0;
            std::size_t n;
            while ((n = gen->fill(buf)) > 0) {
                for (std::size_t i = 0; i < n; ++i) {
                    const auto t = static_cast<int>(
                        emitted * kTimeBuckets / opt.accesses);
                    const auto a = static_cast<int>(
                        static_cast<std::uint64_t>(buf[i]) * kAddrBuckets /
                        pages);
                    ++out.heat[static_cast<std::size_t>(std::min(
                        t, kTimeBuckets - 1))][static_cast<std::size_t>(
                        std::min(a, kAddrBuckets - 1))];
                    ++emitted;
                }
            }
            return out;
        });

    for (std::size_t w = 0; w < apps.size(); ++w) {
        const auto& heat = maps[w].heat;
        std::cout << "\nWorkload: " << apps[w] << " (footprint "
                  << maps[w].footprint / (1ull << 30) << " GiB)\n";
        std::vector<std::string> headers = {"time"};
        for (int a = 0; a < kAddrBuckets; ++a)
            headers.push_back(std::to_string(a * 5) + "%");
        Table table(std::move(headers));
        for (int t = 0; t < kTimeBuckets; ++t) {
            std::uint64_t row_total = 0;
            for (int a = 0; a < kAddrBuckets; ++a)
                row_total += heat[static_cast<std::size_t>(t)]
                                 [static_cast<std::size_t>(a)];
            auto& row = table.row().cell(std::to_string(t * 10) + "%");
            for (int a = 0; a < kAddrBuckets; ++a) {
                const auto count = heat[static_cast<std::size_t>(t)]
                                       [static_cast<std::size_t>(a)];
                const double pct =
                    row_total == 0
                        ? 0.0
                        : 100.0 * static_cast<double>(count) /
                              static_cast<double>(row_total);
                row.cell(pct, 1);
            }
        }
        emit(table, opt);
    }
    return finish_stdout();
}
