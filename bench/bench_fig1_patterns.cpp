/**
 * @file
 * Figure 1 reproduction: the four manually generated access patterns,
 * rendered as time x address heatmaps (access counts per address bucket
 * per time decile) so the hot regions and phase behaviour of S1-S4 are
 * visible in text form.
 */
#include <vector>

#include "bench_common.hpp"
#include "workloads/masim.hpp"
#include "workloads/patterns.hpp"

namespace {

constexpr artmem::Bytes kPage = 2ull << 20;
constexpr int kTimeBuckets = 10;
constexpr int kAddrBuckets = 16;

/** Per-pattern product of the sweep: the bucketed access counts. */
struct Heatmap {
    std::vector<std::vector<std::uint64_t>> heat;
};

}  // namespace

int
main(int argc, char** argv)
{
    using namespace artmem;
    using namespace artmem::bench;
    const auto opt = BenchOptions::parse(argc, argv, 2000000);

    std::cout << "Figure 1: four manually generated access patterns\n"
              << "(rows: time deciles; columns: 2 GiB address buckets; "
                 "cell: % of the decile's accesses)\n";

    // Heatmaps are not RunResults, so this sweep goes through the
    // runner's generic map(): one job per pattern, results by index.
    auto runner = make_runner(opt);
    const auto maps = runner.map<Heatmap>(4, [&opt](std::size_t idx) {
        const int k = static_cast<int>(idx) + 1;
        auto spec = workloads::pattern_spec(k, opt.accesses);
        workloads::Masim gen(spec, kPage, opt.seed);
        const auto pages = static_cast<PageId>(spec.footprint / kPage);

        Heatmap out;
        out.heat.assign(static_cast<std::size_t>(kTimeBuckets),
                        std::vector<std::uint64_t>(
                            static_cast<std::size_t>(kAddrBuckets), 0));
        std::vector<PageId> buf(8192);
        std::uint64_t emitted = 0;
        std::size_t n;
        while ((n = gen.fill(buf)) > 0) {
            for (std::size_t i = 0; i < n; ++i) {
                const auto t = static_cast<int>(
                    emitted * kTimeBuckets / opt.accesses);
                const auto a = static_cast<int>(
                    static_cast<std::uint64_t>(buf[i]) * kAddrBuckets /
                    pages);
                ++out.heat[static_cast<std::size_t>(
                    std::min(t, kTimeBuckets - 1))][static_cast<std::size_t>(
                    std::min(a, kAddrBuckets - 1))];
                ++emitted;
            }
        }
        return out;
    });

    for (int k = 1; k <= 4; ++k) {
        const auto spec = workloads::pattern_spec(k, opt.accesses);
        const auto& heat = maps[static_cast<std::size_t>(k - 1)].heat;

        std::cout << "\nPattern S" << k << " (" << spec.phases.size()
                  << " phase(s), 32 GiB footprint):\n";
        std::vector<std::string> headers = {"time"};
        for (int a = 0; a < kAddrBuckets; ++a)
            headers.push_back(std::to_string(a * 2) + "G");
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
