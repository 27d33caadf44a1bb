/**
 * @file
 * Statistical property tests on the workload generators: the paper's
 * claims about each application's access pattern must actually hold in
 * the emitted page streams (hot-set concentration, skew direction,
 * level-frequency gradients, phase recency).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <ostream>
#include <vector>

#include "workloads/btree.hpp"
#include "workloads/factory.hpp"
#include "workloads/graph.hpp"

namespace artmem::workloads {
namespace {

constexpr Bytes kPage = 2ull << 20;

std::vector<std::uint64_t>
page_histogram(AccessGenerator& gen, std::size_t pages)
{
    std::vector<std::uint64_t> counts(pages, 0);
    std::vector<PageId> buf(8192);
    std::size_t n;
    while ((n = gen.fill(buf)) > 0)
        for (std::size_t i = 0; i < n; ++i)
            if (buf[i] < pages)
                ++counts[buf[i]];
    return counts;
}

/** Fraction of accesses landing on the hottest @p k pages. */
double
top_k_share(std::vector<std::uint64_t> counts, std::size_t k)
{
    std::sort(counts.begin(), counts.end(), std::greater<>());
    std::uint64_t total = 0, top = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        total += counts[i];
        if (i < k)
            top += counts[i];
    }
    return total == 0 ? 0.0
                      : static_cast<double>(top) /
                            static_cast<double>(total);
}

struct SkewCase {
    const char* workload;
    /** Hottest 10% of pages must hold at least this access share. */
    double min_top_decile_share;
    /** ...and at most this much (sanity against degenerate spikes). */
    double max_top_decile_share;
};

/**
 * Prints a case by value. gtest's default dump of the raw bytes would
 * include the address of the workload string, which ASLR moves on
 * every run, so the test names that ctest discovers would change with
 * every build.
 */
void
PrintTo(const SkewCase& c, std::ostream* os)
{
    *os << '{' << c.workload << ", " << c.min_top_decile_share << ", "
        << c.max_top_decile_share << '}';
}

class WorkloadSkew : public ::testing::TestWithParam<SkewCase>
{
};

TEST_P(WorkloadSkew, TopDecileShareInExpectedBand)
{
    const auto& c = GetParam();
    auto gen = make_workload(c.workload, kPage, 400000, 17);
    const auto pages =
        static_cast<std::size_t>(gen->footprint() / kPage);
    const auto counts = page_histogram(*gen, pages);
    const double share = top_k_share(counts, pages / 10);
    EXPECT_GE(share, c.min_top_decile_share) << c.workload;
    EXPECT_LE(share, c.max_top_decile_share) << c.workload;
}

INSTANTIATE_TEST_SUITE_P(
    Table3, WorkloadSkew,
    ::testing::Values(
        // ycsb: zipf 0.99 -> strongly skewed
        SkewCase{"ycsb", 0.55, 1.0},
        // cc: compact hub block -> strongly skewed (Fig. 10b)
        SkewCase{"cc", 0.55, 1.0},
        // sssp: "minor differences in access frequency" (Fig. 10a)
        SkewCase{"sssp", 0.15, 0.65},
        // dlrm: "largely unskewed" embeddings + small dense region
        SkewCase{"dlrm", 0.30, 0.75},
        // xsbench: hot unionized grid over a large uniform remainder
        SkewCase{"xsbench", 0.55, 0.95},
        // uniform control: top decile holds ~10%
        SkewCase{"uniform", 0.08, 0.15}),
    [](const auto& suite_info) {
        return std::string(suite_info.param.workload);
    });

TEST(BtreeLevels, UpperLevelsExponentiallyHotter)
{
    Btree::Params params;
    params.footprint = 1ull << 30;
    params.total_accesses = 300000;
    Btree gen(params, kPage, 21);
    const auto pages =
        static_cast<std::size_t>(params.footprint / kPage);
    const auto counts = page_histogram(gen, pages);
    // Page 0 holds the root + top levels: it must dominate any page in
    // the leaf half of the address space by a wide margin.
    std::uint64_t max_leaf = 0;
    for (std::size_t p = pages / 2; p < pages; ++p)
        max_leaf = std::max(max_leaf, counts[p]);
    EXPECT_GT(counts[0], 20 * std::max<std::uint64_t>(1, max_leaf));
}

TEST(GraphPresets, ScrambleSpreadsTheHotSet)
{
    // CC (unscrambled) must concentrate its top decile into contiguous
    // runs; PR (scrambled) must not.
    auto run_longest_hot_run = [](const GraphWorkload::Params& params) {
        GraphWorkload gen(params, kPage, 23);
        const auto pages =
            static_cast<std::size_t>(params.footprint / kPage);
        auto counts = page_histogram(gen, pages);
        // Mark the hottest 5% of pages, find the longest contiguous run.
        auto sorted = counts;
        std::sort(sorted.begin(), sorted.end(), std::greater<>());
        const auto threshold = sorted[pages / 20];
        std::size_t longest = 0, current = 0;
        for (std::size_t p = 0; p < pages; ++p) {
            if (counts[p] >= threshold && counts[p] > 0)
                longest = std::max(longest, ++current);
            else
                current = 0;
        }
        return static_cast<double>(longest) / static_cast<double>(pages);
    };
    const double cc_run =
        run_longest_hot_run(GraphWorkload::cc(300000));
    const double pr_run =
        run_longest_hot_run(GraphWorkload::pr(300000));
    EXPECT_GT(cc_run, 3.0 * pr_run);
}

TEST(LiblinearPhases, WarmRegionBecomesHot)
{
    // Section 6.2: Liblinear's early phase is near-uniform; the warm
    // region then becomes the hot working set. Compare the warm-region
    // share between the first and last thirds of the run.
    auto gen = make_workload("liblinear", kPage, 600000, 31);
    const auto pages =
        static_cast<std::size_t>(gen->footprint() / kPage);
    const PageId warm_lo = static_cast<PageId>(
        (10ull << 30) / kPage);
    const PageId warm_hi = static_cast<PageId>(
        (24ull << 30) / kPage);
    std::vector<PageId> buf(4096);
    std::uint64_t emitted = 0, early_in = 0, early_n = 0, late_in = 0,
                  late_n = 0;
    std::size_t n;
    while ((n = gen->fill(buf)) > 0) {
        for (std::size_t i = 0; i < n; ++i, ++emitted) {
            const bool in_warm =
                buf[i] >= warm_lo && buf[i] < warm_hi;
            if (emitted < 200000) {
                early_in += in_warm;
                ++early_n;
            } else if (emitted >= 400000) {
                late_in += in_warm;
                ++late_n;
            }
        }
    }
    ASSERT_GT(early_n, 0u);
    ASSERT_GT(late_n, 0u);
    const double early_share =
        static_cast<double>(early_in) / static_cast<double>(early_n);
    const double late_share =
        static_cast<double>(late_in) / static_cast<double>(late_n);
    EXPECT_GT(late_share, early_share + 0.2);
    (void)pages;
}

}  // namespace
}  // namespace artmem::workloads
