/**
 * @file
 * Unit tests for the EMA histogram bins and the access-ratio tracker.
 */
#include <gtest/gtest.h>

#include "stats/access_ratio.hpp"
#include "stats/ema_bins.hpp"

namespace artmem::stats {
namespace {

using memsim::Tier;

TEST(EmaBins, BinOfPowersOfTwo)
{
    EXPECT_EQ(EmaBins::bin_of(0), 0);
    EXPECT_EQ(EmaBins::bin_of(1), 1);
    EXPECT_EQ(EmaBins::bin_of(2), 2);
    EXPECT_EQ(EmaBins::bin_of(3), 2);
    EXPECT_EQ(EmaBins::bin_of(4), 3);
    EXPECT_EQ(EmaBins::bin_of(7), 3);
    EXPECT_EQ(EmaBins::bin_of(8), 4);
    EXPECT_EQ(EmaBins::bin_of(16), 5);
}

TEST(EmaBins, BinFloorInvertsBinOf)
{
    for (int bin = 1; bin < EmaBins::kBins; ++bin) {
        const auto floor = EmaBins::bin_floor(bin);
        EXPECT_EQ(EmaBins::bin_of(floor), bin) << bin;
        if (floor > 1) {
            EXPECT_EQ(EmaBins::bin_of(floor - 1), bin - 1) << bin;
        }
    }
}

TEST(EmaBins, RecordMovesPagesAcrossBins)
{
    EmaBins bins(4);
    EXPECT_EQ(bins.bin_pages(0), 4u);
    bins.record(0);
    EXPECT_EQ(bins.count(0), 1u);
    EXPECT_EQ(bins.bin_pages(0), 3u);
    EXPECT_EQ(bins.bin_pages(1), 1u);
    bins.record(0);
    EXPECT_EQ(bins.bin_pages(1), 0u);
    EXPECT_EQ(bins.bin_pages(2), 1u);
}

TEST(EmaBins, CoolHalvesCounts)
{
    EmaBins bins(2);
    for (int i = 0; i < 10; ++i)
        bins.record(0);
    bins.record(1);
    bins.cool();
    EXPECT_EQ(bins.count(0), 5u);
    EXPECT_EQ(bins.count(1), 0u);
    EXPECT_EQ(bins.cooling_events(), 1u);
    EXPECT_EQ(bins.samples_since_cooling(), 0u);
    // Bin populations rebuilt.
    std::uint64_t total = 0;
    for (int b = 0; b < EmaBins::kBins; ++b)
        total += bins.bin_pages(b);
    EXPECT_EQ(total, 2u);
}

TEST(EmaBins, CoolingDueAfterPeriod)
{
    EmaBins bins(2, 5);
    for (int i = 0; i < 4; ++i)
        bins.record(0);
    EXPECT_FALSE(bins.cooling_due());
    bins.record(1);
    EXPECT_TRUE(bins.cooling_due());
    bins.cool();
    EXPECT_FALSE(bins.cooling_due());
}

TEST(EmaBins, CapacityThresholdSelectsFit)
{
    // 8 pages: 4 pages at count 32 (bin 6), 4 pages at count 2 (bin 2).
    EmaBins bins(8);
    for (PageId p = 0; p < 4; ++p)
        for (int i = 0; i < 32; ++i)
            bins.record(p);
    for (PageId p = 4; p < 8; ++p)
        for (int i = 0; i < 2; ++i)
            bins.record(p);
    // Capacity 4: the 4 hottest fit if the threshold keeps out bin 2.
    const auto t4 = bins.capacity_threshold(4);
    EXPECT_GT(t4, 2u);
    EXPECT_LE(t4, 32u);
    // Capacity 100: everything fits, threshold collapses to 1.
    EXPECT_EQ(bins.capacity_threshold(100), 1u);
}

TEST(EmaBins, PagesAtOrAboveAndCollect)
{
    EmaBins bins(4);
    for (int i = 0; i < 5; ++i)
        bins.record(1);
    for (int i = 0; i < 3; ++i)
        bins.record(2);
    EXPECT_EQ(bins.pages_at_or_above(4), 1u);
    EXPECT_EQ(bins.pages_at_or_above(3), 2u);
    std::vector<PageId> hot;
    EXPECT_EQ(bins.collect_at_or_above(3, hot), 2u);
    EXPECT_EQ(hot.size(), 2u);
}

TEST(EmaBins, SaturationSurvivesCooling)
{
    EmaBins bins(1);
    for (int i = 0; i < 200000; ++i)
        bins.record(0);
    const auto saturated = bins.count(0);
    EXPECT_LE(saturated, 1u << (EmaBins::kBins - 1));
    bins.cool();
    EXPECT_EQ(bins.count(0), saturated / 2);
}

TEST(EmaBins, HotIndexFollowsFloorAcrossCooling)
{
    EmaBins bins(8, 0, 4);
    EXPECT_EQ(bins.hot_floor(), 4u);
    for (int i = 0; i < 9; ++i)
        bins.record(5);  // 9: stays at the floor after one halving
    for (int i = 0; i < 4; ++i)
        bins.record(2);  // 4: falls below it
    for (int i = 0; i < 3; ++i)
        bins.record(7);  // 3: never reaches it
    EXPECT_EQ(bins.hot_pages(), (std::vector<PageId>{5, 2}));
    bins.cool();
    EXPECT_EQ(bins.hot_pages(), (std::vector<PageId>{5}));
    for (int i = 0; i < 2; ++i)
        bins.record(2);  // 2 -> 4: rejoins, once
    EXPECT_EQ(bins.hot_pages(), (std::vector<PageId>{5, 2}));
}

TEST(EmaBins, NoFloorKeepsNoIndex)
{
    EmaBins bins(4);
    for (int i = 0; i < 100; ++i)
        bins.record(1);
    EXPECT_EQ(bins.hot_floor(), 0u);
    EXPECT_TRUE(bins.hot_pages().empty());
}

TEST(AccessRatio, Equation1Discretization)
{
    AccessRatioTracker t(10);
    for (int i = 0; i < 9; ++i)
        t.record(Tier::kFast);
    t.record(Tier::kSlow);
    const auto tau = t.take();
    EXPECT_EQ(tau.state, 9);  // floor(9*10/10)
    EXPECT_NEAR(tau.raw_ratio, 0.9, 1e-12);
    EXPECT_EQ(tau.samples, 10u);
}

TEST(AccessRatio, AllFastIsK)
{
    AccessRatioTracker t(10);
    t.record(Tier::kFast);
    EXPECT_EQ(t.take().state, 10);
}

TEST(AccessRatio, AllSlowIsZero)
{
    AccessRatioTracker t(10);
    t.record(Tier::kSlow);
    EXPECT_EQ(t.take().state, 0);
}

TEST(AccessRatio, NoSamplesGetsDedicatedState)
{
    AccessRatioTracker t(10);
    const auto tau = t.take();
    EXPECT_EQ(tau.state, 11);  // k + 1
    EXPECT_TRUE(tau.no_samples(10));
    EXPECT_EQ(tau.samples, 0u);
}

TEST(AccessRatio, TakeResetsPeekDoesNot)
{
    AccessRatioTracker t(10);
    t.record(Tier::kFast);
    EXPECT_EQ(t.peek().samples, 1u);
    EXPECT_EQ(t.peek().samples, 1u);
    t.take();
    EXPECT_EQ(t.peek().samples, 0u);
}

class AccessRatioStateSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(AccessRatioStateSweep, StateMatchesFormula)
{
    // Property: for f fast hits out of 10, state == floor(f * k / 10).
    const int fast_hits = GetParam();
    AccessRatioTracker t(10);
    for (int i = 0; i < fast_hits; ++i)
        t.record(Tier::kFast);
    for (int i = fast_hits; i < 10; ++i)
        t.record(Tier::kSlow);
    EXPECT_EQ(t.take().state, fast_hits);  // k == total == 10
}

INSTANTIATE_TEST_SUITE_P(AllMixes, AccessRatioStateSweep,
                         ::testing::Range(0, 11));

}  // namespace
}  // namespace artmem::stats
