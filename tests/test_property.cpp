/**
 * @file
 * Property tests for the hot-path containers (DESIGN.md §9).
 *
 * LruLists and PebsSampler sit on the per-sample and per-access paths
 * and were inlined for the hot-path overhaul, so they get randomized
 * operation sequences checked against trivially correct standard-
 * library models: four std::lists (+ a referenced-bit map) for
 * LruLists, a countdown and a bounded std::deque for PebsSampler. Each
 * trial prints its seed via SCOPED_TRACE so any failure is replayable
 * by pinning kBaseSeed to the reported value.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <list>
#include <vector>

#include "lru/lru_lists.hpp"
#include "memsim/pebs.hpp"
#include "util/rng.hpp"

namespace artmem {
namespace {

using lru::ListId;
using lru::LruLists;
using memsim::PebsSample;
using memsim::PebsSampler;
using memsim::Tier;

constexpr std::uint64_t kBaseSeed = 0xa11ce5ee;

// ---------------------------------------------------------------------
// LruLists vs four std::lists.
// ---------------------------------------------------------------------

/** Naive mirror of LruLists: std::lists hold head -> tail order. */
struct LruModel {
    std::list<PageId> lists[4];
    std::vector<bool> referenced;

    explicit LruModel(std::size_t pages) : referenced(pages, false) {}

    int
    where(PageId page) const
    {
        for (int l = 0; l < 4; ++l)
            for (const PageId p : lists[l])
                if (p == page)
                    return l;
        return 4;  // kNone
    }

    void
    remove(PageId page)
    {
        const int l = where(page);
        if (l != 4)
            lists[l].remove(page);
    }

    void
    touch(PageId page, memsim::Tier tier)
    {
        const int active = tier == memsim::Tier::kFast ? 0 : 2;
        const int inactive = active + 1;
        const int current = where(page);
        if (current == 4) {
            referenced[page] = true;
            lists[inactive].push_front(page);
            return;
        }
        lists[current].remove(page);
        if (current == 0 || current == 2) {
            referenced[page] = true;
            lists[active].push_front(page);
        } else if (referenced[page]) {
            referenced[page] = false;
            lists[active].push_front(page);
        } else {
            referenced[page] = true;
            lists[inactive].push_front(page);
        }
    }

    std::size_t
    age_active(memsim::Tier tier, std::size_t scan_count)
    {
        const int active = tier == memsim::Tier::kFast ? 0 : 2;
        const int inactive = active + 1;
        std::size_t deactivated = 0;
        for (std::size_t i = 0; i < scan_count && !lists[active].empty();
             ++i) {
            const PageId page = lists[active].back();
            lists[active].pop_back();
            if (referenced[page]) {
                referenced[page] = false;
                lists[active].push_front(page);
            } else {
                lists[inactive].push_front(page);
                ++deactivated;
            }
        }
        return deactivated;
    }

    std::size_t
    scan_inactive(memsim::Tier tier, std::size_t scan_count,
                  std::vector<PageId>& candidates)
    {
        // LruLists::scan_inactive walks tail -> head via prev pointers
        // saved before any rotation; since only the visited page itself
        // can move, a tail -> head snapshot taken up front visits the
        // same pages in the same order.
        const int active = tier == memsim::Tier::kFast ? 0 : 2;
        const int inactive = active + 1;
        std::vector<PageId> order(lists[inactive].rbegin(),
                                  lists[inactive].rend());
        std::size_t produced = 0;
        for (std::size_t i = 0; i < scan_count && i < order.size(); ++i) {
            const PageId page = order[i];
            if (referenced[page]) {
                referenced[page] = false;
                lists[inactive].remove(page);
                lists[active].push_front(page);
            } else {
                candidates.push_back(page);
                ++produced;
            }
        }
        return produced;
    }
};

void
expect_lru_equal(const LruLists& lists, const LruModel& model)
{
    for (int l = 0; l < 4; ++l) {
        const auto list = static_cast<ListId>(l);
        ASSERT_EQ(lists.size(list), model.lists[l].size()) << "list " << l;
        // Forward walk head -> tail.
        PageId page = lists.head(list);
        for (const PageId expected : model.lists[l]) {
            ASSERT_EQ(page, expected) << "list " << l;
            ASSERT_EQ(lists.where(page), list);
            ASSERT_EQ(lists.referenced(page), model.referenced[page]);
            page = lists.next(page);
        }
        ASSERT_EQ(page, kInvalidPage) << "list " << l;
        // Backward walk tail -> head checks prev_ links too.
        page = lists.tail(list);
        for (auto it = model.lists[l].rbegin(); it != model.lists[l].rend();
             ++it) {
            ASSERT_EQ(page, *it) << "list " << l;
            page = lists.prev(page);
        }
        ASSERT_EQ(page, kInvalidPage) << "list " << l;
    }
}

TEST(Property, LruListsMatchStdListModel)
{
    constexpr std::size_t kPages = 96;
    for (int trial = 0; trial < 24; ++trial) {
        const std::uint64_t seed =
            derive_seed(kBaseSeed, static_cast<std::uint64_t>(trial));
        SCOPED_TRACE(testing::Message()
                     << "replay seed=" << seed << " (trial " << trial
                     << ")");
        Rng rng(seed);
        LruLists lists(kPages);
        LruModel model(kPages);
        for (int op = 0; op < 2000; ++op) {
            const auto page =
                static_cast<PageId>(rng.next_below(kPages));
            const auto tier = rng.next_bool(0.5) ? memsim::Tier::kFast
                                                 : memsim::Tier::kSlow;
            switch (rng.next_below(8)) {
            case 0:
            case 1:
            case 2:
            case 3:
                lists.touch(page, tier);
                model.touch(page, tier);
                break;
            case 4: {
                // Unlinked insert at either end of a random list.
                if (lists.where(page) != ListId::kNone)
                    break;
                const auto list =
                    static_cast<ListId>(rng.next_below(4));
                if (rng.next_bool(0.5)) {
                    lists.insert_head(page, list);
                    model.lists[static_cast<int>(list)].push_front(page);
                } else {
                    lists.insert_tail(page, list);
                    model.lists[static_cast<int>(list)].push_back(page);
                }
                break;
            }
            case 5:
                lists.remove(page);
                model.remove(page);
                break;
            case 6: {
                const std::size_t scans = 1 + rng.next_below(16);
                ASSERT_EQ(lists.age_active(tier, scans),
                          model.age_active(tier, scans));
                break;
            }
            case 7: {
                const std::size_t scans = 1 + rng.next_below(16);
                std::vector<PageId> got;
                std::vector<PageId> want;
                ASSERT_EQ(lists.scan_inactive(tier, scans, got),
                          model.scan_inactive(tier, scans, want));
                ASSERT_EQ(got, want);
                break;
            }
            }
            if (op % 250 == 249)
                expect_lru_equal(lists, model);
            if (testing::Test::HasFailure())
                return;
        }
        expect_lru_equal(lists, model);
    }
}

// ---------------------------------------------------------------------
// PebsSampler vs a countdown and a bounded std::deque.
// ---------------------------------------------------------------------

/** Alternate tiers by page parity so drained tiers are checked too. */
Tier
tier_of(PageId page)
{
    return page % 2 == 0 ? Tier::kFast : Tier::kSlow;
}

TEST(Property, PebsSamplerMatchesDequeModel)
{
    for (int trial = 0; trial < 24; ++trial) {
        const std::uint64_t seed = derive_seed(
            kBaseSeed ^ 0x5151ull, static_cast<std::uint64_t>(trial));
        SCOPED_TRACE(testing::Message()
                     << "replay seed=" << seed << " (trial " << trial
                     << ")");
        Rng rng(seed);
        // Any capacity, powers of two or not: the buffer holds exactly
        // as many records as it is configured for.
        const std::size_t cap = 1 + rng.next_below(96);
        const auto period = static_cast<std::uint32_t>(1 + rng.next_below(4));
        SCOPED_TRACE(testing::Message()
                     << "capacity=" << cap << " period=" << period);
        PebsSampler sampler({.period = period, .buffer_capacity = cap});

        std::deque<PageId> model;
        std::uint32_t countdown = period;
        std::uint64_t model_recorded = 0;
        std::uint64_t model_dropped = 0;
        PageId next_page = 0;
        const auto drain_and_compare = [&](std::size_t max_items) {
            std::vector<PebsSample> got;
            ASSERT_EQ(sampler.drain(got, max_items),
                      std::min(max_items, model.size()));
            for (const PebsSample& sample : got) {
                ASSERT_EQ(sample.page, model.front());
                ASSERT_EQ(sample.tier, tier_of(sample.page));
                model.pop_front();
            }
        };
        for (int op = 0; op < 4000; ++op) {
            switch (rng.next_below(4)) {
            case 0:
            case 1: {
                // Observation burst: overflows on purpose (a drain
                // blackout leaves the sampler recording).
                const std::size_t burst =
                    1 + rng.next_below((cap + 8) * period);
                for (std::size_t i = 0; i < burst; ++i) {
                    sampler.observe(next_page, tier_of(next_page));
                    if (--countdown == 0) {
                        countdown = period;
                        ++model_recorded;
                        if (model.size() < cap)
                            model.push_back(next_page);
                        else
                            ++model_dropped;
                    }
                    ++next_page;
                }
                break;
            }
            case 2:
                drain_and_compare(1);
                break;
            case 3:
                drain_and_compare(rng.next_below(cap + 2));
                break;
            }
            ASSERT_EQ(sampler.recorded(), model_recorded);
            ASSERT_EQ(sampler.dropped(), model_dropped);
            if (testing::Test::HasFailure())
                return;
        }
        drain_and_compare(cap + 1);
        ASSERT_TRUE(model.empty());
    }
}

}  // namespace
}  // namespace artmem
