/**
 * @file
 * Property tests for the hot-path containers (DESIGN.md §9).
 *
 * LruLists and RingBuffer sit on the per-sample and per-access paths
 * and were inlined for the hot-path overhaul, so they get randomized
 * operation sequences checked against trivially correct standard-
 * library models: four std::lists (+ a referenced-bit map) for
 * LruLists, a bounded std::deque for RingBuffer. Each trial prints its
 * seed via SCOPED_TRACE so any failure is replayable by pinning
 * kBaseSeed to the reported value.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <list>
#include <vector>

#include "lru/lru_lists.hpp"
#include "memsim/ring_buffer.hpp"
#include "util/rng.hpp"

namespace artmem {
namespace {

using lru::ListId;
using lru::LruLists;
using memsim::RingBuffer;

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
// RingBuffer vs a bounded std::deque.
// ---------------------------------------------------------------------

TEST(Property, RingBufferMatchesDequeModel)
{
    for (int trial = 0; trial < 24; ++trial) {
        const std::uint64_t seed = derive_seed(
            kBaseSeed ^ 0x5151ull, static_cast<std::uint64_t>(trial));
        SCOPED_TRACE(testing::Message()
                     << "replay seed=" << seed << " (trial " << trial
                     << ")");
        Rng rng(seed);
        const std::size_t requested = 1 + rng.next_below(96);
        RingBuffer<std::uint64_t> ring(requested);
        std::size_t cap = 1;
        while (cap < requested)
            cap <<= 1;
        ASSERT_EQ(ring.capacity(), cap);

        std::deque<std::uint64_t> model;
        std::uint64_t model_dropped = 0;
        std::uint64_t next_value = 0;
        for (int op = 0; op < 4000; ++op) {
            switch (rng.next_below(4)) {
            case 0:
            case 1: {
                // Push burst — overflows on purpose ("blackout" drain
                // pauses leave the producer running).
                const std::size_t burst = 1 + rng.next_below(cap + 8);
                for (std::size_t i = 0; i < burst; ++i) {
                    const bool pushed = ring.push(next_value);
                    if (model.size() < cap) {
                        ASSERT_TRUE(pushed);
                        model.push_back(next_value);
                    } else {
                        ASSERT_FALSE(pushed);
                        ++model_dropped;
                    }
                    ++next_value;
                }
                break;
            }
            case 2: {
                auto got = ring.pop();
                if (model.empty()) {
                    ASSERT_FALSE(got.has_value());
                } else {
                    ASSERT_TRUE(got.has_value());
                    ASSERT_EQ(*got, model.front());
                    model.pop_front();
                }
                break;
            }
            case 3: {
                const std::size_t max_items = rng.next_below(cap + 2);
                std::vector<std::uint64_t> got;
                ring.drain(got, max_items);
                std::vector<std::uint64_t> want;
                while (want.size() < max_items && !model.empty()) {
                    want.push_back(model.front());
                    model.pop_front();
                }
                ASSERT_EQ(got, want);
                break;
            }
            }
            ASSERT_EQ(ring.size(), model.size());
            ASSERT_EQ(ring.dropped(), model_dropped);
            if (testing::Test::HasFailure())
                return;
        }
    }
}

}  // namespace
}  // namespace artmem
