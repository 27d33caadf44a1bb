/**
 * @file
 * Unit tests for the active/inactive LRU list substrate.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "lru/lru_lists.hpp"
#include "util/rng.hpp"

namespace artmem::lru {

/** Test-only access to the stamp clocks (friend of LruLists). */
struct LruListsTestPeer {
    static constexpr std::uint32_t kMaxStamp = LruLists::kMaxStamp;
    static std::uint32_t& head_clock(LruLists& l) { return l.head_clock_; }
    static std::uint32_t& tail_clock(LruLists& l) { return l.tail_clock_; }
};

namespace {

using memsim::Tier;

TEST(ListId, MappingHelpers)
{
    EXPECT_EQ(list_id(Tier::kFast, true), ListId::kFastActive);
    EXPECT_EQ(list_id(Tier::kFast, false), ListId::kFastInactive);
    EXPECT_EQ(list_id(Tier::kSlow, true), ListId::kSlowActive);
    EXPECT_EQ(list_id(Tier::kSlow, false), ListId::kSlowInactive);
    EXPECT_EQ(list_tier(ListId::kSlowActive), Tier::kSlow);
    EXPECT_TRUE(list_active(ListId::kFastActive));
    EXPECT_FALSE(list_active(ListId::kSlowInactive));
}

TEST(LruLists, InsertHeadOrdering)
{
    LruLists l(8);
    l.insert_head(1, ListId::kFastActive);
    l.insert_head(2, ListId::kFastActive);
    l.insert_head(3, ListId::kFastActive);
    EXPECT_EQ(l.head(ListId::kFastActive), 3u);
    EXPECT_EQ(l.tail(ListId::kFastActive), 1u);
    EXPECT_EQ(l.next(3), 2u);
    EXPECT_EQ(l.prev(1), 2u);
    EXPECT_EQ(l.size(ListId::kFastActive), 3u);
}

TEST(LruLists, InsertTailOrdering)
{
    LruLists l(8);
    l.insert_tail(1, ListId::kSlowInactive);
    l.insert_tail(2, ListId::kSlowInactive);
    EXPECT_EQ(l.head(ListId::kSlowInactive), 1u);
    EXPECT_EQ(l.tail(ListId::kSlowInactive), 2u);
}

TEST(LruLists, RemoveRelinks)
{
    LruLists l(8);
    for (PageId p : {1, 2, 3})
        l.insert_head(p, ListId::kFastActive);
    l.remove(2);
    EXPECT_EQ(l.where(2), ListId::kNone);
    EXPECT_EQ(l.next(3), 1u);
    EXPECT_EQ(l.prev(1), 3u);
    EXPECT_EQ(l.size(ListId::kFastActive), 2u);
    // Removing an unlinked page is a no-op.
    l.remove(2);
    EXPECT_EQ(l.size(ListId::kFastActive), 2u);
}

TEST(LruLists, RemoveHeadAndTail)
{
    LruLists l(8);
    for (PageId p : {1, 2, 3})
        l.insert_head(p, ListId::kFastActive);
    l.remove(3);  // head
    EXPECT_EQ(l.head(ListId::kFastActive), 2u);
    l.remove(1);  // tail
    EXPECT_EQ(l.tail(ListId::kFastActive), 2u);
    l.remove(2);  // only element
    EXPECT_EQ(l.head(ListId::kFastActive), kInvalidPage);
    EXPECT_EQ(l.tail(ListId::kFastActive), kInvalidPage);
}

TEST(LruLists, TouchInsertsUnlinkedOnInactive)
{
    LruLists l(8);
    l.touch(4, Tier::kSlow);
    EXPECT_EQ(l.where(4), ListId::kSlowInactive);
    EXPECT_TRUE(l.referenced(4));
}

TEST(LruLists, SecondTouchActivates)
{
    LruLists l(8);
    l.touch(4, Tier::kSlow);
    l.touch(4, Tier::kSlow);
    EXPECT_EQ(l.where(4), ListId::kSlowActive);
}

TEST(LruLists, TouchRotatesActiveToHead)
{
    LruLists l(8);
    l.insert_head(1, ListId::kFastActive);
    l.insert_head(2, ListId::kFastActive);
    l.touch(1, Tier::kFast);
    EXPECT_EQ(l.head(ListId::kFastActive), 1u);
}

TEST(LruLists, TouchRehomesAfterMigration)
{
    LruLists l(8);
    l.insert_head(1, ListId::kSlowActive);
    // The page migrated to fast since; the next touch re-homes it.
    l.touch(1, Tier::kFast);
    EXPECT_EQ(l.where(1), ListId::kFastActive);
}

TEST(LruLists, AgeActiveDeactivatesUnreferenced)
{
    LruLists l(8);
    for (PageId p : {1, 2, 3})
        l.insert_head(p, ListId::kFastActive);
    l.set_referenced(1);  // tail is referenced: gets a second chance
    const auto deactivated = l.age_active(Tier::kFast, 3);
    EXPECT_EQ(deactivated, 2u);
    EXPECT_EQ(l.where(1), ListId::kFastActive);
    EXPECT_EQ(l.where(2), ListId::kFastInactive);
    EXPECT_EQ(l.where(3), ListId::kFastInactive);
    EXPECT_FALSE(l.referenced(1));  // second chance consumed the bit
}

TEST(LruLists, ScanInactiveSplitsReferenced)
{
    LruLists l(8);
    l.insert_head(1, ListId::kFastInactive);
    l.insert_head(2, ListId::kFastInactive);
    l.set_referenced(2);
    std::vector<PageId> candidates;
    const auto n = l.scan_inactive(Tier::kFast, 2, candidates);
    EXPECT_EQ(n, 1u);
    ASSERT_EQ(candidates.size(), 1u);
    EXPECT_EQ(candidates[0], 1u);          // unreferenced: candidate
    EXPECT_EQ(l.where(2), ListId::kFastActive);  // referenced: activated
}

TEST(LruLists, SizesStayConsistentUnderChurn)
{
    LruLists l(64);
    // Property: after arbitrary operations, sum of list sizes equals
    // the number of linked pages and traversals match sizes.
    for (PageId p = 0; p < 64; ++p)
        l.touch(p, p % 2 ? Tier::kFast : Tier::kSlow);
    for (PageId p = 0; p < 64; p += 3)
        l.touch(p, p % 2 ? Tier::kFast : Tier::kSlow);
    for (PageId p = 0; p < 64; p += 5)
        l.remove(p);
    std::size_t linked = 0;
    for (PageId p = 0; p < 64; ++p)
        linked += l.where(p) != ListId::kNone;
    std::size_t total = 0;
    for (auto id : {ListId::kFastActive, ListId::kFastInactive,
                    ListId::kSlowActive, ListId::kSlowInactive}) {
        std::size_t walk = 0;
        for (PageId p = l.head(id); p != kInvalidPage; p = l.next(p))
            ++walk;
        EXPECT_EQ(walk, l.size(id));
        total += walk;
    }
    EXPECT_EQ(total, linked);
}

/** Head-to-tail page order of every list. */
std::vector<std::vector<PageId>>
list_orders(const LruLists& l)
{
    std::vector<std::vector<PageId>> out;
    for (auto id : {ListId::kFastActive, ListId::kFastInactive,
                    ListId::kSlowActive, ListId::kSlowInactive}) {
        out.emplace_back();
        for (PageId p = l.head(id); p != kInvalidPage; p = l.next(p))
            out.back().push_back(p);
    }
    return out;
}

/** True when stamps fall strictly from head to tail on every list. */
testing::AssertionResult
stamps_descend(const LruLists& l)
{
    for (const auto& order : list_orders(l)) {
        for (std::size_t i = 1; i < order.size(); ++i) {
            if (l.stamp(order[i]) >= l.stamp(order[i - 1])) {
                return testing::AssertionFailure()
                       << "page " << order[i] << " (stamp "
                       << l.stamp(order[i]) << ") follows page "
                       << order[i - 1] << " (stamp "
                       << l.stamp(order[i - 1]) << ")";
            }
        }
    }
    return testing::AssertionSuccess();
}

TEST(LruLists, StampsFollowListOrderAcrossRenumbers)
{
    // Head inserts (touch, move_to_head, aging) and tail inserts (TPP's
    // demotion path) interleave on every list; every so often a clock
    // is pushed to the edge of the stamp range so the next insert at
    // that end renumbers all four lists. Stamps must fall strictly from
    // head to tail throughout, referenced bits must survive, and a
    // renumber must leave both clocks away from the edges.
    using Peer = LruListsTestPeer;
    constexpr std::uint32_t kMax = Peer::kMaxStamp;
    constexpr std::size_t kPages = 96;
    constexpr ListId kLists[] = {ListId::kFastActive, ListId::kFastInactive,
                                 ListId::kSlowActive, ListId::kSlowInactive};
    std::size_t renumbers[2] = {0, 0};  // at the head, at the tail
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        Rng rng(seed);
        LruLists l(kPages);
        for (int step = 0; step < 2000; ++step) {
            const auto page = static_cast<PageId>(rng.next_below(kPages));
            const ListId list = kLists[rng.next_below(4)];
            const Tier tier = rng.next_below(2) == 0 ? Tier::kFast
                                                     : Tier::kSlow;
            switch (rng.next_below(8)) {
            case 0:
                l.remove(page);
                l.insert_tail(page, list);
                break;
            case 1:
                l.move_to_head(page, list);
                break;
            case 2:
                l.remove(page);
                break;
            case 3:
                (void)l.age_active(tier, 1 + rng.next_below(4));
                break;
            case 4: {
                // Push one clock to the edge of the range (or one short
                // of it); the next insert at that end renumbers.
                const bool at_head = rng.next_below(2) == 0;
                const auto slack = static_cast<std::uint32_t>(
                    rng.next_below(2));
                std::vector<bool> referenced(kPages);
                for (PageId p = 0; p < kPages; ++p)
                    referenced[p] = l.referenced(p);
                if (at_head)
                    Peer::head_clock(l) = kMax - slack;
                else
                    Peer::tail_clock(l) = slack;
                for (std::uint32_t i = 0; i <= slack; ++i) {
                    const auto p =
                        static_cast<PageId>(rng.next_below(kPages));
                    l.remove(p);
                    if (at_head)
                        l.insert_head(p, list);
                    else
                        l.insert_tail(p, list);
                }
                ASSERT_NE(Peer::head_clock(l), kMax);
                ASSERT_NE(Peer::tail_clock(l), 0u);
                ASSERT_LT(Peer::tail_clock(l), Peer::head_clock(l));
                for (PageId p = 0; p < kPages; ++p)
                    ASSERT_EQ(l.referenced(p), referenced[p]) << "page " << p;
                ++renumbers[at_head ? 0 : 1];
                break;
            }
            default:
                l.touch(page, tier);
                break;
            }
            ASSERT_TRUE(stamps_descend(l)) << "step " << step;
        }
    }
    EXPECT_GT(renumbers[0], 0u);
    EXPECT_GT(renumbers[1], 0u);
}

TEST(LruLists, RenumberKeepsOrderAndCentresClocks)
{
    using Peer = LruListsTestPeer;
    constexpr std::uint32_t kMax = Peer::kMaxStamp;
    LruLists l(16);
    for (PageId p : {1, 2, 3})
        l.insert_head(p, ListId::kSlowActive);
    for (PageId p : {4, 5})
        l.insert_tail(p, ListId::kSlowActive);
    l.insert_head(6, ListId::kFastInactive);
    // Head order is 3 2 1 4 5; the next head insert renumbers first.
    Peer::head_clock(l) = kMax;
    l.insert_head(7, ListId::kSlowActive);
    const std::vector<PageId> want = {7, 3, 2, 1, 4, 5};
    EXPECT_EQ(list_orders(l)[2], want);
    EXPECT_TRUE(stamps_descend(l));
    // The longest list held five pages: they were renumbered base+1 ..
    // base+5 from the tail, base centred so both clocks have room.
    const std::uint32_t base = (kMax - 5) / 2;
    EXPECT_EQ(l.stamp(5), base + 1);
    EXPECT_EQ(l.stamp(3), base + 5);
    EXPECT_EQ(l.stamp(6), base + 1);
    EXPECT_EQ(l.stamp(7), base + 6);
    EXPECT_EQ(Peer::tail_clock(l), base);
    EXPECT_EQ(Peer::head_clock(l), base + 6);
}

}  // namespace
}  // namespace artmem::lru
