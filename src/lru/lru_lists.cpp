#include "lru/lru_lists.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace artmem::lru {

memsim::Tier
list_tier(ListId id)
{
    if (id == ListId::kNone)
        panic("list_tier(kNone)");
    return static_cast<int>(id) < 2 ? memsim::Tier::kFast
                                    : memsim::Tier::kSlow;
}

LruLists::LruLists(std::size_t page_count)
    : next_(page_count, kInvalidPage),
      prev_(page_count, kInvalidPage),
      meta_(page_count, kUnlinked)
{
    if (page_count > kMaxPages)
        fatal("LruLists: ", page_count, " pages exceed the ", kMaxPages,
              " whose order ", 32 - kStampShift, "-bit stamps can keep");
    for (int i = 0; i < 4; ++i) {
        heads_[i] = kInvalidPage;
        tails_[i] = kInvalidPage;
    }
}

void
LruLists::insert_tail(PageId page, ListId list)
{
    std::uint32_t& meta = meta_[page];
    if ((meta & kListMask) != kUnlinked)
        panic("LruLists::insert_tail: page ", page, " already linked");
    if (tail_clock_ == 0)
        renumber_stamps();
    const int l = static_cast<int>(list);
    prev_[page] = tails_[l];
    next_[page] = kInvalidPage;
    if (tails_[l] != kInvalidPage)
        next_[tails_[l]] = page;
    tails_[l] = page;
    if (heads_[l] == kInvalidPage)
        heads_[l] = page;
    meta = (--tail_clock_ << kStampShift) | (meta & kReferencedBit) |
           static_cast<std::uint32_t>(l);
    ++sizes_[l];
}

void
LruLists::renumber_stamps()
{
    std::size_t longest = 0;
    for (const std::size_t size : sizes_)
        longest = std::max(longest, size);
    // longest <= kMaxPages, so each clock regains at least a quarter of
    // the range.
    const auto base = static_cast<std::uint32_t>((kMaxStamp - longest) / 2);
    for (int l = 0; l < 4; ++l) {
        std::uint32_t stamp = base;
        for (PageId page = tails_[l]; page != kInvalidPage;
             page = prev_[page]) {
            std::uint32_t& meta = meta_[page];
            meta = (++stamp << kStampShift) | (meta & kFlagsMask);
        }
    }
    tail_clock_ = base;
    head_clock_ = static_cast<std::uint32_t>(base + longest);
}

PageId
LruLists::head(ListId list) const
{
    return heads_[static_cast<int>(list)];
}

PageId
LruLists::tail(ListId list) const
{
    return tails_[static_cast<int>(list)];
}

bool
LruLists::test_and_clear_referenced(PageId page)
{
    const bool was = (meta_[page] & kReferencedBit) != 0;
    meta_[page] &= ~kReferencedBit;
    return was;
}

std::size_t
LruLists::age_active(memsim::Tier tier, std::size_t scan_count)
{
    const ListId active = list_id(tier, true);
    const ListId inactive = list_id(tier, false);
    std::size_t deactivated = 0;
    for (std::size_t i = 0; i < scan_count; ++i) {
        const PageId page = tail(active);
        if (page == kInvalidPage)
            break;
        if (test_and_clear_referenced(page)) {
            move_to_head(page, active);
        } else {
            move_to_head(page, inactive);
            ++deactivated;
        }
    }
    return deactivated;
}

std::size_t
LruLists::scan_inactive(memsim::Tier tier, std::size_t scan_count,
                        std::vector<PageId>& candidates)
{
    const ListId active = list_id(tier, true);
    const ListId inactive = list_id(tier, false);
    std::size_t produced = 0;
    PageId page = tail(inactive);
    for (std::size_t i = 0; i < scan_count && page != kInvalidPage; ++i) {
        const PageId toward_head = prev_[page];
        if (test_and_clear_referenced(page)) {
            move_to_head(page, active);
        } else {
            candidates.push_back(page);
            ++produced;
        }
        page = toward_head;
    }
    return produced;
}

}  // namespace artmem::lru
