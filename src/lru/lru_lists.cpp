#include "lru/lru_lists.hpp"

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
      where_(page_count, ListId::kNone),
      referenced_(page_count, 0)
{
    for (int i = 0; i < 4; ++i) {
        heads_[i] = kInvalidPage;
        tails_[i] = kInvalidPage;
    }
}

void
LruLists::insert_tail(PageId page, ListId list)
{
    if (where_[page] != ListId::kNone)
        panic("LruLists::insert_tail: page ", page, " already linked");
    const int l = static_cast<int>(list);
    prev_[page] = tails_[l];
    next_[page] = kInvalidPage;
    if (tails_[l] != kInvalidPage)
        next_[tails_[l]] = page;
    tails_[l] = page;
    if (heads_[l] == kInvalidPage)
        heads_[l] = page;
    where_[page] = list;
    ++sizes_[l];
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
    const bool was = referenced_[page] != 0;
    referenced_[page] = 0;
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
