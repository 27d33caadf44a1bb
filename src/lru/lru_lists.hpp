/**
 * @file
 * Linux-style page LRU lists for a two-tier machine.
 *
 * Both tiers maintain separate active and inactive lists, as the kernel
 * does per NUMA node. ArtMem's "page sorting" (Section 4.3) and the
 * Multi-clock / TPP / AutoNUMA baselines are built on these primitives:
 * pages are promoted inactive -> active when referenced again, aged
 * active -> inactive by a second-chance scan, demotion candidates are
 * taken from the fast tier's inactive tail, and promotion candidates
 * from the slow tier's active head.
 *
 * Implemented as intrusive doubly-linked lists over flat arrays indexed
 * by PageId, so every operation is O(1) and iteration is cache-friendly.
 */
#ifndef ARTMEM_LRU_LRU_LISTS_HPP
#define ARTMEM_LRU_LRU_LISTS_HPP

#include <cstdint>
#include <vector>

#include "memsim/tier.hpp"
#include "util/logging.hpp"
#include "util/types.hpp"

namespace artmem::lru {

/** Identifier of one of the four lists (or none). */
enum class ListId : std::uint8_t {
    kFastActive = 0,
    kFastInactive = 1,
    kSlowActive = 2,
    kSlowInactive = 3,
    kNone = 4,
};

/** List holding pages of @p tier with the given activity. */
inline ListId
list_id(memsim::Tier tier, bool active)
{
    const int base = tier == memsim::Tier::kFast ? 0 : 2;
    return static_cast<ListId>(base + (active ? 0 : 1));
}

/** Tier a list belongs to; panic on kNone. */
memsim::Tier list_tier(ListId id);

/** True for the two active lists. */
inline bool
list_active(ListId id)
{
    return id == ListId::kFastActive || id == ListId::kSlowActive;
}

/** Four active/inactive LRU lists with per-page referenced bits. */
class LruLists
{
  public:
    /** @param page_count Size of the page id space. */
    explicit LruLists(std::size_t page_count);

    /** List currently containing the page (kNone if unlinked). */
    ListId where(PageId page) const { return where_[page]; }

    /**
     * Insert an unlinked page at the head (MRU end) of a list.
     * Inline along with remove()/move_to_head()/touch(): these run per
     * drained PEBS sample on the engine's tick path (DESIGN.md §9).
     */
    void
    insert_head(PageId page, ListId list)
    {
        if (where_[page] != ListId::kNone)
            panic("LruLists::insert_head: page ", page, " already linked");
        const int l = static_cast<int>(list);
        next_[page] = heads_[l];
        prev_[page] = kInvalidPage;
        if (heads_[l] != kInvalidPage)
            prev_[heads_[l]] = page;
        heads_[l] = page;
        if (tails_[l] == kInvalidPage)
            tails_[l] = page;
        where_[page] = list;
        ++sizes_[l];
    }

    /** Insert an unlinked page at the tail (LRU end) of a list. */
    void insert_tail(PageId page, ListId list);

    /** Unlink the page from whatever list holds it (no-op if none). */
    void
    remove(PageId page)
    {
        const ListId list = where_[page];
        if (list == ListId::kNone)
            return;
        const int l = static_cast<int>(list);
        const PageId p = prev_[page];
        const PageId n = next_[page];
        if (p != kInvalidPage)
            next_[p] = n;
        else
            heads_[l] = n;
        if (n != kInvalidPage)
            prev_[n] = p;
        else
            tails_[l] = p;
        prev_[page] = kInvalidPage;
        next_[page] = kInvalidPage;
        where_[page] = ListId::kNone;
        --sizes_[l];
    }

    /** Unlink + insert at the head of @p list. */
    void
    move_to_head(PageId page, ListId list)
    {
        remove(page);
        insert_head(page, list);
    }

    /** Head (MRU) page of a list, or kInvalidPage. */
    PageId head(ListId list) const;

    /** Tail (LRU) page of a list, or kInvalidPage. */
    PageId tail(ListId list) const;

    /** Next page toward the tail, or kInvalidPage. */
    PageId next(PageId page) const { return next_[page]; }

    /** Next page toward the head, or kInvalidPage. */
    PageId prev(PageId page) const { return prev_[page]; }

    /** Number of pages on a list. */
    std::size_t size(ListId list) const
    {
        return sizes_[static_cast<int>(list)];
    }

    /** Mark the page referenced (kernel PG_referenced analogue). */
    void set_referenced(PageId page) { referenced_[page] = 1; }

    /** Read and clear the referenced bit. */
    bool test_and_clear_referenced(PageId page);

    /** Read the referenced bit. */
    bool referenced(PageId page) const { return referenced_[page] != 0; }

    /**
     * Record an observed access: a referenced inactive page is activated
     * (moved to its tier's active head), an active page is rotated to the
     * head, an unlinked page is inserted at the inactive head. Mirrors
     * mark_page_accessed() semantics closely enough for policy purposes.
     */
    void
    touch(PageId page, memsim::Tier tier)
    {
        const ListId current = where_[page];
        const ListId active = list_id(tier, true);
        const ListId inactive = list_id(tier, false);
        if (current == ListId::kNone) {
            referenced_[page] = 1;
            insert_head(page, inactive);
            return;
        }
        // If the page migrated since its last touch, current may belong
        // to the other tier; re-home it.
        if (list_active(current)) {
            move_to_head(page, active);
            referenced_[page] = 1;
            return;
        }
        if (referenced_[page]) {
            // Second touch while inactive: activate (workingset rule).
            referenced_[page] = 0;
            move_to_head(page, active);
        } else {
            referenced_[page] = 1;
            move_to_head(page, inactive);
        }
    }

    /**
     * Second-chance aging pass over the active list of @p tier, from the
     * tail: referenced pages are cleared and rotated to the head,
     * unreferenced pages are deactivated to the inactive head.
     * @return number of pages deactivated.
     */
    std::size_t age_active(memsim::Tier tier, std::size_t scan_count);

    /**
     * Scan the inactive list of @p tier from the tail, reclaiming-style:
     * referenced pages are activated; unreferenced pages are appended to
     * @p candidates (left in place).
     * @return number of candidates produced.
     */
    std::size_t scan_inactive(memsim::Tier tier, std::size_t scan_count,
                              std::vector<PageId>& candidates);

    /** Page id space size. */
    std::size_t page_count() const { return where_.size(); }

  private:
    std::vector<PageId> next_;
    std::vector<PageId> prev_;
    std::vector<ListId> where_;
    std::vector<std::uint8_t> referenced_;
    PageId heads_[4];
    PageId tails_[4];
    std::size_t sizes_[4] = {0, 0, 0, 0};
};

}  // namespace artmem::lru

#endif  // ARTMEM_LRU_LRU_LISTS_HPP
