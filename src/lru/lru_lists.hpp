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
 * A page's list id, referenced bit and position stamp share one u32.
 *
 * Every insert also writes the page a 28-bit position stamp: a rising
 * clock at the head, a falling one at the tail. Within a list,
 * head-to-tail order is therefore strictly descending stamp, so a set
 * of pages can be put in list order by sorting it instead of walking
 * the list (ArtMem's promotion-candidate index, DESIGN.md §9).
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
    /**
     * @param page_count Size of the page id space; fatal() above
     *                   2^27 - 1, the most pages whose lists the stamps
     *                   can always keep in order.
     */
    explicit LruLists(std::size_t page_count);

    /** List currently containing the page (kNone if unlinked). */
    ListId where(PageId page) const
    {
        return static_cast<ListId>(meta_[page] & kListMask);
    }

    /**
     * Insert an unlinked page at the head (MRU end) of a list.
     * Inline along with remove()/move_to_head()/touch(): these run per
     * drained PEBS sample on the engine's tick path (DESIGN.md §9).
     */
    void
    insert_head(PageId page, ListId list)
    {
        std::uint32_t& meta = meta_[page];
        if ((meta & kListMask) != kUnlinked)
            panic("LruLists::insert_head: page ", page, " already linked");
        if (head_clock_ == kMaxStamp) [[unlikely]]
            renumber_stamps();
        const int l = static_cast<int>(list);
        next_[page] = heads_[l];
        prev_[page] = kInvalidPage;
        if (heads_[l] != kInvalidPage)
            prev_[heads_[l]] = page;
        heads_[l] = page;
        if (tails_[l] == kInvalidPage)
            tails_[l] = page;
        meta = (++head_clock_ << kStampShift) | (meta & kReferencedBit) |
               static_cast<std::uint32_t>(l);
        ++sizes_[l];
    }

    /** Insert an unlinked page at the tail (LRU end) of a list. */
    void insert_tail(PageId page, ListId list);

    /** Unlink the page from whatever list holds it (no-op if none). */
    void
    remove(PageId page)
    {
        std::uint32_t& meta = meta_[page];
        const std::uint32_t l = meta & kListMask;
        if (l == kUnlinked)
            return;
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
        meta = (meta & ~kListMask) | kUnlinked;
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

    /**
     * Position stamp of a linked page: strictly greater than the stamp
     * of every page after it on its list. Stale once the page unlinks.
     */
    std::uint32_t stamp(PageId page) const
    {
        return meta_[page] >> kStampShift;
    }

    /** Number of pages on a list. */
    std::size_t size(ListId list) const
    {
        return sizes_[static_cast<int>(list)];
    }

    /** Mark the page referenced (kernel PG_referenced analogue). */
    void set_referenced(PageId page) { meta_[page] |= kReferencedBit; }

    /** Read and clear the referenced bit. */
    bool test_and_clear_referenced(PageId page);

    /** Read the referenced bit. */
    bool referenced(PageId page) const
    {
        return (meta_[page] & kReferencedBit) != 0;
    }

    /**
     * Record an observed access: a referenced inactive page is activated
     * (moved to its tier's active head), an active page is rotated to the
     * head, an unlinked page is inserted at the inactive head. Mirrors
     * mark_page_accessed() semantics closely enough for policy purposes.
     */
    void
    touch(PageId page, memsim::Tier tier)
    {
        const ListId current = where(page);
        const ListId active = list_id(tier, true);
        const ListId inactive = list_id(tier, false);
        std::uint32_t& meta = meta_[page];
        if (current == ListId::kNone) {
            meta |= kReferencedBit;
            insert_head(page, inactive);
            return;
        }
        // If the page migrated since its last touch, current may belong
        // to the other tier; re-home it.
        if (list_active(current)) {
            move_to_head(page, active);
            meta |= kReferencedBit;
            return;
        }
        if ((meta & kReferencedBit) != 0) {
            // Second touch while inactive: activate (workingset rule).
            meta &= ~kReferencedBit;
            move_to_head(page, active);
        } else {
            meta |= kReferencedBit;
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
    std::size_t page_count() const { return next_.size(); }

  private:
    /** Test-only back door to the stamp clocks and stamps
     *  (tests/test_lru.cpp, tests/test_verify.cpp). Never defined in
     *  the library. */
    friend struct LruListsTestPeer;

    // meta_ packs the list id (low 3 bits), the referenced bit and the
    // position stamp (the high 28 bits).
    static constexpr std::uint32_t kListMask = 0x7;
    static constexpr std::uint32_t kUnlinked =
        static_cast<std::uint32_t>(ListId::kNone);
    static constexpr std::uint32_t kReferencedBit = 0x8;
    static constexpr int kStampShift = 4;
    static constexpr std::uint32_t kFlagsMask = (1u << kStampShift) - 1;
    static constexpr std::uint32_t kMaxStamp = ~0u >> kStampShift;
    // With at most half the stamp range on one list, a renumber leaves
    // each clock at least a quarter of it.
    static constexpr std::size_t kMaxPages = kMaxStamp / 2;

    /**
     * Called when a clock would leave the stamp range: give every list
     * consecutive stamps from tail to head above a common base, centred
     * so both clocks regain the same room. Keeps every list's order.
     */
    void renumber_stamps();

    // Per-page state is 12 bytes. The stamp shares a word with the list
    // id and referenced bit instead of taking a fifth array: touch()
    // reads and writes that word anyway, and a separate stamp array
    // cost 40-60% per sample at 262,144 pages (DESIGN.md §9).
    std::vector<PageId> next_;
    std::vector<PageId> prev_;
    std::vector<std::uint32_t> meta_;
    PageId heads_[4];
    PageId tails_[4];
    std::size_t sizes_[4] = {0, 0, 0, 0};
    // Every linked stamp lies in [tail_clock_, head_clock_]; a head
    // insert takes head_clock_ + 1, a tail insert tail_clock_ - 1.
    std::uint32_t head_clock_ = kMaxStamp / 2;
    std::uint32_t tail_clock_ = kMaxStamp / 2;
};

}  // namespace artmem::lru

#endif  // ARTMEM_LRU_LRU_LISTS_HPP
