/**
 * @file
 * Exponential (base-2) access-frequency histogram with cooling.
 *
 * ArtMem (Section 4.3) and MEMTIS track per-page sampled access counts
 * and group pages into exponential bins so the full access distribution
 * can be represented compactly. A cooling operation, triggered every
 * `cooling_period` samples (2 million in the paper's full-scale runs),
 * halves every per-page count and bin population to discount stale
 * history — the "exponential moving average" of access frequency.
 *
 * Given a nonzero hot floor, the bins also keep an exact index of the
 * pages whose count has reached it, so a policy can find its hot pages
 * without scanning the page space (ArtMem's promotion candidates,
 * DESIGN.md §9).
 */
#ifndef ARTMEM_STATS_EMA_BINS_HPP
#define ARTMEM_STATS_EMA_BINS_HPP

#include <bit>
#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace artmem::stats {

/** Per-page sampled-access counters bucketed into power-of-two bins. */
class EmaBins
{
  public:
    /** Number of bins: bin 0 = count 0, bin b>=1 = counts [2^(b-1), 2^b). */
    static constexpr int kBins = 17;

    /**
     * @param page_count     Page id space size.
     * @param cooling_period Samples between automatic cooling events
     *                       (0 disables the internal trigger).
     * @param hot_floor      Count at which a page joins hot_pages()
     *                       (0 keeps no index).
     */
    explicit EmaBins(std::size_t page_count,
                     std::uint64_t cooling_period = 0,
                     std::uint32_t hot_floor = 0);

    /**
     * Record one sampled access to @p page. Inline: runs once per
     * drained PEBS sample on the engine's tick path (DESIGN.md §9).
     */
    void
    record(PageId page)
    {
        std::uint32_t& c = counts_[page];
        const int before = bin_of(c);
        // Saturate well below 2^kBins so cooling always shrinks the value.
        if (c < (1u << (kBins - 1))) {
            ++c;
            // Counts rise one at a time, so a page reaching the floor
            // crosses it here exactly once between coolings.
            if (c == hot_floor_)
                hot_.push_back(page);
        }
        const int after = bin_of(c);
        if (after != before) {
            --bins_[before];
            ++bins_[after];
        }
        ++samples_since_cooling_;
    }

    /** Sampled-access count of a page (post-cooling EMA value). */
    std::uint32_t count(PageId page) const { return counts_[page]; }

    /** Bin index a count falls into. */
    static int
    bin_of(std::uint32_t count)
    {
        if (count == 0)
            return 0;
        const int bin = std::bit_width(count);  // [2^(b-1), 2^b) -> b
        return bin >= kBins ? kBins - 1 : bin;
    }

    /** Smallest count belonging to @p bin (0 for bin 0). */
    static std::uint32_t bin_floor(int bin);

    /** Number of pages currently in @p bin. */
    std::uint64_t bin_pages(int bin) const { return bins_[bin]; }

    /** Samples recorded since the last cooling event. */
    std::uint64_t samples_since_cooling() const
    {
        return samples_since_cooling_;
    }

    /** Total cooling events so far. */
    std::uint64_t cooling_events() const { return cooling_events_; }

    /** True when the automatic cooling period has elapsed. */
    bool cooling_due() const
    {
        return cooling_period_ != 0 &&
               samples_since_cooling_ >= cooling_period_;
    }

    /** Halve every per-page count, rebuild the bins and drop the pages
     *  that fell below the hot floor from the index. */
    void cool();

    /** Count at which a page joins hot_pages() (0: no index). */
    std::uint32_t hot_floor() const { return hot_floor_; }

    /**
     * Every page whose count is at least hot_floor(), each exactly once,
     * in no particular order. Empty when the floor is 0.
     */
    const std::vector<PageId>& hot_pages() const { return hot_; }

    /**
     * MEMTIS-style capacity threshold: the smallest count T such that
     * the pages with count >= T fit into @p capacity_pages. Returns the
     * floor of the chosen bin; never below 1.
     */
    std::uint32_t capacity_threshold(std::size_t capacity_pages) const;

    /** Number of pages with count >= @p threshold (exact, O(pages)). */
    std::size_t pages_at_or_above(std::uint32_t threshold) const;

    /**
     * Append every page with count >= @p threshold to @p out.
     * @return number appended.
     */
    std::size_t collect_at_or_above(std::uint32_t threshold,
                                    std::vector<PageId>& out) const;

    /** Page id space size. */
    std::size_t page_count() const { return counts_.size(); }

  private:
    /** Test-only back door for deliberate histogram corruption
     *  (tests/test_verify.cpp). Never defined in the library. */
    friend struct EmaBinsTestPeer;

    std::vector<std::uint32_t> counts_;
    std::vector<PageId> hot_;
    std::uint32_t hot_floor_;
    std::uint64_t bins_[kBins] = {};
    std::uint64_t cooling_period_;
    std::uint64_t samples_since_cooling_ = 0;
    std::uint64_t cooling_events_ = 0;
};

}  // namespace artmem::stats

#endif  // ARTMEM_STATS_EMA_BINS_HPP
