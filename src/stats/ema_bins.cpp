#include "stats/ema_bins.hpp"

#include <bit>

#include "util/logging.hpp"

namespace artmem::stats {

EmaBins::EmaBins(std::size_t page_count, std::uint64_t cooling_period,
                 std::uint32_t hot_floor)
    : counts_(page_count, 0),
      hot_floor_(hot_floor),
      cooling_period_(cooling_period)
{
    bins_[0] = page_count;
}

std::uint32_t
EmaBins::bin_floor(int bin)
{
    if (bin <= 0)
        return 0;
    return 1u << (bin - 1);
}

void
EmaBins::cool()
{
    for (auto& b : bins_)
        b = 0;
    for (auto& c : counts_) {
        c >>= 1;
        ++bins_[bin_of(c)];
    }
    // Halving only lowers counts, so every page still at the floor was
    // indexed already; only the ones that fell below must go.
    std::erase_if(hot_, [this](PageId page) {
        return counts_[page] < hot_floor_;
    });
    samples_since_cooling_ = 0;
    ++cooling_events_;
}

std::uint32_t
EmaBins::capacity_threshold(std::size_t capacity_pages) const
{
    // Walk bins from hottest downward, accumulating page populations,
    // and stop before the cumulative hot set would overflow the fast
    // tier. This is how MEMTIS derives its hotness threshold from the
    // DRAM size.
    std::uint64_t cumulative = 0;
    for (int bin = kBins - 1; bin >= 1; --bin) {
        cumulative += bins_[bin];
        if (cumulative > capacity_pages) {
            const int chosen = bin + 1;
            return chosen >= kBins ? bin_floor(kBins - 1)
                                   : bin_floor(chosen);
        }
    }
    return 1;  // everything fits: any accessed page counts as hot
}

std::size_t
EmaBins::pages_at_or_above(std::uint32_t threshold) const
{
    std::size_t n = 0;
    for (std::uint32_t c : counts_)
        if (c >= threshold)
            ++n;
    return n;
}

std::size_t
EmaBins::collect_at_or_above(std::uint32_t threshold,
                             std::vector<PageId>& out) const
{
    std::size_t n = 0;
    for (PageId p = 0; p < counts_.size(); ++p) {
        if (counts_[p] >= threshold) {
            out.push_back(p);
            ++n;
        }
    }
    return n;
}

}  // namespace artmem::stats
