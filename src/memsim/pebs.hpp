/**
 * @file
 * PEBS-style hardware access sampling.
 *
 * The Performance Monitoring Unit is modelled as a countdown: one out of
 * every `period` observed memory loads is recorded, with its page and
 * serving tier, into a bounded buffer that the (simulated) ksampled
 * thread later drains. Overflowing records are dropped and counted, as
 * real PEBS buffers do. The paper initializes the period to 200 and
 * adjusts it dynamically to bound CPU overhead (Section 6.4); a run here
 * keeps the period it is configured with.
 *
 * Recording and draining both run on the simulation thread: the engine
 * drains at every simulated tick, which is where the ksampled cadence
 * lives (DESIGN.md §1), so the buffer is a plain vector.
 */
#ifndef ARTMEM_MEMSIM_PEBS_HPP
#define ARTMEM_MEMSIM_PEBS_HPP

#include <cstdint>
#include <vector>

#include "memsim/tier.hpp"
#include "util/types.hpp"

namespace artmem::memsim {

/** One PEBS record: which page was loaded and from which tier. */
struct PebsSample {
    PageId page;
    Tier tier;
};

/** Periodic sampler feeding a bounded FIFO buffer. */
class PebsSampler
{
  public:
    /** Sampler configuration. */
    struct Config {
        /** Record one of every `period` accesses. */
        std::uint32_t period = 200;
        /** Buffered records before drops occur. */
        std::size_t buffer_capacity = 1 << 14;
    };

    explicit PebsSampler(const Config& config);

    /** Observe one access; may record it. Hot path. */
    void
    observe(PageId page, Tier tier)
    {
        if (--countdown_ == 0) {
            countdown_ = period_;
            ++recorded_;
            if (buffer_.size() < capacity_)
                buffer_.push_back(PebsSample{page, tier});
            else
                ++dropped_;
        }
    }

    /**
     * Move the oldest min(@p max_items, pending) records, in order, to
     * the end of @p out. @return the number moved.
     */
    std::size_t drain(std::vector<PebsSample>& out, std::size_t max_items);

    /** Samples recorded (including ones later dropped by the buffer). */
    std::uint64_t recorded() const { return recorded_; }

    /** Samples dropped due to a full buffer. */
    std::uint64_t dropped() const { return dropped_; }

  private:
    std::vector<PebsSample> buffer_;  ///< Pending records, oldest first.
    std::size_t capacity_;
    std::uint32_t period_;
    std::uint32_t countdown_;
    std::uint64_t recorded_ = 0;
    std::uint64_t dropped_ = 0;
};

}  // namespace artmem::memsim

#endif  // ARTMEM_MEMSIM_PEBS_HPP
