/**
 * @file
 * PEBS-style hardware access sampling.
 *
 * The Performance Monitoring Unit is modelled as a countdown: one out of
 * every `period` observed memory loads is recorded, with its page and
 * serving tier, into a bounded ring buffer that the (simulated) ksampled
 * thread later drains. Overflowing records are dropped and counted, as
 * real PEBS buffers do. The paper initializes the period to 200 and
 * adjusts it dynamically to bound CPU overhead (Section 6.4).
 */
#ifndef ARTMEM_MEMSIM_PEBS_HPP
#define ARTMEM_MEMSIM_PEBS_HPP

#include <cstdint>
#include <vector>

#include "memsim/ring_buffer.hpp"
#include "memsim/tier.hpp"
#include "util/types.hpp"

namespace artmem::memsim {

/** One PEBS record: which page was loaded and from which tier. */
struct PebsSample {
    PageId page;
    Tier tier;
};

/** Periodic sampler feeding a bounded SPSC buffer. */
class PebsSampler
{
  public:
    /** Sampler configuration. */
    struct Config {
        /** Record one of every `period` accesses. */
        std::uint32_t period = 200;
        /** Ring buffer slots before drops occur. */
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
            buffer_.push(PebsSample{page, tier});
        }
    }

    /** Drain up to @p max_items pending samples into @p out (appended). */
    std::size_t drain(std::vector<PebsSample>& out, std::size_t max_items);

    /** Current sampling period. */
    std::uint32_t period() const { return period_; }

    /**
     * Change the sampling period (the paper tunes this at runtime to
     * trade accuracy against overhead). Takes effect on the next sample.
     */
    void set_period(std::uint32_t period);

    /** Samples recorded (including ones later dropped by the buffer). */
    std::uint64_t recorded() const { return recorded_; }

    /** Samples dropped due to a full buffer. */
    std::uint64_t dropped() const { return buffer_.dropped(); }

  private:
    RingBuffer<PebsSample> buffer_;
    std::uint32_t period_;
    std::uint32_t countdown_;
    std::uint64_t recorded_ = 0;
};

}  // namespace artmem::memsim

#endif  // ARTMEM_MEMSIM_PEBS_HPP
