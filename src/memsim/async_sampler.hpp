/**
 * @file
 * Real-thread demonstration of ArtMem's asynchronous sampling design
 * (Section 4.4): the application thread produces PEBS records into the
 * lock-free ring buffer, while a dedicated background thread — the
 * ksampled analogue — drains them and runs the bookkeeping callback
 * off the critical path.
 *
 * The deterministic simulation engine drains synchronously for
 * reproducibility; this class exists to validate (and test, see
 * tests/test_async.cpp) that the data structures genuinely support the
 * concurrent deployment the paper describes.
 */
#ifndef ARTMEM_MEMSIM_ASYNC_SAMPLER_HPP
#define ARTMEM_MEMSIM_ASYNC_SAMPLER_HPP

#include <atomic>
#include <chrono>
#include <functional>
#include <span>
#include <thread>
#include <vector>

#include "memsim/pebs.hpp"
#include "memsim/ring_buffer.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace artmem::memsim {

/** Background drainer thread over a PEBS ring buffer. */
class AsyncSampler
{
  public:
    /** Invoked on the background thread with each drained batch. */
    using BatchHandler = std::function<void(std::span<const PebsSample>)>;

    /**
     * @param capacity Ring-buffer slots.
     * @param handler  Consumer callback (background thread context).
     * @param poll     Drain poll interval when the buffer is empty.
     */
    AsyncSampler(std::size_t capacity, BatchHandler handler,
                 std::chrono::microseconds poll =
                     std::chrono::microseconds(50));

    /** Joins the background thread after draining remaining records. */
    ~AsyncSampler();

    AsyncSampler(const AsyncSampler&) = delete;
    AsyncSampler& operator=(const AsyncSampler&) = delete;

    /** Producer side (application thread): record one sample. */
    bool
    publish(PageId page, Tier tier)
    {
        return buffer_.push(PebsSample{page, tier});
    }

    /**
     * Stop accepting work, drain the backlog, and join. Idempotent and
     * safe to race: every caller — including the destructor — blocks
     * until the worker has actually exited, so no caller can observe
     * (or destroy) the sampler while the drainer still runs. (The
     * original compare-and-swap fast path let the losing caller return
     * before the join finished — a lifetime race under concurrent
     * stop()/destruction, caught by the TSan regression in
     * tests/test_async.cpp.)
     */
    void stop() ARTMEM_EXCLUDES(join_mutex_);

    /** Samples delivered to the handler so far. */
    std::uint64_t delivered() const
    {
        return delivered_.load(std::memory_order_relaxed);
    }

    /** Samples dropped at the producer due to a full buffer. */
    std::uint64_t dropped() const { return buffer_.dropped(); }

  private:
    void run();

    RingBuffer<PebsSample> buffer_;
    BatchHandler handler_;
    std::chrono::microseconds poll_;
    std::atomic<bool> stopping_{false};
    std::atomic<std::uint64_t> delivered_{0};
    Mutex join_mutex_;  ///< Serializes the stop()/join handshake.
    std::thread worker_ ARTMEM_GUARDED_BY(join_mutex_);
};

}  // namespace artmem::memsim

#endif  // ARTMEM_MEMSIM_ASYNC_SAMPLER_HPP
