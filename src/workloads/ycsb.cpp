#include "workloads/ycsb.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace artmem::workloads {

namespace {

/** Phase order the paper runs: A, B, C, F, D. */
constexpr char kPhaseOrder[] = {'A', 'B', 'C', 'F', 'D'};
constexpr int kPhases = 5;

}  // namespace

Ycsb::Ycsb(const Params& params, Bytes page_size, std::uint64_t seed,
           ZipfShapes* shapes)
    : params_(params), page_size_(page_size), rng_(seed)
{
    if (params_.footprint == 0 || page_size_ == 0)
        fatal("Ycsb: footprint and page size must be positive");
    if (params_.initial_fill <= 0.0 || params_.initial_fill > 1.0)
        fatal("Ycsb: initial_fill must be in (0,1]");
    arena_pages_ = static_cast<PageId>(
        (params_.footprint + page_size_ - 1) / page_size_);
    populated_pages_ = std::max<PageId>(
        1, static_cast<PageId>(static_cast<double>(arena_pages_) *
                               params_.initial_fill));
    zipf_ = std::make_unique<ZipfianGenerator>(populated_pages_,
                                               params_.zipf_theta, shapes);
}

char
Ycsb::current_phase() const
{
    const std::uint64_t per_phase =
        std::max<std::uint64_t>(1, params_.total_accesses / kPhases);
    const auto idx =
        std::min<std::uint64_t>(emitted_ / per_phase, kPhases - 1);
    return kPhaseOrder[idx];
}

std::size_t
Ycsb::fill(std::span<PageId> out)
{
    const std::uint64_t budget = params_.total_accesses - emitted_;
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(budget, out.size()));
    const std::uint64_t per_phase =
        std::max<std::uint64_t>(1, params_.total_accesses / kPhases);
    std::size_t i = 0;
    while (i < n) {
        // Database population: one sequential sweep establishing the
        // slab arena before the A-B-C-F-D phases run. Also re-entered
        // when a phase-D insert grows populated_pages_ past the cursor.
        if (load_cursor_ < populated_pages_) {
            const auto take = static_cast<std::size_t>(
                std::min<std::uint64_t>(populated_pages_ - load_cursor_,
                                        n - i));
            for (std::size_t j = 0; j < take; ++j)
                out[i + j] = load_cursor_++;
            emitted_ += take;
            i += take;
            continue;
        }
        // The phase is a pure function of emitted_, so instead of two
        // integer divisions per access it is computed once per chunk
        // and held until the next phase boundary.
        const auto idx = static_cast<std::size_t>(
            std::min<std::uint64_t>(emitted_ / per_phase, kPhases - 1));
        std::uint64_t chunk = n - i;
        if (idx + 1 < kPhases)
            chunk = std::min<std::uint64_t>(chunk,
                                            (idx + 1) * per_phase - emitted_);
        if (kPhaseOrder[idx] != 'D') {
            // Zipfian over the insertion-ordered key space. Workloads
            // A/B/C/F differ in read/write mix, which is irrelevant to
            // page placement; all touch pages with the same skew. None
            // of them mutate populated_pages_, so the whole chunk is a
            // tight draw loop.
            for (std::uint64_t j = 0; j < chunk; ++j)
                out[i + j] = static_cast<PageId>(zipf_->next(rng_));
            emitted_ += chunk;
            i += chunk;
        } else {
            // Latest distribution: popularity tracks recent inserts;
            // 5% of operations insert a new key at the arena top. An
            // insert re-arms the sequential-load branch above, so this
            // phase keeps the exact per-access loop.
            const std::size_t end = i + static_cast<std::size_t>(chunk);
            while (i < end && load_cursor_ >= populated_pages_) {
                const PageId rank = static_cast<PageId>(zipf_->next(rng_));
                if (populated_pages_ < arena_pages_ && rng_.next_bool(0.05))
                    ++populated_pages_;
                out[i] = rank < populated_pages_
                             ? populated_pages_ - 1 - rank
                             : 0;
                ++emitted_;
                ++i;
            }
        }
    }
    return n;
}

}  // namespace artmem::workloads
