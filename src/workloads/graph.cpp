#include "workloads/graph.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace artmem::workloads {

GraphWorkload::GraphWorkload(const Params& params, Bytes page_size,
                             std::uint64_t seed, ZipfShapes* shapes)
    : params_(params), page_size_(page_size), rng_(seed)
{
    if (params_.footprint == 0 || page_size_ == 0)
        fatal("GraphWorkload: footprint and page size must be positive");
    page_count_ =
        static_cast<PageId>((params_.footprint + page_size_ - 1) / page_size_);
    // The zipf domain is the page space: each rank is one "vertex block"
    // whose property data fills one page.
    const PageId domain =
        params_.frontier_window > 0.0
            ? std::max<PageId>(
                  1, static_cast<PageId>(static_cast<double>(page_count_) *
                                         params_.frontier_window))
            : page_count_;
    zipf_ = std::make_unique<ZipfianGenerator>(domain, params_.gather_theta,
                                               shapes);
}

GraphWorkload::Params
GraphWorkload::cc(std::uint64_t total_accesses)
{
    Params p;
    p.name = "cc";
    p.footprint = 69ull << 30;
    p.total_accesses = total_accesses;
    p.seq_fraction = 0.25;
    p.gather_theta = 0.9;   // hubs dominate label propagation
    p.scramble = false;     // compact hot block (Fig. 10b)
    p.hot_block_offset = 0.55;  // above the 1:1 fast boundary
    return p;
}

GraphWorkload::Params
GraphWorkload::sssp(std::uint64_t total_accesses)
{
    Params p;
    p.name = "sssp";
    p.footprint = 64ull << 30;
    p.total_accesses = total_accesses;
    p.seq_fraction = 0.15;
    p.gather_theta = 0.55;  // minor hot/cold frequency differences
    p.scramble = true;
    p.frontier_window = 0.35;  // delta-stepping frontier sweep (Fig. 10a)
    p.frontier_phases = 10;
    return p;
}

GraphWorkload::Params
GraphWorkload::pr(std::uint64_t total_accesses)
{
    Params p;
    p.name = "pr";
    p.footprint = 25ull << 30;
    p.total_accesses = total_accesses;
    p.seq_fraction = 0.5;   // rank array sweeps every iteration
    p.gather_theta = 0.75;
    p.scramble = true;
    return p;
}

PageId
GraphWorkload::gather_target()
{
    const std::uint64_t rank = zipf_->next(rng_);
    if (params_.frontier_window > 0.0 && params_.frontier_phases > 0) {
        // The frontier base advances once per superstep, wrapping the
        // address space; gathers are skewed within the active window.
        const std::uint64_t per_phase = std::max<std::uint64_t>(
            1, params_.total_accesses /
                   static_cast<std::uint64_t>(params_.frontier_phases));
        const auto phase =
            static_cast<PageId>((emitted_ / per_phase) %
                                static_cast<std::uint64_t>(
                                    params_.frontier_phases));
        const PageId base = static_cast<PageId>(
            (static_cast<std::uint64_t>(phase) * page_count_) /
            static_cast<std::uint64_t>(params_.frontier_phases));
        PageId offset = static_cast<PageId>(rank);
        if (params_.scramble) {
            std::uint64_t h = rank * 0x9e3779b97f4a7c15ull;
            offset = static_cast<PageId>(h % zipf_->shape().item_count());
        }
        return (base + offset) % page_count_;
    }
    if (params_.scramble) {
        std::uint64_t h = rank * 0x9e3779b97f4a7c15ull;
        h ^= h >> 29;
        return static_cast<PageId>(h % page_count_);
    }
    // Compact hot block: ranks map to consecutive pages starting at the
    // configured offset (hub vertices cluster in the property array).
    const PageId base = static_cast<PageId>(
        static_cast<double>(page_count_) * params_.hot_block_offset);
    return (base + static_cast<PageId>(rank)) % page_count_;
}

std::size_t
GraphWorkload::fill(std::span<PageId> out)
{
    const std::uint64_t budget = params_.total_accesses - emitted_;
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(budget, out.size()));
    for (std::size_t i = 0; i < n; ++i) {
        if (rng_.next_bool(params_.seq_fraction)) {
            out[i] = seq_cursor_;
            seq_cursor_ = (seq_cursor_ + 1) % page_count_;
        } else {
            out[i] = gather_target();
        }
        ++emitted_;
    }
    return n;
}

}  // namespace artmem::workloads
