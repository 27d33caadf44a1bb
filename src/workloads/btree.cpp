#include "workloads/btree.hpp"

#include <algorithm>
#include <bit>

#include "util/logging.hpp"

namespace artmem::workloads {

Btree::Btree(const Params& params, Bytes page_size, std::uint64_t seed,
             ZipfShapes* shapes)
    : params_(params), rng_(seed)
{
    if (params_.fanout < 2)
        fatal("Btree: fanout must be at least 2");
    if (params_.node_size == 0 || params_.node_size > page_size)
        fatal("Btree: node_size must be in (0, page_size]");
    if (!std::has_single_bit(params_.fanout) ||
        !std::has_single_bit(params_.node_size) ||
        !std::has_single_bit(page_size))
        fatal("Btree: fanout (", params_.fanout, "), node_size (",
              params_.node_size, ") and page_size (", page_size,
              ") must be powers of two");
    fanout_shift_ = static_cast<unsigned>(std::countr_zero(params_.fanout));
    node_shift_ = static_cast<unsigned>(std::countr_zero(params_.node_size));
    page_shift_ = static_cast<unsigned>(std::countr_zero(page_size));
    // Build levels top-down until the cumulative size fills the
    // footprint; the last (largest) level becomes the leaves.
    Bytes used = 0;
    std::uint64_t nodes = 1;
    while (true) {
        const Bytes level_bytes = nodes * params_.node_size;
        if (used + level_bytes > params_.footprint) {
            // Truncate the final level to exactly fill the footprint.
            const std::uint64_t fit =
                (params_.footprint - used) / params_.node_size;
            if (fit > 0) {
                level_base_.push_back(used);
                leaf_count_ = fit;
            }
            break;
        }
        level_base_.push_back(used);
        leaf_count_ = nodes;
        used += level_bytes;
        nodes *= params_.fanout;
    }
    if (level_base_.size() < 2)
        fatal("Btree: footprint too small for one inner level + leaves");
    const std::uint64_t depth = level_base_.size();
    total_ = (params_.total_accesses / depth +
              (params_.total_accesses % depth != 0)) *
             depth;
    // Key skew is applied over coarse leaf blocks so the Zipfian zeta
    // precomputation stays cheap even with millions of leaves.
    const std::uint64_t leaf_blocks =
        std::min<std::uint64_t>(leaf_count_, 1u << 16);
    block_size_ = (leaf_count_ + leaf_blocks - 1) / leaf_blocks;
    const double theta = std::clamp(params_.key_theta, 1e-9, 0.999);
    zipf_ = std::make_unique<ZipfianGenerator>(leaf_blocks, theta, shapes);
}

std::size_t
Btree::fill(std::span<PageId> out)
{
    // Finish the lookup the previous batch split.
    std::size_t produced =
        std::min(pending_.size() - pending_pos_, out.size());
    std::copy_n(pending_.begin() + static_cast<std::ptrdiff_t>(pending_pos_),
                produced, out.begin());
    pending_pos_ += produced;
    // The Rng and the tree's shape live in locals for the whole batch,
    // where stores to out cannot alias them.
    Rng rng = rng_;
    std::uint64_t emitted = emitted_;
    const Bytes* const level_base = level_base_.data();
    const std::size_t depth = level_base_.size();
    const unsigned fanout_shift = fanout_shift_;
    const unsigned node_shift = node_shift_;
    const unsigned page_shift = page_shift_;
    // A lookup draws a Zipf block, then a leaf within it.
    const auto next_leaf = [&] {
        const std::uint64_t block = zipf_->next(rng);
        return std::min<std::uint64_t>(
            block * block_size_ + rng.next_below(block_size_),
            leaf_count_ - 1);
    };
    // One pass, bottom-up: the ancestor one level up is
    // node >> fanout_shift. An inner level L holds all fanout^L nodes
    // and the leaves number at most fanout^(depth-1), so no ancestor
    // index reaches its level's node count and none needs wrapping.
    const auto write_path = [=](std::uint64_t leaf, PageId* path) {
        std::uint64_t node = leaf;
        for (std::size_t level = depth; level-- > 0;) {
            path[level] = static_cast<PageId>(
                (level_base[level] + (node << node_shift)) >> page_shift);
            node >>= fanout_shift;
        }
    };
    // Whole paths go straight into out.
    while (out.size() - produced >= depth &&
           emitted < params_.total_accesses) {
        write_path(next_leaf(), out.data() + produced);
        produced += depth;
        emitted += depth;
    }
    // A lookup the batch splits waits in pending_ for the next call.
    if (produced < out.size() && emitted < params_.total_accesses) {
        pending_.resize(depth);
        write_path(next_leaf(), pending_.data());
        emitted += depth;
        pending_pos_ = out.size() - produced;
        std::copy_n(pending_.begin(), pending_pos_,
                    out.begin() + static_cast<std::ptrdiff_t>(produced));
        produced = out.size();
    }
    rng_ = rng;
    emitted_ = emitted;
    return produced;
}

}  // namespace artmem::workloads
