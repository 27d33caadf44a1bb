/**
 * @file
 * In-memory B-tree index lookup workload (Mitosis btree; paper
 * Table 3: 24 GiB footprint, 300M key-value pairs, random lookups).
 *
 * The tree is modelled implicitly: level L (root = level 0) contains
 * fanout^L nodes laid out contiguously, level by level, across the
 * footprint. Every lookup descends root-to-leaf, so a node at level L
 * is touched fanout^(depth-L) times as often as a leaf — the natural
 * hotness gradient that makes index lookups tiering-friendly (the
 * upper levels fit in DRAM, the leaves do not).
 */
#ifndef ARTMEM_WORKLOADS_BTREE_HPP
#define ARTMEM_WORKLOADS_BTREE_HPP

#include <memory>
#include <vector>

#include "util/rng.hpp"
#include "util/zipf.hpp"
#include "workloads/generator.hpp"

namespace artmem::workloads {

/** Random lookups over an implicit fixed-fanout B-tree. */
class Btree final : public AccessGenerator
{
  public:
    /** Index parameters. */
    struct Params {
        Bytes footprint = 24ull << 30;
        std::uint64_t total_accesses = 10000000;
        /** Children per inner node. */
        unsigned fanout = 64;
        /** Bytes per node (one node == part of a page). */
        Bytes node_size = 4096;
        /** Zipf skew of the looked-up keys (1e-9..1; ~0 = uniform). */
        double key_theta = 0.2;
    };

    /**
     * Fatal unless fanout, node_size and page_size are powers of two:
     * every level's page is then a shift of the leaf index.
     */
    Btree(const Params& params, Bytes page_size, std::uint64_t seed);

    std::string_view name() const override { return "btree"; }
    Bytes footprint() const override { return params_.footprint; }
    std::size_t fill(std::span<PageId> out) override;

    /** The stream ends on a whole lookup: the budget rounded up to one. */
    std::uint64_t total_accesses() const override { return total_; }

    /** Tree depth chosen for the footprint (tests). */
    unsigned depth() const { return static_cast<unsigned>(level_base_.size()); }

  private:
    Params params_;
    Rng rng_;
    std::unique_ptr<ZipfianGenerator> zipf_;
    /** Byte offset where each level starts. */
    std::vector<Bytes> level_base_;
    unsigned fanout_shift_ = 0;
    unsigned node_shift_ = 0;
    unsigned page_shift_ = 0;
    std::uint64_t total_ = 0;
    std::uint64_t emitted_ = 0;
    std::uint64_t leaf_count_ = 0;
    std::uint64_t block_size_ = 1;
    /** Path buffer between fill() calls when the batch splits a lookup. */
    std::vector<PageId> pending_;
    std::size_t pending_pos_ = 0;
};

}  // namespace artmem::workloads

#endif  // ARTMEM_WORKLOADS_BTREE_HPP
