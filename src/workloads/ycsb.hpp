/**
 * @file
 * YCSB-on-Memcached workload emulation (paper Table 3: 32 GiB
 * in-memory database; workloads A, B, C, F, D executed sequentially in
 * the order A-B-C-F-D, E omitted as in the paper).
 *
 * Keys are laid out in insertion order across the slab arena, so
 * Zipfian-popular keys cluster in low addresses (the locality real
 * memcached slabs exhibit for YCSB's ordered insert). Popularity is
 * modelled directly at page granularity: a page aggregates the ~2K keys
 * it stores. Workload D uses the "latest" distribution: popularity
 * concentrates on the most recently inserted keys, shifting the hot
 * region to the top of the arena while 5% of its operations insert.
 */
#ifndef ARTMEM_WORKLOADS_YCSB_HPP
#define ARTMEM_WORKLOADS_YCSB_HPP

#include <memory>
#include <string>

#include "util/rng.hpp"
#include "util/zipf.hpp"
#include "workloads/generator.hpp"

namespace artmem::workloads {

/** YCSB A-B-C-F-D phase sequence over a memcached-like arena. */
class Ycsb final : public AccessGenerator
{
  public:
    /** Workload parameters. */
    struct Params {
        Bytes footprint = 32ull << 30;  ///< Arena size (paper: 32 GiB).
        double zipf_theta = 0.99;       ///< YCSB default skew.
        std::uint64_t total_accesses = 10000000;
        /** Fraction of the arena populated before workload D's inserts. */
        double initial_fill = 0.9;
        /** Advertised workload name (factory variants override it). */
        std::string label = "ycsb";
    };

    /**
     * @param shapes The run's Zipf shapes, shared with other streams of
     *               the same (n, theta); none gives a private shape.
     */
    Ycsb(const Params& params, Bytes page_size, std::uint64_t seed,
         ZipfShapes* shapes = nullptr);

    std::string_view name() const override { return params_.label; }
    Bytes footprint() const override { return params_.footprint; }
    std::size_t fill(std::span<PageId> out) override;
    std::uint64_t total_accesses() const override
    {
        return params_.total_accesses;
    }

    /** Phase label currently executing ('A'..'F'); tests. */
    char current_phase() const;

  private:
    Params params_;
    Bytes page_size_;
    Rng rng_;
    std::unique_ptr<ZipfianGenerator> zipf_;
    std::uint64_t emitted_ = 0;
    PageId arena_pages_ = 0;
    PageId populated_pages_ = 0;  ///< Pages holding inserted keys.
    PageId load_cursor_ = 0;      ///< Population-sweep progress.
};

}  // namespace artmem::workloads

#endif  // ARTMEM_WORKLOADS_YCSB_HPP
