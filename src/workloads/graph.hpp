/**
 * @file
 * GAP benchmark suite page-access emulation (CC, SSSP, PageRank).
 *
 * A CSR graph traversal touches memory in two characteristic ways:
 * sequential sweeps over the vertex/edge arrays, and data-dependent
 * gathers into the property array whose per-vertex frequency follows
 * the (power-law) degree distribution. We reproduce those streams over
 * the paper-reported footprints without materializing a multi-GB graph:
 *
 *  - CC (69 GiB, Urand/Kron inputs): label-propagation gathers with a
 *    strongly skewed, spatially compact hot vertex block — the paper's
 *    Figure 10b shows CC's hot data "concentrated in smaller regions";
 *  - SSSP (64 GiB, delta-stepping): a frontier window that sweeps the
 *    graph across supersteps, with mildly skewed gathers — Figure 10a
 *    shows "a broader distribution of hot regions with minor
 *    differences in access frequency";
 *  - PR (25 GiB): alternating full sequential rank sweeps and
 *    scattered degree-weighted gathers.
 */
#ifndef ARTMEM_WORKLOADS_GRAPH_HPP
#define ARTMEM_WORKLOADS_GRAPH_HPP

#include <memory>

#include "util/rng.hpp"
#include "util/zipf.hpp"
#include "workloads/generator.hpp"

namespace artmem::workloads {

/** Parameterized CSR-traversal access stream. */
class GraphWorkload final : public AccessGenerator
{
  public:
    /** Traversal parameters. */
    struct Params {
        std::string name = "graph";
        Bytes footprint = 64ull << 30;
        std::uint64_t total_accesses = 10000000;
        /** Probability an access is part of a sequential array sweep. */
        double seq_fraction = 0.3;
        /** Zipf exponent of the gather skew (degree distribution). */
        double gather_theta = 0.7;
        /** Scatter hot vertices across the address space (hub hashing). */
        bool scramble = false;
        /** Start of the compact hot block, as a fraction of footprint
         *  (only meaningful when scramble = false). */
        double hot_block_offset = 0.4;
        /** Frontier window as a fraction of the footprint (0 = off). */
        double frontier_window = 0.0;
        /** Number of frontier supersteps across the run. */
        int frontier_phases = 0;
    };

    /**
     * @param shapes The run's Zipf shapes, shared with other streams of
     *               the same (n, theta); none gives a private shape.
     */
    GraphWorkload(const Params& params, Bytes page_size, std::uint64_t seed,
                  ZipfShapes* shapes = nullptr);

    /** Connected Components preset (paper: 69 GiB footprint). */
    static Params cc(std::uint64_t total_accesses);

    /** Single-Source Shortest Path preset (64 GiB). */
    static Params sssp(std::uint64_t total_accesses);

    /** PageRank preset (25 GiB). */
    static Params pr(std::uint64_t total_accesses);

    std::string_view name() const override { return params_.name; }
    Bytes footprint() const override { return params_.footprint; }
    std::size_t fill(std::span<PageId> out) override;
    std::uint64_t total_accesses() const override
    {
        return params_.total_accesses;
    }

  private:
    PageId gather_target();

    Params params_;
    Bytes page_size_;
    Rng rng_;
    std::unique_ptr<ZipfianGenerator> zipf_;
    PageId page_count_;
    PageId seq_cursor_ = 0;
    std::uint64_t emitted_ = 0;
};

}  // namespace artmem::workloads

#endif  // ARTMEM_WORKLOADS_GRAPH_HPP
