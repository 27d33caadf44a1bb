/**
 * @file
 * MASIM-style configurable access-pattern workload.
 *
 * MASIM ("memory access simulator", used by the paper's Section 3
 * motivation study) lets users describe a workload as phases, each
 * phase being a weighted mix of regions accessed uniformly or
 * sequentially. The four synthetic patterns of Figure 1 are expressed
 * in this vocabulary (see patterns.hpp).
 *
 * Specs can be built programmatically or parsed from a small key=value
 * config (docs/MASIM_FORMAT described in the README).
 */
#ifndef ARTMEM_WORKLOADS_MASIM_HPP
#define ARTMEM_WORKLOADS_MASIM_HPP

#include <string>
#include <vector>

#include "util/config.hpp"
#include "util/rng.hpp"
#include "workloads/generator.hpp"

namespace artmem::workloads {

/** One addressable region within a phase's access mix. */
struct MasimRegion {
    Bytes offset = 0;        ///< Start byte offset within the footprint.
    Bytes size = 0;          ///< Region length in bytes.
    double weight = 1.0;     ///< Relative probability of picking it.
    bool sequential = false; ///< Stride through instead of uniform random.
};

/** A phase: a fixed number of accesses drawn from a region mix. */
struct MasimPhase {
    std::uint64_t accesses = 0;
    std::vector<MasimRegion> regions;
};

/** Full workload description. */
struct MasimSpec {
    std::string name = "masim";
    Bytes footprint = 0;
    std::vector<MasimPhase> phases;
};

/** Generator executing a MasimSpec. */
class Masim final : public AccessGenerator
{
  public:
    /**
     * @param spec      Validated workload description (fatal on errors).
     * @param page_size Machine page size used to map offsets to pages.
     * @param seed      RNG seed.
     */
    Masim(MasimSpec spec, Bytes page_size, std::uint64_t seed);

    /**
     * Parse a phase-structured config:
     *   name = s1
     *   footprint_mib = 32768
     *   phases = 2
     *   phase0.accesses = 1000000
     *   phase0.regions = 2
     *   phase0.region0 = offset_mib size_mib weight [seq]
     */
    static MasimSpec parse_spec(const KvConfig& config);

    std::string_view name() const override { return spec_.name; }
    Bytes footprint() const override { return spec_.footprint; }
    std::size_t fill(std::span<PageId> out) override;
    std::uint64_t total_accesses() const override { return total_; }

    /** The spec in use (tests, Fig. 1 printing). */
    const MasimSpec& spec() const { return spec_; }

  private:
    /** Tests reach the region pick and the phase set-up. */
    friend struct MasimTestPeer;

    struct PreparedRegion {
        PageId first_page;
        PageId page_span;
        bool sequential;
        PageId cursor = 0;
    };

    void prepare_phase(std::size_t index);

    /**
     * The region 53-bit draw @p k picks. The cutoffs never decrease, so
     * the count of those at or below k is the first region whose cutoff
     * lies above k.
     */
    static std::size_t
    region_of(std::uint64_t k, const std::uint64_t* cutoffs,
              std::size_t count)
    {
        std::size_t index = 0;
        for (std::size_t c = 0; c < count; ++c)
            index += k >= cutoffs[c];
        return index;
    }

    /** Emit @p count accesses of the current phase into @p out. */
    void fill_phase(PageId* out, std::size_t count);

    MasimSpec spec_;
    Bytes page_size_;
    Rng rng_;
    std::uint64_t total_ = 0;
    std::size_t phase_index_ = 0;
    std::uint64_t remaining_in_phase_ = 0;
    std::vector<PreparedRegion> prepared_;
    /**
     * Region pick cutoffs of the current phase, one per region but the
     * last: a draw k = rng.next() >> 11 picks the number of cutoffs at
     * or below k (DESIGN.md §9, "Generation kernels").
     */
    std::vector<std::uint64_t> cutoffs_;
};

}  // namespace artmem::workloads

#endif  // ARTMEM_WORKLOADS_MASIM_HPP
