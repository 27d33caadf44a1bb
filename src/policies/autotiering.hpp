/**
 * @file
 * AutoTiering (USENIX ATC'21) emulation.
 *
 * Key designs reproduced: promotion is *opportunistic* — a slow-tier
 * page is promoted on its very first hint fault when the fast tier has
 * free space (OPM); when the fast tier is full, the faulting page's
 * NUMA-fault count is compared with the coldest fast-tier pages and the
 * two are *exchanged* (CPM swap migration). Pages are effectively sorted
 * by per-page fault counts. Fast at separating clearly hot from clearly
 * cold data; churns on warm data because single faults trigger moves
 * (Table 1: disadvantage "warm data").
 *
 * The exchange-victim search is a sampled ring walk over fast-tier
 * pages. It reads a sorted index of the fast tier instead of visiting
 * every page of the ring; the index is exact, so the victim, the cursor
 * and the charged overhead match the walk (DESIGN.md, "AutoTiering's
 * fast-page index").
 */
#ifndef ARTMEM_POLICIES_AUTOTIERING_HPP
#define ARTMEM_POLICIES_AUTOTIERING_HPP

#include <vector>

#include "policies/policy.hpp"
#include "policies/scan_throttle.hpp"

namespace artmem::policies {

/** AutoTiering: opportunistic promotion + exchange migrations. */
class AutoTiering final : public Policy
{
  public:
    /** Tunables. */
    struct Config {
        /** Fraction of the address space trap-armed per tick. */
        double scan_fraction = 1.0 / 32.0;
        /** Halve fault counts every N intervals (history retention). */
        unsigned decay_every = 8;
        /** Pages examined when searching for a cold exchange victim. */
        std::size_t victim_scan = 128;
        /** Exchanges allowed per interval (swap-migration rate limit). */
        std::size_t exchange_limit = 32;
        /** CPU cost per page scanned (ns). */
        SimTimeNs scan_cost_ns = 8;
        /** Fault-rate target per tick for adaptive scan throttling. */
        std::uint64_t target_faults_per_tick = 150;
    };

    AutoTiering() = default;
    explicit AutoTiering(const Config& config) : config_(config) {}

    std::string_view name() const override { return "autotiering"; }

    void init(memsim::TieredMachine& machine) override;
    void on_hint_fault(PageId page, memsim::Tier tier) override;
    void on_tick(SimTimeNs now) override;
    void on_interval(SimTimeNs now) override;

  private:
    friend struct AutoTieringTestPeer;

    PageId find_cold_fast_page();
    /** migrate() that keeps the fast-page index exact. */
    memsim::MigrationResult migrate_tracked(PageId page, memsim::Tier dst);
    /** exchange() that keeps the fast-page index exact. */
    memsim::MigrationResult exchange_tracked(PageId a, PageId b);
    /** Re-read @p page's residency into the index, if it is built. */
    void resync(PageId page);

    Config config_;
    std::vector<std::uint32_t> fault_count_;
    std::vector<PageId> exchange_queue_;
    ScanThrottle throttle_{1.0 / 32.0, 48};
    PageId scan_cursor_ = 0;
    PageId victim_cursor_ = 0;
    unsigned interval_count_ = 0;
    /**
     * Allocated fast-tier pages in ascending order. Built from the
     * machine at the first victim search of an interval and valid until
     * the interval ends: inside on_interval only the policy's own
     * migrate_tracked()/exchange_tracked() calls change a tier.
     */
    std::vector<PageId> fast_index_;
    bool fast_index_valid_ = false;
};

}  // namespace artmem::policies

#endif  // ARTMEM_POLICIES_AUTOTIERING_HPP
