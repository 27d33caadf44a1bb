/**
 * @file
 * Per-tenant residency accounting, fast-tier quotas, and migration
 * admission control (DESIGN.md §13).
 *
 * A multi-tenant run interleaves N workload streams onto one
 * TieredMachine (tenancy/tenant_set.hpp); the TenantLedger is the
 * machine-side bookkeeping for that mode. It is the single source of
 * truth for "who holds fast-tier slots":
 *
 *  - a page→tenant ownership map (fixed at install time: each tenant
 *    owns one contiguous span of the stacked address space),
 *  - per-tenant per-tier residency counts mirroring every used-page
 *    mutation the machine makes (allocation, migration, transactional
 *    shadow/dual charges), reconciled against a flags census by the
 *    kTenantQuota invariant (verify/invariant_checker.hpp),
 *  - per-tenant access / PEBS-sample attribution counters,
 *  - per-tenant fast-tier quotas enforced at migration and placement
 *    time.
 *
 * The ledger is null on a single-tenant machine (the default), in which
 * case every hook below compiles down to one untaken branch on a null
 * pointer — a `--tenants=1` run prints the plain run's bytes (ctest
 * golden.tenancy_off_explicit).
 */
#ifndef ARTMEM_MEMSIM_TENANT_LEDGER_HPP
#define ARTMEM_MEMSIM_TENANT_LEDGER_HPP

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "memsim/tier.hpp"
#include "util/types.hpp"

namespace artmem::memsim {

class TenantLedger;

/**
 * Pluggable per-tenant migration admission control (TierBPF-style,
 * PAPERS.md). The machine consults the installed controller after a
 * promotion passes the quota check; a denial returns
 * MigrateStatus::kAdmissionDenied with no state change and no fault
 * draws consumed. Implementations live in src/tenancy/admission.cpp
 * (static rate limit, aggregate-hit-ratio feedback); the interface
 * lives here so memsim never depends on the tenancy layer.
 *
 * Determinism contract: admit() and on_interval() must be pure
 * functions of the call sequence and the ledger's deterministic
 * counters — no wall clock, no unseeded randomness.
 */
class AdmissionController
{
  public:
    virtual ~AdmissionController() = default;

    /** Registry name ("static", "feedback"). */
    virtual std::string_view name() const = 0;

    /**
     * May @p tenant move a page into @p dst right now? Called once per
     * candidate migration after quota passes; a grant may consume
     * per-interval controller budget.
     */
    virtual bool admit(std::uint32_t tenant, Tier dst) = 0;

    /**
     * Decision-interval feedback: read the ledger's window counters
     * (window_accesses / aggregate_window_fast_ratio) and adjust
     * budgets. Called by the engine at every decision boundary, before
     * the window snapshot rolls.
     */
    virtual void on_interval(const TenantLedger& ledger) { (void)ledger; }
};

/** Outcome of the ledger's pre-migration check. */
enum class TenantDecision : std::uint8_t {
    kAdmit = 0,
    kQuotaDenied,      ///< Tenant's fast-tier quota is exhausted.
    kAdmissionDenied,  ///< The admission controller refused the grant.
};

/** Per-tenant residency, quota, and admission accounting. */
class TenantLedger
{
  public:
    /** No fast-tier quota (the default for every tenant). */
    static constexpr std::size_t kNoQuota = ~std::size_t{0};

    /** Monotonic per-tenant counters. */
    struct Totals {
        std::uint64_t accesses[kTierCount] = {0, 0};
        std::uint64_t samples = 0;          ///< PEBS samples attributed.
        std::uint64_t promoted_pages = 0;
        std::uint64_t demoted_pages = 0;
        std::uint64_t quota_denied = 0;
        std::uint64_t admission_denied = 0;
        std::uint64_t admission_grants = 0;
        /** First-touch allocations that landed in the fast tier while
         *  the tenant was at quota because the slow tier was full (the
         *  quota is soft at placement: allocation must never fail). */
        std::uint64_t over_quota_allocs = 0;

        std::uint64_t total_accesses() const
        {
            return accesses[0] + accesses[1];
        }
        /** Fast-tier hit ratio (1.0 if idle, matching Counters). */
        double fast_ratio() const
        {
            const std::uint64_t total = total_accesses();
            return total == 0 ? 1.0
                              : static_cast<double>(accesses[0]) /
                                    static_cast<double>(total);
        }
    };

    /**
     * Build a ledger for @p tenants tenants over @p page_count pages.
     * Ownership spans and quotas start empty/unlimited; fill them with
     * set_owner_span()/set_quota() before installing into a machine.
     */
    TenantLedger(std::uint32_t tenants, std::size_t page_count);

    /** Assign pages [first, first+pages) to @p tenant. */
    void set_owner_span(PageId first, std::size_t pages,
                        std::uint32_t tenant);

    /** Set @p tenant's fast-tier quota in pages (kNoQuota = unlimited). */
    void set_quota(std::uint32_t tenant, std::size_t fast_pages);

    /** Install (or clear with nullptr) the admission controller. */
    void set_admission(std::unique_ptr<AdmissionController> admission)
    {
        admission_ = std::move(admission);
    }

    std::uint32_t tenant_count() const { return tenants_; }
    std::size_t page_count() const { return owner_.size(); }

    /** Owning tenant of @p page. */
    std::uint32_t owner(PageId page) const { return owner_[page]; }

    /** Pages @p tenant currently holds resident in @p t (including
     *  transactional shadow and dual-resident secondary copies). */
    std::size_t used_pages(std::uint32_t tenant, Tier t) const
    {
        return used_[tenant * kTierCount + static_cast<int>(t)];
    }

    /** @p tenant's fast-tier quota (kNoQuota = unlimited). */
    std::size_t quota(std::uint32_t tenant) const
    {
        return quota_[tenant];
    }

    const Totals& totals(std::uint32_t tenant) const
    {
        return totals_[tenant];
    }

    AdmissionController* admission() { return admission_.get(); }
    const AdmissionController* admission() const
    {
        return admission_.get();
    }

    // --- hot-path hooks (one branch + two increments each) ------------

    /** Attribute one access by @p page's owner to tier index @p t. */
    void note_access(PageId page, int t)
    {
        ++totals_[owner_[page]].accesses[t];
    }

    /** Attribute one drained PEBS sample. */
    void note_sample(PageId page) { ++totals_[owner_[page]].samples; }

    /** Mirror a machine used-page mutation: @p delta is +1/-1. */
    void charge(PageId page, Tier t, int delta)
    {
        auto& slot = used_[owner_[page]* kTierCount + static_cast<int>(t)];
        slot = static_cast<std::size_t>(
            static_cast<long long>(slot) + delta);
    }

    /** Count a completed migration of @p page into @p dst. */
    void note_migration(PageId page, Tier dst)
    {
        Totals& t = totals_[owner_[page]];
        if (dst == Tier::kFast)
            ++t.promoted_pages;
        else
            ++t.demoted_pages;
    }

    // --- quota / admission enforcement --------------------------------

    /**
     * True when placing one more fast page for @p page's owner would
     * exceed its quota (allocation steering; the machine falls back to
     * the slow tier, or over quota when both constraints collide).
     */
    bool fast_quota_exhausted(PageId page) const
    {
        const std::uint32_t t = owner_[page];
        return used_[t * kTierCount] >= quota_[t];
    }

    /** Count a first-touch that had to violate the quota. */
    void note_over_quota_alloc(PageId page)
    {
        ++totals_[owner_[page]].over_quota_allocs;
    }

    /**
     * Pre-migration gate for moving @p page into @p dst. Quota is
     * checked first (only when the move charges a new destination slot,
     * @p charges_dst — a dual-copy free flip does not), then the
     * admission controller (for fast-tier promotions). Denials are
     * counted per tenant; the caller maps the decision to a
     * MigrateStatus and records the machine-level failure.
     */
    TenantDecision check_migration(PageId page, Tier dst, bool charges_dst);

    /**
     * Pre-exchange gate: @p promoted moves slow→fast, @p demoted
     * fast→slow. Quota applies only when the pages belong to different
     * tenants (a same-tenant swap is fast-usage neutral); admission is
     * consulted for the promoted page's tenant either way.
     */
    TenantDecision check_exchange(PageId promoted, PageId demoted);

    // --- decision-interval window ------------------------------------

    /** Accesses by @p tenant in tier @p t since the last roll. */
    std::uint64_t window_accesses(std::uint32_t tenant, int t) const
    {
        return totals_[tenant].accesses[t] - window_base_[tenant].accesses[t];
    }

    /** @p tenant's fast-tier hit ratio over the current window. */
    double window_fast_ratio(std::uint32_t tenant) const;

    /** All tenants' fast-tier hit ratio over the current window. */
    double aggregate_window_fast_ratio() const;

    /**
     * Decision-boundary hook: feed the window to the admission
     * controller, then roll the snapshot. Called by the engine after
     * every decision interval.
     */
    void interval_feedback();

  private:
    /** Test-only corruption back door (tests/test_verify.cpp). */
    friend struct TenantLedgerTestPeer;

    std::uint32_t tenants_;
    std::vector<std::uint16_t> owner_;       ///< page → tenant.
    std::vector<std::size_t> used_;          ///< tenant-major [tenant][tier].
    std::vector<std::size_t> quota_;         ///< fast-tier quota per tenant.
    std::vector<Totals> totals_;
    std::vector<Totals> window_base_;        ///< Snapshot at last roll.
    std::unique_ptr<AdmissionController> admission_;
};

}  // namespace artmem::memsim

#endif  // ARTMEM_MEMSIM_TENANT_LEDGER_HPP
