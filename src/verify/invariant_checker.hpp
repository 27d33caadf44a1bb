/**
 * @file
 * Compiled-in simulator invariant checker.
 *
 * Every figure this repo reproduces is only as trustworthy as the
 * simulator's internal consistency: if the residency map, the LRU
 * lists, the EMA histogram, or the Q-tables silently drift apart —
 * exactly the kind of corruption ARMS warns tiering systems about and
 * that Nomad observed during aborted transactional migrations — the
 * benchmark deltas measure the bug, not the policy. The fault-injection
 * layer (memsim/fault_injector.hpp) deliberately exercises the
 * aborted/retried migration and PEBS-blackout paths where such drift
 * would hide.
 *
 * InvariantChecker audits, after every decision interval of a run
 * (sim/engine.cpp) and on demand from tests:
 *
 *  - machine residency: per-tier used counts equal a recount of the
 *    page-flags array, and never exceed tier capacity;
 *  - LRU structure: each active/inactive list is a well-formed doubly
 *    linked chain whose walk matches its size and its members' where()
 *    labels (catching duplicates and cycles) with position stamps
 *    falling strictly from head to tail, and every linked page is
 *    resident in the list's tier;
 *  - EMA histogram mass: per-bin page populations equal a recount from
 *    the per-page counters, total mass equals the page space, and the
 *    hot index holds exactly the pages at or above its floor;
 *  - fault accounting: migration-failure counters reconcile with the
 *    FaultInjector's own draw bookkeeping, and are zero in fault-free
 *    runs;
 *  - Q-tables: every action value is finite and inside the bound
 *    implied by the clamped reward range and the discount factor.
 *
 * A violated invariant throws a typed InvariantViolation carrying the
 * invariant id and a dump of the offending page/state, so a corruption
 * is caught at the interval it happens instead of as a benchmark delta.
 *
 * The checks are O(pages); check_ema() allocates one bit per page to
 * find a page the hot index holds twice. The engine hook is always
 * compiled in and gated by a runtime flag
 * (EngineConfig::check_invariants, CLI --check-invariants).
 */
#ifndef ARTMEM_VERIFY_INVARIANT_CHECKER_HPP
#define ARTMEM_VERIFY_INVARIANT_CHECKER_HPP

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/artmem.hpp"
#include "lru/lru_lists.hpp"
#include "memsim/tiered_machine.hpp"
#include "policies/policy.hpp"
#include "rl/qtable.hpp"
#include "stats/ema_bins.hpp"

namespace artmem::verify {

/** Which audited invariant was violated. */
enum class Invariant : std::uint8_t {
    kResidencyCount = 0,  ///< used_pages() disagrees with a flag recount.
    kTierCapacity,        ///< A tier holds more pages than its capacity.
    kLruStructure,        ///< Broken links, size mismatch, cycle, dup,
                          ///< or stamps out of list order.
    kLruResidency,        ///< Linked page unallocated or in wrong tier.
    kEmaBinMass,          ///< Bins or hot index disagree with the counters.
    kFaultAccounting,     ///< Failure counters vs. injector bookkeeping.
    kQTableValue,         ///< Non-finite or out-of-bound action value.
    kTxAccounting,        ///< Transaction counters vs. draw bookkeeping.
    kTenantQuota,         ///< Tenant ledger census / quota violation.
};

/** Printable invariant name ("residency_count", ...). */
std::string_view invariant_name(Invariant invariant);

/**
 * Thrown when an audit finds an inconsistency. what() carries a dump of
 * the offending page/state; which() identifies the invariant so tests
 * can assert the exact failure class.
 */
class InvariantViolation : public std::runtime_error
{
  public:
    InvariantViolation(Invariant which, const std::string& detail);

    /** The violated invariant. */
    Invariant which() const { return which_; }

  private:
    Invariant which_;
};

/**
 * The audit pass. Stateless apart from the audit counter; all check_*
 * entry points are usable independently (unit tests corrupt one
 * structure and call one check).
 *
 * Every check returns the number of items it examined (pages, list
 * nodes, bins, Q-entries, reconciled counters) and is [[nodiscard]]:
 * a call site that ignores the count is almost always a call site
 * that would also swallow a zero-coverage audit, so the type system
 * (and detlint rule DL004) make the acknowledgement explicit. Tests
 * assert the count is positive in the pass direction.
 */
class InvariantChecker
{
  public:
    /**
     * Residency map vs. per-tier counts and capacities: recounts the
     * allocation flags of every page and compares with used_pages().
     * With the transactional engine on, the recount also charges each
     * in-flight shadow copy to its destination tier and each
     * dual-resident secondary copy to its non-primary tier, matching
     * the machine's capacity bookkeeping.
     * @returns pages examined plus per-tier counters reconciled.
     */
    [[nodiscard]] static std::uint64_t
    check_machine(const memsim::TieredMachine& machine);

    /**
     * LRU list audit against the machine's residency: every list walk
     * must be consistent (links, sizes, where() labels, no cycles or
     * duplicates, stamps strictly falling from head to tail) and every
     * linked page must be allocated and resident in the tier the list
     * belongs to.
     * @returns page labels examined plus list nodes walked.
     */
    [[nodiscard]] static std::uint64_t
    check_lru(const lru::LruLists& lists,
              const memsim::TieredMachine& machine);

    /**
     * EMA histogram mass: recomputes each bin's population from the
     * per-page counters and compares with bin_pages(); total mass must
     * equal the page space. hot_pages() must hold every page whose
     * count is at least hot_floor() exactly once and nothing else
     * (nothing at all when the floor is 0).
     * @returns per-page counters examined plus bins reconciled plus
     *          hot-index entries checked.
     */
    [[nodiscard]] static std::uint64_t
    check_ema(const stats::EmaBins& bins);

    /**
     * Migration-failure counters vs. FaultInjector bookkeeping. In a
     * fault-free machine every injected-failure counter must be zero;
     * with faults installed, transient aborts must match the injector's
     * draw log exactly, contention failures must be at least the
     * injector's contended draws (capacity pressure adds more), and
     * pinned failures require a pinned fraction. @p expected_suppressed,
     * when provided (the engine's own running count), must equal the
     * injector's suppressed-sample count.
     * @returns counter reconciliations performed.
     */
    [[nodiscard]] static std::uint64_t check_fault_accounting(
        const memsim::TieredMachine& machine,
        std::optional<std::uint64_t> expected_suppressed = std::nullopt);

    /**
     * Transactional-migration accounting. With the engine off, every
     * transaction counter must be zero (the mode is a strict no-op).
     * With it on: opens must equal commits + aborts + the in-flight
     * table's population; write-classification hits must equal aborts
     * plus dual-copy drops (each hit resolves exactly one way); and the
     * per-tier reclaimable count must equal a census of dual-resident
     * pages charged to that tier.
     * @returns counters reconciled (plus pages censused when tx is on).
     */
    [[nodiscard]] static std::uint64_t
    check_tx_accounting(const memsim::TieredMachine& machine);

    /**
     * Tenant-ledger accounting (memsim/tenant_ledger.hpp; DESIGN.md
     * §13). A per-tenant per-tier census of the machine's residency map
     * — bucketing every allocated page by its ledger owner and charging
     * transactional shadow/dual secondary copies exactly like
     * check_machine() — must equal the ledger's used counts tenant by
     * tenant, and the per-tenant sums must add back up to the machine's
     * used_pages(). A tenant may hold fast pages beyond its quota only
     * up to its recorded over-quota allocation count (the soft
     * first-touch fallback); anything further means a migration slipped
     * past the quota gate. Per-tenant promotion/demotion totals must
     * sum to the machine's (exchanges count one promotion and one
     * demotion each).
     * @returns pages censused plus per-tenant counters reconciled.
     */
    [[nodiscard]] static std::uint64_t
    check_tenant_quota(const memsim::TieredMachine& machine);

    /**
     * Q-table sanity: every entry finite and |Q| <= @p bound.
     * @p label names the table in the violation dump.
     * @returns Q-entries examined (states x actions).
     */
    [[nodiscard]] static std::uint64_t
    check_qtable(const rl::QTable& table, double bound,
                 std::string_view label);

    /**
     * The Q-value bound implied by an ArtMem configuration: rewards are
     * clamped to [-100, 100] (core/artmem.cpp), so a tabular TD fixpoint
     * cannot leave [-R/(1-gamma), R/(1-gamma)] once the initial values
     * are inside it. A small epsilon absorbs floating-point slack.
     */
    static double qtable_bound(const core::ArtMemConfig& config);

    /** Audit ArtMem's internal structures (LRU, EMA, both Q-tables).
     *  @returns the summed item counts of the four sub-checks. */
    [[nodiscard]] static std::uint64_t
    check_artmem(const core::ArtMem& artmem,
                 const memsim::TieredMachine& machine);

    /**
     * Full per-interval audit: machine residency + fault accounting
     * always, ArtMem internals when @p policy is an ArtMem instance.
     * @returns the summed item counts of every check performed.
     */
    [[nodiscard]] std::uint64_t
    audit(const memsim::TieredMachine& machine,
          const policies::Policy& policy,
          std::optional<std::uint64_t> expected_suppressed = std::nullopt);

    /** Audits performed so far. */
    std::uint64_t audits() const { return audits_; }

  private:
    std::uint64_t audits_ = 0;
};

}  // namespace artmem::verify

#endif  // ARTMEM_VERIFY_INVARIANT_CHECKER_HPP
