#include "verify/invariant_checker.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "memsim/fault_injector.hpp"

namespace artmem::verify {

using lru::ListId;
using memsim::Tier;

std::string_view
invariant_name(Invariant invariant)
{
    switch (invariant) {
    case Invariant::kResidencyCount:
        return "residency_count";
    case Invariant::kTierCapacity:
        return "tier_capacity";
    case Invariant::kLruStructure:
        return "lru_structure";
    case Invariant::kLruResidency:
        return "lru_residency";
    case Invariant::kEmaBinMass:
        return "ema_bin_mass";
    case Invariant::kFaultAccounting:
        return "fault_accounting";
    case Invariant::kQTableValue:
        return "qtable_value";
    case Invariant::kTxAccounting:
        return "tx_accounting";
    case Invariant::kTenantQuota:
        return "tenant_quota";
    }
    return "unknown";
}

InvariantViolation::InvariantViolation(Invariant which,
                                       const std::string& detail)
    : std::runtime_error(std::string("invariant violated [") +
                         std::string(invariant_name(which)) + "]: " + detail),
      which_(which)
{
}

namespace {

[[noreturn]] void
violate(Invariant which, const std::string& detail)
{
    throw InvariantViolation(which, detail);
}

const char*
list_name(ListId list)
{
    switch (list) {
    case ListId::kFastActive:
        return "fast_active";
    case ListId::kFastInactive:
        return "fast_inactive";
    case ListId::kSlowActive:
        return "slow_active";
    case ListId::kSlowInactive:
        return "slow_inactive";
    case ListId::kNone:
        return "none";
    }
    return "?";
}

}  // namespace

std::uint64_t
InvariantChecker::check_machine(const memsim::TieredMachine& machine)
{
    const std::size_t pages = machine.page_count();
    std::size_t counted[memsim::kTierCount] = {0, 0};
    for (PageId page = 0; page < pages; ++page) {
        if (!machine.is_allocated(page))
            continue;
        const Tier primary = machine.tier_of(page);
        ++counted[static_cast<std::size_t>(primary)];
        // Transactional residency charges a second slot: an in-flight
        // migrate holds a shadow copy at its destination (exchanges
        // bounce-copy and charge nothing), and a committed
        // non-exclusive page keeps its old copy until reclaim.
        if (machine.tx_page_shadow(page) || machine.tx_page_dual(page))
            ++counted[static_cast<std::size_t>(memsim::other_tier(primary))];
    }
    for (int t = 0; t < memsim::kTierCount; ++t) {
        const Tier tier = static_cast<Tier>(t);
        const std::size_t used = machine.used_pages(tier);
        const std::size_t cap = machine.capacity_pages(tier);
        if (counted[static_cast<std::size_t>(t)] != used) {
            std::ostringstream os;
            os << "tier " << memsim::tier_name(tier) << " tracks " << used
               << " resident pages but the residency map holds "
               << counted[static_cast<std::size_t>(t)] << " (of " << pages
               << " total pages)";
            violate(Invariant::kResidencyCount, os.str());
        }
        if (used > cap) {
            std::ostringstream os;
            os << "tier " << memsim::tier_name(tier) << " holds " << used
               << " pages over its capacity of " << cap;
            violate(Invariant::kTierCapacity, os.str());
        }
    }
    return static_cast<std::uint64_t>(pages) + memsim::kTierCount;
}

std::uint64_t
InvariantChecker::check_lru(const lru::LruLists& lists,
                            const memsim::TieredMachine& machine)
{
    const std::size_t pages = lists.page_count();
    if (pages != machine.page_count()) {
        std::ostringstream os;
        os << "LRU page space (" << pages << ") differs from the machine's ("
           << machine.page_count() << ")";
        violate(Invariant::kLruStructure, os.str());
    }

    constexpr ListId kLists[] = {ListId::kFastActive, ListId::kFastInactive,
                                 ListId::kSlowActive, ListId::kSlowInactive};
    std::uint64_t examined = pages;  // every label is inspected below
    std::size_t census[4] = {0, 0, 0, 0};
    for (PageId page = 0; page < pages; ++page) {
        const ListId at = lists.where(page);
        if (at == ListId::kNone)
            continue;
        ++census[static_cast<std::size_t>(at)];
        if (!machine.is_allocated(page)) {
            std::ostringstream os;
            os << "page " << page << " is linked on " << list_name(at)
               << " but not allocated";
            violate(Invariant::kLruResidency, os.str());
        }
        if (machine.tier_of(page) != lru::list_tier(at)) {
            std::ostringstream os;
            os << "page " << page << " is linked on " << list_name(at)
               << " but resides in the "
               << memsim::tier_name(machine.tier_of(page)) << " tier";
            violate(Invariant::kLruResidency, os.str());
        }
    }

    for (ListId list : kLists) {
        const std::size_t size = lists.size(list);
        if (census[static_cast<std::size_t>(list)] != size) {
            std::ostringstream os;
            os << list_name(list) << " claims " << size << " pages but "
               << census[static_cast<std::size_t>(list)]
               << " pages carry its label";
            violate(Invariant::kLruStructure, os.str());
        }
        // Walk head -> tail: the chain must visit exactly size() labelled
        // nodes with consistent back links and strictly falling position
        // stamps, and then terminate. A page linked twice (or a cycle)
        // either breaks the back links or fails to terminate within
        // size() steps.
        std::size_t walked = 0;
        PageId prev = kInvalidPage;
        PageId page = lists.head(list);
        while (page != kInvalidPage) {
            if (walked == size) {
                std::ostringstream os;
                os << list_name(list) << " walk exceeds its size of " << size
                   << " (cycle or duplicate link at page " << page << ")";
                violate(Invariant::kLruStructure, os.str());
            }
            if (lists.where(page) != list) {
                std::ostringstream os;
                os << "page " << page << " reached walking "
                   << list_name(list) << " but is labelled "
                   << list_name(lists.where(page));
                violate(Invariant::kLruStructure, os.str());
            }
            if (lists.prev(page) != prev) {
                std::ostringstream os;
                os << list_name(list) << " back link of page " << page
                   << " points to " << lists.prev(page) << ", expected "
                   << prev;
                violate(Invariant::kLruStructure, os.str());
            }
            if (prev != kInvalidPage &&
                lists.stamp(page) >= lists.stamp(prev)) {
                std::ostringstream os;
                os << list_name(list) << " page " << page << " has stamp "
                   << lists.stamp(page) << ", not below the "
                   << lists.stamp(prev) << " of page " << prev
                   << " before it";
                violate(Invariant::kLruStructure, os.str());
            }
            prev = page;
            page = lists.next(page);
            ++walked;
            ++examined;
        }
        if (walked != size) {
            std::ostringstream os;
            os << list_name(list) << " walk visited " << walked
               << " pages but the list claims " << size;
            violate(Invariant::kLruStructure, os.str());
        }
        if (lists.tail(list) != prev) {
            std::ostringstream os;
            os << list_name(list) << " tail is " << lists.tail(list)
               << " but the walk ended at " << prev;
            violate(Invariant::kLruStructure, os.str());
        }
    }
    return examined;
}

std::uint64_t
InvariantChecker::check_ema(const stats::EmaBins& bins)
{
    const std::size_t pages = bins.page_count();
    const std::uint32_t floor = bins.hot_floor();
    std::uint64_t recount[stats::EmaBins::kBins] = {};
    std::size_t at_floor = 0;  // pages the hot index must hold
    for (PageId page = 0; page < pages; ++page) {
        const std::uint32_t count = bins.count(page);
        ++recount[static_cast<std::size_t>(stats::EmaBins::bin_of(count))];
        at_floor += floor != 0 && count >= floor ? 1 : 0;
    }

    std::uint64_t mass = 0;
    for (int b = 0; b < stats::EmaBins::kBins; ++b) {
        const std::uint64_t tracked = bins.bin_pages(b);
        mass += tracked;
        if (tracked != recount[static_cast<std::size_t>(b)]) {
            std::ostringstream os;
            os << "bin " << b << " (counts >= "
               << stats::EmaBins::bin_floor(b) << ") tracks " << tracked
               << " pages but the per-page counters place "
               << recount[static_cast<std::size_t>(b)] << " there";
            violate(Invariant::kEmaBinMass, os.str());
        }
    }
    if (mass != pages) {
        std::ostringstream os;
        os << "total bin mass " << mass << " differs from the page space "
           << pages;
        violate(Invariant::kEmaBinMass, os.str());
    }

    // The hot index holds each page at or above the floor exactly once,
    // and nothing else; with no floor it stays empty.
    const auto& hot = bins.hot_pages();
    std::vector<bool> indexed(pages);
    for (const PageId page : hot) {
        std::string problem;
        if (floor == 0)
            problem = "although it has no floor";
        else if (page >= pages)
            problem = "outside the page space";
        else if (bins.count(page) < floor)
            problem = "with count " + std::to_string(bins.count(page));
        else if (indexed[page])
            problem = "twice";
        if (!problem.empty()) {
            std::ostringstream os;
            os << "hot index (floor " << floor << ") holds page " << page
               << " " << problem;
            violate(Invariant::kEmaBinMass, os.str());
        }
        indexed[page] = true;
    }
    // Every entry is a distinct page at or above the floor, so a short
    // index is missing one: find it for the message.
    if (hot.size() != at_floor) {
        for (PageId page = 0; page < pages; ++page) {
            if (bins.count(page) >= floor && !indexed[page]) {
                std::ostringstream os;
                os << "page " << page << " has count " << bins.count(page)
                   << " but is missing from the hot index (floor " << floor
                   << ")";
                violate(Invariant::kEmaBinMass, os.str());
            }
        }
    }
    return static_cast<std::uint64_t>(pages) + stats::EmaBins::kBins +
           hot.size();
}

std::uint64_t
InvariantChecker::check_fault_accounting(
    const memsim::TieredMachine& machine,
    std::optional<std::uint64_t> expected_suppressed)
{
    const auto& totals = machine.totals();
    if (!machine.faults_enabled()) {
        if (totals.failed_pinned != 0 || totals.failed_transient != 0 ||
            totals.failed_contended != 0 ||
            (totals.aborted_migration_ns != 0 && totals.tx_aborted == 0)) {
            std::ostringstream os;
            os << "fault-free machine recorded injected failures (pinned="
               << totals.failed_pinned << " transient="
               << totals.failed_transient << " contended="
               << totals.failed_contended << " aborted_ns="
               << totals.aborted_migration_ns << ")";
            violate(Invariant::kFaultAccounting, os.str());
        }
        return 4;  // the four fault counters verified zero
    }
    const memsim::FaultInjector& faults = *machine.fault_injector();
    if (totals.failed_transient != faults.transient_aborts()) {
        std::ostringstream os;
        os << "machine recorded " << totals.failed_transient
           << " transient aborts but the injector granted "
           << faults.transient_aborts();
        violate(Invariant::kFaultAccounting, os.str());
    }
    if (totals.failed_contended < faults.contended_hits()) {
        std::ostringstream os;
        os << "machine recorded " << totals.failed_contended
           << " contended failures, fewer than the injector's "
           << faults.contended_hits() << " contended draws";
        violate(Invariant::kFaultAccounting, os.str());
    }
    if (totals.failed_pinned > 0 && faults.config().pinned_fraction <= 0.0) {
        std::ostringstream os;
        os << "machine recorded " << totals.failed_pinned
           << " pinned failures but no pages are pinned";
        violate(Invariant::kFaultAccounting, os.str());
    }
    if (totals.aborted_migration_ns > 0 && totals.failed_transient == 0 &&
        totals.tx_aborted == 0) {
        std::ostringstream os;
        os << "machine charged " << totals.aborted_migration_ns
           << " ns of aborted copies without a transient or "
           << "transactional abort";
        violate(Invariant::kFaultAccounting, os.str());
    }
    if (expected_suppressed &&
        *expected_suppressed != faults.suppressed_samples()) {
        std::ostringstream os;
        os << "engine counted " << *expected_suppressed
           << " suppressed samples but the injector suppressed "
           << faults.suppressed_samples();
        violate(Invariant::kFaultAccounting, os.str());
    }
    return expected_suppressed ? 5 : 4;  // reconciliations performed
}

std::uint64_t
InvariantChecker::check_tx_accounting(const memsim::TieredMachine& machine)
{
    const auto& totals = machine.totals();
    if (!machine.tx_enabled()) {
        if (totals.tx_opened != 0 || totals.tx_committed != 0 ||
            totals.tx_aborted != 0 || totals.tx_retries != 0 ||
            totals.tx_free_flips != 0 || totals.tx_dual_drops != 0 ||
            totals.tx_dual_reclaims != 0 || totals.failed_tx_busy != 0) {
            std::ostringstream os;
            os << "tx-off machine recorded transaction activity (opened="
               << totals.tx_opened << " committed=" << totals.tx_committed
               << " aborted=" << totals.tx_aborted << " busy="
               << totals.failed_tx_busy << ")";
            violate(Invariant::kTxAccounting, os.str());
        }
        return 8;  // the eight transaction counters verified zero
    }
    // Every open resolves exactly once: commit, abort, or still pending.
    const std::uint64_t inflight = machine.tx_inflight_count();
    if (totals.tx_opened !=
        totals.tx_committed + totals.tx_aborted + inflight) {
        std::ostringstream os;
        os << "transaction ledger does not balance: opened="
           << totals.tx_opened << " != committed=" << totals.tx_committed
           << " + aborted=" << totals.tx_aborted << " + in-flight="
           << inflight;
        violate(Invariant::kTxAccounting, os.str());
    }
    // Every write draw that hit resolved exactly one way: it aborted an
    // in-flight transaction or dropped a dual-resident secondary copy.
    if (machine.tx_write_hits() !=
        totals.tx_aborted + totals.tx_dual_drops) {
        std::ostringstream os;
        os << "write-classification draws do not reconcile: "
           << machine.tx_write_hits() << " hits (of "
           << machine.tx_write_draws() << " draws) but aborted="
           << totals.tx_aborted << " + dual_drops="
           << totals.tx_dual_drops;
        violate(Invariant::kTxAccounting, os.str());
    }
    // The per-tier reclaimable counters must match a census of the
    // dual-residency flags (a stale counter would let free_pages() lie
    // to every policy).
    std::size_t dual[memsim::kTierCount] = {0, 0};
    const std::size_t pages = machine.page_count();
    for (PageId page = 0; page < pages; ++page) {
        if (machine.is_allocated(page) && machine.tx_page_dual(page))
            ++dual[static_cast<std::size_t>(
                memsim::other_tier(machine.tier_of(page)))];
    }
    for (int t = 0; t < memsim::kTierCount; ++t) {
        const Tier tier = static_cast<Tier>(t);
        if (machine.tx_reclaimable_pages(tier) !=
            dual[static_cast<std::size_t>(t)]) {
            std::ostringstream os;
            os << "tier " << memsim::tier_name(tier) << " tracks "
               << machine.tx_reclaimable_pages(tier)
               << " reclaimable secondary copies but "
               << dual[static_cast<std::size_t>(t)]
               << " pages carry the dual-residency flag there";
            violate(Invariant::kTxAccounting, os.str());
        }
    }
    return static_cast<std::uint64_t>(pages) + memsim::kTierCount + 2;
}

std::uint64_t
InvariantChecker::check_tenant_quota(const memsim::TieredMachine& machine)
{
    const memsim::TenantLedger* ledger = machine.tenants();
    if (ledger == nullptr)
        violate(Invariant::kTenantQuota,
                "check_tenant_quota called on a single-tenant machine");
    const std::size_t pages = machine.page_count();
    if (ledger->page_count() != pages) {
        std::ostringstream os;
        os << "tenant ledger covers " << ledger->page_count()
           << " pages but the machine holds " << pages;
        violate(Invariant::kTenantQuota, os.str());
    }
    // Per-tenant per-tier census of the residency map, charging
    // transactional shadow/dual secondary copies exactly like
    // check_machine(): the ledger mirrors the machine's used-page
    // bookkeeping, so the same recount must reproduce it per owner.
    const std::uint32_t tenants = ledger->tenant_count();
    std::vector<std::size_t> census(
        static_cast<std::size_t>(tenants) * memsim::kTierCount, 0);
    for (PageId page = 0; page < pages; ++page) {
        if (!machine.is_allocated(page))
            continue;
        const std::uint32_t owner = ledger->owner(page);
        if (owner >= tenants) {
            std::ostringstream os;
            os << "page " << page << " owned by tenant " << owner
               << " outside [0, " << tenants << ")";
            violate(Invariant::kTenantQuota, os.str());
        }
        const Tier primary = machine.tier_of(page);
        ++census[owner * memsim::kTierCount +
                 static_cast<std::size_t>(primary)];
        if (machine.tx_page_shadow(page) || machine.tx_page_dual(page))
            ++census[owner * memsim::kTierCount +
                     static_cast<std::size_t>(memsim::other_tier(primary))];
    }
    std::uint64_t promoted = 0;
    std::uint64_t demoted = 0;
    for (std::uint32_t tenant = 0; tenant < tenants; ++tenant) {
        for (int t = 0; t < memsim::kTierCount; ++t) {
            const Tier tier = static_cast<Tier>(t);
            const std::size_t tracked = ledger->used_pages(tenant, tier);
            const std::size_t counted =
                census[tenant * memsim::kTierCount +
                       static_cast<std::size_t>(t)];
            if (tracked != counted) {
                std::ostringstream os;
                os << "tenant " << tenant << " tracks " << tracked
                   << " resident pages in tier " << memsim::tier_name(tier)
                   << " but the residency map holds " << counted;
                violate(Invariant::kTenantQuota, os.str());
            }
        }
        // The quota is hard at migration time and soft only at
        // first-touch (allocation may spill into the fast tier when the
        // slow tier is full), so residency above quota is bounded by
        // the recorded over-quota allocations.
        const std::size_t quota = ledger->quota(tenant);
        const auto& totals = ledger->totals(tenant);
        if (quota != memsim::TenantLedger::kNoQuota) {
            const std::size_t used_fast =
                ledger->used_pages(tenant, Tier::kFast);
            if (used_fast > quota + totals.over_quota_allocs) {
                std::ostringstream os;
                os << "tenant " << tenant << " holds " << used_fast
                   << " fast pages over its quota of " << quota << " ("
                   << totals.over_quota_allocs
                   << " over-quota allocations recorded)";
                violate(Invariant::kTenantQuota, os.str());
            }
        }
        promoted += totals.promoted_pages;
        demoted += totals.demoted_pages;
    }
    // Per-tenant migration totals reconcile with the machine's: an
    // exchange counts one promotion and one demotion in the ledger but
    // lands in the machine's dedicated exchange counter.
    const auto& machine_totals = machine.totals();
    if (promoted !=
        machine_totals.promoted_pages + machine_totals.exchanges) {
        std::ostringstream os;
        os << "per-tenant promotions sum to " << promoted
           << " but the machine counts " << machine_totals.promoted_pages
           << " promotions + " << machine_totals.exchanges << " exchanges";
        violate(Invariant::kTenantQuota, os.str());
    }
    if (demoted !=
        machine_totals.demoted_pages + machine_totals.exchanges) {
        std::ostringstream os;
        os << "per-tenant demotions sum to " << demoted
           << " but the machine counts " << machine_totals.demoted_pages
           << " demotions + " << machine_totals.exchanges << " exchanges";
        violate(Invariant::kTenantQuota, os.str());
    }
    return static_cast<std::uint64_t>(pages) +
           static_cast<std::uint64_t>(tenants) * memsim::kTierCount + 2;
}

std::uint64_t
InvariantChecker::check_qtable(const rl::QTable& table, double bound,
                               std::string_view label)
{
    for (int s = 0; s < table.states(); ++s) {
        for (int a = 0; a < table.actions(); ++a) {
            const double q = table.at(s, a);
            if (!std::isfinite(q) || std::fabs(q) > bound) {
                std::ostringstream os;
                os << label << " Q(" << s << ", " << a << ") = " << q
                   << " outside the reward-implied bound of +-" << bound;
                violate(Invariant::kQTableValue, os.str());
            }
        }
    }
    return static_cast<std::uint64_t>(table.states()) *
           static_cast<std::uint64_t>(table.actions());
}

double
InvariantChecker::qtable_bound(const core::ArtMemConfig& config)
{
    // Rewards are clamped to [-100, 100] before every TD update
    // (core/artmem.cpp), and both tables start inside the fixpoint
    // interval (0 everywhere, one primed entry at 1), so the values can
    // never leave +-R/(1-gamma). 1e-6 absorbs accumulation error.
    const double gamma = config.agent.gamma;
    if (!(gamma >= 0.0) || gamma >= 1.0)
        return std::numeric_limits<double>::infinity();
    return 100.0 / (1.0 - gamma) + 1e-6;
}

std::uint64_t
InvariantChecker::check_artmem(const core::ArtMem& artmem,
                               const memsim::TieredMachine& machine)
{
    std::uint64_t examined = 0;
    examined += check_lru(artmem.lists(), machine);
    examined += check_ema(artmem.bins());
    const double bound = qtable_bound(artmem.config());
    examined +=
        check_qtable(artmem.migration_agent().table(), bound, "migration");
    examined +=
        check_qtable(artmem.threshold_agent().table(), bound, "threshold");
    return examined;
}

std::uint64_t
InvariantChecker::audit(const memsim::TieredMachine& machine,
                        const policies::Policy& policy,
                        std::optional<std::uint64_t> expected_suppressed)
{
    ++audits_;
    std::uint64_t examined = 0;
    examined += check_machine(machine);
    examined += check_fault_accounting(machine, expected_suppressed);
    examined += check_tx_accounting(machine);
    if (machine.tenants() != nullptr)
        examined += check_tenant_quota(machine);
    if (const auto* artmem =
            dynamic_cast<const core::ArtMem*>(&policy)) {
        if (artmem->initialized())
            examined += check_artmem(*artmem, machine);
    }
    return examined;
}

}  // namespace artmem::verify
