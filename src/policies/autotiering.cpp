#include "policies/autotiering.hpp"

#include <algorithm>

namespace artmem::policies {

void
AutoTiering::init(memsim::TieredMachine& machine)
{
    Policy::init(machine);
    fault_count_.assign(machine.page_count(), 0);
    exchange_queue_.clear();
    throttle_ =
        ScanThrottle(config_.scan_fraction, config_.target_faults_per_tick);
    scan_cursor_ = 0;
    victim_cursor_ = 0;
    fast_index_.clear();
    fast_index_valid_ = false;
    machine.set_fault_handler(
        [this](PageId page, memsim::Tier tier) { on_hint_fault(page, tier); });
}

void
AutoTiering::on_hint_fault(PageId page, memsim::Tier tier)
{
    throttle_.on_fault();
    ++fault_count_[page];
    if (tier != memsim::Tier::kSlow)
        return;
    auto& m = machine();
    if (m.free_pages(memsim::Tier::kFast) > 0) {
        // OPM: opportunistic promotion on the first fault. A transient
        // injected failure (aborted copy, contended destination) defers
        // the page to the exchange pass instead of dropping it; a pinned
        // page is dropped — retrying is futile.
        const auto result = m.migrate(page, memsim::Tier::kFast);
        if (result.transient())
            exchange_queue_.push_back(page);
    } else {
        // Fast tier full: defer to the interval's exchange pass.
        exchange_queue_.push_back(page);
    }
}

void
AutoTiering::on_tick(SimTimeNs now)
{
    (void)now;
    auto& m = machine();
    const std::size_t pages = m.page_count();
    auto window = std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(pages) *
                                    throttle_.tick()));
    for (std::size_t i = 0; i < window; ++i) {
        const PageId page = scan_cursor_;
        if (++scan_cursor_ == pages)
            scan_cursor_ = 0;
        if (m.is_allocated(page))
            m.set_trap(page);
    }
    m.charge_overhead(window * config_.scan_cost_ns);
}

PageId
AutoTiering::find_cold_fast_page()
{
    // Sampled min-scan over fast-tier pages by fault count: the first
    // victim_scan fast pages in ring order from victim_cursor_, read
    // from the index rather than walked page by page. Exactness
    // contract (tests/test_diff_model.cpp): the victim is the first
    // strict minimum in ring order; the cursor ends one past the last
    // page examined, or where it started when the tier holds fewer than
    // victim_scan pages (the walk went full circle); scan_cost_ns is
    // charged per fast page examined.
    auto& m = machine();
    if (!fast_index_valid_) {
        fast_index_.clear();
        const std::size_t pages = m.page_count();
        for (PageId page = 0; page < pages; ++page) {
            if (m.is_allocated(page) &&
                m.tier_of_unchecked(page) == memsim::Tier::kFast) {
                fast_index_.push_back(page);
            }
        }
        fast_index_valid_ = true;
    }
    const std::size_t n = fast_index_.size();
    const std::size_t examined = std::min(config_.victim_scan, n);
    std::size_t at = static_cast<std::size_t>(
        std::lower_bound(fast_index_.begin(), fast_index_.end(),
                         victim_cursor_) -
        fast_index_.begin());
    PageId coldest = kInvalidPage;
    std::uint32_t coldest_count = ~0u;
    PageId last = kInvalidPage;
    for (std::size_t i = 0; i < examined; ++i) {
        if (at == n)
            at = 0;
        last = fast_index_[at++];
        if (fault_count_[last] < coldest_count) {
            coldest_count = fault_count_[last];
            coldest = last;
        }
    }
    if (examined > 0 && examined == config_.victim_scan) {
        victim_cursor_ = last + 1;
        if (victim_cursor_ == m.page_count())
            victim_cursor_ = 0;
    }
    m.charge_overhead(examined * config_.scan_cost_ns);
    return coldest;
}

memsim::MigrationResult
AutoTiering::migrate_tracked(PageId page, memsim::Tier dst)
{
    const auto result = machine().migrate(page, dst);
    resync(page);
    return result;
}

memsim::MigrationResult
AutoTiering::exchange_tracked(PageId a, PageId b)
{
    const auto result = machine().exchange(a, b);
    resync(a);
    resync(b);
    return result;
}

void
AutoTiering::resync(PageId page)
{
    if (!fast_index_valid_)
        return;
    const auto& m = machine();
    const bool fast = m.is_allocated(page) &&
                      m.tier_of_unchecked(page) == memsim::Tier::kFast;
    const auto it =
        std::lower_bound(fast_index_.begin(), fast_index_.end(), page);
    const bool indexed = it != fast_index_.end() && *it == page;
    if (fast && !indexed)
        fast_index_.insert(it, page);
    else if (!fast && indexed)
        fast_index_.erase(it);
}

void
AutoTiering::on_interval(SimTimeNs now)
{
    auto& m = machine();
    std::size_t exchanged = 0;
    for (PageId page : exchange_queue_) {
        if (exchanged >= config_.exchange_limit)
            break;
        if (!m.is_allocated(page) ||
            m.tier_of_unchecked(page) != memsim::Tier::kSlow) {
            continue;
        }
        if (m.free_pages(memsim::Tier::kFast) > 0) {
            const auto result = migrate_tracked(page, memsim::Tier::kFast);
            if (result.ok() || result.pending())
                ++exchanged;
            continue;
        }
        const PageId victim = find_cold_fast_page();
        if (victim == kInvalidPage)
            break;
        // CPM: swap only when the candidate is clearly hotter than the
        // victim (a margin of one fault avoids ping-pong between pages
        // of equal heat).
        if (fault_count_[page] > fault_count_[victim] + 1) {
            const auto result = exchange_tracked(page, victim);
            if (result.ok() || result.pending())
                ++exchanged;
        }
    }
    exchange_queue_.clear();
    fast_index_valid_ = false;

    // Age fault counts periodically so ordering follows recent behaviour.
    if (++interval_count_ % config_.decay_every == 0) {
        for (auto& c : fault_count_)
            c >>= 1;
    }
    if (auto* t = trace(telemetry::Category::kMigration)) {
        t->instant(telemetry::Category::kMigration, "policy_interval", now,
                   telemetry::Args()
                       .add("policy", name())
                       .add("exchanged",
                            static_cast<std::uint64_t>(exchanged))
                       .str());
    }
}

}  // namespace artmem::policies
