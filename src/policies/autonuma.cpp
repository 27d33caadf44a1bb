#include "policies/autonuma.hpp"

#include <algorithm>

namespace artmem::policies {

void
AutoNuma::init(memsim::TieredMachine& machine)
{
    Policy::init(machine);
    last_sweep_.assign(machine.page_count(), 0);
    streak_.assign(machine.page_count(), 0);
    promote_queue_.clear();
    throttle_ =
        ScanThrottle(config_.scan_fraction, config_.target_faults_per_tick);
    scan_cursor_ = 0;
    demote_cursor_ = 0;
    sweep_ = 1;
    machine.set_fault_handler(
        [this](PageId page, memsim::Tier tier) { on_hint_fault(page, tier); });
}

void
AutoNuma::on_hint_fault(PageId page, memsim::Tier tier)
{
    throttle_.on_fault();
    // Streak accounting in scan-sweep epochs: faulting in consecutive
    // sweeps marks the page frequently accessed regardless of the
    // current (throttled) scan rate.
    if (sweep_ - last_sweep_[page] <= 1)
        streak_[page] = static_cast<std::uint8_t>(
            std::min<unsigned>(255, streak_[page] + 1));
    else
        streak_[page] = 1;
    last_sweep_[page] = sweep_;
    if (tier == memsim::Tier::kSlow &&
        streak_[page] >= config_.promote_streak) {
        promote_queue_.push_back(page);
    }
}

void
AutoNuma::on_tick(SimTimeNs now)
{
    (void)now;
    auto& m = machine();
    const std::size_t pages = m.page_count();
    auto window = static_cast<std::size_t>(
        static_cast<double>(pages) * throttle_.tick());
    window = std::max<std::size_t>(window, 1);
    for (std::size_t i = 0; i < window; ++i) {
        const PageId page = scan_cursor_;
        if (++scan_cursor_ == pages) {
            scan_cursor_ = 0;
            ++sweep_;  // full pass completed
        }
        if (m.is_allocated(page))
            m.set_trap(page);
    }
    m.charge_overhead(window * config_.scan_cost_ns);
}

void
AutoNuma::demote_to_watermark()
{
    auto& m = machine();
    const auto capacity = m.capacity_pages(memsim::Tier::kFast);
    const auto target = static_cast<std::size_t>(
        static_cast<double>(capacity) * config_.free_watermark);
    if (m.free_pages(memsim::Tier::kFast) >= target)
        return;
    // kswapd-style: sweep fast-tier pages, demoting ones whose accessed
    // bit stayed clear since the previous sweep.
    const std::size_t pages = m.page_count();
    std::size_t scanned = 0;
    while (m.free_pages(memsim::Tier::kFast) < target && scanned < pages) {
        const PageId page = demote_cursor_;
        if (++demote_cursor_ == pages)
            demote_cursor_ = 0;
        ++scanned;
        if (!m.is_allocated(page) ||
            m.tier_of_unchecked(page) != memsim::Tier::kFast) {
            continue;
        }
        if (!m.test_and_clear_accessed(page)) {
            const auto result = m.migrate(page, memsim::Tier::kSlow);
            if (result.ok() || result.pending())
                streak_[page] = 0;  // fresh PTE: fault stats reset
        }
    }
    m.charge_overhead(scanned * config_.scan_cost_ns);
    // Demotion pressure: if a large sweep could not restore the
    // watermark, the fast tier is full of genuinely warm pages and
    // promotions would only cause hot-for-hot churn; back off.
    if (m.free_pages(memsim::Tier::kFast) < target && scanned >= pages / 4)
        promotion_backoff_ = 8;
}

void
AutoNuma::on_interval(SimTimeNs now)
{
    auto& m = machine();
    if (promotion_backoff_ > 0)
        --promotion_backoff_;
    demote_to_watermark();
    std::size_t promoted = 0;
    if (promotion_backoff_ == 0) {
        for (PageId page : promote_queue_) {
            if (promoted >= config_.promote_limit)
                break;
            if (!m.is_allocated(page) ||
                m.tier_of(page) != memsim::Tier::kSlow) {
                continue;
            }
            if (m.free_pages(memsim::Tier::kFast) == 0)
                demote_to_watermark();
            const auto result = m.migrate(page, memsim::Tier::kFast);
            if (result.ok() || result.pending())
                ++promoted;
            else if (!result.faulted() && !result.busy() &&
                     !result.denied())
                break;  // fast tier saturated and nothing demotable
            // Injected faults (pinned page, aborted copy), busy
            // transactional refusals, and per-tenant quota/admission
            // denials only skip this page; the rest of the queue (other
            // tenants included) may still promote fine.
        }
    }
    promote_queue_.clear();
    if (auto* t = trace(telemetry::Category::kMigration)) {
        t->instant(telemetry::Category::kMigration, "policy_interval", now,
                   telemetry::Args()
                       .add("policy", name())
                       .add("promoted",
                            static_cast<std::uint64_t>(promoted))
                       .add("backoff",
                            static_cast<std::uint64_t>(promotion_backoff_))
                       .str());
    }
}

}  // namespace artmem::policies
