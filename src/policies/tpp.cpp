#include "policies/tpp.hpp"

#include <algorithm>

namespace artmem::policies {

void
Tpp::init(memsim::TieredMachine& machine)
{
    Policy::init(machine);
    last_sweep_.assign(machine.page_count(), 0);
    streak_.assign(machine.page_count(), 0);
    lists_ = std::make_unique<lru::LruLists>(machine.page_count());
    throttle_ =
        ScanThrottle(config_.scan_fraction, config_.target_faults_per_tick);
    trap_cursor_ = 0;
    lru_cursor_ = 0;
    sweep_ = 1;
    machine.set_fault_handler(
        [this](PageId page, memsim::Tier tier) { on_hint_fault(page, tier); });
}

void
Tpp::on_hint_fault(PageId page, memsim::Tier tier)
{
    if (tier != memsim::Tier::kSlow)
        return;
    throttle_.on_fault();
    if (sweep_ - last_sweep_[page] <= 1)
        streak_[page] = static_cast<std::uint8_t>(
            std::min<unsigned>(255, streak_[page] + 1));
    else
        streak_[page] = 1;
    last_sweep_[page] = sweep_;
    if (streak_[page] < config_.promote_streak)
        return;  // not yet "active" enough to promote
    if (promoted_this_tick_ >= config_.promote_limit ||
        promotion_backoff_ > 0) {
        return;  // rate-limited or under demotion pressure
    }
    auto& m = machine();
    if (m.free_pages(memsim::Tier::kFast) == 0)
        demote_to_watermark();
    const auto result = m.migrate(page, memsim::Tier::kFast);
    if (result.ok()) {
        // Promoted pages land on the fast active list (they just faulted).
        lists_->remove(page);
        lists_->insert_head(page, lru::ListId::kFastActive);
        ++promoted_this_tick_;
    } else if (result.pending()) {
        // Transactional open: the page keeps its slow-list slot until
        // the commit re-homes it in on_tx_resolved().
        ++promoted_this_tick_;
    }
}

void
Tpp::on_tx_resolved(PageId page, memsim::Tier src, memsim::Tier dst,
                    bool committed)
{
    (void)src;
    if (!committed)
        return;  // aborted: the page never left its tier or its list
    lists_->remove(page);
    lists_->insert_head(page, dst == memsim::Tier::kFast
                                  ? lru::ListId::kFastActive
                                  : lru::ListId::kSlowInactive);
}

void
Tpp::feed_lru(std::size_t scan_count)
{
    auto& m = machine();
    const std::size_t pages = m.page_count();
    for (std::size_t i = 0; i < scan_count; ++i) {
        const PageId page = lru_cursor_;
        if (++lru_cursor_ == pages)
            lru_cursor_ = 0;
        if (!m.is_allocated(page) ||
            m.tier_of_unchecked(page) != memsim::Tier::kFast) {
            continue;
        }
        if (m.test_and_clear_accessed(page)) {
            lists_->touch(page, memsim::Tier::kFast);
        } else if (lists_->where(page) == lru::ListId::kNone) {
            lists_->insert_tail(page, lru::ListId::kFastInactive);
        }
    }
    m.charge_overhead(scan_count * config_.scan_cost_ns);
}

void
Tpp::demote_to_watermark()
{
    auto& m = machine();
    const auto capacity = m.capacity_pages(memsim::Tier::kFast);
    const auto target = std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(capacity) *
                                    config_.demotion_watermark));
    std::size_t guard = capacity + 1;
    while (m.free_pages(memsim::Tier::kFast) < target && guard-- > 0) {
        scratch_.clear();
        lists_->scan_inactive(memsim::Tier::kFast, 32, scratch_);
        if (scratch_.empty()) {
            // Inactive exhausted or fully referenced: age the active list
            // to refill it; if aging finds nothing cold either, give up
            // (the fast tier is genuinely all-hot).
            if (lists_->age_active(memsim::Tier::kFast, 64) == 0 &&
                lists_->size(lru::ListId::kFastInactive) == 0) {
                break;
            }
            continue;
        }
        for (PageId page : scratch_) {
            lists_->remove(page);
            const auto result = m.migrate(page, memsim::Tier::kSlow);
            if (result.ok() || result.pending())
                streak_[page] = 0;  // fresh PTE: fault stats reset
            if (m.free_pages(memsim::Tier::kFast) >= target)
                break;
        }
    }
    // Headroom unattainable: everything resident is referenced, so
    // promotions would churn hot pages against hot pages. Back off.
    if (m.free_pages(memsim::Tier::kFast) < target)
        promotion_backoff_ = 8;
}

void
Tpp::on_tick(SimTimeNs now)
{
    // Promotions happen in the hint-fault handler between ticks; the
    // tick closes that window, so report it here (and only when pages
    // actually moved — hint-fault ticks are frequent).
    if (promoted_this_tick_ > 0) {
        if (auto* t = trace(telemetry::Category::kMigration)) {
            t->instant(telemetry::Category::kMigration, "policy_tick", now,
                       telemetry::Args()
                           .add("policy", name())
                           .add("promoted",
                                static_cast<std::uint64_t>(
                                    promoted_this_tick_))
                           .str());
        }
    }
    promoted_this_tick_ = 0;
    if (promotion_backoff_ > 0)
        --promotion_backoff_;
    auto& m = machine();
    const std::size_t pages = m.page_count();

    // LRU upkeep on the fast tier.
    const auto lru_scan = std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(pages) *
                                    config_.age_fraction));
    feed_lru(lru_scan);
    lists_->age_active(memsim::Tier::kFast, lru_scan / 4);

    // Proactive, lightweight demotion keeps the headroom available so
    // that promotion and allocation never wait for reclaim.
    demote_to_watermark();

    // Arm hint-fault traps on slow-tier pages only (promotion path),
    // at the throttled scan rate.
    auto window = std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(pages) *
                                    throttle_.tick()));
    for (std::size_t i = 0; i < window; ++i) {
        const PageId page = trap_cursor_;
        if (++trap_cursor_ == pages) {
            trap_cursor_ = 0;
            ++sweep_;
        }
        if (m.is_allocated(page) &&
            m.tier_of_unchecked(page) == memsim::Tier::kSlow)
            m.set_trap(page);
    }
    m.charge_overhead(window * config_.scan_cost_ns);
}

}  // namespace artmem::policies
