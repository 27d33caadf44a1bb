#include "policies/tiering08.hpp"

#include <algorithm>

namespace artmem::policies {

void
Tiering08::init(memsim::TieredMachine& machine)
{
    Policy::init(machine);
    fault_count_.assign(machine.page_count(), 0);
    queued_.assign(machine.page_count(), 0);
    promote_queue_.clear();
    throttle_ =
        ScanThrottle(config_.scan_fraction, config_.target_faults_per_tick);
    scan_cursor_ = 0;
    demote_cursor_ = 0;
    threshold_ = config_.hot_threshold;
    last_ratio_ = 1.0;
    machine.set_fault_handler(
        [this](PageId page, memsim::Tier tier) { on_hint_fault(page, tier); });
}

void
Tiering08::on_hint_fault(PageId page, memsim::Tier tier)
{
    throttle_.on_fault();
    if (fault_count_[page] < std::uint16_t{0xffff})
        ++fault_count_[page];
    if (tier == memsim::Tier::kSlow && fault_count_[page] >= threshold_ &&
        !queued_[page]) {
        queued_[page] = 1;
        promote_queue_.push_back(page);
    }
}

void
Tiering08::on_samples(std::span<const memsim::PebsSample> samples)
{
    for (const auto& s : samples)
        ++window_hits_[static_cast<int>(s.tier)];
}

void
Tiering08::on_tick(SimTimeNs now)
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

void
Tiering08::demote_to_watermark()
{
    auto& m = machine();
    const auto capacity = m.capacity_pages(memsim::Tier::kFast);
    const auto target = static_cast<std::size_t>(
        static_cast<double>(capacity) * config_.free_watermark);
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
            // The sweep presses on whatever the outcome — failures are
            // visible in the machine's failure counters — so the typed
            // result is deliberately discarded.
            (void)m.migrate(page, memsim::Tier::kSlow);
        }
    }
    m.charge_overhead(scanned * config_.scan_cost_ns);
}

void
Tiering08::on_interval(SimTimeNs now)
{
    auto& m = machine();

    // Workload-change detection from the sampled fast-tier hit ratio.
    const std::uint64_t total = window_hits_[0] + window_hits_[1];
    if (total > 0) {
        const double ratio =
            static_cast<double>(window_hits_[0]) / static_cast<double>(total);
        if (last_ratio_ - ratio > config_.change_delta) {
            // Access pattern shifted: stale fault counts are misleading;
            // reset the pipeline so new hot pages qualify quickly.
            std::fill(fault_count_.begin(), fault_count_.end(), 0);
            threshold_ = config_.hot_threshold;
        }
        last_ratio_ = ratio;
    }
    window_hits_[0] = 0;
    window_hits_[1] = 0;

    demote_to_watermark();
    const std::size_t demand = promote_queue_.size();
    std::size_t promoted = 0;
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
        else if (!result.faulted() && !result.busy() && !result.denied())
            break;  // saturated: a fault or tenant denial skips one page
    }
    for (PageId page : promote_queue_)
        queued_[page] = 0;
    promote_queue_.clear();

    // Threshold self-tuning: raise it when the promotion demand far
    // exceeds the migration budget, relax it toward the base otherwise.
    if (demand > 4 * config_.promote_limit &&
        threshold_ < config_.max_threshold) {
        threshold_ += config_.threshold_step;
    } else if (threshold_ > config_.hot_threshold &&
               demand < config_.promote_limit) {
        threshold_ -= config_.threshold_step;
    }

    // Fault counts decay periodically so they track the recent fault
    // *rate* rather than all-time totals (otherwise every warm page
    // eventually clears any threshold).
    if (++interval_count_ % config_.decay_every == 0) {
        for (auto& c : fault_count_)
            c >>= 1;
    }
    if (auto* t = trace(telemetry::Category::kMigration)) {
        t->instant(telemetry::Category::kMigration, "policy_interval", now,
                   telemetry::Args()
                       .add("policy", name())
                       .add("threshold", threshold_)
                       .add("demand", static_cast<std::uint64_t>(demand))
                       .add("promoted",
                            static_cast<std::uint64_t>(promoted))
                       .str());
    }
}

}  // namespace artmem::policies
