#include "policies/multiclock.hpp"

#include <algorithm>

namespace artmem::policies {

void
MultiClock::init(memsim::TieredMachine& machine)
{
    Policy::init(machine);
    candidate_.assign(machine.page_count(), 0);
    cold_count_.assign(machine.page_count(), 0);
    slow_hand_ = 0;
    fast_hand_ = 0;
}

void
MultiClock::sweep_slow_hand(std::size_t budget)
{
    auto& m = machine();
    const std::size_t pages = m.page_count();
    std::size_t examined = 0;
    for (std::size_t i = 0; i < pages && examined < budget; ++i) {
        const PageId page = slow_hand_;
        if (++slow_hand_ == pages)
            slow_hand_ = 0;
        if (!m.is_allocated(page) ||
            m.tier_of_unchecked(page) != memsim::Tier::kSlow) {
            continue;
        }
        ++examined;
        const bool accessed = m.test_and_clear_accessed(page);
        if (!accessed) {
            candidate_[page] = 0;
            continue;
        }
        if (!candidate_[page]) {
            // First sighting: stage on the candidate list.
            candidate_[page] = 1;
            continue;
        }
        // Accessed again while a candidate: promote if space permits.
        if (promoted_this_tick_ < config_.promote_limit &&
            m.free_pages(memsim::Tier::kFast) > 0) {
            const auto result = m.migrate(page, memsim::Tier::kFast);
            if (result.ok() || result.pending()) {
                candidate_[page] = 0;
                cold_count_[page] = 0;
                ++promoted_this_tick_;
            }
        }
    }
    m.charge_overhead(examined * config_.scan_cost_ns);
}

void
MultiClock::sweep_fast_hand(std::size_t budget)
{
    auto& m = machine();
    const auto capacity = m.capacity_pages(memsim::Tier::kFast);
    const auto watermark = static_cast<std::size_t>(
        static_cast<double>(capacity) * config_.free_watermark);
    const std::size_t pages = m.page_count();
    std::size_t examined = 0;
    for (std::size_t i = 0; i < pages && examined < budget; ++i) {
        const PageId page = fast_hand_;
        if (++fast_hand_ == pages)
            fast_hand_ = 0;
        if (!m.is_allocated(page) ||
            m.tier_of_unchecked(page) != memsim::Tier::kFast) {
            continue;
        }
        ++examined;
        if (m.test_and_clear_accessed(page)) {
            cold_count_[page] = 0;
            continue;
        }
        cold_count_[page] = static_cast<std::uint8_t>(
            std::min<unsigned>(255, cold_count_[page] + 1));
        // Conservative demotion: only under pressure, only after the
        // page stayed cold for several rounds.
        if (m.free_pages(memsim::Tier::kFast) < watermark &&
            cold_count_[page] >= config_.cold_rounds) {
            const auto result = m.migrate(page, memsim::Tier::kSlow);
            if (result.ok() || result.pending())
                cold_count_[page] = 0;
        }
    }
    m.charge_overhead(examined * config_.scan_cost_ns);
}

void
MultiClock::on_tick(SimTimeNs now)
{
    auto& m = machine();
    promoted_this_tick_ = 0;
    const auto slow_budget = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               static_cast<double>(m.used_pages(memsim::Tier::kSlow)) *
               config_.hand_fraction));
    const auto fast_budget = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               static_cast<double>(m.used_pages(memsim::Tier::kFast)) *
               config_.hand_fraction));
    sweep_fast_hand(fast_budget);
    sweep_slow_hand(slow_budget);
    // Sweeps run every tick; trace only the ones that moved pages.
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
}

}  // namespace artmem::policies
