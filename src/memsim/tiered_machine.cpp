#include "memsim/tiered_machine.hpp"

#include <algorithm>

#include "telemetry/telemetry.hpp"
#include "util/logging.hpp"

namespace artmem::memsim {

std::string_view
tier_name(Tier t)
{
    return t == Tier::kFast ? "fast" : "slow";
}

std::string_view
migrate_status_name(MigrateStatus status)
{
    switch (status) {
    case MigrateStatus::kOk:
        return "ok";
    case MigrateStatus::kNotAllocated:
        return "not_allocated";
    case MigrateStatus::kSameTier:
        return "same_tier";
    case MigrateStatus::kNoFreeSlot:
        return "no_free_slot";
    case MigrateStatus::kPagePinned:
        return "page_pinned";
    case MigrateStatus::kCopyAborted:
        return "copy_aborted";
    case MigrateStatus::kDstContended:
        return "dst_contended";
    case MigrateStatus::kTxOpened:
        return "tx_opened";
    case MigrateStatus::kTxInFlight:
        return "tx_in_flight";
    case MigrateStatus::kTxBusy:
        return "tx_busy";
    case MigrateStatus::kTxAbort:
        return "tx_abort";
    case MigrateStatus::kQuotaDenied:
        return "quota_denied";
    case MigrateStatus::kAdmissionDenied:
        return "admission_denied";
    }
    return "unknown";
}

TieredMachine::TieredMachine(const MachineConfig& config) : config_(config)
{
    if (config_.page_size == 0)
        fatal("MachineConfig: page_size must be positive");
    if (config_.address_space % config_.page_size != 0)
        fatal("MachineConfig: address_space must be page aligned");
    if (config_.migration_contention < 0.0 ||
        config_.migration_contention > 1.0) {
        fatal("MachineConfig: migration_contention must be in [0,1]");
    }
    const std::size_t pages = config_.address_space / config_.page_size;
    if (pages == 0)
        fatal("MachineConfig: empty address space");
    capacity_[0] = config_.fast_capacity_pages();
    capacity_[1] = config_.slow_capacity_pages();
    if (pages > capacity_[0] + capacity_[1]) {
        fatal("MachineConfig: footprint of ", pages,
              " pages exceeds machine capacity of ",
              capacity_[0] + capacity_[1], " pages");
    }
    for (int t = 0; t < kTierCount; ++t) {
        if (config_.tiers[t].bandwidth_gbps <= 0.0)
            fatal("MachineConfig: tier bandwidth must be positive");
        latency_[t] = config_.tiers[t].load_latency_ns;
    }
    flags_.assign(pages, 0);
}

void
TieredMachine::allocate(PageId page)
{
    // First-touch, fast tier first (the paper: "ArtMem first places pages
    // in fast memory before overflowing to the slower tier"). Co-tenant
    // pressure and an exhausted per-tenant quota both steer first-touch
    // to the slow tier, but if the slow tier is also full the hold
    // yields: reservations and quotas are soft at placement time and
    // must never make allocation fail.
    Tier tier = free_pages(Tier::kFast) > 0 ? Tier::kFast : Tier::kSlow;
    if (tier == Tier::kFast && tenants_ != nullptr &&
        tenants_->fast_quota_exhausted(page)) [[unlikely]]
        tier = Tier::kSlow;
    if (tier == Tier::kSlow && used_[1] >= capacity_[1] &&
        (tx_ == nullptr || !tx_reclaim_slot(Tier::kSlow))) {
        tier = Tier::kFast;
        if (tenants_ != nullptr && tenants_->fast_quota_exhausted(page))
            tenants_->note_over_quota_alloc(page);
    }
    const int ti = static_cast<int>(tier);
    // In transactional mode a "full" tier may hold reclaimable dual
    // copies; evict one rather than failing the allocation.
    if (used_[ti] >= capacity_[ti] && tx_ != nullptr)
        (void)tx_reclaim_slot(tier);
    if (used_[ti] >= capacity_[ti])
        panic("TieredMachine: both tiers full on allocation");
    ++used_[static_cast<int>(tier)];
    if (tenants_ != nullptr) [[unlikely]]
        tenants_->charge(page, tier, +1);
    flags_[page] = static_cast<std::uint8_t>(
        kAllocatedBit | (tier == Tier::kSlow ? kTierBit : 0));
}

void
TieredMachine::prefault_range(PageId first, std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i) {
        const PageId page = first + static_cast<PageId>(i);
        if (!(flags_[page] & kAllocatedBit))
            allocate(page);
    }
}

Tier
TieredMachine::access(PageId page)
{
    std::uint8_t& flags = flags_[page];
    if (!(flags & kAllocatedBit))
        allocate(page);
    const Tier tier =
        (flags & kTierBit) ? Tier::kSlow : Tier::kFast;
    flags |= kAccessedBit;
    const int t = static_cast<int>(tier);
    if (faults_ != nullptr) [[unlikely]]
        now_ += faults_->effective_latency(tier, latency_[t], now_);
    else
        now_ += latency_[t];
    ++totals_.accesses[t];
    if (tenants_ != nullptr) [[unlikely]]
        tenants_->note_access(page, t);
    if (flags & kTxAccessMask) [[unlikely]]
        now_ += tx_on_access(page, now_);
    if (flags & kTrapBit) [[unlikely]] {
        flags &= static_cast<std::uint8_t>(~kTrapBit);
        now_ += config_.hint_fault_cost_ns;
        ++totals_.hint_faults;
        if (fault_handler_)
            fault_handler_(page, tier);
    }
    return tier;
}

void
TieredMachine::batch_loop(const PageId* pages, std::size_t n,
                          PebsSampler& sampler,
                          std::uint64_t* pebs_suppressed)
{
    FaultInjector* const faults =
        pebs_suppressed != nullptr ? faults_.get() : nullptr;
    // The injector's per-access answers, asked for again only once the
    // clock reaches the next window edge (the default view's edge, 0,
    // asks at once). Without an injector the view is the base
    // latencies, quiet, with no edge.
    FaultView view;
    if (faults == nullptr)
        view = {{latency_[0], latency_[1]}, true, FaultView::kNever};
    std::uint8_t* const flags = flags_.data();
    std::size_t i = 0;
    while (i < n) {
        if (faults != nullptr && now_ >= view.until)
            view = faults->view(latency_, now_);
        // A run takes plain accesses only: allocated, not tx-flagged, no
        // armed trap. They read no machine state that the run holds in
        // locals, so the clock, the tier counts and the sampler's
        // countdown are settled once, when the run ends.
        const SimTimeNs lat[kTierCount] = {view.latency[0],
                                           view.latency[1]};
        const std::size_t end = i + run_length(view, n - i);
        const std::size_t first = i;
        std::uint64_t slow = 0;
        std::uint32_t countdown = sampler.countdown_;
        TenantLedger* const ledger = tenants_.get();
        if (view.sample_quiet) {
            for (; i < end; ++i) {
                const PageId page = pages[i];
                const std::uint8_t f = flags[page];
                if ((f ^ kAllocatedBit) & kRunStopMask) [[unlikely]]
                    break;
                flags[page] = static_cast<std::uint8_t>(f | kAccessedBit);
                const int t = f & kTierBit;  // kTierBit == 0x1: 0 fast
                slow += static_cast<std::uint64_t>(t);
                if (ledger != nullptr)
                    ledger->note_access(page, t);
                if (--countdown == 0) [[unlikely]] {
                    countdown = sampler.period_;
                    sampler.record(page, static_cast<Tier>(t));
                }
            }
            now_ += (i - first - slow) * lat[0] + slow * lat[1];
        } else {
            // A blackout or a drop rate: each access's suppression call
            // needs its own post-access time, so the clock stays in a
            // local and the calls keep the scalar sequence's order.
            SimTimeNs now = now_;
            for (; i < end; ++i) {
                const PageId page = pages[i];
                const std::uint8_t f = flags[page];
                if ((f ^ kAllocatedBit) & kRunStopMask) [[unlikely]]
                    break;
                flags[page] = static_cast<std::uint8_t>(f | kAccessedBit);
                const int t = f & kTierBit;
                slow += static_cast<std::uint64_t>(t);
                now += lat[t];
                if (ledger != nullptr)
                    ledger->note_access(page, t);
                if (faults->sample_suppressed(now)) {
                    ++*pebs_suppressed;
                } else if (--countdown == 0) [[unlikely]] {
                    countdown = sampler.period_;
                    sampler.record(page, static_cast<Tier>(t));
                }
            }
            now_ = now;
        }
        totals_.accesses[0] += i - first - slow;
        totals_.accesses[1] += slow;
        sampler.countdown_ = countdown;
        if (i < n)
            access_one(pages[i++], sampler, view, pebs_suppressed);
    }
}

std::size_t
TieredMachine::run_length(const FaultView& view, std::size_t left) const
{
    // Every access of the run, the post-access suppression point of the
    // last one included, must happen before the view's next edge: at
    // most (until - 1 - now_) / max latency accesses. A zero latency
    // never moves the clock.
    if (view.until == FaultView::kNever)
        return left;
    const SimTimeNs step = std::max(view.latency[0], view.latency[1]);
    if (step == 0)
        return left;
    const SimTimeNs room = view.until > now_ ? view.until - 1 - now_ : 0;
    return room / step < left ? static_cast<std::size_t>(room / step)
                              : left;
}

void
TieredMachine::access_one(PageId page, PebsSampler& sampler, FaultView& view,
                          std::uint64_t* pebs_suppressed)
{
    // The scalar access() + sampling sequence on the member clock, so
    // allocate()'s pressure window, tx_on_access()'s write storm and
    // the trap handler all see the exact time.
    FaultInjector* const faults =
        pebs_suppressed != nullptr ? faults_.get() : nullptr;
    if (faults != nullptr && now_ >= view.until)
        view = faults->view(latency_, now_);
    if (!(flags_[page] & kAllocatedBit))
        allocate(page);
    const std::uint8_t f = flags_[page];
    const int t = f & kTierBit;
    const Tier tier = static_cast<Tier>(t);
    flags_[page] = static_cast<std::uint8_t>(f | kAccessedBit);
    now_ += view.latency[t];
    ++totals_.accesses[t];
    if (tenants_ != nullptr)
        tenants_->note_access(page, t);
    if (f & kTxAccessMask)
        now_ += tx_on_access(page, now_);
    if (f & kTrapBit) {
        flags_[page] &= static_cast<std::uint8_t>(~kTrapBit);
        now_ += config_.hint_fault_cost_ns;
        ++totals_.hint_faults;
        if (fault_handler_)
            fault_handler_(page, tier);
    }
    if (faults != nullptr) {
        // Same draw order as the scalar loop: the suppression draw
        // happens after the access, at the post-access (and post-trap)
        // timestamp. A quiet view skips only calls that would draw,
        // count and trace nothing.
        if (now_ >= view.until)
            view = faults->view(latency_, now_);
        if (!view.sample_quiet && faults->sample_suppressed(now_)) {
            ++*pebs_suppressed;
            return;
        }
    }
    sampler.observe(page, tier);
}

void
TieredMachine::access_batch(const PageId* pages, std::size_t n,
                            PebsSampler& sampler)
{
    batch_loop(pages, n, sampler, nullptr);
}

void
TieredMachine::access_batch_faulted(const PageId* pages, std::size_t n,
                                    PebsSampler& sampler,
                                    std::uint64_t& pebs_suppressed)
{
    if (faults_ == nullptr)
        panic("access_batch_faulted without an installed fault injector");
    batch_loop(pages, n, sampler, &pebs_suppressed);
}

Tier
TieredMachine::tier_of(PageId page) const
{
    if (!is_allocated(page))
        panic("TieredMachine::tier_of on unallocated page ", page);
    return (flags_[page] & kTierBit) ? Tier::kSlow : Tier::kFast;
}

SimTimeNs
TieredMachine::migration_cost(Tier src, Tier dst) const
{
    // Copy cost: read from src at src bandwidth plus write to dst at dst
    // bandwidth, plus fixed PTE/TLB overhead. GB/s == bytes/ns. A
    // degradation window divides the affected leg's bandwidth.
    const double bytes = static_cast<double>(config_.page_size);
    double read_ns =
        bytes / config_.tiers[static_cast<int>(src)].bandwidth_gbps;
    double write_ns =
        bytes / config_.tiers[static_cast<int>(dst)].bandwidth_gbps;
    if (faults_ != nullptr) [[unlikely]] {
        read_ns *= faults_->bandwidth_penalty(src, now_);
        write_ns *= faults_->bandwidth_penalty(dst, now_);
    }
    return static_cast<SimTimeNs>(read_ns + write_ns) +
           config_.migration_fixed_ns;
}

void
TieredMachine::account_migration(Tier src, Tier dst)
{
    const SimTimeNs busy = migration_cost(src, dst);
    totals_.migration_busy_ns += busy;
    now_ += static_cast<SimTimeNs>(
        static_cast<double>(busy) * config_.migration_contention);
    if (dst == Tier::kFast)
        ++totals_.promoted_pages;
    else
        ++totals_.demoted_pages;
}

MigrationResult
TieredMachine::record_failure(MigrateStatus status, PageId page)
{
    if (trace_migration_ != nullptr) [[unlikely]] {
        trace_migration_->instant(
            telemetry::Category::kMigration, "migrate_fail", now_,
            telemetry::Args()
                .add("page", page)
                .add("reason", migrate_status_name(status))
                .str());
    }
    switch (status) {
    case MigrateStatus::kNoFreeSlot:
        ++totals_.failed_no_slot;
        break;
    case MigrateStatus::kPagePinned:
        ++totals_.failed_pinned;
        break;
    case MigrateStatus::kCopyAborted:
        ++totals_.failed_transient;
        break;
    case MigrateStatus::kDstContended:
        ++totals_.failed_contended;
        break;
    case MigrateStatus::kQuotaDenied:
        ++totals_.failed_quota;
        break;
    case MigrateStatus::kAdmissionDenied:
        ++totals_.failed_admission;
        break;
    case MigrateStatus::kTxInFlight:
    case MigrateStatus::kTxBusy:
        ++totals_.failed_tx_busy;
        break;
    default:
        break;
    }
    return {status};
}

void
TieredMachine::charge_aborted_copy(Tier src, Tier dst)
{
    // A mid-copy abort wasted roughly half the device copy time; the
    // page stays put but the bandwidth (and its contention share of
    // application time) is gone.
    const SimTimeNs busy = migration_cost(src, dst) / 2;
    totals_.aborted_migration_ns += busy;
    now_ += static_cast<SimTimeNs>(
        static_cast<double>(busy) * config_.migration_contention);
}

MigrationResult
TieredMachine::migrate(PageId page, Tier dst)
{
    if (!is_allocated(page))
        return {MigrateStatus::kNotAllocated};
    const Tier src = tier_of(page);
    if (src == dst)
        return {MigrateStatus::kSameTier};
    if (tx_ != nullptr)
        return tx_migrate(page, src, dst);
    if (tenants_ != nullptr) [[unlikely]] {
        // Tenancy gate first: a quota or admission denial is standing
        // policy, refused before any fault draw is consumed.
        const MigrateStatus deny = tenant_check_migration(page, dst, true);
        if (deny != MigrateStatus::kOk)
            return {deny};
    }
    if (faults_ != nullptr && faults_->page_pinned(page)) [[unlikely]]
        return record_failure(MigrateStatus::kPagePinned, page);
    const int d = static_cast<int>(dst);
    if (used_[d] >= capacity_[d])
        return record_failure(MigrateStatus::kNoFreeSlot, page);
    if (faults_ != nullptr) [[unlikely]] {
        // Co-tenant pressure: the free slot exists but is reserved.
        if (reserved_contended(dst))
            return record_failure(MigrateStatus::kDstContended, page);
        if (faults_->migration_transient_abort()) {
            charge_aborted_copy(src, dst);
            return record_failure(MigrateStatus::kCopyAborted, page);
        }
        if (faults_->migration_contended())
            return record_failure(MigrateStatus::kDstContended, page);
    }
    --used_[static_cast<int>(src)];
    ++used_[d];
    if (tenants_ != nullptr) [[unlikely]] {
        tenants_->charge(page, src, -1);
        tenants_->charge(page, dst, +1);
        tenants_->note_migration(page, dst);
    }
    if (dst == Tier::kSlow)
        flags_[page] |= kTierBit;
    else
        flags_[page] &= static_cast<std::uint8_t>(~kTierBit);
    const SimTimeNs start = now_;
    account_migration(src, dst);
    if (trace_migration_ != nullptr) [[unlikely]] {
        trace_migration_->complete(
            telemetry::Category::kMigration,
            dst == Tier::kFast ? "promote" : "demote", start, now_ - start,
            telemetry::Args().add("page", page).str());
    }
    if (metrics_ != nullptr) [[unlikely]]
        metrics_->observe(hist_migration_cost_,
                          static_cast<double>(now_ - start));
    return {MigrateStatus::kOk};
}

MigrationResult
TieredMachine::exchange(PageId a, PageId b)
{
    if (!is_allocated(a) || !is_allocated(b) || a == b)
        return {MigrateStatus::kNotAllocated};
    const Tier ta = tier_of(a);
    const Tier tb = tier_of(b);
    if (ta == tb)
        return {MigrateStatus::kSameTier};
    if (tx_ != nullptr)
        return tx_exchange(a, b, ta, tb);
    if (tenants_ != nullptr) [[unlikely]] {
        const MigrateStatus deny = tenant_check_exchange(a, b, ta);
        if (deny != MigrateStatus::kOk)
            return {deny};
    }
    if (faults_ != nullptr) [[unlikely]] {
        if (faults_->page_pinned(a) || faults_->page_pinned(b))
            return record_failure(MigrateStatus::kPagePinned, a);
        if (faults_->migration_transient_abort()) {
            charge_aborted_copy(ta, tb);
            return record_failure(MigrateStatus::kCopyAborted, a);
        }
        if (faults_->migration_contended())
            return record_failure(MigrateStatus::kDstContended, a);
    }
    flags_[a] ^= kTierBit;
    flags_[b] ^= kTierBit;
    if (tenants_ != nullptr) [[unlikely]] {
        tenants_->charge(a, ta, -1);
        tenants_->charge(a, tb, +1);
        tenants_->charge(b, tb, -1);
        tenants_->charge(b, ta, +1);
        tenants_->note_migration(a, tb);
        tenants_->note_migration(b, ta);
    }
    // An exchange is two copies through a bounce buffer; charge both.
    const SimTimeNs start = now_;
    const SimTimeNs busy = migration_cost(ta, tb) + migration_cost(tb, ta);
    totals_.migration_busy_ns += busy;
    now_ += static_cast<SimTimeNs>(
        static_cast<double>(busy) * config_.migration_contention);
    ++totals_.exchanges;
    if (trace_migration_ != nullptr) [[unlikely]] {
        trace_migration_->complete(
            telemetry::Category::kMigration, "exchange", start,
            now_ - start,
            telemetry::Args().add("a", a).add("b", b).str());
    }
    if (metrics_ != nullptr) [[unlikely]]
        metrics_->observe(hist_migration_cost_,
                          static_cast<double>(now_ - start));
    return {MigrateStatus::kOk};
}

void
TieredMachine::install_tx(const TxConfig& config)
{
    config.validate();
    if (!config.enabled) {
        tx_.reset();
        return;
    }
    tx_ = std::make_unique<TxState>(config);
}

MigrationResult
TieredMachine::tx_free_flip(PageId page, Tier src, Tier dst)
{
    // The clean copy already lives in dst (non-exclusive residency):
    // adopt it by swapping the primary/secondary roles. No copy, no
    // device time — Nomad's free demotion of a still-clean page.
    flags_[page] ^= kTierBit;
    const int s = static_cast<int>(src);
    const int d = static_cast<int>(dst);
    --tx_->reclaimable[d];
    ++tx_->reclaimable[s];
    tx_->reclaim_queue[s].push_back(page);
    ++totals_.tx_free_flips;
    if (tenants_ != nullptr) [[unlikely]]
        tenants_->note_migration(page, dst);  // usage is tier-neutral
    if (dst == Tier::kFast)
        ++totals_.promoted_pages;
    else
        ++totals_.demoted_pages;
    if (trace_migration_ != nullptr) [[unlikely]] {
        trace_migration_->instant(
            telemetry::Category::kMigration, "tx_free_flip", now_,
            telemetry::Args()
                .add("page", page)
                .add("dst", tier_name(dst))
                .str());
    }
    return {MigrateStatus::kOk};
}

bool
TieredMachine::tx_reclaim_slot(Tier tier)
{
    const int t = static_cast<int>(tier);
    auto& queue = tx_->reclaim_queue[t];
    while (!queue.empty()) {
        const PageId page = queue.front();
        queue.pop_front();
        // Entries go stale when the copy was dropped, reclaimed, or
        // flipped to the other tier since it was queued; skip those.
        if ((flags_[page] & kDualBit) != 0 &&
            other_tier(tier_of_unchecked(page)) == tier) {
            tx_reclaim_page(page);
            return true;
        }
    }
    return false;
}

void
TieredMachine::tx_reclaim_page(PageId page)
{
    const Tier sec = other_tier(tier_of_unchecked(page));
    flags_[page] &= static_cast<std::uint8_t>(~kDualBit);
    --used_[static_cast<int>(sec)];
    if (tenants_ != nullptr) [[unlikely]]
        tenants_->charge(page, sec, -1);
    --tx_->reclaimable[static_cast<int>(sec)];
    ++totals_.tx_dual_reclaims;
}

MigrationResult
TieredMachine::tx_migrate(PageId page, Tier src, Tier dst)
{
    if (tenants_ != nullptr) [[unlikely]] {
        // Gate before the dual-copy fast path so free flips are subject
        // to admission control too; a flip charges no new slot, so the
        // quota check applies only to real (shadow-charging) opens.
        const MigrateStatus deny = tenant_check_migration(
            page, dst, (flags_[page] & kDualBit) == 0);
        if (deny != MigrateStatus::kOk)
            return {deny};
    }
    if (flags_[page] & kDualBit)
        return tx_free_flip(page, src, dst);
    if (flags_[page] & kInFlightBit)
        return record_failure(MigrateStatus::kTxInFlight, page);
    if (faults_ != nullptr && faults_->page_pinned(page)) [[unlikely]]
        return record_failure(MigrateStatus::kPagePinned, page);
    if (tx_->inflight.size() >= tx_->config.max_inflight)
        return record_failure(MigrateStatus::kTxBusy, page);
    const int d = static_cast<int>(dst);
    // The shadow copy charges a destination slot for the whole window;
    // a tier full of dual copies yields one slot on demand.
    if (used_[d] >= capacity_[d] && !tx_reclaim_slot(dst))
        return record_failure(MigrateStatus::kNoFreeSlot, page);
    if (faults_ != nullptr) [[unlikely]] {
        // Co-tenant pressure: the free slot exists but is reserved.
        if (reserved_contended(dst))
            return record_failure(MigrateStatus::kDstContended, page);
        // No mid-copy transient draw here: in transactional mode the
        // abort channel is a write observed during the window instead.
        if (faults_->migration_contended())
            return record_failure(MigrateStatus::kDstContended, page);
    }
    std::uint8_t& f = flags_[page];
    if (f & kTxAbortedBit) {
        f &= static_cast<std::uint8_t>(~kTxAbortedBit);
        ++totals_.tx_retries;
    }
    ++used_[d];
    if (tenants_ != nullptr) [[unlikely]]
        tenants_->charge(page, dst, +1);  // shadow-copy slot
    f |= kInFlightBit;
    // Window length = the copy's device time at *current* bandwidth,
    // so tier-degradation faults stretch it (more write exposure).
    const SimTimeNs busy = migration_cost(src, dst);
    tx_->inflight.push_back(TxState::Entry{page, page, src, dst,
                                           now_ + busy, busy,
                                           tx_->next_seq++,
                                           TxState::Kind::kMigrate});
    ++totals_.tx_opened;
    if (trace_migration_ != nullptr) [[unlikely]] {
        trace_migration_->instant(
            telemetry::Category::kMigration, "tx_open", now_,
            telemetry::Args()
                .add("page", page)
                .add("dst", tier_name(dst))
                .str());
    }
    return {MigrateStatus::kTxOpened};
}

MigrationResult
TieredMachine::tx_exchange(PageId a, PageId b, Tier ta, Tier tb)
{
    if ((flags_[a] | flags_[b]) & kInFlightBit)
        return record_failure(MigrateStatus::kTxInFlight, a);
    if (tenants_ != nullptr) [[unlikely]] {
        const MigrateStatus deny = tenant_check_exchange(a, b, ta);
        if (deny != MigrateStatus::kOk)
            return {deny};
    }
    if (faults_ != nullptr) [[unlikely]] {
        if (faults_->page_pinned(a) || faults_->page_pinned(b))
            return record_failure(MigrateStatus::kPagePinned, a);
        if (faults_->migration_contended())
            return record_failure(MigrateStatus::kDstContended, a);
    }
    if (tx_->inflight.size() >= tx_->config.max_inflight)
        return record_failure(MigrateStatus::kTxBusy, a);
    // The swap flips both primaries; a clean secondary copy would end
    // up co-located with its new primary, so reclaim them up front.
    if (flags_[a] & kDualBit)
        tx_reclaim_page(a);
    if (flags_[b] & kDualBit)
        tx_reclaim_page(b);
    for (const PageId page : {a, b}) {
        if (flags_[page] & kTxAbortedBit) {
            flags_[page] &= static_cast<std::uint8_t>(~kTxAbortedBit);
            ++totals_.tx_retries;
        }
        flags_[page] |=
            static_cast<std::uint8_t>(kInFlightBit | kTxExchangeBit);
    }
    // One transaction covers the pair; both copies run through a bounce
    // buffer, so no shadow slot is charged in either tier.
    const SimTimeNs busy = migration_cost(ta, tb) + migration_cost(tb, ta);
    tx_->inflight.push_back(TxState::Entry{a, b, ta, tb, now_ + busy, busy,
                                           tx_->next_seq++,
                                           TxState::Kind::kExchange});
    ++totals_.tx_opened;
    if (trace_migration_ != nullptr) [[unlikely]] {
        trace_migration_->instant(
            telemetry::Category::kMigration, "tx_open", now_,
            telemetry::Args().add("a", a).add("b", b).str());
    }
    return {MigrateStatus::kTxOpened};
}

SimTimeNs
TieredMachine::tx_on_access(PageId page, SimTimeNs now)
{
    // Classify the access lazily: draws are consumed only for pages
    // with an open transaction or a dual copy, so a run that never
    // migrates consumes none.
    double rate = tx_->config.write_ratio;
    if (faults_ != nullptr) {
        const double storm = faults_->tx_write_storm_rate(now);
        if (storm > rate)
            rate = storm;
    }
    if (rate <= 0.0 || !tx_->draw_write(rate))
        return 0;
    if (flags_[page] & kInFlightBit)
        return tx_abort_page(page, now);
    tx_drop_secondary(page, now);
    return 0;
}

SimTimeNs
TieredMachine::tx_abort_page(PageId page, SimTimeNs now)
{
    auto& inflight = tx_->inflight;
    std::size_t idx = inflight.size();
    for (std::size_t i = 0; i < inflight.size(); ++i) {
        if (inflight[i].page == page || inflight[i].peer == page) {
            idx = i;
            break;
        }
    }
    if (idx == inflight.size())
        panic("TieredMachine: in-flight bit without an open tx on page ",
              page);
    const TxState::Entry entry = inflight[idx];
    inflight[idx] = inflight.back();
    inflight.pop_back();
    if (entry.kind == TxState::Kind::kMigrate) {
        flags_[entry.page] = static_cast<std::uint8_t>(
            (flags_[entry.page] & ~kInFlightBit) | kTxAbortedBit);
        // Release the shadow slot; the page never left the source.
        --used_[static_cast<int>(entry.dst)];
        if (tenants_ != nullptr) [[unlikely]]
            tenants_->charge(entry.page, entry.dst, -1);
    } else {
        for (const PageId p : {entry.page, entry.peer}) {
            flags_[p] = static_cast<std::uint8_t>(
                (flags_[p] & ~(kInFlightBit | kTxExchangeBit)) |
                kTxAbortedBit);
        }
    }
    // Half the copy's device time is wasted; only its contention share
    // reaches application time, returned for the caller to charge.
    const SimTimeNs wasted = entry.busy_ns / 2;
    totals_.aborted_migration_ns += wasted;
    ++totals_.tx_aborted;
    tx_->resolved.push_back(
        TxState::Resolved{entry.page, entry.src, entry.dst, false});
    if (trace_migration_ != nullptr) [[unlikely]] {
        trace_migration_->instant(
            telemetry::Category::kMigration, "tx_abort", now,
            telemetry::Args().add("page", entry.page).str());
    }
    return static_cast<SimTimeNs>(static_cast<double>(wasted) *
                                  config_.migration_contention);
}

void
TieredMachine::tx_drop_secondary(PageId page, SimTimeNs now)
{
    const Tier sec = other_tier(tier_of_unchecked(page));
    flags_[page] &= static_cast<std::uint8_t>(~kDualBit);
    --used_[static_cast<int>(sec)];
    if (tenants_ != nullptr) [[unlikely]]
        tenants_->charge(page, sec, -1);
    --tx_->reclaimable[static_cast<int>(sec)];
    ++totals_.tx_dual_drops;
    if (trace_migration_ != nullptr) [[unlikely]] {
        trace_migration_->instant(
            telemetry::Category::kMigration, "tx_dual_drop", now,
            telemetry::Args().add("page", page).str());
    }
}

void
TieredMachine::tx_commit_entry(const TxState::Entry& entry)
{
    const SimTimeNs start = now_;
    if (entry.kind == TxState::Kind::kMigrate) {
        std::uint8_t& f = flags_[entry.page];
        f &= static_cast<std::uint8_t>(~kInFlightBit);
        if (entry.dst == Tier::kSlow)
            f |= kTierBit;
        else
            f &= static_cast<std::uint8_t>(~kTierBit);
        // The source copy is still clean (a write would have aborted):
        // keep it resident until the slot is wanted.
        const int s = static_cast<int>(entry.src);
        f |= kDualBit;
        ++tx_->reclaimable[s];
        tx_->reclaim_queue[s].push_back(entry.page);
        if (tenants_ != nullptr) [[unlikely]]
            tenants_->note_migration(entry.page, entry.dst);
        if (entry.dst == Tier::kFast)
            ++totals_.promoted_pages;
        else
            ++totals_.demoted_pages;
    } else {
        constexpr auto kClear =
            static_cast<std::uint8_t>(~(kInFlightBit | kTxExchangeBit));
        flags_[entry.page] &= kClear;
        flags_[entry.peer] &= kClear;
        flags_[entry.page] ^= kTierBit;
        flags_[entry.peer] ^= kTierBit;
        if (tenants_ != nullptr) [[unlikely]] {
            tenants_->charge(entry.page, entry.src, -1);
            tenants_->charge(entry.page, entry.dst, +1);
            tenants_->charge(entry.peer, entry.dst, -1);
            tenants_->charge(entry.peer, entry.src, +1);
            tenants_->note_migration(entry.page, entry.dst);
            tenants_->note_migration(entry.peer, entry.src);
        }
        ++totals_.exchanges;
    }
    totals_.migration_busy_ns += entry.busy_ns;
    now_ += static_cast<SimTimeNs>(static_cast<double>(entry.busy_ns) *
                                   config_.migration_contention);
    ++totals_.tx_committed;
    tx_->resolved.push_back(
        TxState::Resolved{entry.page, entry.src, entry.dst, true});
    if (trace_migration_ != nullptr) [[unlikely]] {
        trace_migration_->complete(
            telemetry::Category::kMigration, "tx_commit", start,
            now_ - start, telemetry::Args().add("page", entry.page).str());
    }
    if (metrics_ != nullptr) [[unlikely]]
        metrics_->observe(hist_migration_cost_,
                          static_cast<double>(now_ - start));
}

std::size_t
TieredMachine::poll_tx()
{
    if (tx_ == nullptr)
        return 0;
    auto& inflight = tx_->inflight;
    std::vector<TxState::Entry> due;
    for (std::size_t i = 0; i < inflight.size();) {
        if (inflight[i].commit_time <= now_) {
            due.push_back(inflight[i]);
            inflight[i] = inflight.back();
            inflight.pop_back();
        } else {
            ++i;
        }
    }
    // Deterministic commit order regardless of table layout.
    std::sort(due.begin(), due.end(),
              [](const TxState::Entry& x, const TxState::Entry& y) {
                  return x.commit_time != y.commit_time
                             ? x.commit_time < y.commit_time
                             : x.seq < y.seq;
              });
    for (const auto& entry : due)
        tx_commit_entry(entry);
    if (!tx_->resolved.empty()) {
        // Every machine-state change lands before any callback runs;
        // the handler may re-enter migrate()/exchange() and open new
        // transactions, which must not invalidate this iteration.
        std::vector<TxState::Resolved> events;
        events.swap(tx_->resolved);
        if (tx_handler_) {
            for (const auto& ev : events)
                tx_handler_(ev.page, ev.src, ev.dst, ev.committed);
        }
    }
    return due.size();
}

void
TieredMachine::install_faults(const FaultConfig& config)
{
    config.validate();
    if (!config.any_enabled()) {
        faults_.reset();
        return;
    }
    faults_ = std::make_unique<FaultInjector>(config, capacity_[0]);
    if (telemetry_ != nullptr)
        faults_->set_telemetry(telemetry_);
}

void
TieredMachine::install_tenants(std::unique_ptr<TenantLedger> ledger)
{
    if (ledger == nullptr) {
        tenants_.reset();
        return;
    }
    if (ledger->page_count() != flags_.size())
        fatal("install_tenants: ledger covers ", ledger->page_count(),
              " pages but the machine has ", flags_.size());
    tenants_ = std::move(ledger);
    // Adopt pages already resident (a prefault that ran before the
    // install): charge the current primary census to the owners. The
    // ledger must be installed before any transactional copies exist.
    for (std::size_t page = 0; page < flags_.size(); ++page) {
        if (flags_[page] & kAllocatedBit) {
            tenants_->charge(static_cast<PageId>(page),
                             tier_of_unchecked(static_cast<PageId>(page)),
                             +1);
        }
    }
}

MigrateStatus
TieredMachine::tenant_check_migration(PageId page, Tier dst,
                                      bool charges_dst)
{
    const TenantDecision decision =
        tenants_->check_migration(page, dst, charges_dst);
    if (decision == TenantDecision::kAdmit)
        return MigrateStatus::kOk;
    const MigrateStatus status = decision == TenantDecision::kQuotaDenied
                                     ? MigrateStatus::kQuotaDenied
                                     : MigrateStatus::kAdmissionDenied;
    record_failure(status, page);
    return status;
}

MigrateStatus
TieredMachine::tenant_check_exchange(PageId a, PageId b, Tier ta)
{
    const PageId promoted = ta == Tier::kSlow ? a : b;
    const PageId demoted = ta == Tier::kSlow ? b : a;
    const TenantDecision decision =
        tenants_->check_exchange(promoted, demoted);
    if (decision == TenantDecision::kAdmit)
        return MigrateStatus::kOk;
    const MigrateStatus status = decision == TenantDecision::kQuotaDenied
                                     ? MigrateStatus::kQuotaDenied
                                     : MigrateStatus::kAdmissionDenied;
    record_failure(status, promoted);
    return status;
}

void
TieredMachine::set_telemetry(telemetry::Telemetry* telemetry)
{
    telemetry_ = telemetry;
    trace_migration_ = nullptr;
    metrics_ = nullptr;
    hist_migration_cost_ = 0;
    if (telemetry_ != nullptr) {
        trace_migration_ =
            telemetry_->trace(telemetry::Category::kMigration);
        metrics_ = telemetry_->metrics();
        if (metrics_ != nullptr) {
            // Observes the application-time charge per migration: one
            // 2 MiB page is ~110 µs of device time at the Table 2
            // bandwidths, so ~27 µs at the default 0.25 contention;
            // the upper buckets leave headroom for degradation windows
            // and double-copy exchanges.
            hist_migration_cost_ = metrics_->histogram(
                "migration.cost_ns",
                {25000.0, 50000.0, 100000.0, 200000.0, 400000.0});
        }
    }
    if (faults_ != nullptr)
        faults_->set_telemetry(telemetry_);
}

SimTimeNs
TieredMachine::stream(Tier tier, Bytes length)
{
    const double ns = static_cast<double>(length) /
                      config_.tiers[static_cast<int>(tier)].bandwidth_gbps;
    const auto delta = static_cast<SimTimeNs>(ns);
    now_ += delta;
    return delta;
}

bool
TieredMachine::test_and_clear_accessed(PageId page)
{
    std::uint8_t& flags = flags_[page];
    const bool was = (flags & kAccessedBit) != 0;
    flags &= static_cast<std::uint8_t>(~kAccessedBit);
    return was;
}

TieredMachine::Counters
TieredMachine::Counters::operator-(const Counters& base) const
{
    static_assert(sizeof(Counters) == 23 * sizeof(std::uint64_t),
                  "a new Counters field must be subtracted here too");
    Counters d = *this;
    for (int t = 0; t < kTierCount; ++t)
        d.accesses[t] -= base.accesses[t];
    d.hint_faults -= base.hint_faults;
    d.promoted_pages -= base.promoted_pages;
    d.demoted_pages -= base.demoted_pages;
    d.exchanges -= base.exchanges;
    d.migration_busy_ns -= base.migration_busy_ns;
    d.overhead_ns -= base.overhead_ns;
    d.failed_no_slot -= base.failed_no_slot;
    d.failed_pinned -= base.failed_pinned;
    d.failed_transient -= base.failed_transient;
    d.failed_contended -= base.failed_contended;
    d.aborted_migration_ns -= base.aborted_migration_ns;
    d.tx_opened -= base.tx_opened;
    d.tx_committed -= base.tx_committed;
    d.tx_aborted -= base.tx_aborted;
    d.tx_retries -= base.tx_retries;
    d.tx_free_flips -= base.tx_free_flips;
    d.tx_dual_drops -= base.tx_dual_drops;
    d.tx_dual_reclaims -= base.tx_dual_reclaims;
    d.failed_tx_busy -= base.failed_tx_busy;
    d.failed_quota -= base.failed_quota;
    d.failed_admission -= base.failed_admission;
    return d;
}

TieredMachine::Counters
TieredMachine::take_window()
{
    const Counters window = totals_ - window_base_;
    window_base_ = totals_;
    return window;
}

}  // namespace artmem::memsim
