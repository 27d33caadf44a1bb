/**
 * @file
 * Differential harness for the batched hot path (DESIGN.md §9).
 *
 * The engine's inner loop was rewritten from one-access-at-a-time calls
 * into TieredMachine::access_batch() / access_batch_faulted(), which
 * settle the clock, the per-tier counters and the sampler's countdown
 * once per run of plain accesses. The overhaul's contract is
 * *bit-identity*: every observable state — simulated time, counters,
 * per-page flags, per-tenant accounts, the PEBS sample stream, and the
 * fault injector's draw schedule — must match the old scalar semantics
 * exactly. This file enforces the contract three ways:
 *
 *  1. Lockstep oracle: two identically configured machines run the
 *     same seeded access stream — one through the retained scalar
 *     access() sequence (the pre-overhaul engine loop, kept verbatim
 *     below), one through access_batch(); full state is compared every
 *     decision interval, across all built-in fault scenarios, the
 *     abort storm with the transactional engine installed, and
 *     microsecond windows whose edges fall inside most batches, with
 *     trap storms and a re-entrant promotion fault handler thrown in.
 *     Each case runs sampler periods of 1, 7 and 1000, with and without
 *     a tenant ledger whose fast quotas bind.
 *
 *  2. Naive model: an independent single-stepping reference model of
 *     TieredMachine (separate plain arrays instead of packed flags, its
 *     own FaultInjector replica, a deque-based sampler) is stepped one
 *     access at a time and compared against the batched machine.
 *
 *  3. Policy-side structures: EmaBins and LruLists — whose record/touch
 *     paths were inlined for the overhaul — are checked against naive
 *     histogram/std::list models while consuming a batched run's
 *     drained samples.
 *
 * Plus four exact fast paths checked against the code they replaced:
 * the Zipf rank-table lookup must agree with the Gray et al. closed form
 * on every draw and at the edges of every boundary's cell, and streams
 * sharing one Zipf shape must draw what private generators draw, down
 * to a whole TenantSet's pages; AutoTiering's
 * fast-page index must pick the same exchange victim, leave the same
 * cursor and charge the same scan cost as the page-ring walk it
 * replaced; ArtMem's hot-page index must return the same promotion
 * candidates, in the same order, as the slow list walk it replaced; and
 * the Masim and Btree batch kernels must emit the per-access loops'
 * streams, fill for fill.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <list>
#include <memory>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "core/artmem.hpp"
#include "lru/lru_lists.hpp"
#include "memsim/fault_injector.hpp"
#include "memsim/pebs.hpp"
#include "memsim/tenant_ledger.hpp"
#include "memsim/tiered_machine.hpp"
#include "memsim/tx_migration.hpp"
#include "policies/autotiering.hpp"
#include "stats/ema_bins.hpp"
#include "tenancy/admission.hpp"
#include "tenancy/tenancy.hpp"
#include "tenancy/tenant_set.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"
#include "workloads/apps.hpp"
#include "workloads/btree.hpp"
#include "workloads/factory.hpp"
#include "workloads/masim.hpp"
#include "workloads/patterns.hpp"

namespace artmem {
namespace policies {

/** Reaches AutoTiering's victim search and its tracked migrations. */
struct AutoTieringTestPeer {
    static PageId find_victim(AutoTiering& p)
    {
        return p.find_cold_fast_page();
    }
    static memsim::MigrationResult
    migrate(AutoTiering& p, PageId page, memsim::Tier dst)
    {
        return p.migrate_tracked(page, dst);
    }
    static memsim::MigrationResult exchange(AutoTiering& p, PageId a,
                                            PageId b)
    {
        return p.exchange_tracked(a, b);
    }
    static PageId& cursor(AutoTiering& p) { return p.victim_cursor_; }
    static std::vector<std::uint32_t>& fault_counts(AutoTiering& p)
    {
        return p.fault_count_;
    }
};

}  // namespace policies

namespace core {

/** Reaches ArtMem's candidate search, its promotion round and the
 *  state the search reads. */
struct ArtMemTestPeer {
    static std::size_t collect(ArtMem& p, std::size_t want,
                               std::vector<PageId>& out)
    {
        return p.collect_promotion_candidates(want, out);
    }
    static void promote_round(ArtMem& p, const std::vector<PageId>& round,
                              std::size_t& promoted, std::size_t& faulted)
    {
        p.promote_round(round, promoted, faulted);
    }
    static bool backed_off(const ArtMem& p, PageId page)
    {
        return p.backed_off(page);
    }
    static std::uint32_t& threshold(ArtMem& p) { return p.threshold_; }
};

}  // namespace core

namespace workloads {

/** Reaches Masim's region pick in any phase. */
struct MasimTestPeer {
    /** The region draw @p k picks in phase @p phase. */
    static std::size_t region_of(Masim& m, std::size_t phase,
                                 std::uint64_t k)
    {
        m.prepare_phase(phase);
        return Masim::region_of(k, m.cutoffs_.data(), m.cutoffs_.size());
    }
    static const std::vector<std::uint64_t>& cutoffs(const Masim& m)
    {
        return m.cutoffs_;
    }
};

}  // namespace workloads

/** Reaches a generator's table lookup and its boundary cells. */
struct ZipfTestPeer {
    static constexpr int kCellShift = ZipfShape::kCellShift;

    static std::uint64_t lookup(const ZipfianGenerator& z, std::uint64_t k)
    {
        return z.shape_->lookup(z.table_, k);
    }
    /** The cells of the table's boundaries, without the sentinels. */
    static std::span<const std::uint32_t> cells(const ZipfianGenerator& z)
    {
        return {z.table_.cells, z.table_ranks()};
    }
};

namespace {

using memsim::FaultConfig;
using memsim::FaultInjector;
using memsim::MachineConfig;
using memsim::PebsSample;
using memsim::PebsSampler;
using memsim::Tier;
using memsim::TieredMachine;

constexpr std::size_t kPages = 1024;
constexpr std::size_t kFastPages = 256;

MachineConfig
small_machine()
{
    MachineConfig cfg;
    cfg.page_size = 2ull << 20;
    cfg.address_space = kPages * cfg.page_size;
    cfg.tiers[0].capacity = kFastPages * cfg.page_size;
    cfg.tiers[1].capacity = kPages * cfg.page_size;
    return cfg;
}

/**
 * The engine's pre-overhaul scalar inner loop, kept verbatim as the
 * slow oracle: access() advances the clock and fires traps; the
 * suppression draw happens after the access at the post-access (and
 * post-trap) timestamp; the sample records the pre-handler tier.
 */
void
scalar_accesses(TieredMachine& m, PebsSampler& sampler, const PageId* pages,
                std::size_t n, std::uint64_t& pebs_suppressed)
{
    FaultInjector* inj = m.fault_injector();
    for (std::size_t i = 0; i < n; ++i) {
        const Tier tier = m.access(pages[i]);
        if (inj != nullptr) {
            if (inj->sample_suppressed(m.now()))
                ++pebs_suppressed;
            else
                sampler.observe(pages[i], tier);
        } else {
            sampler.observe(pages[i], tier);
        }
    }
}

void
expect_counters_equal(const TieredMachine::Counters& a,
                      const TieredMachine::Counters& b)
{
    EXPECT_EQ(a.accesses[0], b.accesses[0]);
    EXPECT_EQ(a.accesses[1], b.accesses[1]);
    EXPECT_EQ(a.hint_faults, b.hint_faults);
    EXPECT_EQ(a.promoted_pages, b.promoted_pages);
    EXPECT_EQ(a.demoted_pages, b.demoted_pages);
    EXPECT_EQ(a.exchanges, b.exchanges);
    EXPECT_EQ(a.migration_busy_ns, b.migration_busy_ns);
    EXPECT_EQ(a.overhead_ns, b.overhead_ns);
    EXPECT_EQ(a.failed_no_slot, b.failed_no_slot);
    EXPECT_EQ(a.failed_pinned, b.failed_pinned);
    EXPECT_EQ(a.failed_transient, b.failed_transient);
    EXPECT_EQ(a.failed_contended, b.failed_contended);
    EXPECT_EQ(a.aborted_migration_ns, b.aborted_migration_ns);
    EXPECT_EQ(a.tx_opened, b.tx_opened);
    EXPECT_EQ(a.tx_committed, b.tx_committed);
    EXPECT_EQ(a.tx_aborted, b.tx_aborted);
    EXPECT_EQ(a.tx_retries, b.tx_retries);
    EXPECT_EQ(a.tx_free_flips, b.tx_free_flips);
    EXPECT_EQ(a.tx_dual_drops, b.tx_dual_drops);
    EXPECT_EQ(a.tx_dual_reclaims, b.tx_dual_reclaims);
    EXPECT_EQ(a.failed_tx_busy, b.failed_tx_busy);
    EXPECT_EQ(a.failed_quota, b.failed_quota);
    EXPECT_EQ(a.failed_admission, b.failed_admission);
}

void
expect_tenants_equal(const TieredMachine& a, const TieredMachine& b)
{
    const memsim::TenantLedger* la = a.tenants();
    const memsim::TenantLedger* lb = b.tenants();
    ASSERT_EQ(la == nullptr, lb == nullptr);
    if (la == nullptr)
        return;
    ASSERT_EQ(la->tenant_count(), lb->tenant_count());
    for (std::uint32_t t = 0; t < la->tenant_count(); ++t) {
        SCOPED_TRACE(testing::Message() << "tenant " << t);
        const auto& ta = la->totals(t);
        const auto& tb = lb->totals(t);
        EXPECT_EQ(ta.accesses[0], tb.accesses[0]);
        EXPECT_EQ(ta.accesses[1], tb.accesses[1]);
        EXPECT_EQ(ta.over_quota_allocs, tb.over_quota_allocs);
        EXPECT_EQ(ta.quota_denied, tb.quota_denied);
        EXPECT_EQ(la->used_pages(t, Tier::kFast),
                  lb->used_pages(t, Tier::kFast));
        EXPECT_EQ(la->used_pages(t, Tier::kSlow),
                  lb->used_pages(t, Tier::kSlow));
    }
}

void
expect_machines_equal(const TieredMachine& a, const TieredMachine& b)
{
    ASSERT_EQ(a.now(), b.now());
    for (int t = 0; t < memsim::kTierCount; ++t) {
        const auto tier = static_cast<Tier>(t);
        EXPECT_EQ(a.used_pages(tier), b.used_pages(tier));
        EXPECT_EQ(a.free_pages(tier), b.free_pages(tier));
        EXPECT_EQ(a.tx_reclaimable_pages(tier), b.tx_reclaimable_pages(tier));
    }
    expect_counters_equal(a.totals(), b.totals());
    EXPECT_EQ(a.tx_inflight_count(), b.tx_inflight_count());
    EXPECT_EQ(a.tx_write_draws(), b.tx_write_draws());
    EXPECT_EQ(a.tx_write_hits(), b.tx_write_hits());
    for (PageId p = 0; p < a.page_count(); ++p) {
        ASSERT_EQ(a.is_allocated(p), b.is_allocated(p)) << "page " << p;
        ASSERT_EQ(a.accessed(p), b.accessed(p)) << "page " << p;
        ASSERT_EQ(a.has_trap(p), b.has_trap(p)) << "page " << p;
        if (a.tx_enabled()) {
            ASSERT_EQ(a.tx_page_inflight(p), b.tx_page_inflight(p))
                << "page " << p;
            ASSERT_EQ(a.tx_page_dual(p), b.tx_page_dual(p)) << "page " << p;
        }
        if (a.is_allocated(p)) {
            ASSERT_EQ(a.tier_of(p), b.tier_of(p)) << "page " << p;
        }
    }
    const FaultInjector* fa = a.fault_injector();
    const FaultInjector* fb = b.fault_injector();
    ASSERT_EQ(fa == nullptr, fb == nullptr);
    if (fa != nullptr && fb != nullptr) {
        EXPECT_EQ(fa->draws(), fb->draws());
        EXPECT_EQ(fa->transient_aborts(), fb->transient_aborts());
        EXPECT_EQ(fa->contended_hits(), fb->contended_hits());
        EXPECT_EQ(fa->suppressed_samples(), fb->suppressed_samples());
    }
}

void
expect_samples_equal(const std::vector<PebsSample>& a,
                     const std::vector<PebsSample>& b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].page, b[i].page) << "sample " << i;
        ASSERT_EQ(a[i].tier, b[i].tier) << "sample " << i;
    }
}

/** One hint-fault record; logged by both machines' handlers. */
struct TrapEvent {
    PageId page;
    Tier tier;
    SimTimeNs now;

    bool operator==(const TrapEvent&) const = default;
};

/** One resolved transaction; logged by both machines' tx handlers. */
struct TxEvent {
    PageId page;
    Tier src;
    Tier dst;
    bool committed;
    SimTimeNs now;

    bool operator==(const TxEvent&) const = default;
};

/**
 * Every window class at microsecond scale, so that a typical batch of
 * the lockstep run (1-257 accesses of 92-969 ns) crosses several
 * degrade, blackout and pressure edges, and so do the trap handler's
 * migrations and the tx engine's abort charges. A first touch inside a
 * batch must see the pressure window of its own time, not the batch's
 * start. The write storm only bites with tx installed. @p drop_rate 0
 * leaves the sample path quiet outside blackouts, so the batch loop
 * skips the suppression call there.
 */
FaultConfig
microsecond_windows(double drop_rate = 0.05)
{
    FaultConfig fc;
    fc.seed = 7;
    fc.degrade_tier = 1;
    fc.degrade_latency_factor = 3.0;
    fc.degrade_bandwidth_factor = 2.0;
    fc.degrade_period_ns = 7000;
    fc.degrade_duration_ns = 2500;
    fc.blackout_period_ns = 11000;
    fc.blackout_duration_ns = 3000;
    fc.sample_drop_rate = drop_rate;
    fc.write_storm_rate = 0.5;
    fc.write_storm_period_ns = 13000;
    fc.write_storm_duration_ns = 4000;
    fc.pressure_fraction = 0.5;
    fc.pressure_period_ns = 5000;
    fc.pressure_duration_ns = 2000;
    return fc;
}

/** Totals lockstep runs add up, so a case can show it had teeth. */
struct LockstepTotals {
    std::uint64_t suppressed = 0;
    std::uint64_t tx_opened = 0;
    std::uint64_t tx_aborted = 0;
    std::uint64_t pebs_dropped = 0;
    std::uint64_t over_quota_allocs = 0;
};

/** The sampler and the tenant ledger a lockstep run installs. */
struct LockstepInput {
    PebsSampler::Config sampler;
    /** Owner spans of the ledger installed on both machines; 0 for
     *  none. */
    std::uint32_t tenants = 0;
};

/**
 * The inputs every lockstep case runs. Period 1 with a 4-record buffer
 * drops most samples; period 1000 is longer than any batch, so the
 * countdown the batch loop holds in a register is carried across runs,
 * batches and trap handlers. A ledger splits the pages into equal owner
 * spans, each with a small fast quota.
 */
std::vector<LockstepInput>
lockstep_inputs()
{
    return {
        {{.period = 7, .buffer_capacity = 1 << 8}, 0},
        {{.period = 1, .buffer_capacity = 4}, 0},
        {{.period = 1000, .buffer_capacity = 4}, 0},
        {{.period = 7, .buffer_capacity = 1 << 8}, 2},
        {{.period = 1, .buffer_capacity = 4}, 3},
        {{.period = 1000, .buffer_capacity = 4}, 4},
    };
}

/** Slow slots of a lockstep machine with a ledger: kPages - 848 = 176
 *  pages must be placed fast. */
constexpr std::size_t kLedgerSlowPages = 848;

/**
 * The ledger for @p input: equal owner spans and fast quotas of 16-39
 * pages. The quotas sum to less than the 176 pages that must be placed
 * fast, so once the slow tier fills, first touches of tenants at quota
 * are allocated over it.
 */
std::unique_ptr<memsim::TenantLedger>
lockstep_ledger(const LockstepInput& input, Rng& rng)
{
    auto ledger =
        std::make_unique<memsim::TenantLedger>(input.tenants, kPages);
    for (std::uint32_t t = 0; t < input.tenants; ++t) {
        const std::size_t first = kPages * t / input.tenants;
        const std::size_t last = kPages * (t + 1) / input.tenants;
        ledger->set_owner_span(static_cast<PageId>(first), last - first, t);
        ledger->set_quota(t, 16 + rng.next_below(24));
    }
    return ledger;
}

/**
 * Drives the scalar oracle and the batched machine in lockstep under
 * one fault config (with the transactional engine installed on both
 * when @p tx) and one sampler and ledger @p input, interleaving
 * migrations, exchanges, trap arming, accessed-bit scans and tx polls
 * between intervals, and comparing complete state, per tenant too, at
 * every interval boundary. Adds the batched machine's totals to
 * @p totals.
 */
void
run_lockstep(const FaultConfig& faults, bool tx, std::string_view label,
             std::uint64_t seed, const LockstepInput& input,
             LockstepTotals& totals)
{
    MachineConfig machine_cfg = small_machine();
    if (input.tenants > 0)
        machine_cfg.tiers[1].capacity =
            kLedgerSlowPages * machine_cfg.page_size;
    TieredMachine scalar(machine_cfg);
    TieredMachine batched(machine_cfg);
    scalar.install_faults(faults);
    batched.install_faults(faults);
    if (input.tenants > 0) {
        Rng quotas(derive_seed(seed, 4));
        Rng same_quotas(derive_seed(seed, 4));
        scalar.install_tenants(lockstep_ledger(input, quotas));
        batched.install_tenants(lockstep_ledger(input, same_quotas));
    }
    std::vector<TxEvent> scalar_tx;
    std::vector<TxEvent> batched_tx;
    if (tx) {
        memsim::TxConfig config;
        config.enabled = true;
        config.seed = derive_seed(seed, 3);
        scalar.install_tx(config);
        batched.install_tx(config);
        scalar.set_tx_handler(
            [&](PageId page, Tier src, Tier dst, bool committed) {
                scalar_tx.push_back({page, src, dst, committed, scalar.now()});
            });
        batched.set_tx_handler(
            [&](PageId page, Tier src, Tier dst, bool committed) {
                batched_tx.push_back(
                    {page, src, dst, committed, batched.now()});
            });
    }

    // Re-entrant handler, as AutoNUMA-style policies install: promote
    // the faulting page on the spot. Inside access_batch() the access
    // takes the one-access path, after its run has settled the clock,
    // the counters and the sampler's countdown.
    std::vector<TrapEvent> scalar_traps;
    std::vector<TrapEvent> batched_traps;
    scalar.set_fault_handler([&](PageId page, Tier tier) {
        scalar_traps.push_back({page, tier, scalar.now()});
        if (tier == Tier::kSlow)
            (void)scalar.migrate(page, Tier::kFast);
    });
    batched.set_fault_handler([&](PageId page, Tier tier) {
        batched_traps.push_back({page, tier, batched.now()});
        if (tier == Tier::kSlow)
            (void)batched.migrate(page, Tier::kFast);
    });

    PebsSampler scalar_sampler(input.sampler);
    PebsSampler batched_sampler(input.sampler);
    std::uint64_t scalar_suppressed = 0;
    std::uint64_t batched_suppressed = 0;

    Rng stream(seed);
    Rng ops(derive_seed(seed, 1));
    std::vector<PageId> batch;
    std::vector<PebsSample> scalar_drained;
    std::vector<PebsSample> batched_drained;

    for (int interval = 0; interval < 64; ++interval) {
        SCOPED_TRACE(testing::Message()
                     << "faults=" << label << " tx=" << tx
                     << " seed=" << seed
                     << " period=" << input.sampler.period
                     << " tenants=" << input.tenants
                     << " interval=" << interval);

        // One interval: a few variable-sized batches of a hot/cold mix.
        for (int chunk = 0; chunk < 4; ++chunk) {
            const std::size_t n = 1 + stream.next_below(257);
            batch.clear();
            for (std::size_t i = 0; i < n; ++i) {
                const bool hot = stream.next_bool(0.7);
                batch.push_back(static_cast<PageId>(
                    hot ? stream.next_below(128)
                        : stream.next_below(kPages)));
            }
            scalar_accesses(scalar, scalar_sampler, batch.data(), n,
                            scalar_suppressed);
            if (batched.faults_enabled()) {
                batched.access_batch_faulted(batch.data(), n,
                                             batched_sampler,
                                             batched_suppressed);
            } else {
                batched.access_batch(batch.data(), n, batched_sampler);
            }
        }

        // Decision-interval work, applied identically to both machines.
        for (int i = 0; i < 8; ++i) {
            const auto page =
                static_cast<PageId>(ops.next_below(kPages));
            if (!scalar.is_allocated(page))
                continue;
            const Tier dst = scalar.tier_of(page) == Tier::kFast
                                 ? Tier::kSlow
                                 : Tier::kFast;
            EXPECT_EQ(scalar.migrate(page, dst).status,
                      batched.migrate(page, dst).status);
        }
        const auto a = static_cast<PageId>(ops.next_below(kPages));
        const auto b = static_cast<PageId>(ops.next_below(kPages));
        if (scalar.is_allocated(a) && scalar.is_allocated(b)) {
            EXPECT_EQ(scalar.exchange(a, b).status,
                      batched.exchange(a, b).status);
        }
        for (int i = 0; i < 16; ++i) {
            const auto page =
                static_cast<PageId>(ops.next_below(kPages));
            scalar.set_trap(page);
            batched.set_trap(page);
        }
        for (int i = 0; i < 16; ++i) {
            const auto page =
                static_cast<PageId>(ops.next_below(kPages));
            EXPECT_EQ(scalar.test_and_clear_accessed(page),
                      batched.test_and_clear_accessed(page));
        }
        if (tx) {
            EXPECT_EQ(scalar.poll_tx(), batched.poll_tx());
            ASSERT_EQ(scalar_tx, batched_tx);
        }

        // Full-state comparison at the interval boundary.
        scalar_drained.clear();
        batched_drained.clear();
        scalar_sampler.drain(scalar_drained, 1 << 12);
        batched_sampler.drain(batched_drained, 1 << 12);
        expect_samples_equal(scalar_drained, batched_drained);
        EXPECT_EQ(scalar_sampler.recorded(), batched_sampler.recorded());
        EXPECT_EQ(scalar_sampler.dropped(), batched_sampler.dropped());
        EXPECT_EQ(scalar_suppressed, batched_suppressed);
        ASSERT_EQ(scalar_traps, batched_traps);
        expect_machines_equal(scalar, batched);
        expect_tenants_equal(scalar, batched);
        if (interval % 4 == 3)
            expect_counters_equal(scalar.take_window(),
                                  batched.take_window());
        if (testing::Test::HasFailure())
            return;  // one divergence floods everything downstream
    }
    totals.suppressed += batched_suppressed;
    totals.tx_opened += batched.totals().tx_opened;
    totals.tx_aborted += batched.totals().tx_aborted;
    totals.pebs_dropped += batched_sampler.dropped();
    if (const memsim::TenantLedger* ledger = batched.tenants()) {
        for (std::uint32_t t = 0; t < ledger->tenant_count(); ++t)
            totals.over_quota_allocs += ledger->totals(t).over_quota_allocs;
    }
}

/** Every lockstep input ran with teeth: drops and over-quota first
 *  touches occurred. */
void
expect_inputs_had_teeth(const LockstepTotals& total)
{
    EXPECT_GT(total.pebs_dropped, 0u);
    EXPECT_GT(total.over_quota_allocs, 0u);
}

TEST(DiffModel, BatchMatchesScalarOracleAcrossFaultScenarios)
{
    LockstepTotals total;
    for (const auto scenario : memsim::fault_scenario_names())
        for (const std::uint64_t seed : {3ull, 17ull})
            for (const LockstepInput& input : lockstep_inputs())
                run_lockstep(memsim::make_fault_scenario(scenario, 7), false,
                             scenario, seed, input, total);
    expect_inputs_had_teeth(total);
}

TEST(DiffModel, BatchMatchesScalarOracleUnderAbortStormWithTx)
{
    // The benchmark's fault mix: write storms against in-flight
    // transactions, polled at every interval boundary.
    LockstepTotals total;
    for (const std::uint64_t seed : {3ull, 17ull})
        for (const LockstepInput& input : lockstep_inputs())
            run_lockstep(memsim::make_fault_scenario("abort_storm", 7), true,
                         "abort_storm", seed, input, total);
    EXPECT_GT(total.tx_opened, 0u);
    EXPECT_GT(total.tx_aborted, 0u) << "the storm never aborted anything";
    expect_inputs_had_teeth(total);
}

TEST(DiffModel, BatchMatchesScalarOracleAcrossMicrosecondWindows)
{
    // Most batches cross degrade, blackout and pressure edges, so a
    // batch loop that held the injector's answers past an edge, or
    // placed a first touch at a stale time, diverges here.
    for (const double drop_rate : {0.05, 0.0}) {
        LockstepTotals total;
        for (const std::uint64_t seed : {3ull, 17ull})
            for (const LockstepInput& input : lockstep_inputs())
                run_lockstep(microsecond_windows(drop_rate), true,
                             drop_rate > 0.0 ? "us_windows" : "us_no_drop",
                             seed, input, total);
        EXPECT_GT(total.suppressed, 0u);
        EXPECT_GT(total.tx_opened, 0u);
        EXPECT_GT(total.tx_aborted, 0u);
        expect_inputs_had_teeth(total);
    }
}

// ---------------------------------------------------------------------
// Naive single-stepping reference model of TieredMachine.
// ---------------------------------------------------------------------

/**
 * Re-implements the access-path semantics with plain per-page arrays
 * (no packed flag bytes, no batching, no local shadowing): first-touch
 * allocation with co-tenant pressure, latency charging through its own
 * FaultInjector replica, accessed bits, trap firing, and a deque-based
 * PEBS model. Valid as long as only accesses and traps run — the only
 * injector draws are then the per-access suppression draws, so the
 * replica injector stays in sync with the machine's by construction.
 */
struct NaiveMachine {
    MachineConfig cfg;
    std::vector<bool> allocated;
    std::vector<bool> slow;  // tier bit
    std::vector<bool> accessed;
    std::vector<bool> trap;
    std::size_t used[2] = {0, 0};
    SimTimeNs now = 0;
    std::uint64_t acc[2] = {0, 0};
    std::uint64_t hint_faults = 0;
    std::unique_ptr<FaultInjector> inj;

    // Deque model of PebsSampler's counter + bounded buffer.
    std::uint32_t period;
    std::uint32_t countdown;
    std::size_t buffer_cap;
    std::deque<PebsSample> buffer;
    std::uint64_t recorded = 0;
    std::uint64_t dropped = 0;
    std::uint64_t suppressed = 0;

    NaiveMachine(const MachineConfig& machine_cfg, const FaultConfig& fc,
                 const PebsSampler::Config& sc)
        : cfg(machine_cfg),
          allocated(kPages, false),
          slow(kPages, false),
          accessed(kPages, false),
          trap(kPages, false),
          period(sc.period),
          countdown(sc.period),
          buffer_cap(sc.buffer_capacity)
    {
        if (fc.any_enabled())
            inj = std::make_unique<FaultInjector>(
                fc, cfg.fast_capacity_pages());
    }

    std::size_t
    free_fast() const
    {
        const std::size_t reserved =
            inj != nullptr ? inj->reserved_fast_pages(now) : 0;
        const std::size_t taken = used[0] + reserved;
        const std::size_t cap = cfg.fast_capacity_pages();
        return cap > taken ? cap - taken : 0;
    }

    void
    step(PageId page)
    {
        if (!allocated[page]) {
            int t = free_fast() > 0 ? 0 : 1;
            if (t == 1 && used[1] >= cfg.slow_capacity_pages())
                t = 0;
            ++used[t];
            allocated[page] = true;
            slow[page] = t == 1;
            // allocate() rewrites the whole flags byte, so a trap armed
            // on a never-touched page is dropped on first touch.
            trap[page] = false;
        }
        const int t = slow[page] ? 1 : 0;
        const auto tier = static_cast<Tier>(t);
        accessed[page] = true;
        const SimTimeNs base = cfg.tiers[t].load_latency_ns;
        now += inj != nullptr ? inj->effective_latency(tier, base, now)
                              : base;
        ++acc[t];
        if (trap[page]) {
            trap[page] = false;
            now += cfg.hint_fault_cost_ns;
            ++hint_faults;
        }
        if (inj != nullptr && inj->sample_suppressed(now)) {
            ++suppressed;
            return;
        }
        if (--countdown == 0) {
            countdown = period;
            ++recorded;
            if (buffer.size() < buffer_cap)
                buffer.push_back({page, tier});
            else
                ++dropped;
        }
    }
};

void
run_naive_model(const FaultConfig& faults, std::string_view label,
                std::uint64_t seed)
{
    const MachineConfig cfg = small_machine();
    const PebsSampler::Config sampler_cfg{.period = 5,
                                          .buffer_capacity = 1 << 8};

    TieredMachine machine(cfg);
    machine.install_faults(faults);
    std::uint64_t machine_trap_count = 0;
    machine.set_fault_handler(
        [&](PageId, Tier) { ++machine_trap_count; });
    PebsSampler sampler(sampler_cfg);
    std::uint64_t machine_suppressed = 0;

    NaiveMachine model(cfg, faults, sampler_cfg);

    Rng stream(seed);
    Rng ops(derive_seed(seed, 2));
    std::vector<PageId> batch;
    std::vector<PebsSample> drained;

    for (int interval = 0; interval < 64; ++interval) {
        SCOPED_TRACE(testing::Message()
                     << "faults=" << label << " seed=" << seed
                     << " interval=" << interval);
        const std::size_t n = 1 + stream.next_below(513);
        batch.clear();
        for (std::size_t i = 0; i < n; ++i)
            batch.push_back(
                static_cast<PageId>(stream.next_below(kPages)));

        for (const PageId page : batch)
            model.step(page);
        if (machine.faults_enabled())
            machine.access_batch_faulted(batch.data(), n, sampler,
                                         machine_suppressed);
        else
            machine.access_batch(batch.data(), n, sampler);

        // Arm traps identically (accesses only; no migrations, so the
        // replica injector's draw stream stays aligned).
        for (int i = 0; i < 8; ++i) {
            const auto page =
                static_cast<PageId>(ops.next_below(kPages));
            machine.set_trap(page);
            model.trap[page] = true;
        }

        ASSERT_EQ(machine.now(), model.now);
        EXPECT_EQ(machine.totals().accesses[0], model.acc[0]);
        EXPECT_EQ(machine.totals().accesses[1], model.acc[1]);
        EXPECT_EQ(machine.totals().hint_faults, model.hint_faults);
        EXPECT_EQ(machine_trap_count, model.hint_faults);
        EXPECT_EQ(machine.used_pages(Tier::kFast), model.used[0]);
        EXPECT_EQ(machine.used_pages(Tier::kSlow), model.used[1]);
        EXPECT_EQ(machine_suppressed, model.suppressed);
        EXPECT_EQ(sampler.recorded(), model.recorded);
        EXPECT_EQ(sampler.dropped(), model.dropped);
        for (PageId p = 0; p < kPages; ++p) {
            ASSERT_EQ(machine.is_allocated(p), model.allocated[p])
                << "page " << p;
            ASSERT_EQ(machine.accessed(p), model.accessed[p])
                << "page " << p;
            ASSERT_EQ(machine.has_trap(p), model.trap[p]) << "page " << p;
            if (model.allocated[p]) {
                ASSERT_EQ(machine.tier_of(p),
                          model.slow[p] ? Tier::kSlow : Tier::kFast)
                    << "page " << p;
            }
        }
        drained.clear();
        sampler.drain(drained, 1 << 12);
        ASSERT_EQ(drained.size(), model.buffer.size());
        for (std::size_t i = 0; i < drained.size(); ++i) {
            ASSERT_EQ(drained[i].page, model.buffer[i].page);
            ASSERT_EQ(drained[i].tier, model.buffer[i].tier);
        }
        model.buffer.clear();
        if (testing::Test::HasFailure())
            return;
    }
}

TEST(DiffModel, NaiveSingleStepModelMatchesBatchedMachine)
{
    for (const auto scenario : memsim::fault_scenario_names())
        run_naive_model(memsim::make_fault_scenario(scenario, 11), scenario,
                        23);
    // Without tx the write storm is never consulted, and the replica
    // injector's draw stream stays aligned.
    run_naive_model(microsecond_windows(), "us_windows", 23);
    run_naive_model(microsecond_windows(0.0), "us_no_drop", 23);
}

// ---------------------------------------------------------------------
// Policy-side structures: EmaBins + LruLists vs naive models.
// ---------------------------------------------------------------------

TEST(DiffModel, EmaBinsAndLruListsMatchNaiveModels)
{
    // Drive a batched machine, feed its drained samples to the real
    // EmaBins + LruLists (their hot paths are inlined for §9) and to
    // naive models: a plain count vector with a from-scratch histogram
    // rebuild, and four std::lists.
    const std::uint64_t seed = 31;
    TieredMachine machine(small_machine());
    PebsSampler sampler({.period = 3, .buffer_capacity = 1 << 12});

    stats::EmaBins bins(kPages, 4096);
    lru::LruLists lists(kPages);
    std::vector<std::uint32_t> naive_counts(kPages, 0);
    std::list<PageId> naive_lists[4];
    std::vector<bool> naive_referenced(kPages, false);

    const auto naive_list_of = [&](PageId page) {
        for (int l = 0; l < 4; ++l)
            for (const PageId p : naive_lists[l])
                if (p == page)
                    return l;
        return 4;  // kNone
    };
    const auto naive_touch = [&](PageId page, Tier tier) {
        const int active = tier == Tier::kFast ? 0 : 2;
        const int inactive = active + 1;
        const int current = naive_list_of(page);
        if (current == 4) {
            naive_referenced[page] = true;
            naive_lists[inactive].push_front(page);
            return;
        }
        naive_lists[current].remove(page);
        if (current == 0 || current == 2) {  // was on an active list
            naive_referenced[page] = true;
            naive_lists[active].push_front(page);
        } else if (naive_referenced[page]) {
            naive_referenced[page] = false;
            naive_lists[active].push_front(page);
        } else {
            naive_referenced[page] = true;
            naive_lists[inactive].push_front(page);
        }
    };

    Rng stream(seed);
    std::vector<PageId> batch;
    std::vector<PebsSample> drained;
    for (int interval = 0; interval < 48; ++interval) {
        SCOPED_TRACE(testing::Message()
                     << "seed=" << seed << " interval=" << interval);
        const std::size_t n = 1 + stream.next_below(1025);
        batch.clear();
        for (std::size_t i = 0; i < n; ++i) {
            const bool hot = stream.next_bool(0.6);
            batch.push_back(static_cast<PageId>(
                hot ? stream.next_below(64) : stream.next_below(kPages)));
        }
        machine.access_batch(batch.data(), n, sampler);
        drained.clear();
        sampler.drain(drained, 1 << 12);
        for (const auto& s : drained) {
            bins.record(s.page);
            if (naive_counts[s.page] < (1u << (stats::EmaBins::kBins - 1)))
                ++naive_counts[s.page];
            lists.touch(s.page, s.tier);
            naive_touch(s.page, s.tier);
        }
        if (bins.cooling_due()) {
            bins.cool();
            for (auto& c : naive_counts)
                c >>= 1;
        }
        // Exercise the aging/scan paths on both models every so often.
        if (interval % 8 == 7) {
            for (const Tier tier : {Tier::kFast, Tier::kSlow}) {
                const int active = tier == Tier::kFast ? 0 : 2;
                const int inactive = active + 1;
                const std::size_t scans = 16;
                const std::size_t deactivated =
                    lists.age_active(tier, scans);
                std::size_t naive_deactivated = 0;
                for (std::size_t i = 0;
                     i < scans && !naive_lists[active].empty(); ++i) {
                    const PageId page = naive_lists[active].back();
                    naive_lists[active].pop_back();
                    if (naive_referenced[page]) {
                        naive_referenced[page] = false;
                        naive_lists[active].push_front(page);
                    } else {
                        naive_lists[inactive].push_front(page);
                        ++naive_deactivated;
                    }
                }
                EXPECT_EQ(deactivated, naive_deactivated);
            }
        }

        // Compare: per-page EMA counts plus the bin histogram rebuilt
        // from scratch, then exact list order head -> tail.
        std::uint64_t naive_bins[stats::EmaBins::kBins] = {};
        for (PageId p = 0; p < kPages; ++p) {
            ASSERT_EQ(bins.count(p), naive_counts[p]) << "page " << p;
            ++naive_bins[stats::EmaBins::bin_of(naive_counts[p])];
        }
        for (int b = 0; b < stats::EmaBins::kBins; ++b)
            ASSERT_EQ(bins.bin_pages(b), naive_bins[b]) << "bin " << b;
        for (int l = 0; l < 4; ++l) {
            const auto list = static_cast<lru::ListId>(l);
            ASSERT_EQ(lists.size(list), naive_lists[l].size())
                << "list " << l;
            PageId page = lists.head(list);
            for (const PageId expected : naive_lists[l]) {
                ASSERT_EQ(page, expected) << "list " << l;
                ASSERT_EQ(lists.where(page), list);
                ASSERT_EQ(lists.referenced(page),
                          naive_referenced[page]);
                page = lists.next(page);
            }
            ASSERT_EQ(page, kInvalidPage) << "list " << l;
        }
        if (testing::Test::HasFailure())
            return;
    }
}

// ---------------------------------------------------------------------
// Zipf fast path: rank-table lookup vs the closed form.
// ---------------------------------------------------------------------

TEST(DiffModel, ZipfTableMatchesClosedFormOnEveryDraw)
{
    // Small n (the table covers every rank), paper-scale skews, and the
    // (n, theta) each workload builds at its default page size: ycsb,
    // ycsb_w, btree, cc, sssp and pr. Two identically seeded RNGs
    // consume the same uniform u: one feeds next(), which pays the
    // closed form until it builds the table, one the closed form
    // directly. The last two shapes put 8 and 18 boundaries in their
    // densest guide bucket, past what lookup() counts over, so they
    // may keep no table; they must still match draw for draw.
    const struct {
        std::uint64_t n;
        double theta;
        bool keeps_table;
    } cases[] = {
        {100, 0.99, true},       {4096, 0.99, true},
        {4096, 0.5, true},       {1u << 20, 0.9, true},
        // ycsb, ycsb_w, btree, cc, sssp, pr.
        {14745, 0.99, true},     {13107, 0.999, true},
        {65536, 0.2, true},      {35328, 0.9, true},
        {11468, 0.55, true},     {12800, 0.75, true},
        {1u << 20, 0.5, false},  {1u << 20, 0.2, false},
    };
    constexpr std::uint64_t kDraws = std::uint64_t{1} << 53;
    constexpr std::uint64_t kCell = std::uint64_t{1}
                                    << ZipfTestPeer::kCellShift;
    for (const auto& c : cases) {
        SCOPED_TRACE(testing::Message()
                     << "n=" << c.n << " theta=" << c.theta);
        ZipfianGenerator zipf(c.n, c.theta);
        Rng fast(91);
        Rng oracle(91);
        for (int i = 0; i < 2000000; ++i) {
            const double u = oracle.next_double();
            const std::uint64_t want = zipf.shape().rank_of(u);
            const std::uint64_t got = zipf.next(fast);
            ASSERT_EQ(got, want) << "draw " << i << " u=" << u;
        }
        // The table was built partway through and served the rest.
        if (c.keeps_table) {
            ASSERT_GT(zipf.table_ranks(), 0u);
        }
        // A random stream lands in a boundary's own cell about 3.4
        // times per million draws, so probe each boundary's cell
        // directly: its first and last draw and the draw on either
        // side, where the count must include or exclude the boundary.
        const auto cells = ZipfTestPeer::cells(zipf);
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const std::uint64_t first = std::uint64_t{cells[i]} * kCell;
            const std::uint64_t last = first + kCell - 1;
            for (const std::uint64_t k : {first - 1, first, last, last + 1}) {
                if (k >= kDraws)
                    continue;  // first - 1 wrapped, or last + 1 is 2^53.
                ASSERT_EQ(ZipfTestPeer::lookup(zipf, k),
                          zipf.shape().rank_of(static_cast<double>(k) *
                                               0x1.0p-53))
                    << "boundary " << i << " k=" << k;
            }
        }
    }
}

TEST(DiffModel, ZipfTableNotBuiltBeforeItsPriceIsPaid)
{
    // ycsb's shape: every draw is one the table would serve, so the
    // table appears on exactly the draw that pays its price.
    ZipfianGenerator zipf(14745, 0.99);
    const std::uint64_t price = zipf.shape().table_price();
    ASSERT_GT(price, 0u);
    Rng rng(7);
    for (std::uint64_t i = 0; i + 1 < price; ++i)
        (void)zipf.next(rng);
    EXPECT_EQ(zipf.table_ranks(), 0u);
    (void)zipf.next(rng);
    EXPECT_EQ(zipf.table_ranks(), 14744u);
}

// ---------------------------------------------------------------------
// Zipf shapes shared through a registry vs private generators.
// ---------------------------------------------------------------------

/** Draws per turn when several handles on one shape take turns. */
constexpr int kZipfTurn = 256;

TEST(DiffModel, ZipfSharedShapeDrawsThePrivateRanks)
{
    // ycsb, btree and cc's shapes. Handles on one registry, seeded
    // apart, draw in alternating turns while a private generator per
    // handle, seeded alike, draws the same stream alone. Together the
    // handles pay the shape's price partway through; each private
    // generator pays its own, or never does.
    const struct {
        std::uint64_t n;
        double theta;
        int handles;
        int turns_each;
    } cases[] = {
        {14745, 0.99, 4, 160},
        {65536, 0.2, 4, 480},
        {35328, 0.9, 2, 320},
    };
    for (const auto& c : cases) {
        SCOPED_TRACE(testing::Message()
                     << "n=" << c.n << " theta=" << c.theta);
        ZipfShapes shapes;
        std::vector<ZipfianGenerator> shared;
        std::vector<ZipfianGenerator> alone;
        std::vector<Rng> shared_rng;
        std::vector<Rng> alone_rng;
        for (int h = 0; h < c.handles; ++h) {
            shared.emplace_back(c.n, c.theta, &shapes);
            alone.emplace_back(c.n, c.theta);
            shared_rng.emplace_back(1000 + h);
            alone_rng.emplace_back(1000 + h);
        }
        for (int turn = 0; turn < c.turns_each * c.handles; ++turn) {
            const auto h = static_cast<std::size_t>(turn % c.handles);
            for (int i = 0; i < kZipfTurn; ++i) {
                ASSERT_EQ(shared[h].next(shared_rng[h]),
                          alone[h].next(alone_rng[h]))
                    << "handle " << h << " turn " << turn << " draw " << i;
            }
        }
        // One shape, whose table every handle now reads.
        const ZipfShape& shape = shared[0].shape();
        ASSERT_GT(shape.table_ranks(), 0u);
        for (const auto& g : shared) {
            EXPECT_EQ(&g.shape(), &shape);
            EXPECT_EQ(g.table_ranks(), shape.table_ranks());
            EXPECT_EQ(ZipfTestPeer::cells(g).data(),
                      ZipfTestPeer::cells(shared[0]).data());
        }
        for (const auto& g : alone)
            EXPECT_NE(&g.shape(), &shape);
    }
}

TEST(DiffModel, ZipfSharedShapeBuildsOnceAtItsPrice)
{
    // ycsb's shape, where every draw is one the table would serve, and
    // btree's, where only draws below rank 2^14 are. Twin Rngs replay
    // each handle's draws through the closed form to count the ones
    // that pay, so the build must land on exactly the draw that brings
    // the handles' summed payments to table_price().
    const struct {
        std::uint64_t n;
        double theta;
        std::uint64_t table_below;
    } cases[] = {
        {14745, 0.99, 14745},
        {65536, 0.2, 1u << 14},
    };
    for (const auto& c : cases) {
        SCOPED_TRACE(testing::Message()
                     << "n=" << c.n << " theta=" << c.theta);
        ZipfShapes shapes;
        ZipfianGenerator handles[] = {{c.n, c.theta, &shapes},
                                      {c.n, c.theta, &shapes},
                                      {c.n, c.theta, &shapes}};
        Rng rng[] = {Rng(5), Rng(6), Rng(7)};
        Rng twin[] = {Rng(5), Rng(6), Rng(7)};
        const ZipfShape& shape = handles[0].shape();
        const std::uint64_t price = shape.table_price();
        ASSERT_GT(price, 0u);
        std::uint64_t paid = 0;
        const std::uint32_t* built = nullptr;
        // Turns until the build, then one more for each handle.
        int turns_after_build = 0;
        for (int turn = 0; turns_after_build < 3; ++turn) {
            ASSERT_LT(turn, 10000) << "no table built";
            const std::size_t h = static_cast<std::size_t>(turn % 3);
            turns_after_build += built != nullptr;
            for (int i = 0; i < kZipfTurn; ++i) {
                const std::uint64_t want =
                    shape.rank_of(twin[h].next_double());
                const bool had_table = shape.table_ranks() > 0;
                ASSERT_EQ(handles[h].next(rng[h]), want);
                if (had_table)
                    continue;
                paid += want < c.table_below;
                // Built on the draw that completes the price, not before.
                ASSERT_EQ(shape.table_ranks() > 0, paid == price)
                    << "paid " << paid << " of " << price;
                if (paid == price)
                    built = ZipfTestPeer::cells(handles[h]).data();
            }
        }
        // The build's handle adopted the table on that draw and the
        // others on their next one; nothing rebuilt it.
        for (const auto& g : handles)
            EXPECT_EQ(ZipfTestPeer::cells(g).data(), built);
    }
}

TEST(DiffModel, ZipfHandleMadeAfterTheBuildReadsTheTable)
{
    ZipfShapes shapes;
    ZipfianGenerator first(14745, 0.99, &shapes);
    Rng rng(11);
    for (std::uint64_t i = 0; i < first.shape().table_price(); ++i)
        (void)first.next(rng);
    ASSERT_EQ(first.table_ranks(), 14744u);

    // A later handle of the shape reads the table from its first draw.
    ZipfianGenerator later(14745, 0.99, &shapes);
    EXPECT_EQ(&later.shape(), &first.shape());
    EXPECT_EQ(later.table_ranks(), 14744u);
    ZipfianGenerator alone(14745, 0.99);
    EXPECT_EQ(alone.table_ranks(), 0u);
    Rng a(12);
    Rng b(12);
    for (int i = 0; i < 200000; ++i)
        ASSERT_EQ(later.next(a), alone.next(b)) << "draw " << i;

    // Another (n, theta) gets a shape of its own.
    ZipfianGenerator other(14745, 0.999, &shapes);
    EXPECT_NE(&other.shape(), &first.shape());
    EXPECT_EQ(other.table_ranks(), 0u);
}

TEST(DiffModel, TenantSetSharingZipfShapesEmitsThePrivateStream)
{
    // perfbench's tenants16 mix at its 8M accesses and seed 42: the
    // four ycsb tenants buy one table early and the four btree tenants
    // one late. The reference builds each tenant exactly as
    // make_tenant_set() does, but without a registry.
    tenancy::TenancyConfig config;
    config.tenants = 16;
    config.mix = {"s2", "ycsb", "s3", "btree"};
    constexpr Bytes kPage = 2ull << 20;
    constexpr std::uint64_t kAccesses = 8000000;
    constexpr std::uint64_t kSeed = 42;
    auto shared = tenancy::make_tenant_set(config, "s2", kPage, kAccesses,
                                           kSeed);
    std::vector<std::unique_ptr<workloads::AccessGenerator>> alone;
    for (std::uint32_t i = 0; i < config.tenants; ++i) {
        alone.push_back(workloads::make_workload(
            config.mix[i % config.mix.size()], kPage,
            kAccesses / config.tenants, tenancy::tenant_seed(kSeed, i)));
    }
    tenancy::TenantSet reference(std::move(alone),
                                 std::vector<std::size_t>(config.tenants, 1),
                                 kPage, config.quantum, config.phase_stride);
    ASSERT_EQ(shared->total_accesses(), reference.total_accesses());
    ASSERT_EQ(shared->footprint(), reference.footprint());
    std::vector<PageId> got(4096);
    std::vector<PageId> want(4096);
    std::uint64_t emitted = 0;
    while (true) {
        const std::size_t n = shared->fill(got);
        ASSERT_EQ(n, reference.fill(want)) << "after " << emitted;
        if (n == 0)
            break;
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(got[i], want[i]) << "access " << emitted + i;
        emitted += n;
    }
    EXPECT_EQ(emitted, reference.total_accesses());
}

// ---------------------------------------------------------------------
// AutoTiering's exchange-victim search: fast-page index vs ring walk.
// ---------------------------------------------------------------------

/** Where a victim search ended: its pick, its cursor, pages examined. */
struct VictimSearch {
    PageId victim = kInvalidPage;
    PageId cursor = 0;
    std::size_t examined = 0;
};

/**
 * AutoTiering's victim search before the fast-page index, kept verbatim
 * as the reference: walk the page ring from @p cursor until
 * @p victim_scan fast pages were seen or the ring went full circle,
 * keeping the first strict minimum of @p fault_count.
 */
VictimSearch
ring_walk_victim(const TieredMachine& m,
                 const std::vector<std::uint32_t>& fault_count,
                 PageId cursor, std::size_t victim_scan)
{
    const std::size_t pages = m.page_count();
    VictimSearch out;
    std::uint32_t coldest_count = ~0u;
    for (std::size_t i = 0; i < pages && out.examined < victim_scan; ++i) {
        const PageId page = cursor;
        cursor = static_cast<PageId>((cursor + 1) % pages);
        if (!m.is_allocated(page) || m.tier_of(page) != Tier::kFast)
            continue;
        ++out.examined;
        if (fault_count[page] < coldest_count) {
            coldest_count = fault_count[page];
            out.victim = page;
        }
    }
    out.cursor = cursor;
    return out;
}

/** Allocated pages resident in @p tier, ascending. */
std::vector<PageId>
pages_in(const TieredMachine& m, Tier tier)
{
    std::vector<PageId> out;
    for (PageId p = 0; p < m.page_count(); ++p) {
        if (m.is_allocated(p) && m.tier_of(p) == tier)
            out.push_back(p);
    }
    return out;
}

/** A uniformly drawn element of @p from, or kInvalidPage if empty. */
PageId
pick(const std::vector<PageId>& from, Rng& rng)
{
    return from.empty() ? kInvalidPage : from[rng.next_below(from.size())];
}

TEST(DiffModel, AutoTieringVictimIndexMatchesRingWalk)
{
    // Exactness contract of the index search, against the ring walk on
    // seeded random residency and fault counts: the same victim (first
    // strict minimum of the fault count in ring order); the cursor one
    // past the last page examined, or unchanged when the fast tier
    // holds fewer than victim_scan pages (the walk went full circle);
    // scan_cost_ns charged per fast page examined. Residency changes
    // between searches go through the policy's own migrate/exchange
    // calls, so a stale index shows on the next search; the window is
    // then searched again from where the last search started.
    using policies::AutoTiering;
    using Peer = policies::AutoTieringTestPeer;
    enum class Mode { kAtomic, kAborts, kTx };
    // Coverage: |fast| none / below / equal / above victim_scan, and
    // each kind of residency change the resync must follow.
    std::size_t by_size[4] = {};
    std::size_t exchanged = 0, promoted = 0, demoted = 0, flipped = 0,
                refused = 0, tx_opened = 0;
    for (std::uint64_t seed = 1; seed <= 216; ++seed) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        Rng rng(seed);
        const auto mode = static_cast<Mode>(seed % 3);
        static constexpr std::size_t kScans[] = {1, 7, 32};
        AutoTiering::Config config;
        config.victim_scan = kScans[(seed / 3) % 3];
        const std::size_t scan = config.victim_scan;
        const std::size_t fast_caps[] = {0, scan - 1, scan,
                                         scan + 1 + rng.next_below(3 * scan)};
        const std::size_t fast_cap = fast_caps[(seed / 9) % 4];
        const std::size_t pages = fast_cap + 1 + rng.next_below(4 * scan + 64);
        MachineConfig mc;
        mc.page_size = 4096;
        mc.address_space = pages * mc.page_size;
        mc.tiers[0].capacity = fast_cap * mc.page_size;
        mc.tiers[1].capacity = pages * mc.page_size;
        TieredMachine m(mc);
        if (mode == Mode::kAborts) {
            FaultConfig faults;
            faults.seed = seed;
            faults.transient_rate = 0.3;
            faults.pinned_fraction = 0.1;
            m.install_faults(faults);
        } else if (mode == Mode::kTx) {
            memsim::TxConfig tx;
            tx.enabled = true;
            tx.seed = seed;
            m.install_tx(tx);
        }
        AutoTiering policy(config);
        policy.init(m);

        // First touch of a random subset in random order: the first
        // fast_cap pages touched land in the fast tier.
        std::vector<PageId> order(pages);
        for (std::size_t i = 0; i < pages; ++i)
            order[i] = static_cast<PageId>(i);
        for (std::size_t i = pages - 1; i > 0; --i)
            std::swap(order[i], order[rng.next_below(i + 1)]);
        const std::size_t touched = rng.next_below(pages + 1);
        for (std::size_t i = 0; i < touched; ++i)
            (void)m.access(order[i]);
        auto& counts = Peer::fault_counts(policy);
        for (auto& c : counts)
            c = static_cast<std::uint32_t>(rng.next_below(4));
        if (mode == Mode::kTx) {
            // Committed demotions leave a clean fast copy behind: these
            // dual pages promote back by a free flip.
            for (const PageId p : pages_in(m, Tier::kFast)) {
                if (rng.next_below(3) == 0)
                    (void)m.migrate(p, Tier::kSlow);
            }
            m.advance(1000000000);
            m.poll_tx();
        }

        PageId from = 0;
        for (int step = 0; step < 48; ++step) {
            // Place the cursor: at 0, at pages - 1, one past the last
            // fast page, anywhere, or where the last search left it.
            auto& cursor = Peer::cursor(policy);
            const auto fast = pages_in(m, Tier::kFast);
            switch (rng.next_below(6)) {
            case 0:
                cursor = 0;
                break;
            case 1:
                cursor = static_cast<PageId>(pages - 1);
                break;
            case 2:
                cursor = fast.empty() || fast.back() + 1 == pages
                             ? 0
                             : fast.back() + 1;
                break;
            case 3:
                cursor = static_cast<PageId>(rng.next_below(pages));
                break;
            default:
                break;
            }
            from = cursor;
            const VictimSearch want =
                ring_walk_victim(m, counts, from, scan);
            const SimTimeNs overhead = m.totals().overhead_ns;
            const PageId victim = Peer::find_victim(policy);
            ASSERT_EQ(victim, want.victim)
                << "step " << step << " from " << from;
            ASSERT_EQ(cursor, want.cursor)
                << "step " << step << " from " << from;
            ASSERT_EQ(m.totals().overhead_ns - overhead,
                      want.examined * config.scan_cost_ns)
                << "step " << step;
            if (fast.size() < scan) {
                ASSERT_EQ(cursor, from) << "step " << step;
            }
            ++by_size[fast.empty() ? 0
                      : fast.size() < scan ? 1
                      : fast.size() == scan ? 2
                                            : 3];

            // Change residency through the policy, then search the same
            // window again.
            const auto slow = pages_in(m, Tier::kSlow);
            switch (rng.next_below(5)) {
            case 0:
            case 1: {
                const PageId hot = pick(slow, rng);
                if (hot == kInvalidPage || victim == kInvalidPage)
                    break;
                const auto r = Peer::exchange(policy, hot, victim);
                exchanged += r.ok();
                tx_opened += r.pending();
                refused += !r.ok() && !r.pending();
                cursor = from;
                break;
            }
            case 2: {
                // Promote: a dual page flips back for free in tx mode.
                std::vector<PageId> dual;
                for (const PageId p : slow) {
                    if (m.tx_page_dual(p))
                        dual.push_back(p);
                }
                const PageId page = pick(dual.empty() ? slow : dual, rng);
                if (page == kInvalidPage)
                    break;
                const bool was_dual = m.tx_page_dual(page);
                const auto r = Peer::migrate(policy, page, Tier::kFast);
                if (r.ok()) {
                    flipped += was_dual;
                    promoted += !was_dual;
                    // Make the new fast page the first one examined.
                    counts[page] = 0;
                    cursor = page;
                } else {
                    tx_opened += r.pending();
                    refused += !r.pending();
                    cursor = from;
                }
                break;
            }
            case 3: {
                const PageId page = pick(fast, rng);
                if (page == kInvalidPage)
                    break;
                const auto r = Peer::migrate(policy, page, Tier::kSlow);
                demoted += r.ok();
                tx_opened += r.pending();
                refused += !r.ok() && !r.pending();
                cursor = from;
                break;
            }
            default:
                // Interval boundary: new first touches, due commits and
                // hint faults change residency and counts behind the
                // policy's back; the next interval indexes afresh.
                for (int i = 0; i < 3; ++i)
                    (void)m.access(
                        static_cast<PageId>(rng.next_below(pages)));
                m.advance(1000000000);
                m.poll_tx();
                for (int i = 0; i < 8; ++i)
                    ++counts[rng.next_below(pages)];
                policy.on_interval(m.now());
                break;
            }
        }
    }
    for (int i = 0; i < 4; ++i)
        EXPECT_GT(by_size[i], 0u) << "no search at |fast| class " << i;
    EXPECT_GT(exchanged, 0u);
    EXPECT_GT(promoted, 0u);
    EXPECT_GT(demoted, 0u);
    EXPECT_GT(flipped, 0u);
    EXPECT_GT(refused, 0u);
    EXPECT_GT(tx_opened, 0u);
}

// ---------------------------------------------------------------------
// ArtMem's promotion-candidate search: hot-page index vs list walk.
// ---------------------------------------------------------------------

/** Where a candidate walk ended: the pages it kept, the nodes it passed. */
struct CandidateWalk {
    std::vector<PageId> pages;
    std::size_t walked = 0;
};

/**
 * ArtMem's recency-first candidate search before the hot-page index,
 * kept verbatim as the reference: walk the slow active list and then the
 * slow inactive list from the head, keeping every page at or above the
 * threshold that is allocated, slow-resident, out of its backoff and not
 * in flight, until @p want pages are kept.
 */
CandidateWalk
list_walk_candidates(const core::ArtMem& p, const TieredMachine& m,
                     std::size_t want)
{
    CandidateWalk out;
    const auto& lists = p.lists();
    for (lru::ListId list :
         {lru::ListId::kSlowActive, lru::ListId::kSlowInactive}) {
        for (PageId page = lists.head(list);
             page != kInvalidPage && out.pages.size() < want;
             page = lists.next(page)) {
            ++out.walked;
            if (p.bins().count(page) >= p.current_threshold() &&
                m.is_allocated(page) &&
                m.tier_of_unchecked(page) == Tier::kSlow &&
                !core::ArtMemTestPeer::backed_off(p, page) &&
                !m.tx_page_inflight(page)) {
                out.pages.push_back(page);
            }
        }
        if (out.pages.size() >= want)
            break;
    }
    return out;
}

TEST(DiffModel, ArtMemCandidatesMatchListWalk)
{
    // Exactness contract of the indexed search, against the unbudgeted
    // list walk: the same pages in the same order for every want,
    // whether the walk fits in its budget (the index size) or the
    // search falls back to filtering and sorting the index. States come
    // from the policy's own on_samples / on_interval / on_tx_resolved
    // on seeded runs with faults, transactions or tenant quotas, plus
    // direct threshold moves and the faulted promotion round whose
    // refill perform_migration() collects.
    using core::ArtMem;
    using Peer = core::ArtMemTestPeer;
    enum class Mode { kPlain, kFaults, kTx, kTenants };
    // Coverage: want below / at / above the qualifying count, the walk
    // budget hit and not, and each state the predicate filters on.
    std::size_t by_want[3] = {};
    std::size_t over_budget = 0, within_budget = 0, after_cooling = 0,
                moved_threshold = 0, prefixed = 0, refills = 0,
                backed_off = 0, inflight = 0, aborted_promotions = 0;
    std::uint64_t pinned = 0, transient = 0, denied = 0;
    for (std::uint64_t seed = 1; seed <= 96; ++seed) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        Rng rng(seed);
        const auto mode = static_cast<Mode>(seed % 4);
        const std::size_t pages = 128 + rng.next_below(384);
        const std::size_t fast_cap = pages / 8 + rng.next_below(pages / 4);
        MachineConfig mc;
        mc.page_size = 2ull << 20;
        mc.address_space = pages * mc.page_size;
        mc.tiers[0].capacity = fast_cap * mc.page_size;
        mc.tiers[1].capacity = pages * mc.page_size;
        TieredMachine m(mc);
        if (mode == Mode::kFaults || mode == Mode::kTx) {
            FaultConfig faults;
            faults.seed = seed;
            faults.transient_rate = 0.25;
            faults.pinned_fraction = 0.1;
            m.install_faults(faults);
        }
        if (mode == Mode::kTx) {
            memsim::TxConfig tx;
            tx.enabled = true;
            tx.seed = seed;
            tx.write_ratio = 0.4;
            tx.max_inflight = 16;
            m.install_tx(tx);
        }
        if (mode == Mode::kTenants) {
            auto ledger = std::make_unique<memsim::TenantLedger>(
                2, m.page_count());
            ledger->set_owner_span(0, pages / 2, 0);
            ledger->set_owner_span(static_cast<PageId>(pages / 2),
                                   pages - pages / 2, 1);
            ledger->set_quota(0, fast_cap / 3);
            ledger->set_admission(
                tenancy::make_admission("static", 2, 6, 0.5, 8));
            m.install_tenants(std::move(ledger));
        }
        core::ArtMemConfig config;
        config.seed = seed;
        config.cooling_period = 512 + rng.next_below(2048);
        static constexpr std::uint32_t kFloors[] = {1, 4, 16};
        config.min_threshold = kFloors[(seed / 4) % 3];
        ArtMem policy(config);
        policy.init(m);
        m.set_tx_handler([&](PageId page, Tier src, Tier dst,
                             bool committed) {
            aborted_promotions += !committed && dst == Tier::kFast;
            policy.on_tx_resolved(page, src, dst, committed);
        });

        // First touch in random order; a tenth of the pages are hot.
        std::vector<PageId> order(pages);
        for (std::size_t i = 0; i < pages; ++i)
            order[i] = static_cast<PageId>(i);
        for (std::size_t i = pages - 1; i > 0; --i)
            std::swap(order[i], order[rng.next_below(i + 1)]);
        for (const PageId p : order)
            (void)m.access(p);
        const std::size_t hot = pages / 10;

        const auto check = [&](std::size_t want,
                               std::size_t prefix) -> testing::AssertionResult {
            const CandidateWalk ref = list_walk_candidates(policy, m, want);
            std::vector<PageId> got(prefix, kInvalidPage);
            Peer::collect(policy, prefix + want, got);
            std::vector<PageId> expect(prefix, kInvalidPage);
            expect.insert(expect.end(), ref.pages.begin(), ref.pages.end());
            if (got != expect) {
                return testing::AssertionFailure()
                       << "want " << want << " after " << prefix
                       << " pages: index search "
                       << testing::PrintToString(got) << ", list walk "
                       << testing::PrintToString(expect);
            }
            const std::size_t index = policy.bins().hot_pages().size();
            ++(ref.walked > index ? over_budget : within_budget);
            after_cooling += policy.bins().cooling_events() > 0;
            prefixed += prefix > 0;
            return testing::AssertionSuccess();
        };

        for (int step = 0; step < 40; ++step) {
            SCOPED_TRACE(testing::Message() << "step " << step);
            // A batch of samples, skewed toward the hot tenth; in tx mode
            // the accesses behind them can abort in-flight copies.
            std::vector<memsim::PebsSample> samples(64 + rng.next_below(512));
            for (auto& s : samples) {
                s.page = rng.next_below(10) < 7
                             ? order[rng.next_below(hot)]
                             : order[rng.next_below(pages)];
                (void)m.access(s.page);
                s.tier = m.tier_of(s.page);
            }
            policy.on_samples(samples);

            const std::size_t qualifying =
                list_walk_candidates(policy, m, pages).pages.size();
            for (const PageId p : policy.bins().hot_pages()) {
                backed_off += Peer::backed_off(policy, p);
                inflight += m.tx_page_inflight(p);
            }
            const std::size_t wants[] = {
                qualifying > 1 ? qualifying - 1 : 1, qualifying,
                qualifying + 1, 1 + rng.next_below(pages)};
            for (const std::size_t want : wants) {
                ASSERT_TRUE(check(want, rng.next_below(4) == 0
                                            ? 1 + rng.next_below(3)
                                            : 0));
                ++by_want[want < qualifying ? 0
                          : want == qualifying ? 1
                                               : 2];
            }

            switch (rng.next_below(4)) {
            case 0: {
                // The threshold agent's moves, without waiting for it.
                Peer::threshold(policy) = config.min_threshold +
                    static_cast<std::uint32_t>(rng.next_below(24));
                ++moved_threshold;
                ASSERT_TRUE(check(1 + rng.next_below(pages), 0));
                break;
            }
            case 1: {
                // perform_migration()'s first round, then the refill
                // collection that follows it when pages faulted.
                const std::size_t want = 1 + rng.next_below(32);
                ASSERT_TRUE(check(want, 0));
                std::vector<PageId> round;
                Peer::collect(policy, want, round);
                std::size_t promoted = 0, faulted = 0;
                Peer::promote_round(policy, round, promoted, faulted);
                if (faulted > 0 && promoted < want) {
                    ++refills;
                    ASSERT_TRUE(check(want - promoted, 0));
                }
                break;
            }
            default:
                // Decision boundary: due transactions resolve, the
                // admission budgets refill and the policy migrates.
                m.advance(1000000 + rng.next_below(20000000));
                m.poll_tx();
                if (auto* ledger = m.tenants())
                    ledger->interval_feedback();
                policy.on_interval(m.now());
                break;
            }
        }
        pinned += m.totals().failed_pinned;
        transient += m.totals().failed_transient;
        denied += m.totals().failed_quota + m.totals().failed_admission;
    }
    for (int i = 0; i < 3; ++i)
        EXPECT_GT(by_want[i], 0u) << "no search at want class " << i;
    EXPECT_GT(over_budget, 0u);
    EXPECT_GT(within_budget, 0u);
    EXPECT_GT(after_cooling, 0u);
    EXPECT_GT(moved_threshold, 0u);
    EXPECT_GT(prefixed, 0u);
    EXPECT_GT(refills, 0u);
    EXPECT_GT(backed_off, 0u);
    EXPECT_GT(inflight, 0u);
    EXPECT_GT(aborted_promotions, 0u);
    EXPECT_GT(pinned, 0u);
    EXPECT_GT(transient, 0u);
    EXPECT_GT(denied, 0u);
}


// ---------------------------------------------------------------------
// Generation kernels: Masim and Btree fills vs the per-access loops.
// ---------------------------------------------------------------------

/**
 * Masim's generator before the batch kernel, kept verbatim as the
 * reference: one access per iteration, a phase-end test on each, a
 * region picked by a double multiply and a scan of cumulative weights,
 * and a sequential cursor wrapped by %.
 */
class ReferenceMasim
{
  public:
    ReferenceMasim(workloads::MasimSpec spec, Bytes page_size,
                   std::uint64_t seed)
        : spec_(std::move(spec)), page_size_(page_size), rng_(seed)
    {
        prepare_phase(0);
    }

    std::size_t
    fill(std::span<PageId> out)
    {
        std::size_t produced = 0;
        while (produced < out.size()) {
            if (remaining_in_phase_ == 0) {
                if (phase_index_ + 1 >= spec_.phases.size())
                    break;
                prepare_phase(phase_index_ + 1);
                continue;
            }
            // Pick a region by weight (few regions: linear scan).
            const double pick = rng_.next_double() * weight_sum_;
            PreparedRegion* region = &prepared_.back();
            for (auto& p : prepared_) {
                if (pick < p.cumulative_weight) {
                    region = &p;
                    break;
                }
            }
            PageId page;
            if (region->sequential) {
                page = region->first_page + region->cursor;
                region->cursor = (region->cursor + 1) % region->page_span;
            } else {
                page = region->first_page +
                       static_cast<PageId>(rng_.next_below(region->page_span));
            }
            out[produced++] = page;
            --remaining_in_phase_;
        }
        return produced;
    }

    /** The region the loop's scan picks for draw @p k in @p phase. */
    std::size_t
    region_of(std::size_t phase, std::uint64_t k)
    {
        prepare_phase(phase);
        const double pick =
            static_cast<double>(k) * 0x1.0p-53 * weight_sum_;
        PreparedRegion* region = &prepared_.back();
        for (auto& p : prepared_) {
            if (pick < p.cumulative_weight) {
                region = &p;
                break;
            }
        }
        return static_cast<std::size_t>(region - prepared_.data());
    }

  private:
    struct PreparedRegion {
        PageId first_page;
        PageId page_span;
        double cumulative_weight;
        bool sequential;
        PageId cursor = 0;
    };

    void
    prepare_phase(std::size_t index)
    {
        phase_index_ = index;
        prepared_.clear();
        if (index >= spec_.phases.size()) {
            remaining_in_phase_ = 0;
            return;
        }
        const workloads::MasimPhase& phase = spec_.phases[index];
        remaining_in_phase_ = phase.accesses;
        weight_sum_ = 0.0;
        for (const auto& r : phase.regions) {
            PreparedRegion p;
            p.first_page = static_cast<PageId>(r.offset / page_size_);
            const Bytes last = r.offset + r.size - 1;
            p.page_span =
                static_cast<PageId>(last / page_size_) - p.first_page + 1;
            weight_sum_ += r.weight;
            p.cumulative_weight = weight_sum_;
            p.sequential = r.sequential;
            prepared_.push_back(p);
        }
    }

    workloads::MasimSpec spec_;
    Bytes page_size_;
    Rng rng_;
    std::size_t phase_index_ = 0;
    std::uint64_t remaining_in_phase_ = 0;
    std::vector<PreparedRegion> prepared_;
    double weight_sum_ = 0.0;
};

/**
 * Btree's generator before the batch kernel, kept verbatim as the
 * reference: every lookup goes through the pending buffer, and each
 * level's node is divided down from the leaf again and wrapped by the
 * level's node count.
 */
class ReferenceBtree
{
  public:
    ReferenceBtree(const workloads::Btree::Params& params, Bytes page_size,
                   std::uint64_t seed)
        : params_(params), page_size_(page_size), rng_(seed)
    {
        Bytes used = 0;
        std::uint64_t nodes = 1;
        while (true) {
            const Bytes level_bytes = nodes * params_.node_size;
            if (used + level_bytes > params_.footprint) {
                const std::uint64_t fit =
                    (params_.footprint - used) / params_.node_size;
                if (fit > 0) {
                    level_base_.push_back(used);
                    level_nodes_.push_back(fit);
                }
                break;
            }
            level_base_.push_back(used);
            level_nodes_.push_back(nodes);
            used += level_bytes;
            nodes *= params_.fanout;
        }
        leaf_count_ = level_nodes_.back();
        leaf_blocks_ = std::min<std::uint64_t>(leaf_count_, 1u << 16);
        block_size_ = (leaf_count_ + leaf_blocks_ - 1) / leaf_blocks_;
        const double theta = std::clamp(params_.key_theta, 1e-9, 0.999);
        zipf_ = std::make_unique<ZipfianGenerator>(leaf_blocks_, theta);
    }

    std::size_t
    fill(std::span<PageId> out)
    {
        std::size_t produced = 0;
        while (produced < out.size()) {
            // Drain a partially emitted lookup path first.
            if (pending_pos_ < pending_.size()) {
                out[produced++] = pending_[pending_pos_++];
                continue;
            }
            if (emitted_ >= params_.total_accesses)
                break;
            // One lookup: root-to-leaf descent toward a (skewed-)random
            // leaf.
            const std::uint64_t block = zipf_->next(rng_);
            const std::uint64_t leaf = std::min<std::uint64_t>(
                block * block_size_ + rng_.next_below(block_size_),
                leaf_count_ - 1);
            pending_.clear();
            pending_pos_ = 0;
            const std::size_t depth = level_base_.size();
            for (std::size_t level = 0; level < depth; ++level) {
                // The ancestor of `leaf` at this level.
                std::uint64_t node = leaf;
                for (std::size_t below = level; below + 1 < depth; ++below)
                    node /= params_.fanout;
                node %= level_nodes_[level];
                const Bytes addr =
                    level_base_[level] + node * params_.node_size;
                pending_.push_back(static_cast<PageId>(addr / page_size_));
            }
            emitted_ += pending_.size();
        }
        return produced;
    }

  private:
    workloads::Btree::Params params_;
    Bytes page_size_;
    Rng rng_;
    std::unique_ptr<ZipfianGenerator> zipf_;
    std::vector<Bytes> level_base_;
    std::vector<std::uint64_t> level_nodes_;
    std::uint64_t emitted_ = 0;
    std::uint64_t leaf_count_ = 0;
    std::uint64_t leaf_blocks_ = 0;
    std::uint64_t block_size_ = 1;
    std::vector<PageId> pending_;
    std::size_t pending_pos_ = 0;
};

constexpr Bytes kGenPage = 2ull << 20;
constexpr std::uint64_t kGenSeeds[] = {42, 7919, 1};
/** Fill sizes under test; 0 is a seeded mix of sizes in [1, 1500]. */
constexpr std::size_t kFillSizes[] = {1, 3, 511, 512, 4096, 0};

/**
 * Drain @p gen and @p ref with the same fill sizes, asserting every
 * fill returns the same count and the same pages. @return accesses.
 */
template <class Gen, class Ref>
std::uint64_t
drain_in_lockstep(Gen& gen, Ref& ref, std::size_t fill_size,
                  std::uint64_t mix_seed)
{
    Rng sizes(mix_seed);
    std::vector<PageId> got(4096);
    std::vector<PageId> want(4096);
    std::uint64_t total = 0;
    for (std::uint64_t call = 0;; ++call) {
        const std::size_t n = fill_size != 0
                                  ? fill_size
                                  : 1 + sizes.next_below(1500);
        const std::size_t a = gen.fill(std::span<PageId>(got.data(), n));
        const std::size_t b = ref.fill(std::span<PageId>(want.data(), n));
        EXPECT_EQ(a, b) << "fill " << call << " of size " << n;
        if (a != b)
            return total;
        const auto diff = std::mismatch(got.begin(),
                                        got.begin() + static_cast<long>(a),
                                        want.begin());
        if (diff.first != got.begin() + static_cast<long>(a)) {
            ADD_FAILURE() << "fill " << call << " access "
                          << total + static_cast<std::uint64_t>(
                                         diff.first - got.begin())
                          << ": page " << *diff.first << ", want "
                          << *diff.second;
            return total;
        }
        total += a;
        if (a == 0)
            return total;
    }
}

/** The built-in masim workloads and every masim config, shrunk. */
std::vector<workloads::MasimSpec>
masim_specs()
{
    // An odd budget, so phase ends fall inside batches.
    constexpr std::uint64_t kTotal = 100003;
    std::vector<workloads::MasimSpec> specs;
    for (int k = 1; k <= 4; ++k)
        specs.push_back(workloads::pattern_spec(k, kTotal));
    specs.push_back(workloads::xsbench_spec(kTotal));
    specs.push_back(workloads::dlrm_spec(kTotal));
    specs.push_back(workloads::liblinear_spec(kTotal));
    std::vector<std::filesystem::path> configs;
    for (const auto& entry :
         std::filesystem::directory_iterator(ARTMEM_CONFIG_DIR)) {
        if (entry.path().extension() == ".cfg")
            configs.push_back(entry.path());
    }
    std::sort(configs.begin(), configs.end());
    for (const auto& path : configs) {
        const auto config = KvConfig::load(path.string());
        if (!config.get("phases"))
            continue;  // not a masim config (tenancy_smoke.cfg)
        auto spec = workloads::Masim::parse_spec(config);
        for (auto& phase : spec.phases)
            phase.accesses = phase.accesses / 97 + 1;
        specs.push_back(std::move(spec));
    }
    return specs;
}

TEST(DiffModel, MasimFillMatchesReference)
{
    const auto specs = masim_specs();
    // s1-s4, xsbench, dlrm, liblinear and six configs.
    ASSERT_GE(specs.size(), 13u);
    // A random stream meets a cutoff's own draw about once in 2^53
    // draws, so probe every cutoff, its neighbours and both ends of the
    // draw range in every phase directly.
    constexpr std::uint64_t kDraws = std::uint64_t{1} << 53;
    for (const auto& spec : specs) {
        workloads::Masim gen(spec, kGenPage, 1);
        ReferenceMasim ref(spec, kGenPage, 1);
        for (std::size_t phase = 0; phase < spec.phases.size(); ++phase) {
            (void)workloads::MasimTestPeer::region_of(gen, phase, 0);
            std::vector<std::uint64_t> probes = {0, kDraws - 1};
            for (const std::uint64_t c :
                 workloads::MasimTestPeer::cutoffs(gen)) {
                for (const std::uint64_t k : {c - 1, c, c + 1}) {
                    if (k < kDraws)
                        probes.push_back(k);
                }
            }
            for (const std::uint64_t k : probes) {
                ASSERT_EQ(workloads::MasimTestPeer::region_of(gen, phase, k),
                          ref.region_of(phase, k))
                    << spec.name << " phase " << phase << " draw " << k;
            }
        }
    }
    for (const auto& spec : specs) {
        for (const std::uint64_t seed : kGenSeeds) {
            for (const std::size_t size : kFillSizes) {
                SCOPED_TRACE(testing::Message()
                             << spec.name << " seed=" << seed
                             << " fill=" << size);
                workloads::Masim gen(spec, kGenPage, seed);
                ReferenceMasim ref(spec, kGenPage, seed);
                const auto total =
                    drain_in_lockstep(gen, ref, size, seed + size);
                ASSERT_FALSE(testing::Test::HasFailure());
                EXPECT_EQ(total, gen.total_accesses());
            }
        }
    }
}

TEST(DiffModel, BtreeFillMatchesReference)
{
    for (const Bytes footprint : {Bytes{24} << 30, Bytes{1} << 30}) {
        for (const std::uint64_t seed : kGenSeeds) {
            for (const std::size_t size : kFillSizes) {
                SCOPED_TRACE(testing::Message()
                             << "footprint=" << footprint
                             << " seed=" << seed << " fill=" << size);
                workloads::Btree::Params params;
                params.footprint = footprint;
                params.total_accesses = 100003;
                workloads::Btree gen(params, kGenPage, seed);
                ReferenceBtree ref(params, kGenPage, seed);
                const auto total =
                    drain_in_lockstep(gen, ref, size, seed + size);
                ASSERT_FALSE(testing::Test::HasFailure());
                EXPECT_EQ(total, gen.total_accesses());
            }
        }
    }
    // Long enough that the key sampler buys its Zipf table partway.
    workloads::Btree::Params params;
    params.total_accesses = 3000001;
    workloads::Btree gen(params, kGenPage, 42);
    ReferenceBtree ref(params, kGenPage, 42);
    EXPECT_EQ(drain_in_lockstep(gen, ref, 0, 5), gen.total_accesses());
}

}  // namespace
}  // namespace artmem
