/**
 * @file
 * Tests for the deterministic fault-injection layer and the policies'
 * resilience to it: the strict no-op guarantee when disabled (golden
 * run values captured before the fault layer existed), schedule
 * determinism, typed migration failures with consistent accounting,
 * PEBS blackouts driving ArtMem through its no-sample state, capacity
 * pressure, and degradation windows.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <tuple>
#include <vector>

#include "core/artmem.hpp"
#include "memsim/fault_injector.hpp"
#include "sim/engine.hpp"
#include "sim/registry.hpp"
#include "util/rng.hpp"
#include "workloads/masim.hpp"

namespace artmem {
namespace {

using memsim::FaultConfig;
using memsim::FaultInjector;
using memsim::MigrateStatus;
using memsim::Tier;
using memsim::TieredMachine;

constexpr Bytes kPage = 2ull << 20;

memsim::MachineConfig
small_machine(std::size_t fast_pages, std::size_t total_pages)
{
    memsim::MachineConfig cfg;
    cfg.page_size = kPage;
    cfg.address_space = total_pages * kPage;
    cfg.tiers[0].capacity = fast_pages * kPage;
    cfg.tiers[1].capacity = (total_pages + 4) * kPage;
    return cfg;
}

/** The skewed workload used by the golden-value regression runs. */
workloads::MasimSpec
golden_spec(std::uint64_t accesses)
{
    workloads::MasimSpec spec;
    spec.name = "golden";
    spec.footprint = 512 * kPage;
    workloads::MasimPhase phase;
    phase.accesses = accesses;
    phase.regions = {
        {spec.footprint - 64 * kPage, 64 * kPage, 95.0, false},
        {0, spec.footprint, 5.0, false},
    };
    spec.phases.push_back(phase);
    return spec;
}

memsim::MachineConfig
golden_machine()
{
    memsim::MachineConfig cfg;
    cfg.page_size = kPage;
    cfg.address_space = 512 * kPage;
    cfg.tiers[0].capacity = 256 * kPage;
    cfg.tiers[1].capacity = 520 * kPage;
    return cfg;
}

sim::RunResult
golden_run(std::string_view policy_name, const FaultConfig& faults = {})
{
    auto policy = sim::make_policy(policy_name, 42);
    workloads::Masim gen(golden_spec(1000000), kPage, 13);
    TieredMachine machine(golden_machine());
    sim::EngineConfig engine;
    engine.faults = faults;
    return sim::run_simulation(gen, *policy, machine, engine);
}

// ---------------------------------------------------------------------
// The strict no-op guarantee: with every fault class disabled (the
// default), each policy must reproduce, bit for bit, the run results
// captured on this scenario before the fault layer existed. Any change
// here means the fault layer leaked into the fault-free path.
// ---------------------------------------------------------------------

struct Golden {
    std::uint64_t runtime_ns;
    double fast_ratio;
    std::uint64_t promoted;
    std::uint64_t demoted;
    std::uint64_t exchanges;
};

TEST(FaultNoOp, DisabledFaultsAreBitIdenticalToPreFaultBuild)
{
    const std::map<std::string, Golden> golden = {
        {"static", {317258957ull, 0.024853, 0ull, 0ull, 0ull}},
        {"autonuma", {319998128ull, 0.024695999999999999, 7ull, 9ull, 0ull}},
        {"tpp", {351450455ull, 0.087528999999999996, 838ull, 848ull, 0ull}},
        {"autotiering", {321840999ull, 0.024853, 0ull, 0ull, 2ull}},
        {"nimble", {317340877ull, 0.024853, 0ull, 0ull, 0ull}},
        {"multiclock", {317330637ull, 0.024853, 0ull, 0ull, 0ull}},
        {"memtis", {119198600ull, 0.94485200000000003, 266ull, 266ull, 0ull}},
        {"tiering08",
         {348711691ull, 0.19184899999999999, 1250ull, 1252ull, 0ull}},
        {"artmem", {137998925ull, 0.81598899999999996, 64ull, 64ull, 0ull}},
    };
    for (const auto policy_name : sim::policy_names()) {
        const auto it = golden.find(std::string(policy_name));
        ASSERT_NE(it, golden.end())
            << "no golden values captured for policy " << policy_name
            << "; run the probe and add them";
        const auto r = golden_run(policy_name);
        const Golden& g = it->second;
        EXPECT_EQ(r.runtime_ns, g.runtime_ns) << policy_name;
        EXPECT_EQ(r.fast_ratio, g.fast_ratio) << policy_name;
        EXPECT_EQ(r.totals.promoted_pages, g.promoted) << policy_name;
        EXPECT_EQ(r.totals.demoted_pages, g.demoted) << policy_name;
        EXPECT_EQ(r.totals.exchanges, g.exchanges) << policy_name;
        // failed_no_slot can legitimately be nonzero fault-free (it
        // predates the fault layer as a boolean false); the injected
        // classes must never fire.
        EXPECT_EQ(r.totals.failed_pinned, 0u) << policy_name;
        EXPECT_EQ(r.totals.failed_transient, 0u) << policy_name;
        EXPECT_EQ(r.totals.failed_contended, 0u) << policy_name;
        EXPECT_EQ(r.pebs_suppressed, 0u) << policy_name;
        // The transactional engine defaults to off and must leave no
        // trace at all in a plain run (DESIGN.md section 10).
        EXPECT_EQ(r.totals.tx_opened, 0u) << policy_name;
        EXPECT_EQ(r.totals.tx_committed, 0u) << policy_name;
        EXPECT_EQ(r.totals.tx_aborted, 0u) << policy_name;
        EXPECT_EQ(r.totals.tx_retries, 0u) << policy_name;
        EXPECT_EQ(r.totals.tx_free_flips, 0u) << policy_name;
        EXPECT_EQ(r.totals.tx_dual_drops, 0u) << policy_name;
        EXPECT_EQ(r.totals.tx_dual_reclaims, 0u) << policy_name;
        EXPECT_EQ(r.totals.failed_tx_busy, 0u) << policy_name;
    }
}

TEST(FaultNoOp, DefaultConfigDisablesEverything)
{
    const FaultConfig fc;
    EXPECT_FALSE(fc.any_enabled());
    TieredMachine m(small_machine(2, 4));
    m.install_faults(fc);
    EXPECT_FALSE(m.faults_enabled());
    EXPECT_EQ(m.fault_injector(), nullptr);
}

// ---------------------------------------------------------------------
// Determinism: same seed, same schedule; the injector is a pure
// function of (seed, call sequence).
// ---------------------------------------------------------------------

TEST(FaultDeterminism, SameSeedSameRun)
{
    const auto faults = memsim::make_fault_scenario("migration", 7);
    const auto a = golden_run("artmem", faults);
    const auto b = golden_run("artmem", faults);
    EXPECT_EQ(a.runtime_ns, b.runtime_ns);
    EXPECT_EQ(a.fast_ratio, b.fast_ratio);
    EXPECT_EQ(a.totals.promoted_pages, b.totals.promoted_pages);
    EXPECT_EQ(a.totals.failed_pinned, b.totals.failed_pinned);
    EXPECT_EQ(a.totals.failed_transient, b.totals.failed_transient);
    EXPECT_EQ(a.totals.failed_contended, b.totals.failed_contended);
    EXPECT_GT(a.totals.migration_failures(), 0u);
}

TEST(FaultDeterminism, PinnedSetIsPureFunctionOfSeed)
{
    FaultConfig fc;
    fc.seed = 99;
    fc.pinned_fraction = 0.3;
    FaultInjector a(fc, 64);
    FaultInjector b(fc, 64);
    std::size_t pinned = 0;
    for (PageId p = 0; p < 1000; ++p) {
        EXPECT_EQ(a.page_pinned(p), b.page_pinned(p)) << p;
        pinned += a.page_pinned(p) ? 1 : 0;
    }
    // ~30% of 1000 pages; wide tolerance, only the order of magnitude
    // matters (the hash is not a statistics test subject).
    EXPECT_GT(pinned, 200u);
    EXPECT_LT(pinned, 400u);
    // Repeated queries do not consume draws.
    EXPECT_EQ(a.draws(), 0u);
}

// ---------------------------------------------------------------------
// Typed migration failures and their accounting.
// ---------------------------------------------------------------------

TEST(MigrationFaults, CallerErrorsKeepTheirStatuses)
{
    TieredMachine m(small_machine(2, 4));
    EXPECT_EQ(m.migrate(0, Tier::kFast).status, MigrateStatus::kNotAllocated);
    m.access(0);
    EXPECT_EQ(m.migrate(0, Tier::kFast).status, MigrateStatus::kSameTier);
    // Caller errors are not failure-counted: nothing was attempted.
    EXPECT_EQ(m.totals().migration_failures(), 0u);
}

TEST(MigrationFaults, NoFreeSlotCounted)
{
    TieredMachine m(small_machine(1, 3));
    m.access(0);
    m.access(1);
    const auto r = m.migrate(1, Tier::kFast);
    EXPECT_EQ(r.status, MigrateStatus::kNoFreeSlot);
    EXPECT_TRUE(r.transient());
    EXPECT_FALSE(r.faulted());
    EXPECT_EQ(m.totals().failed_no_slot, 1u);
}

TEST(MigrationFaults, PinnedPageRefusedWithoutStateChange)
{
    FaultConfig fc;
    fc.pinned_fraction = 1.0;  // every page pinned
    TieredMachine m(small_machine(1, 4));
    m.install_faults(fc);
    m.access(0);  // fast (first touch fills the one fast slot)
    m.access(2);  // slow
    const SimTimeNs t = m.now();
    const auto r = m.migrate(0, Tier::kSlow);
    EXPECT_EQ(r.status, MigrateStatus::kPagePinned);
    EXPECT_TRUE(r.pinned());
    EXPECT_FALSE(r.transient());
    EXPECT_EQ(m.tier_of(0), Tier::kFast);
    EXPECT_EQ(m.now(), t);  // refusal is free: no copy was started
    EXPECT_EQ(m.totals().failed_pinned, 1u);
    EXPECT_EQ(m.totals().demoted_pages, 0u);
    // Exchange involving a pinned page fails the same way.
    EXPECT_EQ(m.exchange(0, 2).status, MigrateStatus::kPagePinned);
}

TEST(MigrationFaults, TransientAbortChargesPartialCopy)
{
    FaultConfig fc;
    fc.transient_rate = 1.0;
    TieredMachine m(small_machine(2, 4));
    m.install_faults(fc);
    m.access(0);  // fast
    const SimTimeNs t = m.now();
    const auto r = m.migrate(0, Tier::kSlow);
    EXPECT_EQ(r.status, MigrateStatus::kCopyAborted);
    EXPECT_TRUE(r.transient());
    EXPECT_TRUE(r.faulted());
    EXPECT_EQ(m.tier_of(0), Tier::kFast);
    EXPECT_GT(m.now(), t);  // the aborted copy wasted real time
    EXPECT_GT(m.totals().aborted_migration_ns, 0u);
    EXPECT_EQ(m.totals().failed_transient, 1u);
    EXPECT_EQ(m.totals().demoted_pages, 0u);
    EXPECT_EQ(m.totals().migration_busy_ns, 0u);
}

TEST(MigrationFaults, StormKeepsResidencyAndCountersConsistent)
{
    // A heavy mixed storm: every policy attempt sees 50% transient
    // aborts, 20% contention, and a 10% pinned set. After the run the
    // machine's used_pages must still match a recount of residency, and
    // successful migrations must equal the promoted/demoted counters.
    FaultConfig fc;
    fc.seed = 3;
    fc.pinned_fraction = 0.10;
    fc.transient_rate = 0.50;
    fc.contended_rate = 0.20;

    auto policy = sim::make_policy("artmem", 42);
    workloads::Masim gen(golden_spec(400000), kPage, 13);
    TieredMachine machine(golden_machine());
    sim::EngineConfig engine;
    engine.faults = fc;
    const auto r = sim::run_simulation(gen, *policy, machine, engine);

    EXPECT_GT(r.totals.migration_failures(), 0u);
    std::size_t fast = 0, slow = 0;
    for (PageId p = 0; p < machine.page_count(); ++p) {
        if (!machine.is_allocated(p))
            continue;
        (machine.tier_of(p) == Tier::kFast ? fast : slow) += 1;
    }
    EXPECT_EQ(fast, machine.used_pages(Tier::kFast));
    EXPECT_EQ(slow, machine.used_pages(Tier::kSlow));
    EXPECT_LE(machine.used_pages(Tier::kFast),
              machine.capacity_pages(Tier::kFast));
}

TEST(MigrationFaults, TotalStormPromotesNothingButCompletes)
{
    FaultConfig fc;
    fc.transient_rate = 1.0;  // every attempted copy aborts
    for (const auto policy_name : sim::policy_names()) {
        auto policy = sim::make_policy(policy_name, 42);
        workloads::Masim gen(golden_spec(200000), kPage, 13);
        TieredMachine machine(golden_machine());
        sim::EngineConfig engine;
        engine.faults = fc;
        const auto r = sim::run_simulation(gen, *policy, machine, engine);
        // No migration can complete; the budget/limit accounting must
        // not count the failures as moved pages.
        EXPECT_EQ(r.totals.migrated_pages(), 0u) << policy_name;
        EXPECT_EQ(r.accesses, 200000u) << policy_name;
    }
}

TEST(MigrationFaults, ArtMemBackoffStopsRetryingPinnedPages)
{
    // With a substantial pinned set and no other faults, ArtMem keeps
    // migrating: failures happen, but the per-page backoff keeps the
    // candidate stream from collapsing onto unmovable pages.
    FaultConfig fc;
    fc.seed = 11;
    fc.pinned_fraction = 0.25;
    const auto r = golden_run("artmem", fc);
    EXPECT_GT(r.totals.promoted_pages, 0u);
    EXPECT_GT(r.totals.failed_pinned, 0u);
    // The backoff gives each pinned page a 256-period sentence — longer
    // than the whole run — so each of the 512 footprint pages can fail
    // at most once. Without backoff the same pinned pages are retried
    // every period and the count explodes past the footprint.
    EXPECT_LT(r.totals.failed_pinned, 512u);
}

// ---------------------------------------------------------------------
// PEBS blackouts: ArtMem must pass through the no-sample state and
// come back with finite Q-tables and a sane threshold.
// ---------------------------------------------------------------------

TEST(BlackoutFaults, ArtMemSurvivesBlackoutsWithFiniteState)
{
    core::ArtMemConfig cfg;
    cfg.seed = 42;
    core::ArtMem policy(cfg);

    FaultConfig fc;
    fc.seed = 5;
    // Aggressive: 60% of simulated time has no PEBS at all.
    fc.blackout_period_ns = 5000000;
    fc.blackout_duration_ns = 3000000;
    fc.sample_drop_rate = 0.10;

    workloads::Masim gen(golden_spec(600000), kPage, 13);
    TieredMachine machine(golden_machine());
    sim::EngineConfig engine;
    engine.faults = fc;
    const auto r = sim::run_simulation(gen, policy, machine, engine);

    EXPECT_GT(r.pebs_suppressed, 0u);
    EXPECT_GT(r.pebs_recorded, 0u);  // blackouts end; sampling resumes
    EXPECT_GE(policy.current_threshold(), cfg.min_threshold);
    EXPECT_LE(policy.current_threshold(), cfg.max_threshold);
    const auto& table = policy.migration_agent().table();
    for (int s = 0; s < table.states(); ++s)
        for (int a = 0; a < table.actions(); ++a)
            EXPECT_TRUE(std::isfinite(table.at(s, a))) << s << "," << a;
    const auto& thr = policy.threshold_agent().table();
    for (int s = 0; s < thr.states(); ++s)
        for (int a = 0; a < thr.actions(); ++a)
            EXPECT_TRUE(std::isfinite(thr.at(s, a))) << s << "," << a;
}

TEST(BlackoutFaults, SuppressionFollowsTheWindowSchedule)
{
    FaultConfig fc;
    fc.seed = 21;
    fc.blackout_period_ns = 1000;
    fc.blackout_duration_ns = 250;
    FaultInjector inj(fc, 16);
    // Over whole periods, exactly duration/period of the timeline is
    // blacked out, regardless of the seed-derived phase offset.
    std::uint64_t dark = 0;
    for (SimTimeNs t = 0; t < 10000; ++t)
        dark += inj.sampling_blackout(t) ? 1 : 0;
    EXPECT_EQ(dark, 2500u);
}

// ---------------------------------------------------------------------
// Capacity pressure and degradation windows.
// ---------------------------------------------------------------------

TEST(PressureFaults, ReservationShrinksFreePagesAndReleases)
{
    FaultConfig fc;
    fc.seed = 2;
    fc.pressure_fraction = 0.5;
    fc.pressure_period_ns = 1000;
    fc.pressure_duration_ns = 400;
    TieredMachine m(small_machine(8, 16));
    m.install_faults(fc);
    ASSERT_TRUE(m.faults_enabled());
    // Scan one full period: free_pages must alternate between the full
    // capacity and capacity minus the 4-page reservation.
    bool saw_reserved = false, saw_free = false;
    for (int t = 0; t < 1000; ++t) {
        const auto reserved = m.reserved_pages(Tier::kFast);
        EXPECT_TRUE(reserved == 0 || reserved == 4) << reserved;
        EXPECT_EQ(m.free_pages(Tier::kFast), 8 - reserved);
        saw_reserved |= reserved == 4;
        saw_free |= reserved == 0;
        m.advance(1);
    }
    EXPECT_TRUE(saw_reserved);
    EXPECT_TRUE(saw_free);
    EXPECT_EQ(m.reserved_pages(Tier::kSlow), 0u);
}

TEST(PressureFaults, MigrationIntoReservedSlotsIsContended)
{
    FaultConfig fc;
    fc.pressure_fraction = 1.0;  // co-tenant takes the whole fast tier
    fc.pressure_period_ns = 1000000;
    fc.pressure_duration_ns = 1000000;  // permanently
    TieredMachine m(small_machine(4, 8));
    m.install_faults(fc);
    m.access(0);  // lands slow: fast fully reserved, slow has room
    EXPECT_EQ(m.tier_of(0), Tier::kSlow);
    const auto r = m.migrate(0, Tier::kFast);
    EXPECT_EQ(r.status, MigrateStatus::kDstContended);
    EXPECT_EQ(m.totals().failed_contended, 1u);
}

TEST(DegradeFaults, LatencyMultipliedOnlyInsideWindows)
{
    FaultConfig fc;
    fc.seed = 17;
    fc.degrade_tier = 1;
    fc.degrade_latency_factor = 4.0;
    fc.degrade_bandwidth_factor = 2.0;
    fc.degrade_period_ns = 1000;
    fc.degrade_duration_ns = 300;
    FaultInjector inj(fc, 16);
    std::uint64_t degraded = 0;
    for (SimTimeNs t = 0; t < 10000; ++t) {
        if (inj.tier_degraded(Tier::kSlow, t)) {
            ++degraded;
            EXPECT_EQ(inj.effective_latency(Tier::kSlow, 323, t), 1292u);
            EXPECT_EQ(inj.bandwidth_penalty(Tier::kSlow, t), 2.0);
        } else {
            EXPECT_EQ(inj.effective_latency(Tier::kSlow, 323, t), 323u);
            EXPECT_EQ(inj.bandwidth_penalty(Tier::kSlow, t), 1.0);
        }
        // The fast tier is never degraded by this config.
        EXPECT_FALSE(inj.tier_degraded(Tier::kFast, t));
        EXPECT_EQ(inj.effective_latency(Tier::kFast, 92, t), 92u);
    }
    EXPECT_EQ(degraded, 3000u);
}

TEST(DegradeFaults, DegradedRunIsSlowerThanFaultFree)
{
    const auto clean = golden_run("static");
    const auto degraded =
        golden_run("static", memsim::make_fault_scenario("degrade", 1));
    EXPECT_GT(degraded.runtime_ns, clean.runtime_ns);
}

// ---------------------------------------------------------------------
// FaultView: the per-access answers, held until the next window edge.
// ---------------------------------------------------------------------

TEST(FaultView, EachWindowClassFollowsItsClosedFormAtSeveralOffsets)
{
    // All four classes share one window helper. Alone in a config, a
    // class draws the first seed-derived offset, so its per-call answer
    // at every nanosecond must be (t + offset) % period < duration.
    constexpr SimTimeNs kPeriod = 97;
    constexpr SimTimeNs kDuration = 31;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        std::uint64_t state = seed;
        const SimTimeNs offset = splitmix64(state) % kPeriod;
        for (int cls = 0; cls < 4; ++cls) {
            SCOPED_TRACE(testing::Message()
                         << "seed " << seed << " class " << cls);
            FaultConfig fc;
            fc.seed = seed;
            if (cls == 0) {
                fc.degrade_latency_factor = 3.0;
                fc.degrade_period_ns = kPeriod;
                fc.degrade_duration_ns = kDuration;
            } else if (cls == 1) {
                fc.blackout_period_ns = kPeriod;
                fc.blackout_duration_ns = kDuration;
            } else if (cls == 2) {
                fc.pressure_fraction = 0.5;
                fc.pressure_period_ns = kPeriod;
                fc.pressure_duration_ns = kDuration;
            } else {
                fc.write_storm_rate = 0.5;
                fc.write_storm_period_ns = kPeriod;
                fc.write_storm_duration_ns = kDuration;
            }
            FaultInjector inj(fc, 16);
            for (SimTimeNs t = 0; t < 5 * kPeriod; ++t) {
                const bool open = (t + offset) % kPeriod < kDuration;
                const bool got =
                    cls == 0   ? inj.tier_degraded(Tier::kSlow, t)
                    : cls == 1 ? inj.sampling_blackout(t)
                    : cls == 2 ? inj.reserved_fast_pages(t) == 8
                               : inj.tx_write_storm_rate(t) == 0.5;
                ASSERT_EQ(got, open) << "t=" << t;
            }
        }
    }
}

TEST(FaultView, AnswersMatchPerCallQueriesUntilTheExactNextEdge)
{
    // At every nanosecond over several periods: the view's latencies
    // equal effective_latency(); sample_quiet holds exactly when a
    // sample_suppressed() call returns false without drawing or
    // counting; and until is the first later time at which a degrade
    // or blackout answer changes. Pressure and write-storm windows do
    // not touch the per-access answers, so their edges must not cut
    // the view short.
    const SimTimeNs base[memsim::kTierCount] = {92, 323};
    std::vector<FaultConfig> configs(6);
    configs[0].degrade_latency_factor = 3.0;  // slow tier degrades
    configs[0].degrade_bandwidth_factor = 2.0;
    configs[0].degrade_period_ns = 97;
    configs[0].degrade_duration_ns = 31;
    configs[1].degrade_tier = 0;  // fast tier degrades
    configs[1].degrade_latency_factor = 2.5;
    configs[1].degrade_period_ns = 101;
    configs[1].degrade_duration_ns = 50;
    configs[2].blackout_period_ns = 89;
    configs[2].blackout_duration_ns = 23;
    configs[3] = configs[2];
    configs[3].sample_drop_rate = 0.05;  // never quiet
    configs[4] = configs[0];  // every window class at once
    configs[4].blackout_period_ns = 89;
    configs[4].blackout_duration_ns = 23;
    configs[4].pressure_fraction = 0.5;
    configs[4].pressure_period_ns = 61;
    configs[4].pressure_duration_ns = 17;
    configs[4].write_storm_rate = 0.5;
    configs[4].write_storm_period_ns = 53;
    configs[4].write_storm_duration_ns = 11;
    configs[5].transient_rate = 0.2;  // no window class at all
    constexpr SimTimeNs kHorizon = 6 * 101;
    constexpr SimTimeNs kEnd = kHorizon + 2 * 101;
    for (std::size_t c = 0; c < configs.size(); ++c) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            SCOPED_TRACE(testing::Message()
                         << "config " << c << " seed " << seed);
            FaultConfig fc = configs[c];
            fc.seed = seed;
            FaultInjector inj(fc, 16);
            FaultInjector probe(fc, 16);
            // Per-call answers, and the next time any of them changes.
            const auto answers = [&](SimTimeNs t) {
                return std::tuple{inj.tier_degraded(Tier::kFast, t),
                                  inj.tier_degraded(Tier::kSlow, t),
                                  inj.sampling_blackout(t)};
            };
            std::vector<SimTimeNs> next(kEnd, memsim::FaultView::kNever);
            for (SimTimeNs t = kEnd - 1; t-- > 0;) {
                next[t] = answers(t + 1) != answers(t) ? t + 1 : next[t + 1];
            }
            for (SimTimeNs t = 0; t < kHorizon; ++t) {
                const memsim::FaultView v = inj.view(base, t);
                ASSERT_EQ(v.latency[0],
                          inj.effective_latency(Tier::kFast, 92, t))
                    << "t=" << t;
                ASSERT_EQ(v.latency[1],
                          inj.effective_latency(Tier::kSlow, 323, t))
                    << "t=" << t;
                const auto draws = probe.draws();
                const auto suppressed = probe.suppressed_samples();
                const bool no_op = !probe.sample_suppressed(t) &&
                                   probe.draws() == draws &&
                                   probe.suppressed_samples() == suppressed;
                ASSERT_EQ(v.sample_quiet, no_op) << "t=" << t;
                ASSERT_EQ(v.until, next[t]) << "t=" << t;
            }
            EXPECT_EQ(inj.draws(), 0u) << "view() must not draw";
        }
    }
}

// ---------------------------------------------------------------------
// Configuration parsing and validation.
// ---------------------------------------------------------------------

TEST(FaultConfigDeathTest, RejectsOutOfRangeAndUnknown)
{
    FaultConfig bad_rate;
    bad_rate.transient_rate = 1.5;
    EXPECT_EXIT(bad_rate.validate(), ::testing::ExitedWithCode(1), "");

    FaultConfig bad_window;
    bad_window.degrade_period_ns = 100;
    bad_window.degrade_duration_ns = 200;  // duration > period
    EXPECT_EXIT(bad_window.validate(), ::testing::ExitedWithCode(1), "");

    FaultConfig zero_duration;
    zero_duration.blackout_period_ns = 100;  // enabled but zero duration
    EXPECT_EXIT(zero_duration.validate(), ::testing::ExitedWithCode(1), "");

    FaultConfig huge_latency;
    huge_latency.degrade_latency_factor = 1e30;  // 323 ns x 1e30 overflows
    huge_latency.degrade_period_ns = 40000000;
    huge_latency.degrade_duration_ns = 10000000;
    EXPECT_EXIT(huge_latency.validate(), ::testing::ExitedWithCode(1),
                "degrade_latency_factor must be at most 1e6");

    FaultConfig huge_bandwidth = huge_latency;
    huge_bandwidth.degrade_latency_factor = 1.0;
    huge_bandwidth.degrade_bandwidth_factor = 2e6;
    EXPECT_EXIT(huge_bandwidth.validate(), ::testing::ExitedWithCode(1),
                "degrade_bandwidth_factor must be at most 1e6");

    // A window setting whose class has no period would be ignored.
    FaultConfig no_period;
    no_period.degrade_duration_ns = 10000000;
    EXPECT_EXIT(no_period.validate(), ::testing::ExitedWithCode(1),
                "fault.degrade_duration_ms is set but "
                "fault.degrade_period_ms is 0");
    no_period = {};
    no_period.pressure_fraction = 0.25;
    EXPECT_EXIT(no_period.validate(), ::testing::ExitedWithCode(1),
                "fault.pressure_fraction is set but "
                "fault.pressure_period_ms is 0");
    no_period = {};
    no_period.write_storm_rate = 0.75;
    EXPECT_EXIT(no_period.validate(), ::testing::ExitedWithCode(1),
                "fault.write_storm_rate is set but "
                "fault.write_storm_period_ms is 0");
    no_period = {};
    no_period.blackout_duration_ns = 1;
    EXPECT_EXIT(no_period.validate(), ::testing::ExitedWithCode(1),
                "fault.blackout_duration_ms is set but "
                "fault.blackout_period_ms is 0");
    // The drop rate needs no blackout period: it applies at all times.
    FaultConfig drop_only;
    drop_only.sample_drop_rate = 0.05;
    drop_only.validate();

    const auto unknown = KvConfig::parse("fault.blckout_period_ms = 50\n");
    EXPECT_EXIT(memsim::parse_fault_config(unknown),
                ::testing::ExitedWithCode(1), "");

    EXPECT_EXIT(memsim::make_fault_scenario("wat", 1),
                ::testing::ExitedWithCode(1), "");
}

TEST(FaultConfigParse, RoundTripsKnownKeys)
{
    const auto cfg = KvConfig::parse(
        "fault.seed = 9\n"
        "fault.pinned_fraction = 0.02\n"
        "fault.transient_rate = 0.2\n"
        "fault.blackout_period_ms = 50\n"
        "fault.blackout_duration_ms = 15\n"
        "fault.sample_drop_rate = 0.05\n");
    const auto fc = memsim::parse_fault_config(cfg);
    EXPECT_EQ(fc.seed, 9u);
    EXPECT_EQ(fc.pinned_fraction, 0.02);
    EXPECT_EQ(fc.transient_rate, 0.2);
    EXPECT_EQ(fc.blackout_period_ns, 50000000u);
    EXPECT_EQ(fc.blackout_duration_ns, 15000000u);
    EXPECT_EQ(fc.sample_drop_rate, 0.05);
    EXPECT_TRUE(fc.any_enabled());
}

TEST(FaultScenarios, AllNamedScenariosValidate)
{
    for (const auto name : memsim::fault_scenario_names()) {
        const auto fc = memsim::make_fault_scenario(name, 123);
        fc.validate();
        EXPECT_EQ(fc.any_enabled(), name != "none") << name;
    }
}

TEST(FaultScenarios, AbortStormValidatesButStaysOutOfTheDefaultSweep)
{
    // abort_storm only has teeth under --tx-migration, so it must build
    // and validate but stay out of fault_scenario_names(): the default
    // bench sweeps (and their byte-identical goldens) never see it.
    const auto fc = memsim::make_fault_scenario("abort_storm", 123);
    fc.validate();
    EXPECT_TRUE(fc.any_enabled());
    EXPECT_GT(fc.write_storm_rate, 0.0);
    EXPECT_GT(fc.write_storm_period_ns, 0u);
    for (const auto name : memsim::fault_scenario_names())
        EXPECT_NE(name, "abort_storm");
}

TEST(WriteStormFaults, StormRateIsAPureWindowFunction)
{
    const auto fc = memsim::make_fault_scenario("abort_storm", 5);
    FaultInjector a(fc, 64);
    FaultInjector b(fc, 64);
    bool in_storm = false;
    bool out_of_storm = false;
    for (SimTimeNs t = 0; t < 4 * fc.write_storm_period_ns; t += 500000) {
        const double rate = a.tx_write_storm_rate(t);
        // Pure function of (seed, time): a replay agrees at every point.
        EXPECT_EQ(rate, b.tx_write_storm_rate(t)) << t;
        if (rate > 0.0) {
            EXPECT_EQ(rate, fc.write_storm_rate) << t;
            in_storm = true;
        } else {
            out_of_storm = true;
        }
    }
    // Duty cycle 8/20 ms: a 500 us walk over four periods sees both.
    EXPECT_TRUE(in_storm);
    EXPECT_TRUE(out_of_storm);
    // Reading the schedule consumes no draws (replay safety).
    EXPECT_EQ(a.draws(), 0u);
}

TEST(WriteStormFaults, AbortStormReplayIsDeterministic)
{
    // Same fault seed, same tx seed, same call sequence: the storm's
    // abort schedule replays bit-for-bit, and it actually aborts.
    auto run = [] {
        TieredMachine m(small_machine(4, 12));
        m.install_faults(memsim::make_fault_scenario("abort_storm", 9));
        memsim::TxConfig tx;
        tx.enabled = true;
        tx.seed = 3;
        m.install_tx(tx);
        m.prefault_range(0, 12);
        for (int round = 0; round < 400; ++round) {
            if (!m.tx_page_inflight(0)) {
                (void)m.migrate(0,
                                memsim::other_tier(m.tier_of(0)));
            }
            m.access(0);
            m.advance(100000);
            (void)m.poll_tx();
        }
        return std::tuple{m.totals().tx_opened, m.totals().tx_committed,
                          m.totals().tx_aborted, m.totals().tx_retries,
                          m.tx_write_draws(), m.tx_write_hits(), m.now()};
    };
    const auto a = run();
    EXPECT_EQ(a, run());
    EXPECT_GT(std::get<2>(a), 0u) << "the storm never aborted anything";
}

TEST(MigrateStatusNames, AllDistinct)
{
    EXPECT_EQ(memsim::migrate_status_name(MigrateStatus::kOk), "ok");
    EXPECT_EQ(memsim::migrate_status_name(MigrateStatus::kPagePinned),
              "page_pinned");
    EXPECT_EQ(memsim::migrate_status_name(MigrateStatus::kCopyAborted),
              "copy_aborted");
    EXPECT_EQ(memsim::migrate_status_name(MigrateStatus::kDstContended),
              "dst_contended");
    EXPECT_EQ(memsim::migrate_status_name(MigrateStatus::kNoFreeSlot),
              "no_free_slot");
}

}  // namespace
}  // namespace artmem
