/**
 * @file
 * Behavioural tests for the seven baseline tiering policies, driven
 * through the full simulation engine on small machines.
 */
#include <gtest/gtest.h>

#include "policies/autonuma.hpp"
#include "policies/autotiering.hpp"
#include "policies/memtis.hpp"
#include "policies/multiclock.hpp"
#include "policies/nimble.hpp"
#include "policies/static_tiering.hpp"
#include "policies/tiering08.hpp"
#include "policies/tpp.hpp"
#include "sim/engine.hpp"
#include "sim/registry.hpp"
#include "workloads/masim.hpp"

namespace artmem::policies {
namespace {

constexpr Bytes kPage = 2ull << 20;

/**
 * A skewed workload over 4096 pages (8 GiB at 2 MiB pages): the 256
 * pages at the top of the address space receive 88% of accesses —
 * placed high so prefault puts them in the slow tier — with a sparse
 * background over the rest (per-page background heat must stay low or
 * every page looks warm to bit/fault-based policies).
 */
workloads::MasimSpec
skewed_spec(std::uint64_t accesses)
{
    workloads::MasimSpec spec;
    spec.name = "skew";
    spec.footprint = 4096 * kPage;
    workloads::MasimPhase phase;
    phase.accesses = accesses;
    phase.regions = {
        {3584 * kPage, 256 * kPage, 94.0, false},
        {0, 4096 * kPage, 6.0, false},
    };
    spec.phases.push_back(phase);
    return spec;
}

memsim::MachineConfig
half_machine()
{
    memsim::MachineConfig cfg;
    cfg.page_size = kPage;
    cfg.address_space = 4096 * kPage;
    cfg.tiers[0].capacity = 2048 * kPage;  // half fits
    cfg.tiers[1].capacity = 4200 * kPage;
    return cfg;
}

sim::RunResult
run_policy(Policy& policy, std::uint64_t accesses = 2000000)
{
    workloads::Masim gen(skewed_spec(accesses), kPage, 11);
    memsim::TieredMachine machine(half_machine());
    sim::EngineConfig engine;
    return sim::run_simulation(gen, policy, machine, engine);
}

double
static_ratio(std::uint64_t accesses = 2000000)
{
    StaticTiering policy;
    return run_policy(policy, accesses).fast_ratio;
}

TEST(StaticTiering, NeverMigrates)
{
    StaticTiering policy;
    const auto r = run_policy(policy);
    EXPECT_EQ(r.totals.migrated_pages(), 0u);
    // Hot region lives high -> mostly slow-tier accesses.
    EXPECT_LT(r.fast_ratio, 0.5);
}

/**
 * Every real policy must beat static's fast-tier ratio on the skewed
 * workload: hot pages start in the slow tier and should be promoted.
 */
class PolicyImprovesRatio
    : public ::testing::TestWithParam<std::string_view>
{
};

TEST_P(PolicyImprovesRatio, BeatsStaticOnSkewedWorkload)
{
    auto policy = sim::make_policy(GetParam());
    const auto r = run_policy(*policy);
    const double baseline = static_ratio();
    EXPECT_GT(r.fast_ratio, baseline + 0.15)
        << GetParam() << " ratio " << r.fast_ratio << " vs static "
        << baseline;
    EXPECT_GT(r.totals.promoted_pages + r.totals.exchanges, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, PolicyImprovesRatio,
    ::testing::Values("autonuma", "tpp", "autotiering", "nimble",
                      "multiclock", "memtis", "tiering08", "artmem"),
    [](const auto& suite_info) {
        return std::string(suite_info.param);
    });

TEST(AutoNuma, PromotesViaTwoFaults)
{
    AutoNuma policy;
    const auto r = run_policy(policy);
    EXPECT_GT(r.totals.hint_faults, 0u);
    EXPECT_GT(r.totals.promoted_pages, 0u);
}

TEST(Tpp, MaintainsFreeHeadroom)
{
    Tpp::Config cfg;
    cfg.demotion_watermark = 0.05;
    Tpp policy(cfg);
    workloads::Masim gen(skewed_spec(2000000), kPage, 11);
    memsim::TieredMachine machine(half_machine());
    sim::EngineConfig engine;
    sim::run_simulation(gen, policy, machine, engine);
    // Decoupled allocation: TPP keeps free pages in the fast tier.
    EXPECT_GT(machine.free_pages(memsim::Tier::kFast), 0u);
}

TEST(AutoTiering, UsesExchangesWhenFastIsFull)
{
    AutoTiering policy;
    const auto r = run_policy(policy);
    EXPECT_GT(r.totals.exchanges + r.totals.promoted_pages, 0u);
}

TEST(Nimble, MigratesInBatches)
{
    Nimble::Config cfg;
    cfg.batch_pages = 16;
    Nimble policy(cfg);
    const auto r = run_policy(policy);
    EXPECT_GT(r.totals.promoted_pages, 0u);
}

TEST(MultiClock, StagesThroughCandidateList)
{
    MultiClock policy;
    const auto r = run_policy(policy);
    EXPECT_GT(r.totals.promoted_pages, 0u);
}

TEST(Memtis, CapacityThresholdTracksBins)
{
    Memtis policy;
    run_policy(policy);
    // With 64 hot pages and 256 fast slots, everything hot fits: the
    // threshold collapses toward the minimum and the hot set is fast.
    EXPECT_GE(policy.current_threshold(), 1u);
}

TEST(Memtis, ManualThresholdOverride)
{
    Memtis::Config cfg;
    cfg.manual_threshold = 1000000;  // absurd: nothing qualifies
    Memtis policy(cfg);
    const auto r = run_policy(policy);
    EXPECT_EQ(r.totals.promoted_pages, 0u);
    EXPECT_EQ(policy.current_threshold(), 1000000u);
}

TEST(Tiering08, ThresholdRespondsToDemand)
{
    Tiering08 policy;
    const auto r = run_policy(policy);
    EXPECT_GT(r.totals.promoted_pages, 0u);
}

TEST(Machine, OverheadAccountingSeparatesPolicyCpu)
{
    Memtis policy;
    const auto r = run_policy(policy);
    // MEMTIS walks every page each interval: measurable but bounded.
    EXPECT_GT(r.totals.overhead_ns, 0u);
    EXPECT_LT(static_cast<double>(r.totals.overhead_ns) /
                  static_cast<double>(r.runtime_ns),
              0.10);
}

TEST(Memtis, CoolingHalvesHotness)
{
    Memtis::Config cfg;
    cfg.cooling_period = 2000;
    Memtis policy(cfg);
    run_policy(policy, 500000);
    EXPECT_GT(policy.bins().cooling_events(), 0u);
}

TEST(AutoNuma, ScanThrottleBoundsFaultOverhead)
{
    AutoNuma policy;
    const auto r = run_policy(policy);
    // The adaptive scan rate must keep fault cost below ~15% of runtime.
    const double fault_ns = static_cast<double>(r.totals.hint_faults) * 500.0;
    EXPECT_LT(fault_ns / static_cast<double>(r.runtime_ns), 0.15);
}

TEST(Policies, MigrationConservation)
{
    // Property: for every policy, promoted - demoted (+/- exchanges,
    // which are balanced) equals the net change of fast-tier occupancy.
    for (const auto name : sim::policy_names()) {
        auto policy = sim::make_policy(name);
        workloads::Masim gen(skewed_spec(500000), kPage, 11);
        memsim::TieredMachine machine(half_machine());
        machine.prefault_range(0, machine.page_count());
        const auto fast_before = machine.used_pages(memsim::Tier::kFast);
        sim::EngineConfig engine;
        engine.prefault = false;  // already prefaulted above
        sim::run_simulation(gen, *policy, machine, engine);
        const auto fast_after = machine.used_pages(memsim::Tier::kFast);
        const auto& t = machine.totals();
        const long long net =
            static_cast<long long>(t.promoted_pages) -
            static_cast<long long>(t.demoted_pages);
        EXPECT_EQ(static_cast<long long>(fast_after) -
                      static_cast<long long>(fast_before),
                  net)
            << name;
        EXPECT_LE(fast_after, machine.capacity_pages(memsim::Tier::kFast))
            << name;
    }
}

TEST(Registry, BuildsEveryPolicy)
{
    for (const auto name : sim::policy_names()) {
        auto policy = sim::make_policy(name);
        ASSERT_NE(policy, nullptr);
        EXPECT_EQ(policy->name(), name);
    }
}

}  // namespace
}  // namespace artmem::policies
