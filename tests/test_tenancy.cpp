/**
 * @file
 * Multi-tenant serving tests (DESIGN.md §13): seed-domain isolation,
 * TenantSet layout and scheduling, quota enforcement at the boundary,
 * admission-controller decisions under a seeded hit-ratio drop,
 * and per-tenant metric reconciliation against the machine's global
 * totals.
 */
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "memsim/tenant_ledger.hpp"
#include "memsim/tiered_machine.hpp"
#include "sim/experiment.hpp"
#include "tenancy/admission.hpp"
#include "tenancy/tenancy.hpp"
#include "tenancy/tenant_set.hpp"
#include "util/config.hpp"
#include "verify/invariant_checker.hpp"
#include "workloads/simple.hpp"

namespace artmem {
namespace {

using memsim::MachineConfig;
using memsim::MigrateStatus;
using memsim::TenantDecision;
using memsim::TenantLedger;
using memsim::Tier;
using memsim::TieredMachine;
using tenancy::TenancyConfig;
using tenancy::TenantSet;

constexpr Bytes kTestPage = 1ull << 20;

std::unique_ptr<workloads::AccessGenerator>
uniform(Bytes pages, std::uint64_t accesses, std::uint64_t seed)
{
    return std::make_unique<workloads::UniformRandom>(pages * kTestPage,
                                                      kTestPage, accesses,
                                                      seed);
}

std::unique_ptr<workloads::AccessGenerator>
sequential(Bytes pages, std::uint64_t accesses)
{
    return std::make_unique<workloads::SequentialScan>(pages * kTestPage,
                                                       kTestPage, accesses);
}

/** Drain a generator completely. */
std::vector<PageId>
drain(workloads::AccessGenerator& gen)
{
    std::vector<PageId> all;
    std::vector<PageId> buf(97);  // deliberately odd batch size
    std::size_t n = 0;
    while ((n = gen.fill(buf)) > 0)
        all.insert(all.end(), buf.begin(), buf.begin() + n);
    return all;
}

TEST(TenantSeeds, DistinctAcrossTenants)
{
    std::set<std::uint64_t> seen;
    for (std::uint32_t i = 0; i < 64; ++i)
        seen.insert(tenancy::tenant_seed(42, i));
    EXPECT_EQ(seen.size(), 64u);
}

TEST(TenantSetLayout, SpansStackDisjointAndAligned)
{
    std::vector<std::unique_ptr<workloads::AccessGenerator>> gens;
    gens.push_back(uniform(3, 100, 1));
    gens.push_back(uniform(5, 200, 2));
    gens.push_back(uniform(7, 300, 3));
    TenantSet set(std::move(gens), {1, 1, 1}, kTestPage, 4, 0);
    EXPECT_EQ(set.tenant_count(), 3u);
    EXPECT_EQ(set.first_page(0), 0u);
    EXPECT_EQ(set.span_pages(0), 3u);
    EXPECT_EQ(set.first_page(1), 3u);
    EXPECT_EQ(set.span_pages(1), 5u);
    EXPECT_EQ(set.first_page(2), 8u);
    EXPECT_EQ(set.span_pages(2), 7u);
    EXPECT_EQ(set.footprint(), 15 * kTestPage);
    EXPECT_EQ(set.total_accesses(), 600u);
    // Every produced access lands inside its tenant's span.
    const auto all = drain(set);
    EXPECT_EQ(all.size(), 600u);
    for (PageId page : all)
        EXPECT_LT(page, 15u);
}

TEST(TenantSetSchedule, WeightedRoundRobinIsDeterministic)
{
    auto build = [] {
        std::vector<std::unique_ptr<workloads::AccessGenerator>> gens;
        gens.push_back(uniform(4, 400, 7));
        gens.push_back(uniform(4, 400, 8));
        return std::make_unique<TenantSet>(std::move(gens),
                                           std::vector<std::size_t>{1, 3},
                                           kTestPage, 4, 0);
    };
    auto a = build();
    auto b = build();
    const auto sa = drain(*a);
    const auto sb = drain(*b);
    EXPECT_EQ(sa, sb);  // identical construction, identical stream
    // The weighted quanta shape the head of the stream: 4 accesses from
    // tenant 0's span [0, 4), then 12 from tenant 1's span [4, 8).
    ASSERT_GE(sa.size(), 16u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_LT(sa[i], 4u) << "position " << i;
    for (std::size_t i = 4; i < 16; ++i) {
        EXPECT_GE(sa[i], 4u) << "position " << i;
        EXPECT_LT(sa[i], 8u) << "position " << i;
    }
}

TEST(TenantSetSchedule, PhaseStrideDephasesTenants)
{
    std::vector<std::unique_ptr<workloads::AccessGenerator>> gens;
    gens.push_back(sequential(8, 64));
    gens.push_back(sequential(8, 64));
    TenantSet set(std::move(gens), {1, 1}, kTestPage, 2, 5);
    // Tenant 0 starts at its page 0; tenant 1 discarded 5 accesses, so
    // its first emission is page 5 of its span (global page 13).
    std::vector<PageId> buf(4);
    ASSERT_EQ(set.fill(buf), 4u);
    EXPECT_EQ(buf[0], 0u);
    EXPECT_EQ(buf[1], 1u);
    EXPECT_EQ(buf[2], 13u);
    EXPECT_EQ(buf[3], 14u);
    // The discarded head shrinks the set's actual production.
    EXPECT_EQ(set.total_accesses(), 64u + 59u);
}

MachineConfig
tenant_machine_config()
{
    MachineConfig config;
    config.page_size = kTestPage;
    config.tiers[0].capacity = 16ull << 20;  // 16 fast pages
    config.tiers[1].capacity = 64ull << 20;  // 64 slow pages
    config.address_space = 48ull << 20;      // 48 pages total
    return config;
}

/** Two tenants, 24 pages each, quota of 4 fast pages apiece. */
std::unique_ptr<TenantLedger>
two_tenant_ledger(std::size_t quota = 4)
{
    auto ledger = std::make_unique<TenantLedger>(2, 48);
    ledger->set_owner_span(0, 24, 0);
    ledger->set_owner_span(24, 24, 1);
    ledger->set_quota(0, quota);
    ledger->set_quota(1, quota);
    return ledger;
}

TEST(TenantQuota, AllocationSteersToSlowAtQuota)
{
    TieredMachine machine(tenant_machine_config());
    machine.install_tenants(two_tenant_ledger());
    machine.prefault_range(0, 48);
    const TenantLedger* ledger = machine.tenants();
    ASSERT_NE(ledger, nullptr);
    // Each tenant allocated exactly its quota in fast, the rest slow.
    EXPECT_EQ(ledger->used_pages(0, Tier::kFast), 4u);
    EXPECT_EQ(ledger->used_pages(0, Tier::kSlow), 20u);
    EXPECT_EQ(ledger->used_pages(1, Tier::kFast), 4u);
    EXPECT_EQ(ledger->used_pages(1, Tier::kSlow), 20u);
    EXPECT_EQ(ledger->totals(0).over_quota_allocs, 0u);
    EXPECT_EQ(machine.used_pages(Tier::kFast), 8u);
    EXPECT_GT(verify::InvariantChecker::check_tenant_quota(machine), 0u);
}

TEST(TenantQuota, MigrationDeniedExactlyAtBoundary)
{
    TieredMachine machine(tenant_machine_config());
    machine.install_tenants(two_tenant_ledger());
    machine.prefault_range(0, 48);
    // Tenant 0 sits exactly at quota (4 fast pages): one more promotion
    // must be refused with kQuotaDenied and counted, touching no state.
    const auto denied = machine.migrate(4, Tier::kFast);
    EXPECT_EQ(denied.status, MigrateStatus::kQuotaDenied);
    EXPECT_FALSE(denied.ok());
    EXPECT_TRUE(denied.denied());
    EXPECT_TRUE(denied.transient());
    EXPECT_FALSE(denied.faulted());
    EXPECT_EQ(machine.totals().failed_quota, 1u);
    EXPECT_EQ(machine.tenants()->totals(0).quota_denied, 1u);
    EXPECT_EQ(machine.tier_of(4), Tier::kSlow);
    // Demotion frees one slot below quota; the same promotion now lands.
    EXPECT_TRUE(machine.migrate(0, Tier::kSlow).ok());
    EXPECT_EQ(machine.tenants()->used_pages(0, Tier::kFast), 3u);
    EXPECT_TRUE(machine.migrate(4, Tier::kFast).ok());
    EXPECT_EQ(machine.tenants()->used_pages(0, Tier::kFast), 4u);
    // Tenant 1 sits at its own quota independently: its next promotion
    // is denied and attributed to tenant 1, not tenant 0.
    EXPECT_EQ(machine.migrate(24 + 4, Tier::kFast).status,
              MigrateStatus::kQuotaDenied);
    EXPECT_EQ(machine.tenants()->totals(1).quota_denied, 1u);
    EXPECT_EQ(machine.totals().failed_quota, 2u);
    EXPECT_GT(verify::InvariantChecker::check_tenant_quota(machine), 0u);
}

TEST(TenantQuota, ExchangeQuotaAppliesAcrossTenantsOnly)
{
    auto ledger = two_tenant_ledger();
    // Fill tenant 0 to quota by hand: pages 0-3 fast, 4 slow.
    for (PageId p = 0; p < 4; ++p)
        ledger->charge(p, Tier::kFast, +1);
    ledger->charge(4, Tier::kSlow, +1);
    ledger->charge(24, Tier::kFast, +1);
    // Same-tenant swap is fast-usage neutral: admitted at quota.
    EXPECT_EQ(ledger->check_exchange(/*promoted=*/4, /*demoted=*/0),
              TenantDecision::kAdmit);
    // Cross-tenant: tenant 0 would gain a fast page while at quota.
    EXPECT_EQ(ledger->check_exchange(/*promoted=*/4, /*demoted=*/24),
              TenantDecision::kQuotaDenied);
    EXPECT_EQ(ledger->totals(0).quota_denied, 1u);
}

TEST(Admission, StaticRateLimitsPerInterval)
{
    auto ledger = two_tenant_ledger(TenantLedger::kNoQuota);
    ledger->set_admission(
        tenancy::make_admission("static", 2, /*rate=*/2, 0.5, 8));
    ASSERT_NE(ledger->admission(), nullptr);
    EXPECT_EQ(ledger->admission()->name(), "static");
    // Two grants per tenant per interval; the third is refused.
    EXPECT_EQ(ledger->check_migration(0, Tier::kFast, true),
              TenantDecision::kAdmit);
    EXPECT_EQ(ledger->check_migration(1, Tier::kFast, true),
              TenantDecision::kAdmit);
    EXPECT_EQ(ledger->check_migration(2, Tier::kFast, true),
              TenantDecision::kAdmissionDenied);
    // Demotions never consult admission.
    EXPECT_EQ(ledger->check_migration(3, Tier::kSlow, true),
              TenantDecision::kAdmit);
    // The other tenant has its own budget.
    EXPECT_EQ(ledger->check_migration(24, Tier::kFast, true),
              TenantDecision::kAdmit);
    EXPECT_EQ(ledger->totals(0).admission_grants, 2u);
    EXPECT_EQ(ledger->totals(0).admission_denied, 1u);
    EXPECT_EQ(ledger->totals(1).admission_grants, 1u);
    // The decision boundary refills the budget.
    ledger->interval_feedback();
    EXPECT_EQ(ledger->check_migration(0, Tier::kFast, true),
              TenantDecision::kAdmit);
}

TEST(Admission, FeedbackHalvesLaggardsUnderAggregateDrop)
{
    auto ledger = two_tenant_ledger(TenantLedger::kNoQuota);
    ledger->set_admission(tenancy::make_admission(
        "feedback", 2, 64, /*target=*/0.9, /*max_grants=*/8));
    // Seed a window where the aggregate hit ratio (0.45) sits below
    // target and tenant 0 (0.10) drags it down while tenant 1 (0.80)
    // performs above the aggregate.
    for (int i = 0; i < 1; ++i)
        ledger->note_access(0, 0);
    for (int i = 0; i < 9; ++i)
        ledger->note_access(0, 1);
    for (int i = 0; i < 8; ++i)
        ledger->note_access(24, 0);
    for (int i = 0; i < 2; ++i)
        ledger->note_access(24, 1);
    EXPECT_NEAR(ledger->window_fast_ratio(0), 0.10, 1e-9);
    EXPECT_NEAR(ledger->window_fast_ratio(1), 0.80, 1e-9);
    EXPECT_NEAR(ledger->aggregate_window_fast_ratio(), 0.45, 1e-9);
    ledger->interval_feedback();
    // Tenant 0's budget was halved (8 -> 4); tenant 1 stays at the cap.
    int grants0 = 0;
    while (ledger->check_migration(0, Tier::kFast, true) ==
           TenantDecision::kAdmit)
        ++grants0;
    int grants1 = 0;
    while (ledger->check_migration(24, Tier::kFast, true) ==
           TenantDecision::kAdmit)
        ++grants1;
    EXPECT_EQ(grants0, 4);
    EXPECT_EQ(grants1, 8);
    // A healthy window recovers the laggard additively (4 + 8 -> 8 cap).
    for (int i = 0; i < 10; ++i) {
        ledger->note_access(0, 0);
        ledger->note_access(24, 0);
    }
    ledger->interval_feedback();
    grants0 = 0;
    while (ledger->check_migration(0, Tier::kFast, true) ==
           TenantDecision::kAdmit)
        ++grants0;
    EXPECT_EQ(grants0, 8);
}

TEST(Admission, AllowAllAndUnknownNames)
{
    EXPECT_EQ(tenancy::make_admission("none", 4, 1, 0.5, 1), nullptr);
    EXPECT_EXIT((void)tenancy::make_admission("allow_all", 4, 1, 0.5, 1),
                ::testing::ExitedWithCode(1),
                "unknown admission policy 'allow_all'");
    EXPECT_EXIT((void)tenancy::make_admission("bogus", 4, 1, 0.5, 1),
                ::testing::ExitedWithCode(1), "unknown admission policy");
}

TEST(TenancyConfigParse, KvRoundTripAndUnknownKey)
{
    const auto kv = KvConfig::parse(
        "tenancy.tenants = 8\n"
        "tenancy.mix = s2,ycsb\n"
        "tenancy.weights = 1,2\n"
        "tenancy.quantum = 128\n"
        "tenancy.phase_stride = 1000\n"
        "tenancy.quota_share = 0.25\n"
        "tenancy.admission = feedback\n"
        "tenancy.admission_target = 0.7\n");
    const auto tc = tenancy::parse_tenancy_config(kv);
    EXPECT_TRUE(tc.enabled());
    EXPECT_EQ(tc.tenants, 8u);
    ASSERT_EQ(tc.mix.size(), 2u);
    EXPECT_EQ(tc.mix[0], "s2");
    EXPECT_EQ(tc.mix[1], "ycsb");
    ASSERT_EQ(tc.weights.size(), 2u);
    EXPECT_EQ(tc.weights[1], 2u);
    EXPECT_EQ(tc.quantum, 128u);
    EXPECT_EQ(tc.phase_stride, 1000u);
    EXPECT_DOUBLE_EQ(tc.quota_share, 0.25);
    EXPECT_EQ(tc.admission, "feedback");
    EXPECT_DOUBLE_EQ(tc.admission_target, 0.7);
    EXPECT_EXIT((void)tenancy::parse_tenancy_config(
                    KvConfig::parse("tenancy.quotta = 3\n")),
                ::testing::ExitedWithCode(1), "unknown key");
}

TEST(TenancyConfigParse, KnobsWithoutTenantsAreFatal)
{
    TenancyConfig tc;
    tc.admission = "static";
    EXPECT_EXIT(tc.validate(), ::testing::ExitedWithCode(1),
                "require");
    TenancyConfig ok;  // defaults are the inert single-tenant shape
    ok.validate();
    EXPECT_FALSE(ok.enabled());
}

TEST(TenancyConfigParse, ListsLongerThanTenantsAreFatal)
{
    // Tenant i runs mix[i % size], so entries past the tenant count
    // never run. Lists from a file are named by key, others by flag.
    TenancyConfig tc;
    tc.tenants = 2;
    tc.mix = {"s2", "ycsb"};
    tc.weights = {1, 2};
    tc.validate();
    tc.mix.push_back("btree");
    EXPECT_EXIT(tc.validate(), ::testing::ExitedWithCode(1),
                "--tenant-mix lists 3 workloads for 2 tenants");
    EXPECT_EXIT(tc.validate("mix.cfg"), ::testing::ExitedWithCode(1),
                "mix.cfg: tenancy: tenancy.mix lists 3 workloads for 2 "
                "tenants");
    tc.mix.pop_back();
    tc.weights.push_back(3);
    EXPECT_EXIT(tc.validate(), ::testing::ExitedWithCode(1),
                "--tenant-weights lists 3 weights for 2 tenants");
    EXPECT_EXIT((void)tenancy::parse_tenancy_config(KvConfig::parse(
                    "tenancy.tenants = 2\ntenancy.weights = 1,2,3\n")),
                ::testing::ExitedWithCode(1),
                "tenancy.weights lists 3 weights for 2 tenants");
}

sim::RunSpec
tenant_run_spec()
{
    sim::RunSpec spec;
    spec.workload = "s2";
    spec.policy = "artmem";
    spec.ratio = {1, 4};
    spec.accesses = 200000;
    spec.seed = 42;
    spec.engine.check_invariants = true;
    spec.tenancy.tenants = 4;
    spec.tenancy.mix = {"s2", "ycsb"};
    spec.tenancy.quota_share = 0.3;
    spec.tenancy.admission = "static";
    spec.tenancy.admission_rate = 8;
    return spec;
}

TEST(TenantIntegration, PerTenantTotalsReconcileWithMachine)
{
    const auto result = sim::run_experiment(tenant_run_spec());
    ASSERT_EQ(result.tenants.size(), 4u);
    std::uint64_t fast = 0;
    std::uint64_t slow = 0;
    std::uint64_t samples = 0;
    std::uint64_t promoted = 0;
    std::uint64_t demoted = 0;
    for (const auto& tenant : result.tenants) {
        fast += tenant.accesses[0];
        slow += tenant.accesses[1];
        samples += tenant.samples;
        promoted += tenant.promoted;
        demoted += tenant.demoted;
    }
    // Attribution is complete: every machine access and every drained
    // PEBS sample lands in exactly one tenant's totals, and per-tenant
    // migration counts reconcile with the machine's (exchanges count
    // one promotion and one demotion each).
    EXPECT_EQ(fast, result.totals.accesses[0]);
    EXPECT_EQ(slow, result.totals.accesses[1]);
    EXPECT_EQ(samples, result.pebs_recorded - result.pebs_dropped);
    EXPECT_EQ(promoted,
              result.totals.promoted_pages + result.totals.exchanges);
    EXPECT_EQ(demoted,
              result.totals.demoted_pages + result.totals.exchanges);
    EXPECT_GT(result.invariant_audits, 0u);
}

TEST(TenantIntegration, SingleTenantSpecMatchesPlainRun)
{
    auto plain = tenant_run_spec();
    plain.tenancy = tenancy::TenancyConfig{};  // tenants = 1, all knobs off
    const auto a = sim::run_experiment(plain);
    const auto b = sim::run_experiment(plain);
    EXPECT_TRUE(a.tenants.empty());
    EXPECT_EQ(a.runtime_ns, b.runtime_ns);
    EXPECT_DOUBLE_EQ(a.fast_ratio, b.fast_ratio);
}

TEST(TenantIntegration, FeedbackChangesGrantCountsUnderContention)
{
    // The headline ISSUE acceptance check in miniature: under the same
    // contended multi-tenant load, the feedback controller must arrive
    // at a different migration-grant schedule than the static limiter
    // (it reacts to the observed hit-ratio drop; the limiter cannot).
    auto spec = tenant_run_spec();
    spec.accesses = 2000000;  // enough decision intervals for ArtMem to act
    spec.engine.check_invariants = false;
    spec.tenancy.admission = "static";
    const auto stat = sim::run_experiment(spec);
    spec.tenancy.admission = "feedback";
    spec.tenancy.admission_max = 8;
    spec.tenancy.admission_target = 0.95;
    const auto feed = sim::run_experiment(spec);
    std::uint64_t static_grants = 0;
    std::uint64_t feedback_grants = 0;
    for (std::size_t t = 0; t < 4; ++t) {
        static_grants += stat.tenants[t].admission_grants;
        feedback_grants += feed.tenants[t].admission_grants;
    }
    EXPECT_GT(static_grants, 0u);
    EXPECT_GT(feedback_grants, 0u);
    EXPECT_NE(static_grants, feedback_grants);
}

}  // namespace
}  // namespace artmem
