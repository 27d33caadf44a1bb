/**
 * @file
 * Invariant-checker tests: a healthy simulator passes every audit, and
 * each deliberately seeded corruption triggers exactly the typed
 * InvariantViolation that names it. The corruption back doors are the
 * TestPeer friends declared by TieredMachine, EmaBins, LruLists and
 * TenantLedger; they exist only here.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "core/artmem.hpp"
#include "memsim/fault_injector.hpp"
#include "memsim/tenant_ledger.hpp"
#include "memsim/tiered_machine.hpp"
#include "sim/experiment.hpp"
#include "verify/invariant_checker.hpp"

namespace artmem::memsim {

/** Test-only corruption back door (friend of TieredMachine). */
struct MachineTestPeer {
    /** Bump a tier's used-page count without touching the flags. */
    static void skew_used(TieredMachine& machine, Tier tier, int delta)
    {
        auto& used = machine.used_[static_cast<int>(tier)];
        used = static_cast<std::size_t>(static_cast<long long>(used) + delta);
    }

    /** Flip a page's residency bit behind the accounting's back. */
    static void flip_tier_bit(TieredMachine& machine, PageId page)
    {
        machine.flags_[page] ^= TieredMachine::kTierBit;
    }

    /** Clear a page's dual-residency flag behind the reclaim ledger. */
    static void drop_dual_flag(TieredMachine& machine, PageId page)
    {
        machine.flags_[page] &=
            static_cast<std::uint8_t>(~TieredMachine::kDualBit);
    }

    /** Double-free a dual-resident page's secondary slot: release the
     *  used count as if the copy had been reclaimed while the dual
     *  flag (and the reclaim ledger) still claim the slot. */
    static void double_free_dual_slot(TieredMachine& machine, PageId page)
    {
        const Tier secondary = other_tier(machine.tier_of(page));
        --machine.used_[static_cast<int>(secondary)];
    }

    /** Bump the write-hit counter without a matching abort or drop. */
    static void skew_write_hits(TieredMachine& machine)
    {
        ++machine.tx_->write_hits;
    }

    /** Force a tier's used count above its capacity (flags in sync). */
    static void overfill(TieredMachine& machine, Tier tier)
    {
        const std::size_t cap = machine.capacity_pages(tier);
        const std::size_t used = machine.used_pages(tier);
        // Mark additional unallocated pages resident in @p tier until
        // the count exceeds capacity.
        std::size_t added = 0;
        for (PageId page = 0;
             page < machine.page_count() && used + added <= cap; ++page) {
            if (machine.is_allocated(page))
                continue;
            machine.flags_[page] = static_cast<std::uint8_t>(
                TieredMachine::kAllocatedBit |
                (tier == Tier::kSlow ? TieredMachine::kTierBit : 0));
            ++machine.used_[static_cast<int>(tier)];
            ++added;
        }
        ASSERT_GT(machine.used_pages(tier), cap);
    }
};

/** Test-only corruption back door (friend of TenantLedger). */
struct TenantLedgerTestPeer {
    /** Bump a tenant's per-tier residency count behind the census. */
    static void skew_used(TenantLedger& ledger, std::uint32_t tenant,
                          Tier tier, int delta)
    {
        auto& slot =
            ledger.used_[tenant * kTierCount + static_cast<int>(tier)];
        slot = static_cast<std::size_t>(static_cast<long long>(slot) + delta);
    }

    /** Count a promotion that never happened on the machine. */
    static void skew_promoted(TenantLedger& ledger, std::uint32_t tenant)
    {
        ++ledger.totals_[tenant].promoted_pages;
    }
};

}  // namespace artmem::memsim

namespace artmem::stats {

/** Test-only corruption back door (friend of EmaBins). */
struct EmaBinsTestPeer {
    /** Move one page of recorded mass between bins. */
    static void shift_mass(EmaBins& bins, int from, int to)
    {
        --bins.bins_[from];
        ++bins.bins_[to];
    }

    /** Bump a page's counter without rebinning it. */
    static void skew_count(EmaBins& bins, PageId page, std::uint32_t value)
    {
        bins.counts_[page] = value;
    }

    /** Append a page to the hot index, whatever its count. */
    static void index_page(EmaBins& bins, PageId page)
    {
        bins.hot_.push_back(page);
    }

    /** Drop the hot index's last entry. */
    static void unindex_last(EmaBins& bins) { bins.hot_.pop_back(); }
};

}  // namespace artmem::stats

namespace artmem::lru {

/** Test-only corruption back door (friend of LruLists). */
struct LruListsTestPeer {
    /** Overwrite a page's position stamp. */
    static void set_stamp(LruLists& lists, PageId page, std::uint32_t stamp)
    {
        auto& meta = lists.meta_[page];
        meta = (stamp << LruLists::kStampShift) |
               (meta & LruLists::kFlagsMask);
    }
};

}  // namespace artmem::lru

namespace artmem::verify {
namespace {

using lru::LruListsTestPeer;
using memsim::MachineConfig;
using memsim::MachineTestPeer;
using memsim::Tier;
using memsim::TieredMachine;
using stats::EmaBinsTestPeer;

MachineConfig
small_machine_config()
{
    MachineConfig config;
    config.page_size = 1ull << 20;
    config.tiers[0].capacity = 16ull << 20;   // 16 fast pages
    config.tiers[1].capacity = 64ull << 20;   // 64 slow pages
    config.address_space = 48ull << 20;       // 48 pages total
    return config;
}

TEST(InvariantNames, AreStable)
{
    EXPECT_EQ(invariant_name(Invariant::kResidencyCount), "residency_count");
    EXPECT_EQ(invariant_name(Invariant::kTierCapacity), "tier_capacity");
    EXPECT_EQ(invariant_name(Invariant::kLruStructure), "lru_structure");
    EXPECT_EQ(invariant_name(Invariant::kLruResidency), "lru_residency");
    EXPECT_EQ(invariant_name(Invariant::kEmaBinMass), "ema_bin_mass");
    EXPECT_EQ(invariant_name(Invariant::kFaultAccounting),
              "fault_accounting");
    EXPECT_EQ(invariant_name(Invariant::kQTableValue), "qtable_value");
    EXPECT_EQ(invariant_name(Invariant::kTxAccounting), "tx_accounting");
    EXPECT_EQ(invariant_name(Invariant::kTenantQuota), "tenant_quota");
}

TEST(CheckMachine, HealthyMachinePasses)
{
    TieredMachine machine(small_machine_config());
    machine.prefault_range(0, 40);
    for (PageId p = 0; p < 40; ++p)
        machine.access(p);
    EXPECT_GT(InvariantChecker::check_machine(machine), 0u);
}

TEST(CheckMachine, SkewedUsedCountFires)
{
    TieredMachine machine(small_machine_config());
    machine.prefault_range(0, 40);
    MachineTestPeer::skew_used(machine, Tier::kFast, -1);
    try {
        (void)InvariantChecker::check_machine(machine);
        FAIL() << "expected InvariantViolation";
    } catch (const InvariantViolation& violation) {
        EXPECT_EQ(violation.which(), Invariant::kResidencyCount);
        EXPECT_NE(std::string(violation.what()).find("residency_count"),
                  std::string::npos);
    }
}

TEST(CheckMachine, FlippedTierBitFires)
{
    TieredMachine machine(small_machine_config());
    machine.prefault_range(0, 40);
    // Page 0 was allocated fast; silently relocate it to the slow tier.
    MachineTestPeer::flip_tier_bit(machine, 0);
    EXPECT_THROW((void)InvariantChecker::check_machine(machine),
                 InvariantViolation);
}

TEST(CheckMachine, OverfilledTierFires)
{
    TieredMachine machine(small_machine_config());
    machine.prefault_range(0, 20);
    MachineTestPeer::overfill(machine, Tier::kFast);
    try {
        (void)InvariantChecker::check_machine(machine);
        FAIL() << "expected InvariantViolation";
    } catch (const InvariantViolation& violation) {
        EXPECT_EQ(violation.which(), Invariant::kTierCapacity);
    }
}

class CheckLru : public ::testing::Test
{
  protected:
    CheckLru() : machine_(small_machine_config()), lists_(48)
    {
        machine_.prefault_range(0, 48);  // 16 fast + 32 slow
    }

    TieredMachine machine_;
    lru::LruLists lists_;
};

TEST_F(CheckLru, HealthyListsPass)
{
    for (PageId p = 0; p < 48; ++p)
        lists_.touch(p, machine_.tier_of(p));
    for (PageId p = 0; p < 8; ++p) {
        lists_.set_referenced(p);
        lists_.touch(p, machine_.tier_of(p));  // activate
    }
    EXPECT_GT(InvariantChecker::check_lru(lists_, machine_), 0u);
}

TEST_F(CheckLru, WrongTierListFires)
{
    // Page 0 resides in the fast tier; link it on a slow list.
    lists_.insert_head(0, lru::ListId::kSlowActive);
    try {
        (void)InvariantChecker::check_lru(lists_, machine_);
        FAIL() << "expected InvariantViolation";
    } catch (const InvariantViolation& violation) {
        EXPECT_EQ(violation.which(), Invariant::kLruResidency);
    }
}

TEST_F(CheckLru, UnallocatedLinkedPageFires)
{
    TieredMachine fresh(small_machine_config());  // nothing allocated
    lists_.insert_head(3, lru::ListId::kFastInactive);
    try {
        (void)InvariantChecker::check_lru(lists_, fresh);
        FAIL() << "expected InvariantViolation";
    } catch (const InvariantViolation& violation) {
        EXPECT_EQ(violation.which(), Invariant::kLruResidency);
    }
}

TEST_F(CheckLru, PageSpaceMismatchFires)
{
    lru::LruLists wrong(32);
    try {
        (void)InvariantChecker::check_lru(wrong, machine_);
        FAIL() << "expected InvariantViolation";
    } catch (const InvariantViolation& violation) {
        EXPECT_EQ(violation.which(), Invariant::kLruStructure);
    }
}

TEST_F(CheckLru, StampOutOfListOrderFires)
{
    // Pages 16..19 are slow-resident; linked head-first, page 19 heads
    // the list. Give the page after it a stamp that does not fall.
    for (PageId p = 16; p < 20; ++p)
        lists_.insert_head(p, lru::ListId::kSlowActive);
    EXPECT_GT(InvariantChecker::check_lru(lists_, machine_), 0u);
    LruListsTestPeer::set_stamp(lists_, 18, lists_.stamp(19));
    try {
        (void)InvariantChecker::check_lru(lists_, machine_);
        FAIL() << "expected InvariantViolation";
    } catch (const InvariantViolation& violation) {
        EXPECT_EQ(violation.which(), Invariant::kLruStructure);
        EXPECT_NE(std::string(violation.what()).find("page 18 has stamp"),
                  std::string::npos)
            << violation.what();
    }
}

TEST_F(CheckLru, TailInsertStampOutOfOrderFires)
{
    // A tail insert must stamp below the rest of its list.
    lists_.insert_head(20, lru::ListId::kSlowInactive);
    lists_.insert_tail(21, lru::ListId::kSlowInactive);
    EXPECT_GT(InvariantChecker::check_lru(lists_, machine_), 0u);
    LruListsTestPeer::set_stamp(lists_, 21, lists_.stamp(20) + 1);
    EXPECT_THROW((void)InvariantChecker::check_lru(lists_, machine_),
                 InvariantViolation);
}

/** Bins with a hot floor of 4: pages 0..3 reach it, 4..7 do not. */
stats::EmaBins
indexed_bins()
{
    stats::EmaBins bins(64, 0, 4);
    for (PageId p = 0; p < 8; ++p) {
        for (int i = 0; i < (p < 4 ? 6 : 3); ++i)
            bins.record(p);
    }
    return bins;
}

/** Expect check_ema() to fire kEmaBinMass naming @p fragment. */
void
expect_ema_violation(const stats::EmaBins& bins, const std::string& fragment)
{
    try {
        (void)InvariantChecker::check_ema(bins);
        FAIL() << "expected InvariantViolation";
    } catch (const InvariantViolation& violation) {
        EXPECT_EQ(violation.which(), Invariant::kEmaBinMass);
        EXPECT_NE(std::string(violation.what()).find(fragment),
                  std::string::npos)
            << violation.what();
    }
}

TEST(CheckEma, HealthyHotIndexPassesAcrossCooling)
{
    auto bins = indexed_bins();
    EXPECT_EQ(bins.hot_pages().size(), 4u);
    EXPECT_GT(InvariantChecker::check_ema(bins), 64u);
    bins.cool();  // 6 -> 3: every page leaves the index
    EXPECT_TRUE(bins.hot_pages().empty());
    EXPECT_GT(InvariantChecker::check_ema(bins), 0u);
}

TEST(CheckEma, HotIndexMissingPageFires)
{
    auto bins = indexed_bins();
    EmaBinsTestPeer::unindex_last(bins);
    expect_ema_violation(bins, "missing from the hot index");
}

TEST(CheckEma, HotIndexDuplicateFires)
{
    auto bins = indexed_bins();
    EmaBinsTestPeer::index_page(bins, 2);
    expect_ema_violation(bins, "holds page 2 twice");
}

TEST(CheckEma, HotIndexColdPageFires)
{
    auto bins = indexed_bins();
    EmaBinsTestPeer::index_page(bins, 5);
    expect_ema_violation(bins, "holds page 5 with count 3");
}

TEST(CheckEma, IndexWithoutFloorFires)
{
    stats::EmaBins bins(64);
    bins.record(1);
    EmaBinsTestPeer::index_page(bins, 1);
    expect_ema_violation(bins, "although it has no floor");
}

TEST(CheckEma, HealthyBinsPass)
{
    stats::EmaBins bins(64);
    for (int i = 0; i < 100; ++i)
        bins.record(static_cast<PageId>(i % 8));
    bins.cool();
    EXPECT_GT(InvariantChecker::check_ema(bins), 0u);
}

TEST(CheckEma, ShiftedBinMassFires)
{
    stats::EmaBins bins(64);
    for (int i = 0; i < 100; ++i)
        bins.record(static_cast<PageId>(i % 8));
    EmaBinsTestPeer::shift_mass(bins, 0, 3);
    try {
        (void)InvariantChecker::check_ema(bins);
        FAIL() << "expected InvariantViolation";
    } catch (const InvariantViolation& violation) {
        EXPECT_EQ(violation.which(), Invariant::kEmaBinMass);
    }
}

TEST(CheckEma, SkewedPageCounterFires)
{
    stats::EmaBins bins(64);
    for (int i = 0; i < 100; ++i)
        bins.record(static_cast<PageId>(i % 8));
    // Rewrite one page's counter so it maps to a different bin than the
    // one tracking it.
    EmaBinsTestPeer::skew_count(bins, 0, 1u << 10);
    EXPECT_THROW((void)InvariantChecker::check_ema(bins),
                 InvariantViolation);
}

TEST(CheckQTable, NonFiniteEntryFires)
{
    rl::QTable table(4, 3, 0.0);
    table.at(2, 1) = std::nan("");
    try {
        (void)InvariantChecker::check_qtable(table, 100.0, "test");
        FAIL() << "expected InvariantViolation";
    } catch (const InvariantViolation& violation) {
        EXPECT_EQ(violation.which(), Invariant::kQTableValue);
        EXPECT_NE(std::string(violation.what()).find("Q(2, 1)"),
                  std::string::npos);
    }
}

TEST(CheckQTable, OutOfBoundEntryFires)
{
    rl::QTable table(4, 3, 0.0);
    table.at(0, 0) = 1e9;
    EXPECT_THROW((void)InvariantChecker::check_qtable(table, 200.0, "test"),
                 InvariantViolation);
    table.at(0, 0) = -1e9;
    EXPECT_THROW((void)InvariantChecker::check_qtable(table, 200.0, "test"),
                 InvariantViolation);
}

TEST(CheckQTable, BoundFollowsGamma)
{
    core::ArtMemConfig config;
    const double bound = InvariantChecker::qtable_bound(config);
    EXPECT_TRUE(std::isfinite(bound));
    EXPECT_NEAR(bound, 100.0 / (1.0 - config.agent.gamma), 1e-3);
    config.agent.gamma = 1.0;  // undiscounted: no finite fixpoint bound
    EXPECT_TRUE(std::isinf(InvariantChecker::qtable_bound(config)));
}

TEST(CheckFaultAccounting, FaultFreeWithCleanCountersPasses)
{
    TieredMachine machine(small_machine_config());
    machine.prefault_range(0, 40);
    EXPECT_GT(InvariantChecker::check_fault_accounting(machine), 0u);
}

TEST(CheckFaultAccounting, TransientMismatchFires)
{
    auto fc = memsim::make_fault_scenario("migration", 7);
    TieredMachine machine(small_machine_config());
    machine.prefault_range(0, 48);
    machine.install_faults(fc);
    // Consume an abort draw outside a migration: the injector now
    // claims more granted aborts than the machine recorded.
    std::uint64_t hits = 0;
    while (machine.fault_injector()->transient_aborts() == 0 &&
           hits < 10000) {
        machine.fault_injector()->migration_transient_abort();
        ++hits;
    }
    ASSERT_GT(machine.fault_injector()->transient_aborts(), 0u);
    try {
        (void)InvariantChecker::check_fault_accounting(machine);
        FAIL() << "expected InvariantViolation";
    } catch (const InvariantViolation& violation) {
        EXPECT_EQ(violation.which(), Invariant::kFaultAccounting);
    }
}

TEST(CheckFaultAccounting, SuppressedSampleMismatchFires)
{
    auto fc = memsim::make_fault_scenario("blackout", 3);
    TieredMachine machine(small_machine_config());
    machine.install_faults(fc);
    EXPECT_GT(InvariantChecker::check_fault_accounting(machine, 0), 0u);
    EXPECT_THROW((void)InvariantChecker::check_fault_accounting(machine, 5),
                 InvariantViolation);
}

TEST(Audit, CountsAuditsAndChecksArtMemInternals)
{
    TieredMachine machine(small_machine_config());
    machine.prefault_range(0, 48);
    core::ArtMem policy;
    policy.init(machine);
    InvariantChecker checker;
    EXPECT_GT(checker.audit(machine, policy), 0u);
    EXPECT_GT(checker.audit(machine, policy), 0u);
    EXPECT_EQ(checker.audits(), 2u);
}

TEST(Audit, DetectsArtMemQTableCorruption)
{
    TieredMachine machine(small_machine_config());
    machine.prefault_range(0, 48);
    core::ArtMem policy;
    policy.init(machine);
    policy.migration_agent().table().at(0, 0) =
        std::numeric_limits<double>::infinity();
    InvariantChecker checker;
    EXPECT_THROW((void)checker.audit(machine, policy), InvariantViolation);
}

// --- transactional-engine accounting -----------------------------------

/** Machine with one committed non-exclusive demotion: page 0's primary
 *  lives in the slow tier with a clean dual copy left in fast. */
class CheckTxAccounting : public ::testing::Test
{
  protected:
    CheckTxAccounting() : machine_(small_machine_config())
    {
        memsim::TxConfig tx;
        tx.enabled = true;
        machine_.install_tx(tx);
        machine_.prefault_range(0, 48);  // 16 fast + 32 slow
        EXPECT_TRUE(machine_.migrate(0, Tier::kSlow).pending());
        machine_.advance(1'000'000'000);
        EXPECT_EQ(machine_.poll_tx(), 1u);
        EXPECT_TRUE(machine_.tx_page_dual(0));
    }

    TieredMachine machine_;
};

TEST_F(CheckTxAccounting, HealthyDualResidentMachinePasses)
{
    EXPECT_GT(InvariantChecker::check_machine(machine_), 0u);
    EXPECT_GT(InvariantChecker::check_tx_accounting(machine_), 0u);
}

TEST_F(CheckTxAccounting, DoubleFreedDualSlotFires)
{
    // The dual page's secondary slot is freed a second time: the flags
    // still claim residency in both tiers, so the recount disagrees
    // with the used counter.
    MachineTestPeer::double_free_dual_slot(machine_, 0);
    try {
        (void)InvariantChecker::check_machine(machine_);
        FAIL() << "expected InvariantViolation";
    } catch (const InvariantViolation& violation) {
        EXPECT_EQ(violation.which(), Invariant::kResidencyCount);
    }
}

TEST_F(CheckTxAccounting, DroppedDualFlagFires)
{
    // The flag disappears behind the reclaim ledger's back: the tier
    // still advertises a reclaimable copy that no page carries.
    MachineTestPeer::drop_dual_flag(machine_, 0);
    try {
        (void)InvariantChecker::check_tx_accounting(machine_);
        FAIL() << "expected InvariantViolation";
    } catch (const InvariantViolation& violation) {
        EXPECT_EQ(violation.which(), Invariant::kTxAccounting);
        EXPECT_NE(std::string(violation.what()).find("reclaimable"),
                  std::string::npos);
    }
}

TEST_F(CheckTxAccounting, SkewedWriteHitsFire)
{
    // A write hit that neither aborted a transaction nor dropped a
    // dual copy breaks the draw-stream reconciliation.
    MachineTestPeer::skew_write_hits(machine_);
    try {
        (void)InvariantChecker::check_tx_accounting(machine_);
        FAIL() << "expected InvariantViolation";
    } catch (const InvariantViolation& violation) {
        EXPECT_EQ(violation.which(), Invariant::kTxAccounting);
    }
}

TEST(CheckTxAccountingOff, TxOffMachinePasses)
{
    TieredMachine machine(small_machine_config());
    machine.prefault_range(0, 40);
    EXPECT_GT(InvariantChecker::check_tx_accounting(machine), 0u);
}

// --- multi-tenant quota/attribution accounting -------------------------

using memsim::TenantLedger;
using memsim::TenantLedgerTestPeer;

/** Machine with a two-tenant ledger (24 pages each, no quota) fully
 *  prefaulted: 16 fast + 32 slow pages, all owned. */
class CheckTenantQuota : public ::testing::Test
{
  protected:
    CheckTenantQuota() : machine_(small_machine_config())
    {
        auto ledger = std::make_unique<TenantLedger>(2, 48);
        ledger->set_owner_span(0, 24, 0);
        ledger->set_owner_span(24, 24, 1);
        machine_.install_tenants(std::move(ledger));
        machine_.prefault_range(0, 48);
    }

    TieredMachine machine_;
};

TEST_F(CheckTenantQuota, HealthyMultiTenantMachinePasses)
{
    EXPECT_GT(InvariantChecker::check_tenant_quota(machine_), 0u);
    // The per-interval audit picks the check up automatically.
    core::ArtMem policy;
    policy.init(machine_);
    InvariantChecker checker;
    EXPECT_GT(checker.audit(machine_, policy), 0u);
}

TEST_F(CheckTenantQuota, SkewedTenantResidencyFires)
{
    TenantLedgerTestPeer::skew_used(*machine_.tenants(), 0, Tier::kFast, 1);
    try {
        (void)InvariantChecker::check_tenant_quota(machine_);
        FAIL() << "expected InvariantViolation";
    } catch (const InvariantViolation& violation) {
        EXPECT_EQ(violation.which(), Invariant::kTenantQuota);
        EXPECT_NE(std::string(violation.what()).find("tenant_quota"),
                  std::string::npos);
    }
}

TEST_F(CheckTenantQuota, ResidencyAboveQuotaFires)
{
    // Prefault ran without quotas, so tenant 0 (low addresses) filled
    // the whole fast tier. Imposing a quota below its residency now,
    // with no over-quota allocations recorded, must trip the bound.
    ASSERT_EQ(machine_.tenants()->used_pages(0, Tier::kFast), 16u);
    machine_.tenants()->set_quota(0, 4);
    try {
        (void)InvariantChecker::check_tenant_quota(machine_);
        FAIL() << "expected InvariantViolation";
    } catch (const InvariantViolation& violation) {
        EXPECT_EQ(violation.which(), Invariant::kTenantQuota);
        EXPECT_NE(std::string(violation.what()).find("quota"),
                  std::string::npos);
    }
}

TEST_F(CheckTenantQuota, PhantomPromotionFires)
{
    // A per-tenant promotion with no matching machine migration breaks
    // the attribution reconciliation.
    TenantLedgerTestPeer::skew_promoted(*machine_.tenants(), 1);
    EXPECT_THROW((void)InvariantChecker::check_tenant_quota(machine_),
                 InvariantViolation);
}

TEST(CheckTenantQuotaOff, SingleTenantMachineIsRejected)
{
    // The audit gates the check on tenants() != nullptr; calling it
    // directly on a single-tenant machine is a checker-usage bug.
    TieredMachine machine(small_machine_config());
    machine.prefault_range(0, 40);
    EXPECT_THROW((void)InvariantChecker::check_tenant_quota(machine),
                 InvariantViolation);
}

// --- integration: full fault-scenario runs under per-interval audit ----

class InvariantCheckedRun
    : public ::testing::TestWithParam<const char*>
{
};

TEST_P(InvariantCheckedRun, FaultScenarioStaysConsistent)
{
    sim::RunSpec spec;
    spec.workload = "s2";
    spec.policy = "artmem";
    spec.ratio = {1, 4};
    spec.accesses = 400000;
    spec.engine.faults = memsim::make_fault_scenario(GetParam(), 1);
    spec.engine.check_invariants = true;
    const auto result = sim::run_experiment(spec);
    EXPECT_GT(result.invariant_audits, 0u);
    EXPECT_GT(result.accesses, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, InvariantCheckedRun,
    ::testing::Values("none", "migration", "degrade", "blackout",
                      "pressure"),
    [](const auto& suite_info) { return std::string(suite_info.param); });

}  // namespace
}  // namespace artmem::verify
