/**
 * @file
 * Unit tests for the tiered-memory machine, PEBS sampler, and the MLC
 * microbench.
 */
#include <gtest/gtest.h>

#include "memsim/mlc.hpp"
#include "memsim/pebs.hpp"
#include "memsim/tiered_machine.hpp"

namespace artmem::memsim {
namespace {

MachineConfig
small_machine(std::size_t fast_pages, std::size_t total_pages)
{
    MachineConfig cfg;
    cfg.page_size = 2ull << 20;
    cfg.address_space = total_pages * cfg.page_size;
    cfg.tiers[0].capacity = fast_pages * cfg.page_size;
    cfg.tiers[1].capacity = (total_pages + 4) * cfg.page_size;
    return cfg;
}

TEST(TieredMachine, FirstTouchFillsFastFirst)
{
    TieredMachine m(small_machine(4, 10));
    for (PageId p = 0; p < 10; ++p)
        m.access(p);
    for (PageId p = 0; p < 4; ++p)
        EXPECT_EQ(m.tier_of(p), Tier::kFast) << p;
    for (PageId p = 4; p < 10; ++p)
        EXPECT_EQ(m.tier_of(p), Tier::kSlow) << p;
    EXPECT_EQ(m.used_pages(Tier::kFast), 4u);
    EXPECT_EQ(m.used_pages(Tier::kSlow), 6u);
    EXPECT_EQ(m.free_pages(Tier::kFast), 0u);
}

TEST(TieredMachine, AccessChargesTierLatency)
{
    auto cfg = small_machine(1, 2);
    cfg.tiers[0].load_latency_ns = 92;
    cfg.tiers[1].load_latency_ns = 323;
    TieredMachine m(cfg);
    m.access(0);  // fast
    EXPECT_EQ(m.now(), 92u);
    m.access(1);  // slow
    EXPECT_EQ(m.now(), 92u + 323u);
    m.access(0);
    EXPECT_EQ(m.now(), 2 * 92u + 323u);
}

TEST(TieredMachine, CountersTrackTiers)
{
    TieredMachine m(small_machine(1, 2));
    m.access(0);
    m.access(1);
    m.access(1);
    EXPECT_EQ(m.totals().accesses[0], 1u);
    EXPECT_EQ(m.totals().accesses[1], 2u);
    EXPECT_NEAR(m.totals().fast_ratio(), 1.0 / 3.0, 1e-12);
}

TEST(TieredMachine, MigrateMovesAndCharges)
{
    TieredMachine m(small_machine(2, 4));
    for (PageId p = 0; p < 4; ++p)
        m.access(p);
    const SimTimeNs before = m.now();
    // Fast tier full: promotion must fail.
    EXPECT_FALSE(m.migrate(2, Tier::kFast));
    // Demote then promote.
    EXPECT_TRUE(m.migrate(0, Tier::kSlow));
    EXPECT_GT(m.now(), before);
    EXPECT_TRUE(m.migrate(2, Tier::kFast));
    EXPECT_EQ(m.tier_of(0), Tier::kSlow);
    EXPECT_EQ(m.tier_of(2), Tier::kFast);
    EXPECT_EQ(m.totals().promoted_pages, 1u);
    EXPECT_EQ(m.totals().demoted_pages, 1u);
    EXPECT_GT(m.totals().migration_busy_ns, 0u);
}

TEST(TieredMachine, MigrateNoopCases)
{
    TieredMachine m(small_machine(2, 4));
    EXPECT_FALSE(m.migrate(0, Tier::kFast));  // unallocated
    m.access(0);
    EXPECT_FALSE(m.migrate(0, Tier::kFast));  // already there
}

TEST(TieredMachine, ExchangeSwapsTiers)
{
    TieredMachine m(small_machine(1, 2));
    m.access(0);
    m.access(1);
    EXPECT_TRUE(m.exchange(0, 1));
    EXPECT_EQ(m.tier_of(0), Tier::kSlow);
    EXPECT_EQ(m.tier_of(1), Tier::kFast);
    EXPECT_EQ(m.totals().exchanges, 1u);
    // Same-tier exchange refused.
    m.access(0);
    EXPECT_FALSE(m.exchange(0, 0));
}

TEST(TieredMachine, AccessedBitSemantics)
{
    TieredMachine m(small_machine(2, 2));
    m.access(0);
    EXPECT_TRUE(m.accessed(0));
    EXPECT_TRUE(m.test_and_clear_accessed(0));
    EXPECT_FALSE(m.accessed(0));
    EXPECT_FALSE(m.test_and_clear_accessed(0));
}

TEST(TieredMachine, TrapDeliversFaultOnceAndCharges)
{
    auto cfg = small_machine(2, 2);
    cfg.hint_fault_cost_ns = 1000;
    TieredMachine m(cfg);
    m.access(0);
    int faults = 0;
    m.set_fault_handler([&](PageId page, Tier tier) {
        EXPECT_EQ(page, 0u);
        EXPECT_EQ(tier, Tier::kFast);
        ++faults;
    });
    m.set_trap(0);
    EXPECT_TRUE(m.has_trap(0));
    const SimTimeNs before = m.now();
    m.access(0);
    EXPECT_EQ(faults, 1);
    EXPECT_FALSE(m.has_trap(0));
    EXPECT_GE(m.now() - before, 1000u);
    m.access(0);  // no trap anymore
    EXPECT_EQ(faults, 1);
    EXPECT_EQ(m.totals().hint_faults, 1u);
}

TEST(TieredMachine, WindowCountersReset)
{
    TieredMachine m(small_machine(2, 2));
    TxConfig tx;
    tx.enabled = true;
    m.install_tx(tx);
    m.access(0);
    m.access(1);
    m.charge_overhead(500);
    EXPECT_EQ(m.migrate(0, Tier::kSlow).status, MigrateStatus::kTxOpened);
    EXPECT_EQ(m.migrate(0, Tier::kSlow).status, MigrateStatus::kTxInFlight);
    auto w1 = m.take_window();
    EXPECT_EQ(w1.total_accesses(), 2u);
    EXPECT_EQ(w1.overhead_ns, 500u);
    EXPECT_EQ(w1.tx_opened, 1u);
    EXPECT_EQ(w1.failed_tx_busy, 1u);
    m.charge_overhead(7);
    auto w2 = m.take_window();
    EXPECT_EQ(w2.total_accesses(), 0u);
    EXPECT_EQ(w2.overhead_ns, 7u);
    EXPECT_EQ(w2.tx_opened, 0u);
    EXPECT_EQ(w2.failed_tx_busy, 0u);
    EXPECT_EQ(m.totals().total_accesses(), 2u);
    EXPECT_EQ(m.totals().overhead_ns, 507u);
    EXPECT_EQ(m.totals().tx_opened, 1u);
    EXPECT_EQ(m.totals().failed_tx_busy, 1u);
}

TEST(TieredMachine, StreamChargesBandwidthTime)
{
    auto cfg = small_machine(2, 2);
    cfg.tiers[1].bandwidth_gbps = 26.0;
    TieredMachine m(cfg);
    const SimTimeNs dt = m.stream(Tier::kSlow, 26ull << 30);
    // 26 GiB at 26 GB/s ~ 1.07 s (GiB vs GB).
    EXPECT_NEAR(static_cast<double>(dt) * 1e-9, 1.07, 0.03);
}

/** A sampler that records every access (period 1). */
PebsSampler
every_access(std::size_t capacity)
{
    return PebsSampler({.period = 1, .buffer_capacity = capacity});
}

/** Drain up to @p max_items records and return their page ids. */
std::vector<PageId>
drain_pages(PebsSampler& sampler, std::size_t max_items)
{
    std::vector<PebsSample> out;
    sampler.drain(out, max_items);
    std::vector<PageId> pages;
    for (const auto& s : out)
        pages.push_back(s.page);
    return pages;
}

TEST(PebsSampler, DrainsInFifoOrderWithTier)
{
    auto sampler = every_access(4);
    sampler.observe(1, Tier::kFast);
    sampler.observe(2, Tier::kSlow);
    std::vector<PebsSample> out;
    EXPECT_EQ(sampler.drain(out, 10), 2u);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].page, 1u);
    EXPECT_EQ(out[0].tier, Tier::kFast);
    EXPECT_EQ(out[1].page, 2u);
    EXPECT_EQ(out[1].tier, Tier::kSlow);
    EXPECT_EQ(sampler.drain(out, 10), 0u);
    EXPECT_EQ(out.size(), 2u);
}

TEST(PebsSampler, PartialDrainKeepsTheRestQueued)
{
    auto sampler = every_access(8);
    for (PageId p = 0; p < 5; ++p)
        sampler.observe(p, Tier::kFast);
    EXPECT_EQ(drain_pages(sampler, 3), (std::vector<PageId>{0, 1, 2}));
    EXPECT_EQ(drain_pages(sampler, 10), (std::vector<PageId>{3, 4}));
    EXPECT_EQ(sampler.dropped(), 0u);
}

TEST(PebsSampler, DropsWhenFull)
{
    // Two records past a four-record buffer: exactly those two are
    // dropped, and the four that landed stay queued.
    auto sampler = every_access(4);
    for (PageId p = 0; p < 6; ++p)
        sampler.observe(p, Tier::kFast);
    EXPECT_EQ(sampler.dropped(), 2u);
    EXPECT_EQ(drain_pages(sampler, 10).size(), 4u);
}

TEST(PebsSampler, ExactDropAccountingUnderSaturation)
{
    // A PEBS burst with no drain in between: the first `capacity`
    // records land, every later one is recorded, dropped and counted,
    // and nothing already queued is overwritten. The capacity is used
    // as given, not rounded.
    auto sampler = every_access(6);
    for (PageId p = 0; p < 100; ++p)
        sampler.observe(p, Tier::kSlow);
    EXPECT_EQ(sampler.recorded(), 100u);
    EXPECT_EQ(sampler.dropped(), 94u);
    EXPECT_EQ(drain_pages(sampler, 100),
              (std::vector<PageId>{0, 1, 2, 3, 4, 5}));
}

TEST(PebsSampler, FifoAcrossManyFillDrainCycles)
{
    // Fill five of eight slots and drain them in two uneven chunks, a
    // thousand times over: order and counts stay exact in every cycle.
    auto sampler = every_access(8);
    PageId next_in = 0, next_out = 0;
    for (int round = 0; round < 1000; ++round) {
        for (int i = 0; i < 5; ++i)
            sampler.observe(next_in++, Tier::kFast);
        for (std::size_t chunk : {2u, 3u}) {
            for (PageId p : drain_pages(sampler, chunk))
                ASSERT_EQ(p, next_out++);
        }
    }
    EXPECT_EQ(next_out, next_in);
    EXPECT_EQ(sampler.dropped(), 0u);
}

TEST(PebsSampler, RecoversAfterDrainedBacklog)
{
    // Drain blackout: the buffer saturates, then the backlog is drained
    // in full. The sampler accepts records again with no residual state
    // from the overload.
    auto sampler = every_access(4);
    for (PageId p = 0; p < 20; ++p)
        sampler.observe(p, Tier::kFast);
    EXPECT_EQ(sampler.dropped(), 16u);
    EXPECT_EQ(drain_pages(sampler, 100).size(), 4u);
    for (PageId p = 100; p < 104; ++p)
        sampler.observe(p, Tier::kFast);
    EXPECT_EQ(drain_pages(sampler, 1), (std::vector<PageId>{100}));
    EXPECT_EQ(sampler.dropped(), 16u);
    EXPECT_EQ(sampler.recorded(), 24u);
}

TEST(PebsSampler, SamplesEveryNth)
{
    PebsSampler sampler({.period = 10, .buffer_capacity = 1024});
    for (int i = 0; i < 100; ++i)
        sampler.observe(static_cast<PageId>(i), Tier::kFast);
    EXPECT_EQ(sampler.recorded(), 10u);
    std::vector<PebsSample> out;
    sampler.drain(out, 100);
    ASSERT_EQ(out.size(), 10u);
    EXPECT_EQ(out[0].page, 9u);  // the 10th access
    EXPECT_EQ(out[1].page, 19u);
}

TEST(Mlc, ReproducesTable2Characteristics)
{
    MachineConfig cfg;
    cfg.page_size = 2ull << 20;
    cfg.address_space = 64ull << 20;
    cfg.tiers[0].capacity = 32ull << 20;
    cfg.tiers[1].capacity = 128ull << 20;
    TieredMachine m(cfg);
    const auto fast = measure_tier(m, Tier::kFast, 10000, 1ull << 30);
    EXPECT_NEAR(fast.latency_ns, 92.0, 1.0);
    EXPECT_NEAR(fast.bandwidth_gbps, 81.0, 1.0);
    const auto slow = measure_tier(m, Tier::kSlow, 10000, 1ull << 30);
    EXPECT_NEAR(slow.latency_ns, 323.0, 1.0);
    EXPECT_NEAR(slow.bandwidth_gbps, 26.0, 1.0);
}

}  // namespace
}  // namespace artmem::memsim
