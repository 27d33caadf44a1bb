/**
 * @file
 * Differential harness for the batched hot path (DESIGN.md §9).
 *
 * The engine's inner loop was rewritten from one-access-at-a-time calls
 * into TieredMachine::access_batch() / access_batch_faulted(), which
 * shadow the clock and per-tier counters in locals. The overhaul's
 * contract is *bit-identity*: every observable state — simulated time,
 * counters, per-page flags, the PEBS sample stream, and the fault
 * injector's draw schedule — must match the old scalar semantics
 * exactly. This file enforces the contract three ways:
 *
 *  1. Lockstep oracle: four identically configured machines run the
 *     same seeded access stream — one through the retained scalar
 *     access() sequence (the pre-overhaul engine loop, kept verbatim
 *     below), one through access_batch(), one through the sharded
 *     pipeline with the serial epoch merge, and one through the
 *     sharded pipeline with the parallel per-lane merge (per-lane
 *     latency accumulators, per-shard PEBS streams, per-shard LRU,
 *     deterministic boundary merge); full state is compared every
 *     decision interval, across all built-in fault scenarios, with
 *     trap storms and a re-entrant promotion fault handler thrown in.
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
 * Plus the Zipf fast path: the rank-table lookup must agree with the
 * Gray et al. closed form on every draw.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <string_view>
#include <vector>

#include "lru/lru_lists.hpp"
#include "memsim/fault_injector.hpp"
#include "memsim/pebs.hpp"
#include "memsim/sharded_access.hpp"
#include "memsim/tiered_machine.hpp"
#include "stats/ema_bins.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

namespace artmem {
namespace {

using memsim::FaultConfig;
using memsim::FaultInjector;
using memsim::MachineConfig;
using memsim::PebsSample;
using memsim::PebsSampler;
using memsim::ShardedAccessEngine;
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
}

void
expect_machines_equal(const TieredMachine& a, const TieredMachine& b)
{
    ASSERT_EQ(a.now(), b.now());
    for (int t = 0; t < memsim::kTierCount; ++t) {
        const auto tier = static_cast<Tier>(t);
        EXPECT_EQ(a.used_pages(tier), b.used_pages(tier));
        EXPECT_EQ(a.free_pages(tier), b.free_pages(tier));
    }
    expect_counters_equal(a.totals(), b.totals());
    for (PageId p = 0; p < a.page_count(); ++p) {
        ASSERT_EQ(a.is_allocated(p), b.is_allocated(p)) << "page " << p;
        ASSERT_EQ(a.accessed(p), b.accessed(p)) << "page " << p;
        ASSERT_EQ(a.has_trap(p), b.has_trap(p)) << "page " << p;
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

/**
 * Drives the scalar oracle, the batched machine, a third machine fed
 * through the sharded epoch pipeline with the serial merge (3 shards,
 * audit on), AND a fourth fed through the same pipeline with the
 * parallel per-lane merge, in lockstep over one fault scenario,
 * interleaving migrations, exchanges, trap arming, and accessed-bit
 * scans between intervals, and comparing complete state at every
 * interval boundary. The parallel engine's boundary merge runs right
 * before each drain, exactly as the engine loop orders it.
 */
void
run_lockstep_scenario(std::string_view scenario, std::uint64_t seed)
{
    TieredMachine scalar(small_machine());
    TieredMachine batched(small_machine());
    TieredMachine sharded(small_machine());
    TieredMachine parallel(small_machine());
    const FaultConfig faults = memsim::make_fault_scenario(scenario, 7);
    scalar.install_faults(faults);
    batched.install_faults(faults);
    sharded.install_faults(faults);
    parallel.install_faults(faults);
    ShardedAccessEngine shard_engine(
        sharded, {.shards = 3, .seed = seed, .audit = true});
    ShardedAccessEngine parallel_engine(parallel, {.shards = 3,
                                                   .seed = seed,
                                                   .audit = true,
                                                   .parallel_merge = true});

    // Re-entrant handler, as AutoNUMA-style policies install: promote
    // the faulting page on the spot. Inside access_batch() this forces
    // the local clock/counter flush-and-reload protocol (and flips the
    // sharded walk into its legacy tail).
    std::vector<TrapEvent> scalar_traps;
    std::vector<TrapEvent> batched_traps;
    std::vector<TrapEvent> sharded_traps;
    std::vector<TrapEvent> parallel_traps;
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
    sharded.set_fault_handler([&](PageId page, Tier tier) {
        sharded_traps.push_back({page, tier, sharded.now()});
        if (tier == Tier::kSlow)
            (void)sharded.migrate(page, Tier::kFast);
    });
    parallel.set_fault_handler([&](PageId page, Tier tier) {
        parallel_traps.push_back({page, tier, parallel.now()});
        if (tier == Tier::kSlow)
            (void)parallel.migrate(page, Tier::kFast);
    });

    // Small buffer so overflow drops are exercised too.
    const PebsSampler::Config sampler_cfg{.period = 7,
                                          .buffer_capacity = 1 << 8};
    PebsSampler scalar_sampler(sampler_cfg);
    PebsSampler batched_sampler(sampler_cfg);
    PebsSampler sharded_sampler(sampler_cfg);
    PebsSampler parallel_sampler(sampler_cfg);
    std::uint64_t scalar_suppressed = 0;
    std::uint64_t batched_suppressed = 0;
    std::uint64_t sharded_suppressed = 0;
    std::uint64_t parallel_suppressed = 0;

    Rng stream(seed);
    Rng ops(derive_seed(seed, 1));
    std::vector<PageId> batch;
    std::vector<PebsSample> scalar_drained;
    std::vector<PebsSample> batched_drained;
    std::vector<PebsSample> sharded_drained;
    std::vector<PebsSample> parallel_drained;

    for (int interval = 0; interval < 64; ++interval) {
        SCOPED_TRACE(testing::Message()
                     << "scenario=" << scenario << " seed=" << seed
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
                shard_engine.process_faulted(batch.data(), n,
                                             sharded_sampler,
                                             sharded_suppressed);
                parallel_engine.process_faulted(batch.data(), n,
                                                parallel_sampler,
                                                parallel_suppressed);
            } else {
                batched.access_batch(batch.data(), n, batched_sampler);
                shard_engine.process(batch.data(), n, sharded_sampler);
                parallel_engine.process(batch.data(), n,
                                        parallel_sampler);
            }
        }

        // Decision-interval work, applied identically to all machines.
        for (int i = 0; i < 8; ++i) {
            const auto page =
                static_cast<PageId>(ops.next_below(kPages));
            if (!scalar.is_allocated(page))
                continue;
            const Tier dst = scalar.tier_of(page) == Tier::kFast
                                 ? Tier::kSlow
                                 : Tier::kFast;
            const auto status = scalar.migrate(page, dst).status;
            EXPECT_EQ(status, batched.migrate(page, dst).status);
            EXPECT_EQ(status, sharded.migrate(page, dst).status);
            EXPECT_EQ(status, parallel.migrate(page, dst).status);
        }
        const auto a = static_cast<PageId>(ops.next_below(kPages));
        const auto b = static_cast<PageId>(ops.next_below(kPages));
        if (scalar.is_allocated(a) && scalar.is_allocated(b)) {
            EXPECT_EQ(scalar.exchange(a, b).status,
                      batched.exchange(a, b).status);
            (void)sharded.exchange(a, b);
            (void)parallel.exchange(a, b);
        }
        for (int i = 0; i < 16; ++i) {
            const auto page =
                static_cast<PageId>(ops.next_below(kPages));
            scalar.set_trap(page);
            batched.set_trap(page);
            sharded.set_trap(page);
            parallel.set_trap(page);
        }
        for (int i = 0; i < 16; ++i) {
            const auto page =
                static_cast<PageId>(ops.next_below(kPages));
            EXPECT_EQ(scalar.test_and_clear_accessed(page),
                      batched.test_and_clear_accessed(page));
            (void)sharded.test_and_clear_accessed(page);
            (void)parallel.test_and_clear_accessed(page);
        }

        // Full-state comparison at the interval boundary. The parallel
        // engine's per-lane sampler records flow into its ring only at
        // merge_boundary(), which the engine loop runs before every
        // drain — mirrored here.
        parallel_engine.merge_boundary(parallel_sampler);
        parallel_engine.splice_recency();
        scalar_drained.clear();
        batched_drained.clear();
        sharded_drained.clear();
        parallel_drained.clear();
        scalar_sampler.drain(scalar_drained, 1 << 12);
        batched_sampler.drain(batched_drained, 1 << 12);
        sharded_sampler.drain(sharded_drained, 1 << 12);
        parallel_sampler.drain(parallel_drained, 1 << 12);
        expect_samples_equal(scalar_drained, batched_drained);
        expect_samples_equal(scalar_drained, sharded_drained);
        expect_samples_equal(scalar_drained, parallel_drained);
        EXPECT_EQ(scalar_sampler.recorded(), batched_sampler.recorded());
        EXPECT_EQ(scalar_sampler.dropped(), batched_sampler.dropped());
        EXPECT_EQ(scalar_sampler.recorded(), sharded_sampler.recorded());
        EXPECT_EQ(scalar_sampler.dropped(), sharded_sampler.dropped());
        EXPECT_EQ(scalar_sampler.recorded(),
                  parallel_sampler.recorded());
        EXPECT_EQ(scalar_sampler.dropped(), parallel_sampler.dropped());
        EXPECT_EQ(scalar_suppressed, batched_suppressed);
        EXPECT_EQ(scalar_suppressed, sharded_suppressed);
        EXPECT_EQ(scalar_suppressed, parallel_suppressed);
        ASSERT_EQ(scalar_traps, batched_traps);
        ASSERT_EQ(scalar_traps, sharded_traps);
        ASSERT_EQ(scalar_traps, parallel_traps);
        expect_machines_equal(scalar, batched);
        expect_machines_equal(scalar, sharded);
        expect_machines_equal(scalar, parallel);
        if (interval % 4 == 3) {
            const auto window = scalar.take_window();
            expect_counters_equal(window, batched.take_window());
            expect_counters_equal(window, sharded.take_window());
            expect_counters_equal(window, parallel.take_window());
        }
        if (testing::Test::HasFailure())
            return;  // one divergence floods everything downstream
    }
    // The randomized phase-1 self-checks must actually have sampled
    // (audit is on and the run covers tens of thousands of accesses).
    EXPECT_GT(shard_engine.audited_accesses(), 0u);
    EXPECT_GT(parallel_engine.audited_accesses(), 0u);
    // Trap storms under a re-entrant handler must have exercised the
    // legacy-tail fallback at least once.
    EXPECT_GT(shard_engine.legacy_tails(), 0u);
    // The parallel engine must have taken both merge paths: parallel
    // folds on all-plain batches, serial fallbacks (and their legacy
    // tails) whenever an armed trap or injected fault made a batch
    // special.
    EXPECT_GT(parallel_engine.parallel_merges(), 0u);
    EXPECT_GT(parallel_engine.serial_merges(), 0u);
    EXPECT_EQ(shard_engine.parallel_merges(), 0u);
}

TEST(DiffModel, BatchMatchesScalarOracleAcrossFaultScenarios)
{
    for (const auto scenario : memsim::fault_scenario_names())
        for (const std::uint64_t seed : {3ull, 17ull})
            run_lockstep_scenario(scenario, seed);
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

    // Deque model of PebsSampler's counter + ring buffer.
    std::uint32_t period;
    std::uint32_t countdown;
    std::size_t buffer_cap;  // power of two, as RingBuffer rounds
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
          countdown(sc.period)
    {
        if (fc.any_enabled())
            inj = std::make_unique<FaultInjector>(
                fc, cfg.fast_capacity_pages());
        buffer_cap = 1;
        while (buffer_cap < sc.buffer_capacity)
            buffer_cap <<= 1;
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
run_naive_model_scenario(std::string_view scenario, std::uint64_t seed)
{
    const MachineConfig cfg = small_machine();
    const FaultConfig faults = memsim::make_fault_scenario(scenario, 11);
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
                     << "scenario=" << scenario << " seed=" << seed
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
        run_naive_model_scenario(scenario, 23);
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
    // directly.
    const struct {
        std::uint64_t n;
        double theta;
    } cases[] = {
        {100, 0.99}, {4096, 0.99}, {4096, 0.5}, {1u << 20, 0.9},
        // ycsb, ycsb_w, btree, cc, sssp, pr.
        {14745, 0.99}, {13107, 0.999}, {65536, 0.2}, {35328, 0.9},
        {11468, 0.55}, {12800, 0.75},
    };
    for (const auto& c : cases) {
        SCOPED_TRACE(testing::Message()
                     << "n=" << c.n << " theta=" << c.theta);
        ZipfianGenerator zipf(c.n, c.theta);
        Rng fast(91);
        Rng oracle(91);
        for (int i = 0; i < 2000000; ++i) {
            const double u = oracle.next_double();
            const std::uint64_t want = zipf.rank_of(u);
            const std::uint64_t got = zipf.next(fast);
            ASSERT_EQ(got, want) << "draw " << i << " u=" << u;
        }
        // The table was built partway through and served the rest.
        ASSERT_GT(zipf.table_ranks(), 0u);
    }
}

TEST(DiffModel, ZipfTableNotBuiltBeforeItsPriceIsPaid)
{
    // ycsb's shape: every draw is one the table would serve, so the
    // table appears on exactly the draw that pays its price.
    ZipfianGenerator zipf(14745, 0.99);
    ASSERT_GT(zipf.table_price(), 0u);
    Rng rng(7);
    for (std::uint64_t i = 0; i + 1 < zipf.table_price(); ++i)
        (void)zipf.next(rng);
    EXPECT_EQ(zipf.table_ranks(), 0u);
    (void)zipf.next(rng);
    EXPECT_EQ(zipf.table_ranks(), 14744u);
}

}  // namespace
}  // namespace artmem
