/**
 * @file
 * The two-tier memory machine model.
 *
 * TieredMachine is the substrate every tiering policy in this repo runs
 * on. It substitutes for the paper's DRAM + Optane testbed: it tracks
 * page residency, charges each access the residing tier's load latency,
 * charges migrations a bandwidth-derived cost, and exposes the three
 * access-monitoring facilities real systems use (ArtMem Section 2.1):
 *
 *  - per-page accessed bits that can be scanned and cleared (page-table
 *    scanning, used by Nimble / Multi-clock / kernel LRU emulations),
 *  - software traps on selected pages that deliver a fault on the next
 *    access (NUMA hint faults, used by AutoNUMA / AutoTiering / TPP),
 *  - an externally driven sampling hook (PEBS, used by MEMTIS / ArtMem;
 *    see PebsSampler).
 *
 * Simulated time advances only through this class, so "execution time"
 * of a workload is machine.now() at the end of the run.
 */
#ifndef ARTMEM_MEMSIM_TIERED_MACHINE_HPP
#define ARTMEM_MEMSIM_TIERED_MACHINE_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "memsim/fault_injector.hpp"
#include "memsim/pebs.hpp"
#include "memsim/tenant_ledger.hpp"
#include "memsim/tier.hpp"
#include "memsim/tx_migration.hpp"
#include "util/types.hpp"

namespace artmem::memsim {

/**
 * Why a migration did not complete. kNotAllocated/kSameTier are caller
 * errors (the request was meaningless), kNoFreeSlot is a capacity
 * condition, kPagePinned/kCopyAborted/kDstContended are injected
 * faults (a permanently pinned page, a transient mid-copy abort, and
 * transient destination contention including co-tenant capacity
 * pressure), and the kTx* values belong to the transactional engine:
 * kTxOpened is not a failure at all (a transaction is now in flight
 * and will commit or abort later), kTxInFlight/kTxBusy are refusals
 * (the page already has an open transaction / the in-flight table is
 * full), and kTxAbort reports — via the resolution callback and
 * failure-backoff paths, never from migrate() itself — that a
 * concurrent write aborted an in-flight transaction. The two kDenied
 * values belong to the tenancy layer (memsim/tenant_ledger.hpp):
 * kQuotaDenied means the tenant's fast-tier quota is exhausted and
 * kAdmissionDenied means the admission controller refused the grant —
 * both are policy refusals, not injected faults, and consume no fault
 * draws.
 */
enum class MigrateStatus : std::uint8_t {
    kOk = 0,
    kNotAllocated,
    kSameTier,
    kNoFreeSlot,
    kPagePinned,
    kCopyAborted,
    kDstContended,
    kTxOpened,
    kTxInFlight,
    kTxBusy,
    kTxAbort,
    kQuotaDenied,
    kAdmissionDenied,
};

/** Printable status name. */
std::string_view migrate_status_name(MigrateStatus status);

/** Typed outcome of TieredMachine::migrate() / exchange(). */
struct MigrationResult {
    MigrateStatus status = MigrateStatus::kOk;

    /** The page(s) moved. */
    bool ok() const { return status == MigrateStatus::kOk; }

    /**
     * A transaction opened: the page is being copied in the background
     * and will commit or abort at a later poll. Not ok() — the move has
     * not happened yet — but not a failure either.
     */
    bool pending() const { return status == MigrateStatus::kTxOpened; }

    /**
     * The transactional engine refused the request outright: the page
     * already has an open transaction, or the in-flight table is full.
     * Retrying after the next decision boundary can succeed.
     */
    bool busy() const
    {
        return status == MigrateStatus::kTxInFlight ||
               status == MigrateStatus::kTxBusy;
    }

    /**
     * The failure is transient: retrying later (backoff) can succeed.
     * kNoFreeSlot counts as transient — capacity can be reclaimed —
     * and so do the transactional refusals, write aborts, and tenancy
     * denials (quotas free up as pages demote; admission budgets refill
     * at the next decision interval).
     */
    bool transient() const
    {
        return status == MigrateStatus::kNoFreeSlot ||
               status == MigrateStatus::kCopyAborted ||
               status == MigrateStatus::kDstContended ||
               status == MigrateStatus::kTxInFlight ||
               status == MigrateStatus::kTxBusy ||
               status == MigrateStatus::kTxAbort ||
               status == MigrateStatus::kQuotaDenied ||
               status == MigrateStatus::kAdmissionDenied;
    }

    /**
     * The tenancy layer refused the request (quota exhausted or
     * admission denied): no state changed and no fault draw was
     * consumed. Retrying next interval can succeed, but policies
     * should back off harder than for device-level transients — the
     * denial reflects standing resource policy, not bad luck.
     */
    bool denied() const
    {
        return status == MigrateStatus::kQuotaDenied ||
               status == MigrateStatus::kAdmissionDenied;
    }

    /** The page is permanently pinned; retries are futile. */
    bool pinned() const { return status == MigrateStatus::kPagePinned; }

    /** An injected fault (not a caller error or plain capacity miss). */
    bool faulted() const
    {
        return status == MigrateStatus::kPagePinned ||
               status == MigrateStatus::kCopyAborted ||
               status == MigrateStatus::kDstContended ||
               status == MigrateStatus::kTxAbort;
    }

    /** Contextual conversion preserves the old `if (migrate(...))` idiom. */
    explicit operator bool() const { return ok(); }
};

/** Static configuration of a TieredMachine. */
struct MachineConfig {
    /** Migration granule; the paper uses 2 MiB huge pages. */
    Bytes page_size = 2ull << 20;
    /** Device specs, indexed by Tier. Defaults are the paper's Table 2. */
    TierSpec tiers[kTierCount] = {
        TierSpec{92, 81.0, 64ull << 30},
        TierSpec{323, 26.0, 512ull << 30},
    };
    /** Size of the simulated virtual address space (the app footprint). */
    Bytes address_space = 32ull << 30;
    /** Cost of taking one NUMA-hint fault on the critical path (ns). */
    SimTimeNs hint_fault_cost_ns = 500;
    /**
     * Fraction of raw migration device time charged to application time.
     * Migrations run on a background thread but contend for memory
     * bandwidth; 1.0 = fully synchronous, 0.0 = free migrations.
     */
    double migration_contention = 0.25;
    /** Fixed per-page migration overhead: PTE updates, TLB shootdown (ns). */
    SimTimeNs migration_fixed_ns = 2000;

    /** Total page slots in the fast tier. */
    std::size_t fast_capacity_pages() const
    {
        return static_cast<std::size_t>(tiers[0].capacity / page_size);
    }
    /** Total page slots in the slow tier. */
    std::size_t slow_capacity_pages() const
    {
        return static_cast<std::size_t>(tiers[1].capacity / page_size);
    }
};

/**
 * Two-tier machine: page residency, access timing, migration engine,
 * accessed bits, and hint-fault traps.
 */
class TieredMachine
{
  public:
    /** Called when a trapped page is accessed: (page, tier it resides in). */
    using FaultHandler = std::function<void(PageId, Tier)>;

    /** Build a machine; fatal() on inconsistent configuration. */
    explicit TieredMachine(const MachineConfig& config);

    /**
     * Perform one memory access to @p page.
     *
     * First touch allocates the page (fast tier first, overflowing to the
     * slow tier, as in the paper's evaluation setup). Advances simulated
     * time by the tier's load latency, sets the accessed bit, and fires
     * the fault handler if the page was trapped.
     *
     * @return the tier the access was served from.
     */
    Tier access(PageId page);

    /**
     * Perform @p n accesses through one fused dispatch loop, feeding
     * each one to @p sampler (the engine's per-access sequence). Under
     * an installed fault injector the latencies stay the base ones and
     * no sample is suppressed; first-touch placement and the tx engine
     * still read its pressure and write-storm windows.
     *
     * Semantically exactly n calls to access() + PebsSampler::observe()
     * at the base latencies. Runs of plain accesses settle the clock,
     * the per-tier access counters and the sampler's countdown once per
     * run; a first touch, a tx-flagged page or an armed trap takes the
     * one-access path on the member clock. So every timestamp that
     * allocate(), the tx engine, a trap handler or the sampler sees is
     * bit-identical to the scalar loop's. tests/test_diff_model.cpp
     * drives both paths in lockstep to enforce this.
     */
    void access_batch(const PageId* pages, std::size_t n,
                      PebsSampler& sampler);

    /**
     * access_batch() with the engine's fault-aware sampling sequence:
     * per access, latency is the injector's effective latency, and the
     * sample is dropped (counted in @p pebs_suppressed) when the
     * injector suppresses it — same call order as the scalar loop,
     * so the injector's draw stream is unchanged. A run ends before its
     * clock could reach the next degrade or blackout edge. Requires an
     * installed fault injector.
     */
    void access_batch_faulted(const PageId* pages, std::size_t n,
                              PebsSampler& sampler,
                              std::uint64_t& pebs_suppressed);

    /**
     * Allocate pages [first, first+count) in address order without
     * charging access time (a program initializing its heap at startup:
     * fast tier fills first, then overflows to the slow tier).
     */
    void prefault_range(PageId first, std::size_t count);

    /** Current simulated time (ns). */
    SimTimeNs now() const { return now_; }

    /** Advance simulated time without memory traffic (compute phases). */
    void advance(SimTimeNs delta) { now_ += delta; }

    /**
     * Charge policy bookkeeping time (page-table scans, LRU passes,
     * Q-table math). Advances the clock like advance() but is also
     * accounted separately so per-policy CPU overhead can be compared
     * (Section 6.3.3: MEMTIS's migration threads cost ~10x ArtMem's).
     */
    void
    charge_overhead(SimTimeNs delta)
    {
        now_ += delta;
        totals_.overhead_ns += delta;
    }

    /** Number of pages in the virtual address space. */
    std::size_t page_count() const { return flags_.size(); }

    /** Page size in bytes. */
    Bytes page_size() const { return config_.page_size; }

    /** Immutable configuration. */
    const MachineConfig& config() const { return config_; }

    /** Page slots the tier can hold. */
    std::size_t capacity_pages(Tier t) const
    {
        return capacity_[static_cast<int>(t)];
    }

    /** Pages currently resident in the tier. */
    std::size_t used_pages(Tier t) const
    {
        return used_[static_cast<int>(t)];
    }

    /**
     * Free page slots in the tier, net of any slots the injected
     * co-tenant is holding (capacity-pressure fault class). In
     * transactional mode, dual-resident secondary copies count as free:
     * their slots are reclaimed on demand when a migration or
     * allocation needs them.
     */
    std::size_t free_pages(Tier t) const
    {
        std::size_t taken = used_pages(t) + reserved_pages(t);
        if (tx_ != nullptr) {
            const std::size_t r = tx_->reclaimable[static_cast<int>(t)];
            taken -= r < taken ? r : taken;
        }
        const std::size_t cap = capacity_pages(t);
        return cap > taken ? cap - taken : 0;
    }

    /** True once the page has been touched. */
    bool is_allocated(PageId page) const
    {
        return (flags_[page] & kAllocatedBit) != 0;
    }

    /** Residency of an allocated page; panic() on unallocated pages. */
    Tier tier_of(PageId page) const;

    /**
     * Residency without the allocation check, for hot loops whose pages
     * are allocated by construction (e.g. pages that arrived in a PEBS
     * sample were necessarily accessed). Unallocated pages read as
     * kFast; callers that cannot prove allocation must use tier_of().
     */
    Tier tier_of_unchecked(PageId page) const
    {
        return (flags_[page] & kTierBit) != 0 ? Tier::kSlow : Tier::kFast;
    }

    /**
     * Move an allocated page to @p dst, charging migration cost on
     * success (and a partial abort cost on injected mid-copy aborts).
     * In transactional mode (install_tx) a successful request instead
     * opens an in-flight transaction (kTxOpened) that commits at a
     * later poll_tx(), or adopts an existing clean dual copy for free
     * (kOk with zero cost).
     * @return typed result; not-ok (no state change) if the page is
     *         unallocated, already in @p dst, @p dst has no free slot,
     *         or an injected fault fired. Discarding the result hides
     *         migration failures from the caller — hence nodiscard.
     */
    [[nodiscard]] MigrationResult migrate(PageId page, Tier dst);

    /**
     * Swap the tiers of two pages resident in different tiers (the
     * exchange migration AutoTiering uses when the fast tier is full).
     * In transactional mode a successful request opens one in-flight
     * transaction covering the pair (kTxOpened).
     * @return typed result; not-ok if the precondition does not hold or
     *         an injected fault fired.
     */
    [[nodiscard]] MigrationResult exchange(PageId a, PageId b);

    /**
     * Install the fault model for this run (engine: EngineConfig::faults).
     * A config with no enabled class leaves the machine fault-free, with
     * zero overhead and bit-identical behaviour to a build without the
     * fault layer.
     */
    void install_faults(const FaultConfig& config);

    /** True once an enabled fault model is installed. */
    bool faults_enabled() const { return faults_ != nullptr; }

    /** The installed fault model, or nullptr when fault-free. */
    FaultInjector* fault_injector() { return faults_.get(); }

    /** Read-only fault model access. */
    const FaultInjector* fault_injector() const { return faults_.get(); }

    /**
     * Fast-tier slots currently held by the injected co-tenant: the
     * fault injector's pure window function (pressure class).
     */
    std::size_t reserved_pages(Tier t) const
    {
        if (t != Tier::kFast || faults_ == nullptr)
            return 0;
        return faults_->reserved_fast_pages(now_);
    }

    // --- multi-tenant serving (DESIGN.md §13) ---------------------------

    /**
     * Install (or with nullptr remove) the per-tenant ledger. The
     * ledger's page map must cover this machine's address space
     * exactly. Uninstalled — the default — is a strict no-op: no
     * per-access attribution, no quota or admission checks, and
     * bit-identical behaviour to a build without the tenancy layer.
     */
    void install_tenants(std::unique_ptr<TenantLedger> ledger);

    /** True once a tenant ledger is installed. */
    bool tenants_enabled() const { return tenants_ != nullptr; }

    /** The installed ledger, or nullptr on a single-tenant machine. */
    TenantLedger* tenants() { return tenants_.get(); }

    /** Read-only ledger access. */
    const TenantLedger* tenants() const { return tenants_.get(); }

    // --- transactional migration engine ---------------------------------

    /** Called when an in-flight transaction resolves:
     *  (page, src, dst, committed). Delivered from poll_tx(). */
    using TxResolveHandler = std::function<void(PageId, Tier, Tier, bool)>;

    /**
     * Install (or with enabled=false remove) the transactional
     * migration engine. Off — the default — is a strict no-op: no
     * draws, no extra flag bits, bit-identical to the atomic engine.
     */
    void install_tx(const TxConfig& config);

    /** True once transactional mode is installed. */
    bool tx_enabled() const { return tx_ != nullptr; }

    /** Install the resolution callback (one at a time). */
    void set_tx_handler(TxResolveHandler handler)
    {
        tx_handler_ = std::move(handler);
    }

    /**
     * Resolve every transaction whose in-flight window has closed
     * (commit_time <= now()), in deterministic (commit_time, open
     * order) order, then deliver all queued resolutions — aborts in
     * occurrence order followed by these commits — to the handler.
     * The engine calls this at every decision boundary.
     * @return transactions committed by this poll.
     */
    std::size_t poll_tx();

    /** Open transactions right now. */
    std::size_t tx_inflight_count() const
    {
        return tx_ != nullptr ? tx_->inflight.size() : 0;
    }

    /** Dual-resident secondary copies currently charged to the tier. */
    std::size_t tx_reclaimable_pages(Tier t) const
    {
        return tx_ != nullptr ? tx_->reclaimable[static_cast<int>(t)] : 0;
    }

    /** Write-classification draws consumed so far. */
    std::uint64_t tx_write_draws() const
    {
        return tx_ != nullptr ? tx_->write_draws : 0;
    }

    /** Draws that classified an access as a write. */
    std::uint64_t tx_write_hits() const
    {
        return tx_ != nullptr ? tx_->write_hits : 0;
    }

    /** True while the page has an open transaction. */
    bool tx_page_inflight(PageId page) const
    {
        return (flags_[page] & kInFlightBit) != 0;
    }

    /** True while the page is non-exclusively resident in both tiers. */
    bool tx_page_dual(PageId page) const
    {
        return (flags_[page] & kDualBit) != 0;
    }

    /**
     * True while the page's open transaction holds a shadow copy that
     * charges destination capacity (migrate transactions; exchange
     * transactions copy through a bounce buffer and charge nothing).
     */
    bool tx_page_shadow(PageId page) const
    {
        return (flags_[page] & (kInFlightBit | kTxExchangeBit)) ==
               kInFlightBit;
    }

    /**
     * Attach (or with nullptr detach) the run's telemetry bundle:
     * migrations and exchanges become kMigration trace events and a
     * cost histogram, and the injector (if installed) gains its kPebs
     * instrumentation. Observational only — no time charges, counters,
     * or fault draws change, so instrumented runs stay bit-identical.
     */
    void set_telemetry(telemetry::Telemetry* telemetry);

    /**
     * Bulk sequential transfer of @p length bytes from the tier, charged
     * at the tier's bandwidth (used by the MLC-style Table 2 microbench;
     * regular workload accesses go through access()).
     * @return the time charged.
     */
    SimTimeNs stream(Tier tier, Bytes length);

    /** Read and clear the page's accessed bit. */
    bool test_and_clear_accessed(PageId page);

    /** Read the accessed bit without clearing. */
    bool accessed(PageId page) const
    {
        return (flags_[page] & kAccessedBit) != 0;
    }

    /** Arm a hint-fault trap: next access faults (and clears the trap). */
    void set_trap(PageId page) { flags_[page] |= kTrapBit; }

    /** True if a trap is armed on the page. */
    bool has_trap(PageId page) const
    {
        return (flags_[page] & kTrapBit) != 0;
    }

    /** Install the hint-fault callback (one at a time). */
    void set_fault_handler(FaultHandler handler)
    {
        fault_handler_ = std::move(handler);
    }

    /** Monotonic counters. */
    struct Counters {
        std::uint64_t accesses[kTierCount] = {0, 0};
        std::uint64_t hint_faults = 0;
        std::uint64_t promoted_pages = 0;
        std::uint64_t demoted_pages = 0;
        std::uint64_t exchanges = 0;
        /** Raw device time spent copying pages, before contention scaling. */
        SimTimeNs migration_busy_ns = 0;
        /** Policy bookkeeping time charged via charge_overhead(). */
        SimTimeNs overhead_ns = 0;
        /** Migrations refused: destination had no free slot. */
        std::uint64_t failed_no_slot = 0;
        /** Migrations refused: page permanently pinned (injected). */
        std::uint64_t failed_pinned = 0;
        /** Migrations aborted mid-copy (injected transient). */
        std::uint64_t failed_transient = 0;
        /** Migrations refused: destination contended (injected). */
        std::uint64_t failed_contended = 0;
        /** Device time wasted on aborted copies (injected faults only). */
        SimTimeNs aborted_migration_ns = 0;
        /** Transactions opened (migrates and exchanges). */
        std::uint64_t tx_opened = 0;
        /** Transactions committed at a poll. */
        std::uint64_t tx_committed = 0;
        /** Transactions aborted by a concurrent write. */
        std::uint64_t tx_aborted = 0;
        /** Opens that retried a previously aborted page. */
        std::uint64_t tx_retries = 0;
        /** Free migrations: a clean dual copy was adopted in place. */
        std::uint64_t tx_free_flips = 0;
        /** Dual-resident copies invalidated by a write. */
        std::uint64_t tx_dual_drops = 0;
        /** Dual-resident copies reclaimed for capacity. */
        std::uint64_t tx_dual_reclaims = 0;
        /** Requests refused: page already in flight / table full. */
        std::uint64_t failed_tx_busy = 0;
        /** Migrations refused: tenant fast-tier quota exhausted. */
        std::uint64_t failed_quota = 0;
        /** Migrations refused: admission controller denied the grant. */
        std::uint64_t failed_admission = 0;

        /** Total accesses across tiers. */
        std::uint64_t total_accesses() const
        {
            return accesses[0] + accesses[1];
        }
        /** Fraction of accesses served by the fast tier (1.0 if idle). */
        double fast_ratio() const
        {
            const std::uint64_t total = total_accesses();
            return total == 0
                ? 1.0
                : static_cast<double>(accesses[0]) / static_cast<double>(total);
        }
        /** Pages moved in either direction. */
        std::uint64_t migrated_pages() const
        {
            return promoted_pages + demoted_pages + 2 * exchanges;
        }
        /** Migration attempts that did not move a page. */
        std::uint64_t migration_failures() const
        {
            return failed_no_slot + failed_pinned + failed_transient +
                   failed_contended + tx_aborted + failed_tx_busy +
                   failed_quota + failed_admission;
        }
        /** Field-wise difference: what accrued since the @p base
         *  snapshot of the same monotonic counters. */
        Counters operator-(const Counters& base) const;
    };

    /** Counters since construction. */
    const Counters& totals() const { return totals_; }

    /**
     * Counters since the previous take_window() call: totals() minus
     * the snapshot the previous call took, which then rolls forward.
     */
    Counters take_window();

  private:
    /** Test-only back door: seeds deliberate state corruption so the
     *  invariant checker's detection paths can be exercised
     *  (tests/test_verify.cpp). Never defined in the library. */
    friend struct MachineTestPeer;

    static constexpr std::uint8_t kTierBit = 0x1;       // 0 fast, 1 slow
    static constexpr std::uint8_t kAllocatedBit = 0x2;
    static constexpr std::uint8_t kAccessedBit = 0x4;
    static constexpr std::uint8_t kTrapBit = 0x8;
    // Transactional-engine bits; never set while tx mode is off.
    static constexpr std::uint8_t kInFlightBit = 0x10;   // open transaction
    static constexpr std::uint8_t kDualBit = 0x20;       // dual-resident
    static constexpr std::uint8_t kTxAbortedBit = 0x40;  // last tx aborted
    static constexpr std::uint8_t kTxExchangeBit = 0x80; // tx is an exchange
    /** Access-path filter: only these bits need per-access tx work. */
    static constexpr std::uint8_t kTxAccessMask = kInFlightBit | kDualBit;
    /** Bits that end a batch loop run, tested as `(f ^ kAllocatedBit) &
     *  kRunStopMask`: a first touch, a tx-flagged page or an armed trap. */
    static constexpr std::uint8_t kRunStopMask =
        kAllocatedBit | kTxAccessMask | kTrapBit;

    void allocate(PageId page);

    /**
     * The loop behind access_batch() (@p pebs_suppressed null: the
     * injector is ignored) and access_batch_faulted(). It alternates
     * runs of plain accesses, whose clock is settled once per run as
     * fast * latency[0] + slow * latency[1] (or, under a blackout or a
     * drop rate, kept in a local for the per-access suppression call),
     * with access_one() for the access that ended the run.
     */
    void batch_loop(const PageId* pages, std::size_t n,
                    PebsSampler& sampler, std::uint64_t* pebs_suppressed);
    /** Accesses, at most @p left, that a run under @p view may take
     *  before its clock could reach the view's next edge. */
    std::size_t run_length(const FaultView& view, std::size_t left) const;
    /** One access + sample in the scalar sequence on the member clock,
     *  asking the injector for a new @p view at an edge. */
    void access_one(PageId page, PebsSampler& sampler, FaultView& view,
                    std::uint64_t* pebs_suppressed);
    SimTimeNs migration_cost(Tier src, Tier dst) const;
    void account_migration(Tier src, Tier dst);
    /** Count and trace a refused or aborted migration; returns
     *  {status} so refusal paths can return it directly. */
    MigrationResult record_failure(MigrateStatus status, PageId page);
    void charge_aborted_copy(Tier src, Tier dst);
    MigrationResult tx_migrate(PageId page, Tier src, Tier dst);
    MigrationResult tx_exchange(PageId a, PageId b, Tier ta, Tier tb);
    MigrationResult tx_free_flip(PageId page, Tier src, Tier dst);
    bool tx_reclaim_slot(Tier tier);
    void tx_reclaim_page(PageId page);
    /** Per-access tx hook for flagged pages; returns the application
     *  time to charge (abort contention) for the caller to add. */
    SimTimeNs tx_on_access(PageId page, SimTimeNs now);
    SimTimeNs tx_abort_page(PageId page, SimTimeNs now);
    void tx_drop_secondary(PageId page, SimTimeNs now);
    void tx_commit_entry(const TxState::Entry& entry);

    /**
     * Shared "free slot exists but is reserved" test: the one place the
     * co-tenant hold is compared against capacity (both the atomic and
     * the transactional migrate paths branch here; DESIGN.md §13).
     */
    bool
    reserved_contended(Tier dst) const
    {
        return reserved_pages(dst) > 0 && free_pages(dst) == 0;
    }

    /** Tenancy gate for migrate()/tx_migrate(); kOk when no ledger. */
    MigrateStatus tenant_check_migration(PageId page, Tier dst,
                                         bool charges_dst);
    /** Tenancy gate for exchange()/tx_exchange(): @p ta is @p a's
     *  current tier, identifying which page is being promoted. */
    MigrateStatus tenant_check_exchange(PageId a, PageId b, Tier ta);

    MachineConfig config_;
    std::vector<std::uint8_t> flags_;
    std::size_t capacity_[kTierCount];
    std::size_t used_[kTierCount] = {0, 0};
    SimTimeNs now_ = 0;
    SimTimeNs latency_[kTierCount];
    Counters totals_;
    Counters window_base_;  ///< totals_ at the last take_window().
    FaultHandler fault_handler_;
    /** Null when fault-free (the default): zero-overhead fast path. */
    std::unique_ptr<FaultInjector> faults_;
    /** Null when transactional mode is off (the default). */
    std::unique_ptr<TxState> tx_;
    TxResolveHandler tx_handler_;
    /** Null on a single-tenant machine (the default). */
    std::unique_ptr<TenantLedger> tenants_;
    /** Telemetry attachments; all null when telemetry is off. */
    telemetry::Telemetry* telemetry_ = nullptr;
    telemetry::TraceSink* trace_migration_ = nullptr;
    telemetry::MetricsRegistry* metrics_ = nullptr;
    std::size_t hist_migration_cost_ = 0;
};

}  // namespace artmem::memsim

#endif  // ARTMEM_MEMSIM_TIERED_MACHINE_HPP
