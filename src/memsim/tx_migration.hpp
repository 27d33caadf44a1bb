/**
 * @file
 * Transactional-migration configuration and engine state.
 *
 * The default migration engine completes every move atomically inside
 * the caller's decision tick — the well-behaved-machine assumption the
 * paper's evaluation makes. Real tiered systems (Nomad, OSDI'24) run
 * page migration as a copy-then-commit transaction: the copy occupies
 * an in-flight window, concurrent writes abort it, and a clean
 * committed page can stay non-exclusively resident in both tiers until
 * its old slot is reclaimed, making demotion of a still-clean page
 * free.
 *
 * TxConfig selects that transactional mode for TieredMachine; TxState
 * is the engine's runtime state (in-flight table, per-tier reclaim
 * queues, write-classification draw stream). With `enabled == false`
 * (the default) TieredMachine never allocates a TxState and the
 * transactional plumbing is a strict no-op: no draws, no flag bits, no
 * counters, bit-identical behaviour to a build without this file.
 *
 * Determinism: in-flight windows close at `open_time + migration_cost`
 * on the *simulated* clock, and write classification hashes a
 * monotonically increasing draw counter with the tx seed — the same
 * seed and call sequence always produce the same abort schedule.
 */
#ifndef ARTMEM_MEMSIM_TX_MIGRATION_HPP
#define ARTMEM_MEMSIM_TX_MIGRATION_HPP

#include <cstdint>
#include <deque>
#include <vector>

#include "memsim/tier.hpp"
#include "util/types.hpp"

namespace artmem::memsim {

/** Static configuration of the transactional migration engine. */
struct TxConfig {
    /** Master switch; false leaves the classic atomic engine in place. */
    bool enabled = false;
    /** Seed of the write-classification draw stream (independent of the
     *  workload seed and the fault-injector seed). */
    std::uint64_t seed = 1;
    /** Baseline probability that an access to an in-flight or
     *  dual-resident page is a write (abort storms raise it). */
    double write_ratio = 0.0;
    /** Maximum concurrently open transactions; opens beyond this are
     *  refused with MigrateStatus::kTxBusy. */
    std::size_t max_inflight = 64;

    /** fatal() on out-of-range rates or a zero in-flight table. */
    void validate() const;
};

/**
 * Runtime state of the transactional engine; owned by TieredMachine
 * (null when transactional mode is off). Internal to memsim — tests
 * and the invariant checker read it through TieredMachine accessors.
 */
struct TxState {
    enum class Kind : std::uint8_t { kMigrate, kExchange };

    /** One open transaction. */
    struct Entry {
        PageId page = 0;       ///< Migrating page / exchange page a.
        PageId peer = 0;       ///< Exchange page b (== page for migrates).
        Tier src = Tier::kFast;
        Tier dst = Tier::kSlow;
        SimTimeNs commit_time = 0;  ///< Sim time the copy finishes.
        SimTimeNs busy_ns = 0;      ///< Device time of the full copy.
        std::uint64_t seq = 0;      ///< Open order; commit tiebreaker.
        Kind kind = Kind::kMigrate;
    };

    /** A resolution queued for policy delivery at the next poll. */
    struct Resolved {
        PageId page = 0;
        Tier src = Tier::kFast;
        Tier dst = Tier::kSlow;
        bool committed = false;
    };

    explicit TxState(const TxConfig& c) : config(c) {}

    /**
     * Classify one access to a tx-flagged page as read or write: one
     * seeded draw against @p rate. Counted in write_draws/write_hits so
     * the invariant checker can reconcile aborts and dual-copy drops
     * against the draw stream.
     */
    bool draw_write(double rate);

    TxConfig config;
    /** Open transactions, unordered (commits sort by commit_time, seq). */
    std::vector<Entry> inflight;
    /** Per-tier FIFO of dual-resident pages whose secondary copy lives
     *  in that tier; entries go stale when the copy is dropped and are
     *  skipped on pop. */
    std::deque<PageId> reclaim_queue[kTierCount];
    /** Live dual-resident secondary copies per tier (== kDualBit census). */
    std::size_t reclaimable[kTierCount] = {0, 0};
    /** Resolutions awaiting delivery to the policy. */
    std::vector<Resolved> resolved;
    std::uint64_t next_seq = 0;
    /** Write-classification draws consumed (== the draw counter). */
    std::uint64_t write_draws = 0;
    /** Draws that classified the access as a write. Every hit is either
     *  an abort (in-flight page) or a dual-copy drop. */
    std::uint64_t write_hits = 0;
};

}  // namespace artmem::memsim

#endif  // ARTMEM_MEMSIM_TX_MIGRATION_HPP
