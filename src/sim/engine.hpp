/**
 * @file
 * The simulation engine: drives one workload against one policy on one
 * TieredMachine, reproducing the cadence of ArtMem's kernel threads —
 * PEBS records accumulate per access, the sampling thread drains them
 * every tick (ksampled, 2 ms in the paper), and the migration/decision
 * interval fires the policy's on_interval (kmigrated + RL step).
 *
 * Simulated time advances only through machine accesses and migration
 * charges, so the reported runtime is the workload's execution time on
 * the modelled hardware.
 */
#ifndef ARTMEM_SIM_ENGINE_HPP
#define ARTMEM_SIM_ENGINE_HPP

#include <memory>
#include <vector>

#include "memsim/pebs.hpp"
#include "memsim/tiered_machine.hpp"
#include "policies/policy.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads/generator.hpp"

namespace artmem::sim {

/** Engine cadence and instrumentation configuration. */
struct EngineConfig {
    /** Sampling-thread drain period (simulated ns). */
    SimTimeNs tick_interval = 1000000;  // 1 ms
    /** Migration/decision interval (simulated ns). */
    SimTimeNs decision_interval = 10000000;  // 10 ms
    /** PEBS configuration. The paper samples one in 200 accesses over
     *  billions of accesses; runs here execute ~10^7 accesses, so the
     *  default period is scaled to 20 to preserve per-page sample
     *  counts (see DESIGN.md, access-volume scaling). */
    memsim::PebsSampler::Config pebs{.period = 10,
                                     .buffer_capacity = 1 << 14};
    /** Accesses pulled from the generator per engine iteration. */
    std::size_t batch_size = 512;
    /** Record a per-interval timeline (Figures 12 and 17). */
    bool record_timeline = false;
    /**
     * Pre-allocate the workload footprint in address order before the
     * access stream starts (a program initializing its heap), so the
     * fast tier initially holds the low addresses rather than whichever
     * pages happen to be touched first.
     */
    bool prefault = true;
    /**
     * Fault model for the run (memsim/fault_injector.hpp). The default
     * disables every fault class, leaving the run bit-identical to one
     * without the fault layer.
     */
    memsim::FaultConfig faults;
    /**
     * Transactional-migration engine (memsim/tx_migration.hpp). Off by
     * default, which is a strict no-op: the machine never allocates the
     * transaction table and every run is bit-identical to one without
     * the engine compiled in. When enabled, the engine polls the
     * machine at every decision boundary so due transactions commit
     * before the policy reasons about residency, and routes each
     * resolution to Policy::on_tx_resolved().
     */
    memsim::TxConfig tx;
    /**
     * Audit simulator invariants (residency, LRU partition, EMA mass,
     * fault accounting, Q-table bounds; see verify/invariant_checker.hpp)
     * after every decision interval. Requires a build with
     * ARTMEM_CHECK_INVARIANTS=ON (the default); a violation throws
     * verify::InvariantViolation out of run_simulation().
     */
    bool check_invariants = false;
    /**
     * Telemetry switches (telemetry/telemetry.hpp). All off by default;
     * when any is on the engine creates a per-run Telemetry bundle,
     * attaches it to the machine, injector, and policy, and returns it
     * in RunResult::telemetry. Collection is strictly observational:
     * it never advances simulated time, draws randomness, or reorders
     * work, so an instrumented run is bit-identical to a bare one.
     */
    telemetry::TelemetryConfig telemetry;
};

/**
 * One decision interval's ground-truth observation. This is the
 * engine's per-interval telemetry record: the same struct feeds both
 * the RunResult timeline (Figures 12 and 17) and the kEngine
 * "decision" trace event, so the two outputs can never drift apart
 * (DESIGN.md §8).
 */
struct IntervalRecord {
    SimTimeNs end_time = 0;           ///< Simulated time at interval end.
    std::uint64_t accesses = 0;       ///< Accesses inside the interval.
    double fast_ratio = 1.0;          ///< Ground-truth fast-tier ratio.
    std::uint64_t promoted = 0;       ///< Pages promoted this interval.
    std::uint64_t demoted = 0;        ///< Pages demoted this interval.
    std::uint64_t exchanges = 0;      ///< Exchange migrations.
    std::uint64_t failed_migrations = 0;  ///< Injected-fault failures.
    bool sampling_blackout = false;   ///< PEBS blackout at interval end.
};

/**
 * One tenant's share of a multi-tenant run (DESIGN.md §13): the
 * engine's end-of-run snapshot of the machine's TenantLedger, so bench
 * harnesses and the CLI report per-tenant outcomes without reaching
 * into the (by then possibly destroyed) machine.
 */
struct TenantSummary {
    std::uint64_t accesses[memsim::kTierCount] = {0, 0};
    double fast_ratio = 1.0;
    std::uint64_t samples = 0;            ///< PEBS samples attributed.
    std::uint64_t promoted = 0;           ///< Includes exchange legs.
    std::uint64_t demoted = 0;            ///< Includes exchange legs.
    std::uint64_t quota_denied = 0;
    std::uint64_t admission_denied = 0;
    std::uint64_t admission_grants = 0;
    std::uint64_t over_quota_allocs = 0;
    std::size_t used_fast = 0;            ///< Fast pages held at exit.
    std::size_t quota = 0;                ///< Fast-tier quota (kNoQuota = none).
};

/** Aggregate outcome of one run. */
struct RunResult {
    SimTimeNs runtime_ns = 0;             ///< Total simulated runtime.
    std::uint64_t accesses = 0;           ///< Accesses executed.
    double fast_ratio = 1.0;              ///< Overall fast-tier ratio.
    memsim::TieredMachine::Counters totals;  ///< Machine counters.
    std::uint64_t pebs_recorded = 0;
    std::uint64_t pebs_dropped = 0;
    std::uint64_t pebs_suppressed = 0;    ///< Samples lost to injected faults.
    std::uint64_t invariant_audits = 0;   ///< Audits run (check_invariants).
    std::vector<IntervalRecord> timeline; ///< If record_timeline.
    /** Per-tenant outcomes; empty unless the run was multi-tenant. */
    std::vector<TenantSummary> tenants;
    /** The run's collectors (null unless EngineConfig::telemetry.any()). */
    std::shared_ptr<telemetry::Telemetry> telemetry;

    /** Runtime in seconds. */
    double seconds() const
    {
        return static_cast<double>(runtime_ns) * 1e-9;
    }

    /** Migrated volume in GiB for a given page size. */
    double
    migrated_gib(Bytes page_size) const
    {
        return static_cast<double>(totals.migrated_pages()) *
               static_cast<double>(page_size) / (1ull << 30);
    }
};

/**
 * Run @p gen to completion under @p policy on @p machine.
 * The machine must be freshly constructed (time 0) and sized to hold
 * the generator's footprint.
 */
RunResult run_simulation(workloads::AccessGenerator& gen,
                         policies::Policy& policy,
                         memsim::TieredMachine& machine,
                         const EngineConfig& config);

}  // namespace artmem::sim

#endif  // ARTMEM_SIM_ENGINE_HPP
