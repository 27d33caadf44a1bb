/**
 * @file
 * Deterministic fault injection for the tiered-memory substrate.
 *
 * The paper's evaluation assumes a well-behaved machine: every migration
 * with a free destination slot succeeds, PEBS never blacks out, and tier
 * latencies are constants. Real deployments violate all three — page
 * migration fails transiently (pinned pages, aborted transactional
 * copies; see Nomad, OSDI'24), Optane exhibits tail-latency spikes under
 * bandwidth hogs (ARMS), and PEBS loses samples in bursts. FaultInjector
 * models four fault classes on a seeded, fully deterministic schedule so
 * that resilience experiments are reproducible bit-for-bit:
 *
 *  (a) typed migration failures — permanently pinned pages, transient
 *      copy aborts, destination contention;
 *  (b) bounded tier-degradation windows — latency multiplied and
 *      bandwidth divided for one tier during periodic windows;
 *  (c) PEBS sampling blackouts and drop bursts — windows where no
 *      samples are recorded, plus an independent per-access drop rate;
 *  (d) external fast-tier capacity pressure — a co-tenant reserving a
 *      fraction of fast-tier page slots during periodic windows;
 *  (e) write storms — periodic windows in which accesses to pages the
 *      transactional migration engine has in flight (or dual-resident)
 *      are classified as writes with elevated probability, aborting
 *      transactions in bursts (only consulted when TxConfig::enabled).
 *
 * Determinism: windows derive purely from simulated time plus a
 * seed-derived phase offset, and per-event draws hash a monotonically
 * increasing draw counter with the seed — the same seed and the same
 * call sequence always produce the same fault schedule. A
 * default-constructed FaultConfig disables every class; TieredMachine
 * then never consults the injector, so the fault layer is a strict
 * no-op when off.
 */
#ifndef ARTMEM_MEMSIM_FAULT_INJECTOR_HPP
#define ARTMEM_MEMSIM_FAULT_INJECTOR_HPP

#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "memsim/tier.hpp"
#include "util/config.hpp"
#include "util/types.hpp"

namespace artmem::telemetry {
class MetricsRegistry;
class Telemetry;
class TraceSink;
}  // namespace artmem::telemetry

namespace artmem::memsim {

/** Static configuration of the four fault classes; defaults disable all. */
struct FaultConfig {
    /** Fault-schedule seed (independent of the workload seed). */
    std::uint64_t seed = 1;

    // --- (a) migration faults -------------------------------------------
    /** Fraction of pages that are permanently pinned (unmigratable). */
    double pinned_fraction = 0.0;
    /** Probability that an attempted migration aborts mid-copy. */
    double transient_rate = 0.0;
    /** Probability that the destination is transiently contended. */
    double contended_rate = 0.0;

    // --- (b) tier degradation windows -----------------------------------
    /** Tier whose device degrades during windows (0 fast, 1 slow). */
    int degrade_tier = 1;
    /** Load-latency multiplier while a degradation window is active. */
    double degrade_latency_factor = 1.0;
    /** Bandwidth divisor while a degradation window is active. */
    double degrade_bandwidth_factor = 1.0;
    /** Window period (simulated ns); 0 disables the class. */
    SimTimeNs degrade_period_ns = 0;
    /** Window length within each period. */
    SimTimeNs degrade_duration_ns = 0;

    // --- (c) PEBS blackouts and drop bursts ------------------------------
    /** Blackout period (simulated ns); 0 disables the class. */
    SimTimeNs blackout_period_ns = 0;
    /** Blackout length within each period (no samples recorded). */
    SimTimeNs blackout_duration_ns = 0;
    /** Independent per-access sample drop probability (drop bursts). */
    double sample_drop_rate = 0.0;

    // --- (d) fast-tier capacity pressure ---------------------------------
    /** Fraction of fast-tier slots a co-tenant grabs during windows. */
    double pressure_fraction = 0.0;
    /** Pressure period (simulated ns); 0 disables the class. */
    SimTimeNs pressure_period_ns = 0;
    /** Pressure window length within each period. */
    SimTimeNs pressure_duration_ns = 0;

    // --- (e) write storms (transactional migration aborts) ---------------
    /**
     * Write probability for accesses to in-flight / dual-resident pages
     * while a storm window is active. Only consulted by the
     * transactional migration engine (TxConfig::enabled); it raises the
     * engine's baseline write_ratio inside windows, aborting in-flight
     * transactions in bursts ("abort storm").
     */
    double write_storm_rate = 0.0;
    /** Storm period (simulated ns); 0 disables the class. */
    SimTimeNs write_storm_period_ns = 0;
    /** Storm window length within each period. */
    SimTimeNs write_storm_duration_ns = 0;

    /** True if any fault class is active. */
    bool any_enabled() const;

    /**
     * fatal() on out-of-range rates, factors (below 1 or above 1e6), or
     * windows, and on a window setting whose class has no period. A
     * non-empty @p source, the file the values came from, starts the
     * message.
     */
    void validate(std::string_view source = {}) const;
};

/**
 * Parse a FaultConfig from "fault.*" keys of a KvConfig. Any other key
 * fatal()s naming the file and the key; a missing key keeps the
 * field's default. Durations are given in milliseconds of simulated
 * time (e.g. "fault.blackout_period_ms = 50").
 */
FaultConfig parse_fault_config(const KvConfig& config);

/**
 * The injector's per-access answers at one simulated time, and the
 * first later time at which any of them can change; returned by
 * FaultInjector::view(). The answers hold for every time in
 * [query time, until).
 */
struct FaultView {
    /** Time that never comes: no window class can change an answer. */
    static constexpr SimTimeNs kNever = std::numeric_limits<SimTimeNs>::max();

    /** effective_latency() of each tier, indexed by Tier. */
    SimTimeNs latency[kTierCount] = {0, 0};
    /**
     * sample_suppressed() would return false without drawing, counting
     * or tracing, so the caller may skip the call.
     */
    bool sample_quiet = false;
    /**
     * The nearest degrade or blackout window edge after the query time,
     * or kNever when both classes are off. 0 (the default) makes a
     * caller that refreshes at `now >= until` ask at once.
     */
    SimTimeNs until = 0;
};

/** Names of the built-in fault scenarios (bench_fault_resilience). */
std::vector<std::string_view> fault_scenario_names();

/**
 * Build one of the named scenarios: "none", "migration", "degrade",
 * "blackout", "pressure", or "abort_storm". fatal() on unknown names.
 * "abort_storm" is not in fault_scenario_names() — it only has teeth
 * under --tx-migration, so the default bench sweeps skip it.
 */
FaultConfig make_fault_scenario(std::string_view name, std::uint64_t seed);

/** The deterministic fault model; owned by TieredMachine. */
class FaultInjector
{
  public:
    /**
     * @param config              Validated fault configuration.
     * @param fast_capacity_pages Fast-tier slot count (resolves
     *                            pressure_fraction into pages).
     */
    FaultInjector(const FaultConfig& config,
                  std::size_t fast_capacity_pages);

    /** Configuration in force. */
    const FaultConfig& config() const { return config_; }

    // --- (a) migration faults -------------------------------------------

    /** True if the page is permanently pinned (pure function of seed). */
    bool page_pinned(PageId page) const;

    /** Draw: does this migration abort mid-copy? Consumes one draw. */
    bool migration_transient_abort();

    /** Draw: is the destination contended? Consumes one draw. */
    bool migration_contended();

    // --- (b) tier degradation -------------------------------------------

    /** True while @p tier is inside a degradation window. */
    bool tier_degraded(Tier tier, SimTimeNs now) const;

    /** Effective load latency for the tier at @p now. */
    SimTimeNs effective_latency(Tier tier, SimTimeNs base,
                                SimTimeNs now) const;

    /** Bandwidth divisor for the tier at @p now (1.0 outside windows). */
    double bandwidth_penalty(Tier tier, SimTimeNs now) const;

    // --- (c) sampling faults --------------------------------------------

    /** True while a PEBS blackout window is active. */
    bool sampling_blackout(SimTimeNs now) const;

    /**
     * True if this access's sample must be suppressed: inside a
     * blackout window, or lost to the drop-burst rate (one draw).
     */
    bool sample_suppressed(SimTimeNs now);

    /**
     * The per-access answers at @p now in one call: each tier's
     * effective_latency() over @p base, whether sample_suppressed()
     * would be a no-op, and the next window edge at which either can
     * change. Window answers are pure functions of simulated time, so
     * a caller whose clock only moves forward may reuse the view until
     * its clock reaches FaultView::until (the faulted batch loop,
     * DESIGN.md §9). Consumes no draws.
     */
    FaultView view(const SimTimeNs (&base)[kTierCount], SimTimeNs now) const;

    // --- (d) capacity pressure ------------------------------------------

    /** Fast-tier slots held by the co-tenant at @p now. */
    std::size_t reserved_fast_pages(SimTimeNs now) const;

    // --- (e) write storms -------------------------------------------------

    /**
     * Write probability a storm imposes on tx-flagged pages at @p now:
     * write_storm_rate inside a window, 0 outside. Pure function of
     * simulated time — consumes no draws.
     */
    double tx_write_storm_rate(SimTimeNs now) const;

    /** Draws consumed so far (tests: schedule progress). */
    std::uint64_t draws() const { return draw_counter_; }

    // --- reconciliation bookkeeping (verify/invariant_checker) -----------

    /** Transient-abort draws that came up true. Every one must appear
     *  as a failed_transient in the machine's counters. */
    std::uint64_t transient_aborts() const { return transient_aborts_; }

    /** Contention draws that came up true (a lower bound on the
     *  machine's failed_contended: capacity pressure adds more). */
    std::uint64_t contended_hits() const { return contended_hits_; }

    /** Samples suppressed via sample_suppressed() (blackout or drop). */
    std::uint64_t suppressed_samples() const { return suppressed_samples_; }

    /**
     * Attach (or with nullptr detach) the run's telemetry: blackout
     * window transitions become kPebs trace events and drop-burst
     * suppressions a counter. Purely observational — the fault
     * schedule and draw sequence are unchanged.
     */
    void set_telemetry(telemetry::Telemetry* telemetry);

  private:
    /**
     * One periodic window class: open while (now + offset) % period <
     * duration, never while period is 0. The one place the window
     * arithmetic lives; all four window classes share it.
     */
    struct Window {
        SimTimeNs period = 0;
        SimTimeNs duration = 0;
        SimTimeNs offset = 0;  ///< Seed-derived phase, in [0, period).

        /** True while the window is open at @p now. */
        bool contains(SimTimeNs now) const;
        /** First time after @p now at which the window opens or
         *  closes; FaultView::kNever while period is 0. */
        SimTimeNs next_edge(SimTimeNs now) const;
    };

    double draw();

    FaultConfig config_;
    std::size_t pressure_pages_ = 0;
    Window degrade_;
    Window blackout_;
    Window pressure_;
    Window write_storm_;
    std::uint64_t draw_counter_ = 0;
    std::uint64_t transient_aborts_ = 0;
    std::uint64_t contended_hits_ = 0;
    std::uint64_t suppressed_samples_ = 0;
    telemetry::TraceSink* trace_pebs_ = nullptr;
    telemetry::MetricsRegistry* metrics_ = nullptr;
    std::size_t drop_counter_ = 0;
    bool in_blackout_ = false;  ///< Trace-only blackout edge detector.
};

}  // namespace artmem::memsim

#endif  // ARTMEM_MEMSIM_FAULT_INJECTOR_HPP
