#include "sim/engine.hpp"

#include "util/logging.hpp"
#include "verify/invariant_checker.hpp"

namespace artmem::sim {

RunResult
run_simulation(workloads::AccessGenerator& gen, policies::Policy& policy,
               memsim::TieredMachine& machine, const EngineConfig& config)
{
    if (machine.now() != 0)
        fatal("run_simulation: machine must be freshly constructed");
    const Bytes needed = gen.footprint();
    if (machine.page_count() * machine.page_size() < needed)
        fatal("run_simulation: machine address space smaller than the ",
              "workload footprint");

    if (config.prefault) {
        machine.prefault_range(
            0, static_cast<std::size_t>(
                   (needed + machine.page_size() - 1) / machine.page_size()));
    }
    machine.install_faults(config.faults);
    memsim::FaultInjector* faults = machine.fault_injector();
    machine.install_tx(config.tx);

    // Per-run telemetry bundle; every cached pointer below stays null
    // when the corresponding collector is off, so instrumentation
    // sites reduce to one branch on a null pointer.
    std::shared_ptr<telemetry::Telemetry> telem;
    telemetry::TraceSink* trace_engine = nullptr;
    telemetry::TraceSink* sink = nullptr;
    telemetry::MetricsRegistry* metrics = nullptr;
    telemetry::PhaseProfiler* profiler = nullptr;
    if (config.telemetry.any()) {
        telem = std::make_shared<telemetry::Telemetry>(config.telemetry);
        machine.set_telemetry(telem.get());
        policy.set_telemetry(telem.get());
        trace_engine = telem->trace(telemetry::Category::kEngine);
        sink = telem->sink();
        metrics = telem->metrics();
        profiler = telem->profiler();
    }
    telemetry::MetricsRegistry::Id ctr_ticks = 0;
    telemetry::MetricsRegistry::Id ctr_decisions = 0;
    telemetry::MetricsRegistry::Id ctr_drained = 0;
    telemetry::MetricsRegistry::Id hist_drain = 0;
    telemetry::MetricsRegistry::Id gauge_fast = 0;
    if (metrics != nullptr) {
        ctr_ticks = metrics->counter("engine.ticks");
        ctr_decisions = metrics->counter("engine.decisions");
        ctr_drained = metrics->counter("pebs.drained");
        hist_drain = metrics->histogram(
            "pebs.drain_batch", {0.0, 64.0, 256.0, 1024.0, 4096.0});
        gauge_fast = metrics->gauge("engine.fast_ratio");
    }

    policy.init(machine);
    if (machine.tx_enabled()) {
        machine.set_tx_handler([&policy](PageId page, memsim::Tier src,
                                         memsim::Tier dst, bool committed) {
            policy.on_tx_resolved(page, src, dst, committed);
        });
    }
    memsim::PebsSampler sampler(config.pebs);
    std::uint64_t pebs_suppressed = 0;

    verify::InvariantChecker checker;

    std::vector<PageId> batch(config.batch_size);
    std::vector<memsim::PebsSample> drained;
    drained.reserve(4096);

    SimTimeNs next_tick = config.tick_interval;
    SimTimeNs next_decision = config.decision_interval;

    RunResult result;
    IntervalRecord interval;
    std::uint64_t interval_start_accesses = 0;

    auto flush_tick = [&]() {
        telemetry::PhaseTimer timer(profiler, telemetry::Phase::kTick);
        if (sink != nullptr)
            sink->set_sim_time(machine.now());
        const SimTimeNs tick_start = machine.now();
        drained.clear();
        sampler.drain(drained, static_cast<std::size_t>(-1));
        if (!drained.empty()) {
            // Per-tenant PEBS attribution rides the same drain the
            // policy sees, so a tenant's sample count is exactly its
            // share of the policy's evidence (DESIGN.md §13).
            if (auto* ledger = machine.tenants(); ledger != nullptr) {
                for (const auto& sample : drained)
                    ledger->note_sample(sample.page);
            }
            policy.on_samples(drained);
        }
        policy.on_tick(machine.now());
        if (metrics != nullptr) {
            metrics->add(ctr_ticks);
            metrics->add(ctr_drained, drained.size());
            metrics->observe(hist_drain,
                             static_cast<double>(drained.size()));
        }
        if (trace_engine != nullptr) {
            trace_engine->complete(
                telemetry::Category::kEngine, "tick", tick_start,
                machine.now() - tick_start,
                telemetry::Args()
                    .add("drained",
                         static_cast<std::uint64_t>(drained.size()))
                    .str());
        }
    };

    auto flush_decision = [&]() {
        if (sink != nullptr)
            sink->set_sim_time(machine.now());
        const SimTimeNs decision_start = machine.now();
        // Commit due transactions (and deliver their resolutions) before
        // the policy reasons about residency; a no-op when tx is off.
        machine.poll_tx();
        {
            telemetry::PhaseTimer timer(profiler,
                                        telemetry::Phase::kDecision);
            policy.on_interval(machine.now());
        }
        // Feed the closing decision window to the admission controller
        // and roll the ledger's per-tenant snapshot in the same breath
        // as the machine window, so both observe identical boundaries.
        if (auto* ledger = machine.tenants(); ledger != nullptr)
            ledger->interval_feedback();
        const auto window = machine.take_window();
        // One IntervalRecord per interval, consumed by both the
        // timeline (Figures 12/17) and the kEngine "decision" trace
        // event — a single observation, two serializations.
        interval.end_time = machine.now();
        interval.accesses = result.accesses - interval_start_accesses;
        interval.fast_ratio = window.fast_ratio();
        interval.promoted = window.promoted_pages;
        interval.demoted = window.demoted_pages;
        interval.exchanges = window.exchanges;
        interval.failed_migrations = window.migration_failures();
        interval.sampling_blackout =
            faults != nullptr && faults->sampling_blackout(machine.now());
        if (config.record_timeline)
            result.timeline.push_back(interval);
        if (metrics != nullptr) {
            metrics->add(ctr_decisions);
            metrics->set(gauge_fast, interval.fast_ratio);
        }
        if (trace_engine != nullptr) {
            trace_engine->complete(
                telemetry::Category::kEngine, "decision", decision_start,
                machine.now() - decision_start,
                telemetry::Args()
                    .add("accesses", interval.accesses)
                    .add("fast_ratio", interval.fast_ratio)
                    .add("promoted", interval.promoted)
                    .add("demoted", interval.demoted)
                    .add("exchanges", interval.exchanges)
                    .add("failed", interval.failed_migrations)
                    .add("blackout",
                         interval.sampling_blackout ? "yes" : "no")
                    .str());
        }
        interval_start_accesses = result.accesses;
        if (config.check_invariants) {
            telemetry::PhaseTimer audit_timer(profiler,
                                              telemetry::Phase::kAudit);
            if (checker.audit(machine, policy, pebs_suppressed) == 0)
                warn("run_simulation: invariant audit examined no state");
            result.invariant_audits = checker.audits();
        }
    };

    while (true) {
        std::size_t n = 0;
        {
            telemetry::PhaseTimer timer(profiler,
                                        telemetry::Phase::kGenerate);
            n = gen.fill(batch);
        }
        if (n == 0)
            break;
        {
            telemetry::PhaseTimer timer(profiler,
                                        telemetry::Phase::kAccess);
            // One fused dispatch loop per batch; semantically identical
            // to per-access access() + observe() calls (the scalar
            // sequence lives on as the oracle in tests/test_diff_model).
            if (faults == nullptr) {
                machine.access_batch(batch.data(), n, sampler);
            } else {
                machine.access_batch_faulted(batch.data(), n, sampler,
                                             pebs_suppressed);
            }
        }
        result.accesses += n;
        // Periodic threads sleep relative to when they finish their
        // work: if a pass itself advanced simulated time past several
        // periods (e.g. a heavy migration burst), the next pass still
        // happens one period later, it does not "catch up". This also
        // guarantees engine progress when a policy migrates aggressively.
        if (machine.now() >= next_tick) {
            flush_tick();
            next_tick = machine.now() + config.tick_interval;
        }
        if (machine.now() >= next_decision) {
            flush_decision();
            next_decision = machine.now() + config.decision_interval;
        }
    }

    // Final partial tick/interval so trailing work is accounted.
    flush_tick();
    flush_decision();

    result.runtime_ns = machine.now();
    result.totals = machine.totals();
    result.fast_ratio = result.totals.fast_ratio();
    result.pebs_recorded = sampler.recorded();
    result.pebs_dropped = sampler.dropped();
    result.pebs_suppressed = pebs_suppressed;

    if (const auto* ledger = machine.tenants(); ledger != nullptr) {
        result.tenants.resize(ledger->tenant_count());
        for (std::uint32_t t = 0; t < ledger->tenant_count(); ++t) {
            const auto& totals = ledger->totals(t);
            TenantSummary& summary = result.tenants[t];
            summary.accesses[0] = totals.accesses[0];
            summary.accesses[1] = totals.accesses[1];
            summary.fast_ratio = totals.fast_ratio();
            summary.samples = totals.samples;
            summary.promoted = totals.promoted_pages;
            summary.demoted = totals.demoted_pages;
            summary.quota_denied = totals.quota_denied;
            summary.admission_denied = totals.admission_denied;
            summary.admission_grants = totals.admission_grants;
            summary.over_quota_allocs = totals.over_quota_allocs;
            summary.used_fast = ledger->used_pages(t, memsim::Tier::kFast);
            summary.quota = ledger->quota(t);
        }
    }

    if (metrics != nullptr) {
        // Mirror the run's aggregate counters into the registry so a
        // metrics file is self-contained (registration order fixes the
        // emission order).
        const auto mirror = [&](std::string_view mname,
                                std::uint64_t value) {
            metrics->add(metrics->counter(mname), value);
        };
        mirror("engine.accesses", result.accesses);
        mirror("engine.runtime_ns", result.runtime_ns);
        mirror("engine.invariant_audits", result.invariant_audits);
        mirror("machine.accesses_fast", result.totals.accesses[0]);
        mirror("machine.accesses_slow", result.totals.accesses[1]);
        mirror("machine.hint_faults", result.totals.hint_faults);
        mirror("machine.promoted_pages", result.totals.promoted_pages);
        mirror("machine.demoted_pages", result.totals.demoted_pages);
        mirror("machine.exchanges", result.totals.exchanges);
        mirror("machine.failed_no_slot", result.totals.failed_no_slot);
        mirror("machine.failed_pinned", result.totals.failed_pinned);
        mirror("machine.failed_transient", result.totals.failed_transient);
        mirror("machine.failed_contended", result.totals.failed_contended);
        mirror("machine.migration_busy_ns",
               result.totals.migration_busy_ns);
        mirror("machine.overhead_ns", result.totals.overhead_ns);
        mirror("machine.aborted_migration_ns",
               result.totals.aborted_migration_ns);
        if (machine.tx_enabled()) {
            // Transaction counters exist only when the engine is on, so
            // a tx-off metrics file stays byte-identical to the seed.
            mirror("machine.tx_opened", result.totals.tx_opened);
            mirror("machine.tx_committed", result.totals.tx_committed);
            mirror("machine.tx_aborted", result.totals.tx_aborted);
            mirror("machine.tx_retries", result.totals.tx_retries);
            mirror("machine.tx_free_flips", result.totals.tx_free_flips);
            mirror("machine.tx_dual_drops", result.totals.tx_dual_drops);
            mirror("machine.tx_dual_reclaims",
                   result.totals.tx_dual_reclaims);
            mirror("machine.failed_tx_busy", result.totals.failed_tx_busy);
        }
        mirror("pebs.recorded", result.pebs_recorded);
        mirror("pebs.dropped", result.pebs_dropped);
        mirror("pebs.suppressed", result.pebs_suppressed);
        if (machine.tenants_enabled()) {
            // Tenant counters exist only on multi-tenant runs, so a
            // --tenants=1 metrics file stays byte-identical to the seed.
            mirror("machine.failed_quota", result.totals.failed_quota);
            mirror("machine.failed_admission",
                   result.totals.failed_admission);
            for (std::size_t t = 0; t < result.tenants.size(); ++t) {
                const TenantSummary& summary = result.tenants[t];
                const std::string prefix =
                    "tenant." + std::to_string(t) + ".";
                mirror(prefix + "accesses_fast", summary.accesses[0]);
                mirror(prefix + "accesses_slow", summary.accesses[1]);
                mirror(prefix + "samples", summary.samples);
                mirror(prefix + "promoted", summary.promoted);
                mirror(prefix + "demoted", summary.demoted);
                mirror(prefix + "quota_denied", summary.quota_denied);
                mirror(prefix + "admission_denied",
                       summary.admission_denied);
                mirror(prefix + "admission_grants",
                       summary.admission_grants);
            }
        }
    }
    if (telem != nullptr) {
        // Detach before returning: the machine and policy may outlive
        // the bundle's consumers, and a detached run is back on the
        // bare fast path.
        machine.set_telemetry(nullptr);
        policy.set_telemetry(nullptr);
        result.telemetry = std::move(telem);
    }
    return result;
}

}  // namespace artmem::sim
