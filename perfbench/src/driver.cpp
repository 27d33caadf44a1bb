#include "driver.hpp"

#include <cstring>
#include <exception>
#include <memory>
#include <sstream>
#include <thread>
#include <type_traits>

#include "memsim/fault_injector.hpp"
#include "sim/engine.hpp"
#include "sim/registry.hpp"
#include "tenancy/tenancy.hpp"
#include "verify/invariant_checker.hpp"
#include "workloads/factory.hpp"

namespace perfbench {

namespace {

using namespace artmem;

constexpr Bytes kPageSize = 2ull << 20;

sim::RunSpec
artmem_spec(std::string workload, std::uint64_t accesses, std::uint64_t seed)
{
    sim::RunSpec spec;
    spec.workload = std::move(workload);
    spec.policy = "artmem";
    spec.ratio = {1, 4};
    spec.accesses = accesses;
    spec.seed = seed;
    return spec;
}

/** run_experiment()'s set-up, kept apart so it can be timed alone. */
struct Built {
    std::unique_ptr<tenancy::TenantSet> set;
    std::unique_ptr<workloads::AccessGenerator> gen;
    std::unique_ptr<memsim::TieredMachine> machine;
    std::unique_ptr<policies::Policy> policy;

    workloads::AccessGenerator& workload() { return set ? *set : *gen; }
};

Built
build(const sim::RunSpec& spec, SpanLog* log)
{
    Built b;
    spec.tenancy.validate();
    {
        SpanLog::Scope s(log, Site::kConstructWorkload);
        if (spec.tenancy.enabled()) {
            b.set = tenancy::make_tenant_set(spec.tenancy, spec.workload,
                                             kPageSize, spec.accesses,
                                             spec.seed);
        } else {
            b.gen = workloads::make_workload(spec.workload, kPageSize,
                                             spec.accesses, spec.seed);
        }
    }
    {
        SpanLog::Scope s(log, Site::kConstructMachine);
        const auto config = sim::make_machine_config(
            b.workload().footprint(), spec.ratio, kPageSize);
        b.machine = std::make_unique<memsim::TieredMachine>(config);
        if (b.set != nullptr) {
            b.machine->install_tenants(tenancy::make_tenant_ledger(
                spec.tenancy, *b.set, b.machine->page_count(),
                config.fast_capacity_pages()));
        }
    }
    {
        SpanLog::Scope s(log, Site::kConstructPolicy);
        b.policy = sim::make_policy(spec.policy, spec.seed);
    }
    return b;
}

/**
 * Forwards to another generator and reads the host clock before every
 * kChunkFills-th fill, which splits the engine loop around it into
 * chunks of equal simulated work. One clock read per 64 batches costs
 * well under 0.1% of the loop.
 */
class StampedGenerator final : public workloads::AccessGenerator
{
  public:
    StampedGenerator(workloads::AccessGenerator& inner,
                     std::vector<std::int64_t>& stamps)
        : inner_(inner), stamps_(stamps)
    {
    }

    std::string_view name() const override { return inner_.name(); }
    Bytes footprint() const override { return inner_.footprint(); }
    std::uint64_t total_accesses() const override
    {
        return inner_.total_accesses();
    }

    std::size_t fill(std::span<PageId> out) override
    {
        if (++fills_ % kChunkFills == 0)
            stamps_.push_back(now_ns());
        return inner_.fill(out);
    }

  private:
    workloads::AccessGenerator& inner_;
    std::vector<std::int64_t>& stamps_;
    std::uint64_t fills_ = 0;
};

/**
 * sim::run_simulation() with telemetry off and shards at 0, one span
 * around each call into another layer. Any change to the engine loop
 * must be mirrored here; compare() against the library result in every
 * run catches drift.
 */
sim::RunResult
traced_run(workloads::AccessGenerator& gen, policies::Policy& policy,
           memsim::TieredMachine& machine, const sim::EngineConfig& config,
           SpanLog& log, verify::InvariantChecker* checker,
           JobOutcome& out)
{
    SpanLog::Scope run_span(&log, Site::kRun);
    if (machine.now() != 0)
        throw std::runtime_error("machine must be freshly constructed");
    const Bytes needed = gen.footprint();
    if (machine.page_count() * machine.page_size() < needed)
        throw std::runtime_error("machine smaller than the footprint");
    if (config.prefault) {
        SpanLog::Scope s(&log, Site::kPrefault);
        machine.prefault_range(
            0, static_cast<std::size_t>(
                   (needed + machine.page_size() - 1) / machine.page_size()));
    }
    machine.install_faults(config.faults);
    memsim::FaultInjector* faults = machine.fault_injector();
    machine.install_tx(config.tx);
    {
        SpanLog::Scope s(&log, Site::kPolicyInit);
        policy.init(machine);
    }
    if (machine.tx_enabled()) {
        machine.set_tx_handler([&policy](PageId page, memsim::Tier src,
                                         memsim::Tier dst, bool committed) {
            policy.on_tx_resolved(page, src, dst, committed);
        });
    }
    memsim::PebsSampler sampler(config.pebs);
    std::uint64_t pebs_suppressed = 0;

    std::vector<PageId> batch(config.batch_size);
    std::vector<memsim::PebsSample> drained;
    drained.reserve(4096);
    SimTimeNs next_tick = config.tick_interval;
    SimTimeNs next_decision = config.decision_interval;
    sim::RunResult result;
    sim::IntervalRecord interval;
    std::uint64_t interval_start_accesses = 0;

    auto flush_tick = [&]() {
        drained.clear();
        {
            SpanLog::Scope s(&log, Site::kDrain);
            sampler.drain(drained, static_cast<std::size_t>(-1));
        }
        if (!drained.empty()) {
            if (auto* ledger = machine.tenants(); ledger != nullptr) {
                SpanLog::Scope s(&log, Site::kNoteSamples);
                for (const auto& sample : drained)
                    ledger->note_sample(sample.page);
            }
            SpanLog::Scope s(&log, Site::kOnSamples);
            policy.on_samples(drained);
        }
        out.samples_delivered += drained.size();
        SpanLog::Scope s(&log, Site::kOnTick);
        policy.on_tick(machine.now());
    };

    auto flush_decision = [&]() {
        {
            SpanLog::Scope s(&log, Site::kPollTx);
            machine.poll_tx();
        }
        {
            SpanLog::Scope s(&log, Site::kOnInterval);
            policy.on_interval(machine.now());
        }
        {
            // Spanned even without tenants, where only the ledger check
            // runs, so the boundary's cost is measured on every workload.
            SpanLog::Scope s(&log, Site::kIntervalFeedback);
            if (auto* ledger = machine.tenants(); ledger != nullptr)
                ledger->interval_feedback();
        }
        memsim::TieredMachine::Counters window;
        {
            SpanLog::Scope s(&log, Site::kTakeWindow);
            window = machine.take_window();
        }
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
        interval_start_accesses = result.accesses;
        if (checker != nullptr) {
            SpanLog::Scope s(&log, Site::kAudit);
            if (checker->audit(machine, policy, pebs_suppressed) == 0)
                ++out.violations;
            result.invariant_audits = checker->audits();
        }
    };

    while (true) {
        std::size_t n = 0;
        {
            SpanLog::Scope s(&log, Site::kFill);
            n = gen.fill(batch);
        }
        if (n == 0)
            break;
        {
            SpanLog::Scope s(&log, Site::kAccess);
            if (faults == nullptr) {
                machine.access_batch(batch.data(), n, sampler);
            } else {
                machine.access_batch_faulted(batch.data(), n, sampler,
                                             pebs_suppressed);
            }
        }
        result.accesses += n;
        if (machine.now() >= next_tick) {
            flush_tick();
            next_tick = machine.now() + config.tick_interval;
        }
        if (machine.now() >= next_decision) {
            flush_decision();
            next_decision = machine.now() + config.decision_interval;
        }
    }
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
            sim::TenantSummary& summary = result.tenants[t];
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
    return result;
}

bool
counters_equal(const memsim::TieredMachine::Counters& a,
               const memsim::TieredMachine::Counters& b)
{
    using Counters = memsim::TieredMachine::Counters;
    // While Counters is all integers without padding, a byte compare
    // covers every field, including fields added later.
    if constexpr (std::has_unique_object_representations_v<Counters>) {
        return std::memcmp(&a, &b, sizeof(Counters)) == 0;
    } else {
        return a.accesses[0] == b.accesses[0] &&
               a.accesses[1] == b.accesses[1] &&
               a.hint_faults == b.hint_faults &&
               a.promoted_pages == b.promoted_pages &&
               a.demoted_pages == b.demoted_pages &&
               a.exchanges == b.exchanges &&
               a.migration_busy_ns == b.migration_busy_ns &&
               a.overhead_ns == b.overhead_ns &&
               a.failed_no_slot == b.failed_no_slot &&
               a.failed_pinned == b.failed_pinned &&
               a.failed_transient == b.failed_transient &&
               a.failed_contended == b.failed_contended &&
               a.aborted_migration_ns == b.aborted_migration_ns &&
               a.tx_opened == b.tx_opened &&
               a.tx_committed == b.tx_committed &&
               a.tx_aborted == b.tx_aborted &&
               a.tx_retries == b.tx_retries &&
               a.tx_free_flips == b.tx_free_flips &&
               a.tx_dual_drops == b.tx_dual_drops &&
               a.tx_dual_reclaims == b.tx_dual_reclaims &&
               a.failed_tx_busy == b.failed_tx_busy &&
               a.failed_quota == b.failed_quota &&
               a.failed_admission == b.failed_admission;
    }
}

}  // namespace

std::optional<Workload>
make_workload(std::string_view name, std::uint64_t seed, bool quick)
{
    const std::uint64_t single = quick ? 400000 : 8000000;
    Workload w;
    w.name = std::string(name);
    if (name == "ycsb") {
        w.jobs.push_back(artmem_spec("ycsb", single, seed));
    } else if (name == "s2_tx_storm") {
        auto spec = artmem_spec("s2", single, seed);
        spec.engine.faults = memsim::make_fault_scenario("abort_storm", seed);
        spec.engine.tx.enabled = true;
        spec.engine.tx.seed = seed;
        spec.engine.tx.validate();
        w.jobs.push_back(std::move(spec));
    } else if (name == "tenants16") {
        auto spec = artmem_spec("s2", single, seed);
        spec.tenancy.tenants = 16;
        spec.tenancy.mix = {"s2", "ycsb", "s3", "btree"};
        spec.tenancy.quota_share = 0.09375;
        spec.tenancy.admission = "feedback";
        w.jobs.push_back(std::move(spec));
    } else if (name == "policy_sweep") {
        // `artmem sweep --workload=s2`: every policy at every paper
        // ratio, one shared seed.
        for (const auto policy : sim::policy_names()) {
            for (const auto& ratio : sim::paper_ratios()) {
                auto spec = artmem_spec("s2", quick ? 100000 : 2000000, seed);
                spec.policy = std::string(policy);
                spec.ratio = ratio;
                w.jobs.push_back(std::move(spec));
            }
        }
        w.workers = std::max(1u, std::thread::hardware_concurrency());
    } else {
        return std::nullopt;
    }
    return w;
}

JobOutcome
run_job(const sim::RunSpec& spec, Mode mode, std::uint64_t run_id)
{
    JobOutcome out;
    out.spans.set_run_id(run_id);
    try {
        if (mode == Mode::kLibrary) {
            const auto t0 = now_ns();
            Built b = build(spec, nullptr);
            std::vector<std::int64_t> stamps;
            stamps.reserve(
                spec.accesses / (kChunkFills * spec.engine.batch_size) + 3);
            StampedGenerator gen(b.workload(), stamps);
            const auto t1 = now_ns();
            stamps.push_back(t1);
            out.result =
                sim::run_simulation(gen, *b.policy, *b.machine, spec.engine);
            stamps.push_back(now_ns());
            out.run_ns = stamps.back() - t1;
            out.setup_ns = t1 - t0;
            out.chunk_ns.resize(stamps.size() - 1);
            for (std::size_t i = 0; i + 1 < stamps.size(); ++i)
                out.chunk_ns[i] = stamps[i + 1] - stamps[i];
        } else {
            SpanLog::Scope job(&out.spans, Site::kJob);
            const auto t0 = now_ns();
            Built b = build(spec, &out.spans);
            const auto t1 = now_ns();
            verify::InvariantChecker checker;
            out.result = traced_run(
                b.workload(), *b.policy, *b.machine, spec.engine, out.spans,
                mode == Mode::kTracedAudited ? &checker : nullptr, out);
            out.run_ns = now_ns() - t1;
            out.setup_ns = t1 - t0;
            if (out.violations > 0)
                out.error = "invariant audit examined no state";
        }
    } catch (const verify::InvariantViolation& e) {
        ++out.violations;
        out.error = std::string("invariant violation: ") + e.what();
    } catch (const std::exception& e) {
        out.error = e.what();
    }
    return out;
}

std::string
compare(const sim::RunResult& a, const sim::RunResult& b)
{
    std::ostringstream diff;
    auto check = [&diff](const char* field, auto x, auto y) {
        if (x != y && diff.tellp() == 0)
            diff << field << ": " << x << " != " << y;
    };
    check("runtime_ns", a.runtime_ns, b.runtime_ns);
    check("accesses", a.accesses, b.accesses);
    check("fast_ratio", a.fast_ratio, b.fast_ratio);
    if (!counters_equal(a.totals, b.totals) && diff.tellp() == 0)
        diff << "machine counters differ";
    check("pebs_recorded", a.pebs_recorded, b.pebs_recorded);
    check("pebs_dropped", a.pebs_dropped, b.pebs_dropped);
    check("pebs_suppressed", a.pebs_suppressed, b.pebs_suppressed);
    check("tenants", a.tenants.size(), b.tenants.size());
    for (std::size_t t = 0; t < a.tenants.size() && diff.tellp() == 0;
         ++t) {
        const auto& x = a.tenants[t];
        const auto& y = b.tenants[t];
        check("tenant.accesses_fast", x.accesses[0], y.accesses[0]);
        check("tenant.accesses_slow", x.accesses[1], y.accesses[1]);
        check("tenant.fast_ratio", x.fast_ratio, y.fast_ratio);
        check("tenant.samples", x.samples, y.samples);
        check("tenant.promoted", x.promoted, y.promoted);
        check("tenant.demoted", x.demoted, y.demoted);
        check("tenant.quota_denied", x.quota_denied, y.quota_denied);
        check("tenant.admission_denied", x.admission_denied,
              y.admission_denied);
        check("tenant.admission_grants", x.admission_grants,
              y.admission_grants);
        check("tenant.over_quota_allocs", x.over_quota_allocs,
              y.over_quota_allocs);
        check("tenant.used_fast", x.used_fast, y.used_fast);
        check("tenant.quota", x.quota, y.quota);
        if (diff.tellp() != 0)
            diff << " (tenant " << t << ")";
    }
    return diff.str();
}

}  // namespace perfbench
