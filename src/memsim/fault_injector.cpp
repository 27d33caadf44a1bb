#include "memsim/fault_injector.hpp"

#include <algorithm>

#include "telemetry/telemetry.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace artmem::memsim {

namespace {

/** One splitmix64 step without mutating a caller-held state. */
std::uint64_t
hash64(std::uint64_t x)
{
    return splitmix64(x);
}

/** Map a 64-bit hash to [0, 1). */
double
to_unit(std::uint64_t h)
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

void
check_rate(double value, const char* name)
{
    if (value < 0.0 || value > 1.0)
        fatal("FaultConfig: ", name, " must be in [0,1], got ", value);
}

void
check_window(SimTimeNs period, SimTimeNs duration, const char* name)
{
    if (period > 0 && duration > period) {
        fatal("FaultConfig: ", name, " duration ", duration,
              " exceeds its period ", period);
    }
}

}  // namespace

bool
FaultConfig::any_enabled() const
{
    return pinned_fraction > 0.0 || transient_rate > 0.0 ||
           contended_rate > 0.0 || degrade_period_ns > 0 ||
           blackout_period_ns > 0 || sample_drop_rate > 0.0 ||
           pressure_period_ns > 0 || write_storm_period_ns > 0;
}

void
FaultConfig::validate() const
{
    check_rate(pinned_fraction, "pinned_fraction");
    check_rate(transient_rate, "transient_rate");
    check_rate(contended_rate, "contended_rate");
    check_rate(sample_drop_rate, "sample_drop_rate");
    check_rate(pressure_fraction, "pressure_fraction");
    if (degrade_tier < 0 || degrade_tier >= kTierCount)
        fatal("FaultConfig: degrade_tier must be 0 or 1, got ", degrade_tier);
    if (degrade_latency_factor < 1.0)
        fatal("FaultConfig: degrade_latency_factor must be >= 1, got ",
              degrade_latency_factor);
    if (degrade_bandwidth_factor < 1.0)
        fatal("FaultConfig: degrade_bandwidth_factor must be >= 1, got ",
              degrade_bandwidth_factor);
    check_rate(write_storm_rate, "write_storm_rate");
    check_window(degrade_period_ns, degrade_duration_ns, "degrade");
    check_window(blackout_period_ns, blackout_duration_ns, "blackout");
    check_window(pressure_period_ns, pressure_duration_ns, "pressure");
    check_window(write_storm_period_ns, write_storm_duration_ns,
                 "write_storm");
    if (degrade_period_ns > 0 && degrade_duration_ns == 0)
        fatal("FaultConfig: degrade window enabled with zero duration");
    if (blackout_period_ns > 0 && blackout_duration_ns == 0)
        fatal("FaultConfig: blackout window enabled with zero duration");
    if (pressure_period_ns > 0 &&
        (pressure_duration_ns == 0 || pressure_fraction == 0.0)) {
        fatal("FaultConfig: pressure window enabled with zero duration ",
              "or zero pressure_fraction");
    }
    if (write_storm_period_ns > 0 &&
        (write_storm_duration_ns == 0 || write_storm_rate == 0.0)) {
        fatal("FaultConfig: write_storm window enabled with zero duration ",
              "or zero write_storm_rate");
    }
}

FaultConfig
parse_fault_config(const KvConfig& config)
{
    FaultConfig fc;
    // Millisecond-denominated window keys are scaled to simulated ns.
    const auto ms = [&](const std::string& key) {
        constexpr SimTimeNs kNsPerMs = 1000000;
        return config.get_uint<SimTimeNs>(key, 0, ~SimTimeNs{0} / kNsPerMs) *
               kNsPerMs;
    };
    static const char* kKnown[] = {
        "fault.seed",
        "fault.pinned_fraction",
        "fault.transient_rate",
        "fault.contended_rate",
        "fault.degrade_tier",
        "fault.degrade_latency_factor",
        "fault.degrade_bandwidth_factor",
        "fault.degrade_period_ms",
        "fault.degrade_duration_ms",
        "fault.blackout_period_ms",
        "fault.blackout_duration_ms",
        "fault.sample_drop_rate",
        "fault.pressure_fraction",
        "fault.pressure_period_ms",
        "fault.pressure_duration_ms",
        "fault.write_storm_rate",
        "fault.write_storm_period_ms",
        "fault.write_storm_duration_ms",
    };
    for (const auto& key : config.keys()) {
        const bool known =
            std::find_if(std::begin(kKnown), std::end(kKnown),
                         [&](const char* k) { return key == k; }) !=
            std::end(kKnown);
        if (!known)
            fatal("fault config: unknown key '", key, "'");
    }
    fc.seed = config.get_uint<std::uint64_t>("fault.seed", 1);
    fc.pinned_fraction = config.get_double("fault.pinned_fraction", 0.0);
    fc.transient_rate = config.get_double("fault.transient_rate", 0.0);
    fc.contended_rate = config.get_double("fault.contended_rate", 0.0);
    fc.degrade_tier =
        static_cast<int>(config.get_int("fault.degrade_tier", 1));
    fc.degrade_latency_factor =
        config.get_double("fault.degrade_latency_factor", 1.0);
    fc.degrade_bandwidth_factor =
        config.get_double("fault.degrade_bandwidth_factor", 1.0);
    fc.degrade_period_ns = ms("fault.degrade_period_ms");
    fc.degrade_duration_ns = ms("fault.degrade_duration_ms");
    fc.blackout_period_ns = ms("fault.blackout_period_ms");
    fc.blackout_duration_ns = ms("fault.blackout_duration_ms");
    fc.sample_drop_rate = config.get_double("fault.sample_drop_rate", 0.0);
    fc.pressure_fraction = config.get_double("fault.pressure_fraction", 0.0);
    fc.pressure_period_ns = ms("fault.pressure_period_ms");
    fc.pressure_duration_ns = ms("fault.pressure_duration_ms");
    fc.write_storm_rate = config.get_double("fault.write_storm_rate", 0.0);
    fc.write_storm_period_ns = ms("fault.write_storm_period_ms");
    fc.write_storm_duration_ns = ms("fault.write_storm_duration_ms");
    fc.validate();
    return fc;
}

std::vector<std::string_view>
fault_scenario_names()
{
    return {"none", "migration", "degrade", "blackout", "pressure"};
}

FaultConfig
make_fault_scenario(std::string_view name, std::uint64_t seed)
{
    FaultConfig fc;
    fc.seed = seed;
    if (name == "none")
        return fc;
    if (name == "migration") {
        // Nomad-style transient migration failures plus a pinned set.
        fc.pinned_fraction = 0.02;
        fc.transient_rate = 0.20;
        fc.contended_rate = 0.10;
        return fc;
    }
    if (name == "degrade") {
        // Optane tail spike / bandwidth hog on the slow tier, 25% duty.
        fc.degrade_tier = 1;
        fc.degrade_latency_factor = 4.0;
        fc.degrade_bandwidth_factor = 4.0;
        fc.degrade_period_ns = 40000000;   // 40 ms
        fc.degrade_duration_ns = 10000000; // 10 ms
        return fc;
    }
    if (name == "blackout") {
        // PEBS outage 30% of the time plus a background drop burst.
        fc.blackout_period_ns = 50000000;   // 50 ms
        fc.blackout_duration_ns = 15000000; // 15 ms
        fc.sample_drop_rate = 0.05;
        return fc;
    }
    if (name == "pressure") {
        // A co-tenant grabs a quarter of the fast tier, 33% duty.
        fc.pressure_fraction = 0.25;
        fc.pressure_period_ns = 60000000;   // 60 ms
        fc.pressure_duration_ns = 20000000; // 20 ms
        return fc;
    }
    if (name == "abort_storm") {
        // Write bursts against in-flight transactions, 40% duty. Only
        // bites under --tx-migration: without an installed tx engine no
        // page is ever in flight, so the storm is never consulted.
        fc.write_storm_rate = 0.75;
        fc.write_storm_period_ns = 20000000;  // 20 ms
        fc.write_storm_duration_ns = 8000000; // 8 ms
        return fc;
    }
    fatal("make_fault_scenario: unknown scenario '", std::string(name), "'");
}

FaultInjector::FaultInjector(const FaultConfig& config,
                             std::size_t fast_capacity_pages)
    : config_(config)
{
    config_.validate();
    pressure_pages_ = static_cast<std::size_t>(
        static_cast<double>(fast_capacity_pages) * config_.pressure_fraction);
    // Seed-derived phase offsets decorrelate the three window schedules
    // from each other and from the engine's tick cadence.
    std::uint64_t state = config_.seed;
    const auto offset = [&](SimTimeNs period) {
        return period > 0
                   ? static_cast<SimTimeNs>(splitmix64(state) %
                                            static_cast<std::uint64_t>(period))
                   : 0;
    };
    degrade_offset_ = offset(config_.degrade_period_ns);
    blackout_offset_ = offset(config_.blackout_period_ns);
    pressure_offset_ = offset(config_.pressure_period_ns);
    // Drawn after the original three so their offsets (and thus every
    // pre-existing scenario's schedule) are unchanged by this class.
    write_storm_offset_ = offset(config_.write_storm_period_ns);
}

double
FaultInjector::draw()
{
    const std::uint64_t x =
        config_.seed + 0x9e3779b97f4a7c15ull * ++draw_counter_;
    return to_unit(hash64(x));
}

bool
FaultInjector::in_window(SimTimeNs now, SimTimeNs period, SimTimeNs duration,
                         SimTimeNs offset) const
{
    if (period == 0)
        return false;
    return (now + offset) % period < duration;
}

bool
FaultInjector::page_pinned(PageId page) const
{
    if (config_.pinned_fraction <= 0.0)
        return false;
    // Pure hash of (seed, page): the pinned set is fixed for a run.
    const std::uint64_t h =
        hash64(config_.seed ^ (0xd1342543de82ef95ull * (page + 1)));
    return to_unit(h) < config_.pinned_fraction;
}

bool
FaultInjector::migration_transient_abort()
{
    const bool abort =
        config_.transient_rate > 0.0 && draw() < config_.transient_rate;
    if (abort)
        ++transient_aborts_;
    return abort;
}

bool
FaultInjector::migration_contended()
{
    const bool contended =
        config_.contended_rate > 0.0 && draw() < config_.contended_rate;
    if (contended)
        ++contended_hits_;
    return contended;
}

bool
FaultInjector::tier_degraded(Tier tier, SimTimeNs now) const
{
    return static_cast<int>(tier) == config_.degrade_tier &&
           in_window(now, config_.degrade_period_ns,
                     config_.degrade_duration_ns, degrade_offset_);
}

SimTimeNs
FaultInjector::effective_latency(Tier tier, SimTimeNs base,
                                 SimTimeNs now) const
{
    if (!tier_degraded(tier, now))
        return base;
    return static_cast<SimTimeNs>(static_cast<double>(base) *
                                  config_.degrade_latency_factor);
}

double
FaultInjector::bandwidth_penalty(Tier tier, SimTimeNs now) const
{
    return tier_degraded(tier, now) ? config_.degrade_bandwidth_factor : 1.0;
}

double
FaultInjector::tx_write_storm_rate(SimTimeNs now) const
{
    if (config_.write_storm_period_ns == 0)
        return 0.0;
    return in_window(now, config_.write_storm_period_ns,
                     config_.write_storm_duration_ns, write_storm_offset_)
               ? config_.write_storm_rate
               : 0.0;
}

bool
FaultInjector::sampling_blackout(SimTimeNs now) const
{
    return in_window(now, config_.blackout_period_ns,
                     config_.blackout_duration_ns, blackout_offset_);
}

bool
FaultInjector::sample_suppressed(SimTimeNs now)
{
    if (sampling_blackout(now)) {
        if (trace_pebs_ != nullptr && !in_blackout_) [[unlikely]] {
            in_blackout_ = true;
            trace_pebs_->instant(telemetry::Category::kPebs,
                                 "blackout_begin", now);
        }
        ++suppressed_samples_;
        return true;
    }
    if (trace_pebs_ != nullptr && in_blackout_) [[unlikely]] {
        in_blackout_ = false;
        trace_pebs_->instant(telemetry::Category::kPebs, "blackout_end",
                             now);
    }
    const bool dropped = config_.sample_drop_rate > 0.0 &&
                         draw() < config_.sample_drop_rate;
    if (dropped) {
        ++suppressed_samples_;
        if (metrics_ != nullptr)
            metrics_->add(drop_counter_);
    }
    return dropped;
}

void
FaultInjector::set_telemetry(telemetry::Telemetry* telemetry)
{
    trace_pebs_ = nullptr;
    metrics_ = nullptr;
    drop_counter_ = 0;
    in_blackout_ = false;
    if (telemetry == nullptr)
        return;
    trace_pebs_ = telemetry->trace(telemetry::Category::kPebs);
    metrics_ = telemetry->metrics();
    if (metrics_ != nullptr)
        drop_counter_ = metrics_->counter("pebs.drop_suppressed");
}

std::size_t
FaultInjector::reserved_fast_pages(SimTimeNs now) const
{
    return in_window(now, config_.pressure_period_ns,
                     config_.pressure_duration_ns, pressure_offset_)
               ? pressure_pages_
               : 0;
}

}  // namespace artmem::memsim
