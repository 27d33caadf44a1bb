/**
 * @file
 * Multi-tenant serving configuration and construction (DESIGN.md §13).
 *
 * TenancyConfig carries everything the experiment layer needs to turn a
 * single-workload RunSpec into an N-tenant run: tenant count, the
 * workload mix, scheduler shape, per-tenant fast-tier quotas, and the
 * admission policy. tenants <= 1 means the feature is off and the run
 * takes the plain single-tenant path untouched (ctest
 * golden.tenancy_off_explicit checks that --tenants=1 prints the plain
 * run's bytes).
 */
#ifndef ARTMEM_TENANCY_TENANCY_HPP
#define ARTMEM_TENANCY_TENANCY_HPP

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "memsim/tenant_ledger.hpp"
#include "tenancy/tenant_set.hpp"
#include "util/cli.hpp"
#include "util/config.hpp"

namespace artmem::tenancy {

/** Multi-tenant run shape; inert until tenants > 1. */
struct TenancyConfig {
    /** Tenant count; <= 1 disables the subsystem entirely. */
    std::uint32_t tenants = 1;
    /**
     * Workload names cycled across tenants (tenant i runs
     * mix[i % size]). Empty = every tenant runs the RunSpec workload.
     */
    std::vector<std::string> mix;
    /**
     * Scheduling weights cycled across tenants (tenant i gets
     * quantum * weight accesses per round). Empty = all 1.
     */
    std::vector<std::size_t> weights;
    /** Base accesses per scheduler turn. */
    std::size_t quantum = 256;
    /** Tenant i discards i * phase_stride leading accesses. */
    std::uint64_t phase_stride = 0;
    /**
     * Per-tenant fast-tier quota as a fraction of fast-tier capacity in
     * (0, 1]; 0 = unlimited.
     */
    double quota_share = 0.0;
    /** Admission policy: none | static | feedback. */
    std::string admission = "none";
    /** Per-tenant grants per decision interval ("static"). */
    std::uint64_t admission_rate = 64;
    /** Aggregate fast-ratio target ("feedback"). */
    double admission_target = 0.5;
    /** Per-interval budget ceiling ("feedback"). */
    std::uint64_t admission_max = 256;

    /** True when the run is actually multi-tenant. */
    bool enabled() const { return tenants > 1; }

    /**
     * fatal() on out-of-range values, knobs without tenants > 1, or a
     * mix or weights list longer than tenants. A non-empty @p source,
     * the file the values came from, starts the message, which then
     * names a list by its key; otherwise by its flag.
     */
    void validate(std::string_view source = {}) const;

    /** Field-wise; validate() compares with the defaults. */
    bool operator==(const TenancyConfig&) const = default;
};

/**
 * Parse a TenancyConfig from the keys of a KvConfig (tenancy.tenants,
 * tenancy.mix, tenancy.weights, tenancy.quantum, tenancy.phase_stride,
 * tenancy.quota_share, tenancy.admission, tenancy.admission_rate,
 * tenancy.admission_target, tenancy.admission_max). Any other key
 * fatal()s naming the file and the key.
 */
TenancyConfig parse_tenancy_config(const KvConfig& config);

/** The multi-tenant flags parse_tenancy_cli() reads. */
inline constexpr std::string_view kTenancyFlags[] = {
    "tenants",          "tenant-config",  "tenant-quota-share",
    "tenant-mix",       "tenant-weights", "tenant-quantum",
    "tenant-phase-stride", "admission",   "admission-rate",
    "admission-target", "admission-max"};

/**
 * Parse the multi-tenant flags of the artmem CLI: --tenants,
 * --tenant-quota-share, --tenant-mix, --tenant-weights,
 * --tenant-quantum, --tenant-phase-stride, --admission,
 * --admission-rate, --admission-target, --admission-max, plus
 * --tenant-config=FILE to load a "tenancy.*" section first (explicit
 * flags override the file). TenancyConfig::validate() fatal()s on a
 * tenancy knob without --tenants > 1; the caller rejects flags outside
 * kTenancyFlags.
 */
TenancyConfig parse_tenancy_cli(const CliArgs& args);

/**
 * Seed of tenant @p tenant's workload stream in a run seeded with
 * @p base_seed: derive_seed() of the base xor a fixed salt, so tenant
 * i never draws derive_seed(base_seed, i). The goldens pin every
 * tenant stream, and with them the salt.
 */
std::uint64_t tenant_seed(std::uint64_t base_seed, std::uint32_t tenant);

/**
 * Build the N-tenant interleaved workload: tenant i runs
 * mix[i % size] (or @p base_workload when the mix is empty) with seed
 * tenant_seed(base_seed, i) and an access budget of
 * @p total_accesses / tenants. The tenants' generators are made through
 * one ZipfShapes registry local to this call, so tenants that draw from
 * the same Zipf shape sum its zeta once and pay one rent toward one
 * rank table (DESIGN.md §9, §13); every rank they draw is the one a
 * private generator would draw.
 */
std::unique_ptr<TenantSet> make_tenant_set(const TenancyConfig& config,
                                           std::string_view base_workload,
                                           Bytes page_size,
                                           std::uint64_t total_accesses,
                                           std::uint64_t base_seed);

/**
 * Build the machine-side ledger matching @p set: ownership spans from
 * the set's stacked layout, quotas resolved against @p fast_pages, and
 * the configured admission controller installed. @p total_pages must be
 * the machine's address-space page count.
 */
std::unique_ptr<memsim::TenantLedger> make_tenant_ledger(
    const TenancyConfig& config, const TenantSet& set,
    std::size_t total_pages, std::size_t fast_pages);

}  // namespace artmem::tenancy

#endif  // ARTMEM_TENANCY_TENANCY_HPP
