/**
 * @file
 * Multi-tenant serving configuration and construction (DESIGN.md §13).
 *
 * TenancyConfig carries everything the experiment layer needs to turn a
 * single-workload RunSpec into an N-tenant run: tenant count, the
 * workload mix, scheduler shape, per-tenant fast-tier quotas, and the
 * admission policy. tenants <= 1 means the feature is off and the run
 * takes the plain single-tenant path untouched (scripts/ci.sh diffs
 * --tenants=1 against the seed goldens byte-for-byte).
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
     * Per-tenant fast-tier quota in pages; 0 = derive from quota_share,
     * and if that is also unset, unlimited.
     */
    std::size_t quota_pages = 0;
    /**
     * Per-tenant quota as a fraction of fast-tier capacity in (0, 1];
     * 0 = unset. Ignored when quota_pages is given.
     */
    double quota_share = 0.0;
    /** Admission policy: none | allow_all | static | feedback. */
    std::string admission = "none";
    /** Per-tenant grants per decision interval ("static"). */
    std::uint64_t admission_rate = 64;
    /** Aggregate fast-ratio target ("feedback"). */
    double admission_target = 0.5;
    /** Per-interval budget ceiling ("feedback"). */
    std::uint64_t admission_max = 256;

    /** True when the run is actually multi-tenant. */
    bool enabled() const { return tenants > 1; }

    /** fatal() on out-of-range values or knobs without tenants > 1. */
    void validate() const;
};

/**
 * Parse a TenancyConfig from "tenancy.*" keys of a KvConfig
 * (tenancy.tenants, tenancy.mix, tenancy.weights, tenancy.quantum,
 * tenancy.phase_stride, tenancy.quota_pages, tenancy.quota_share,
 * tenancy.admission, tenancy.admission_rate, tenancy.admission_target,
 * tenancy.admission_max). Unknown "tenancy."-prefixed keys fatal();
 * keys outside the prefix are ignored so the section can share a file
 * with fault.* / tx.* sections.
 */
TenancyConfig parse_tenancy_config(const KvConfig& config);

/** The multi-tenant flags parse_tenancy_cli() reads. */
inline constexpr std::string_view kTenancyFlags[] = {
    "tenants",         "tenant-config",       "tenant-quota",
    "tenant-quota-share", "tenant-mix",       "tenant-weights",
    "tenant-quantum",  "tenant-phase-stride", "admission",
    "admission-rate",  "admission-target",    "admission-max"};

/**
 * Parse the multi-tenant flags shared by the CLI and the bench
 * harnesses: --tenants, --tenant-quota, --tenant-quota-share,
 * --tenant-mix, --tenant-weights, --tenant-quantum,
 * --tenant-phase-stride, --admission, --admission-rate,
 * --admission-target, --admission-max, plus --tenant-config=FILE to
 * load a "tenancy.*" section first (explicit flags override the file).
 * Validation is strict: any other "tenant"/"admission"-prefixed flag is
 * a typo and fatal()s, as does a tenancy knob without --tenants > 1.
 */
TenancyConfig parse_tenancy_cli(const CliArgs& args);

/**
 * Build the N-tenant interleaved workload: tenant i runs
 * mix[i % size] (or @p base_workload when the mix is empty) with seed
 * derive_seed(base_seed, SeedDomain::kTenant, i) and an access budget
 * of @p total_accesses / tenants.
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
