/**
 * @file
 * Admission-controller implementations (DESIGN.md §13).
 *
 * The interface lives in memsim/tenant_ledger.hpp (the machine consults
 * it on every fast-tier migration attempt); the concrete policies live
 * here in the tenancy layer:
 *
 *  - static:     a fixed per-tenant grant budget per decision interval,
 *                the classical rate limiter.
 *  - feedback:   TierBPF-style AIMD on the ledger's decision-window
 *                counters — when the aggregate fast-tier hit ratio
 *                falls below target, tenants hitting below the
 *                aggregate get their budgets halved; everyone else
 *                recovers additively.
 *
 * Both are pure functions of the call sequence and the ledger's
 * deterministic counters (no clocks, no unseeded draws), so a
 * multi-tenant run stays byte-identical across --jobs.
 */
#ifndef ARTMEM_TENANCY_ADMISSION_HPP
#define ARTMEM_TENANCY_ADMISSION_HPP

#include <memory>
#include <string_view>

#include "memsim/tenant_ledger.hpp"

namespace artmem::tenancy {

/** Admission-policy names understood by make_admission(). */
std::vector<std::string_view> admission_names();

/**
 * Build an admission controller by name for @p tenants tenants.
 * "none" returns nullptr (quota-only enforcement); unknown names
 * fatal().
 *
 * @param rate   Per-tenant grants per decision interval ("static").
 * @param target Aggregate fast-ratio target in [0, 1] ("feedback").
 * @param max_grants Upper budget bound per interval ("feedback").
 */
std::unique_ptr<memsim::AdmissionController> make_admission(
    std::string_view name, std::uint32_t tenants, std::uint64_t rate,
    double target, std::uint64_t max_grants);

}  // namespace artmem::tenancy

#endif  // ARTMEM_TENANCY_ADMISSION_HPP
