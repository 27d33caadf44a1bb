/**
 * @file
 * Multi-tenant workload interleaver (DESIGN.md §13).
 *
 * A TenantSet models N tenants sharing one tiered machine: each tenant
 * is an independent workloads::* generator with its own tagged seed
 * stream (SeedDomain::kTenant, so tenant 3 never collides with sweep
 * job 3) and an optional phase offset, stacked onto disjoint
 * contiguous spans of the simulated address space and scheduled by a
 * deterministic weighted round-robin (a time-sliced multi-tenant host's
 * view of its guests).
 *
 * The set exposes the per-tenant page spans so the experiment layer can
 * build the matching memsim::TenantLedger ownership map; workload
 * generation itself stays tenancy-agnostic.
 */
#ifndef ARTMEM_TENANCY_TENANT_SET_HPP
#define ARTMEM_TENANCY_TENANT_SET_HPP

#include <memory>
#include <string>
#include <vector>

#include "workloads/generator.hpp"

namespace artmem::tenancy {

/** Interleaves per-tenant generators over a stacked address space. */
class TenantSet final : public workloads::AccessGenerator
{
  public:
    /**
     * @param tenants  Per-tenant workloads (ownership taken; >= 2).
     * @param weights  Scheduling weight per tenant (same length;
     *                 quantum * weight accesses per turn, >= 1 each).
     * @param page_size Machine page size (span alignment).
     * @param quantum  Base accesses per turn of the round-robin.
     * @param phase_stride Accesses discarded from tenant i's stream at
     *                 construction (i * phase_stride), de-phasing
     *                 otherwise identical generators.
     */
    TenantSet(std::vector<std::unique_ptr<workloads::AccessGenerator>> tenants,
              std::vector<std::size_t> weights, Bytes page_size,
              std::size_t quantum, std::uint64_t phase_stride);

    std::string_view name() const override { return name_; }
    Bytes footprint() const override { return footprint_; }
    std::size_t fill(std::span<PageId> out) override;
    std::uint64_t total_accesses() const override { return total_; }

    std::uint32_t tenant_count() const
    {
        return static_cast<std::uint32_t>(tenants_.size());
    }

    /** First page of tenant @p i's span in the stacked address space. */
    PageId first_page(std::uint32_t i) const
    {
        return tenants_[i].page_offset;
    }

    /** Page count of tenant @p i's span. */
    std::size_t span_pages(std::uint32_t i) const
    {
        return tenants_[i].span_pages;
    }

    /** Tenant @p i's workload name (reporting). */
    std::string_view tenant_workload(std::uint32_t i) const
    {
        return tenants_[i].gen->name();
    }

  private:
    struct Tenant {
        std::unique_ptr<workloads::AccessGenerator> gen;
        PageId page_offset = 0;
        std::size_t span_pages = 0;
        std::size_t weight = 1;
        bool done = false;
    };

    std::vector<Tenant> tenants_;
    std::string name_;
    Bytes footprint_ = 0;
    std::uint64_t total_ = 0;
    std::size_t quantum_;
    std::size_t turn_ = 0;
};

}  // namespace artmem::tenancy

#endif  // ARTMEM_TENANCY_TENANT_SET_HPP
