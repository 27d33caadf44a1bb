#include "tenancy/tenant_set.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace artmem::tenancy {

TenantSet::TenantSet(
    std::vector<std::unique_ptr<workloads::AccessGenerator>> tenants,
    std::vector<std::size_t> weights, Bytes page_size, std::size_t quantum,
    std::uint64_t phase_stride)
    : quantum_(quantum)
{
    if (tenants.size() < 2)
        fatal("TenantSet: at least two tenants required (a single tenant "
              "is the plain run)");
    if (weights.size() != tenants.size())
        fatal("TenantSet: ", weights.size(), " weights for ",
              tenants.size(), " tenants");
    if (quantum_ == 0)
        fatal("TenantSet: quantum must be positive");
    name_ = "tenants" + std::to_string(tenants.size()) + "(";
    Bytes offset = 0;
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        auto& gen = tenants[i];
        if (weights[i] == 0)
            fatal("TenantSet: tenant ", i, " has zero weight");
        Tenant tenant;
        tenant.page_offset = static_cast<PageId>(offset / page_size);
        tenant.weight = weights[i];
        // Stack footprints page-aligned so spans never share a page.
        const Bytes aligned =
            (gen->footprint() + page_size - 1) / page_size * page_size;
        tenant.span_pages = static_cast<std::size_t>(aligned / page_size);
        offset += aligned;
        // De-phase tenant i by discarding the head of its stream; the
        // discarded accesses never reach the machine, so total_ counts
        // only what fill() will actually produce.
        std::uint64_t skip = phase_stride * i;
        std::uint64_t produced = 0;
        if (skip > 0) {
            std::vector<PageId> discard(
                static_cast<std::size_t>(std::min<std::uint64_t>(skip, 4096)));
            while (skip > 0) {
                const std::size_t want = static_cast<std::size_t>(
                    std::min<std::uint64_t>(skip, discard.size()));
                const std::size_t got =
                    gen->fill(std::span<PageId>(discard.data(), want));
                if (got == 0)
                    break;
                produced += got;
                skip -= got;
            }
        }
        total_ += gen->total_accesses() > produced
                      ? gen->total_accesses() - produced
                      : 0;
        if (i != 0)
            name_ += '+';
        name_ += gen->name();
        tenant.gen = std::move(gen);
        tenants_.push_back(std::move(tenant));
    }
    footprint_ = offset;
    name_ += ")";
}

std::size_t
TenantSet::fill(std::span<PageId> out)
{
    std::size_t produced = 0;
    std::size_t idle_rounds = 0;
    while (produced < out.size() && idle_rounds < tenants_.size()) {
        Tenant& tenant = tenants_[turn_];
        turn_ = (turn_ + 1) % tenants_.size();
        if (tenant.done) {
            ++idle_rounds;
            continue;
        }
        // The tenant fills its own slice of out, shifted in place.
        const auto slice = out.subspan(
            produced,
            std::min(quantum_ * tenant.weight, out.size() - produced));
        const std::size_t got = tenant.gen->fill(slice);
        if (got == 0) {
            tenant.done = true;
            ++idle_rounds;
            continue;
        }
        idle_rounds = 0;
        for (PageId& page : slice.first(got))
            page += tenant.page_offset;
        produced += got;
    }
    return produced;
}

}  // namespace artmem::tenancy
