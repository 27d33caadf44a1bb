/**
 * @file
 * Multi-tenant serving study (DESIGN.md §13): N heterogeneous tenants
 * (a cycled workload mix, each tenant on its own SeedDomain::kTenant
 * stream) share one tiered machine under per-tenant fast-tier quotas,
 * and every policy runs under three admission regimes —
 *
 *   none      quota-only enforcement (the no-admission baseline),
 *   static    a fixed per-tenant grant budget per decision interval,
 *   feedback  TierBPF-style AIMD on the aggregate fast-tier hit ratio,
 *
 * reporting aggregate and per-tenant (min/mean/max) fast-tier hit
 * ratios plus the migration-grant/denial ledger. The questions from
 * the issue: does ArtMem's single global Q-pair degrade as tenant
 * count grows, and does admission control recover the aggregate hit
 * ratio under contention? Every cell is invariant-audited; the
 * schedule is seeded and byte-identical across --jobs.
 *
 * Usage: bench_multi_tenant [--tenants=16,64] [--mix=s2,ycsb,s3,btree]
 *                           [--quota-share=F] [--admission-rate=N]
 *                           [--admission-target=F] [--admission-max=N]
 *                           [--accesses=N] [--seed=N] [--quick] [--csv]
 */
#include <algorithm>
#include <charconv>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "tenancy/tenancy.hpp"

namespace {

/** Parse a comma list of positive tenant counts. */
std::vector<std::uint32_t>
parse_counts(std::string_view text)
{
    std::vector<std::uint32_t> out;
    while (!text.empty()) {
        const std::size_t comma = text.find(',');
        const std::string_view item = text.substr(0, comma);
        std::uint32_t value = 0;
        const auto [ptr, ec] = std::from_chars(
            item.data(), item.data() + item.size(), value);
        if (ec != std::errc{} || ptr != item.data() + item.size() ||
            value < 2)
            artmem::fatal("--tenants entry '", std::string(item),
                          "' is not an integer >= 2");
        out.push_back(value);
        if (comma == std::string_view::npos)
            break;
        text.remove_prefix(comma + 1);
    }
    if (out.empty())
        artmem::fatal("--tenants list is empty");
    return out;
}

}  // namespace

int
main(int argc, char** argv)
{
    using namespace artmem;
    using namespace artmem::bench;
    const auto opt = BenchOptions::parse(
        argc, argv, 4000000,
        {"tenants", "mix", "quota-share", "admission-rate",
         "admission-target", "admission-max"});
    const auto args = CliArgs::parse(argc, argv);
    const auto tenant_counts =
        parse_counts(args.get_string("tenants", "16"));
    const std::string mix = args.get_string("mix", "s2,ycsb,s3,btree");
    const double quota_share = args.get_double("quota-share", 0.0);
    const auto admission_rate =
        args.get_uint<std::uint64_t>("admission-rate", 8);
    const double admission_target =
        args.get_double("admission-target", 0.6);
    const auto admission_max =
        args.get_uint<std::uint64_t>("admission-max", 64);

    std::cout << "Multi-tenant serving: mix=" << mix
              << " ratio=1:4 accesses=" << opt.accesses
              << " seed=" << opt.seed << " rate=" << admission_rate
              << " target=" << admission_target << "\n";

    const std::string_view admissions[] = {"none", "static", "feedback"};
    const std::string_view policies[] = {"artmem", "memtis", "tpp"};

    sweep::SweepSpec sweepspec;
    for (const auto tenants : tenant_counts) {
        for (const auto admission : admissions) {
            for (const auto policy : policies) {
                auto spec =
                    make_spec(opt, "s2", std::string(policy), {1, 4});
                spec.tenancy.tenants = tenants;
                spec.tenancy.mix.clear();
                for (std::size_t start = 0; start < mix.size();) {
                    const std::size_t comma = mix.find(',', start);
                    spec.tenancy.mix.push_back(mix.substr(
                        start, comma == std::string::npos
                                   ? std::string::npos
                                   : comma - start));
                    start = comma == std::string::npos ? mix.size()
                                                       : comma + 1;
                }
                // Oversubscribe the fast tier ~1.5x by default so the
                // quotas actually contend (override with --quota-share).
                spec.tenancy.quota_share =
                    quota_share > 0.0
                        ? quota_share
                        : std::min(1.0, 1.5 / static_cast<double>(tenants));
                spec.tenancy.admission = std::string(admission);
                spec.tenancy.admission_rate = admission_rate;
                spec.tenancy.admission_target = admission_target;
                spec.tenancy.admission_max = admission_max;
                spec.engine.check_invariants = true;
                sweepspec.add(std::move(spec),
                              {std::to_string(tenants),
                               std::string(admission),
                               std::string(policy)});
            }
        }
    }
    const auto runs = make_runner(opt).run(sweepspec);

    std::size_t job = 0;
    for (const auto tenants : tenant_counts) {
        std::cout << "\nTenants: " << tenants << "\n";
        sweep::ResultSink table(
            {"admission", "policy", "runtime (ms)", "agg fast ratio",
             "tenant fr min", "tenant fr mean", "tenant fr max",
             "grants", "quota denied", "adm denied"});
        for (const auto admission : admissions) {
            for (const auto policy : policies) {
                const auto& r = runs[job++];
                double fr_min = 1.0;
                double fr_max = 0.0;
                double fr_sum = 0.0;
                std::uint64_t grants = 0;
                std::uint64_t quota_denied = 0;
                std::uint64_t adm_denied = 0;
                for (const auto& tenant : r.tenants) {
                    fr_min = std::min(fr_min, tenant.fast_ratio);
                    fr_max = std::max(fr_max, tenant.fast_ratio);
                    fr_sum += tenant.fast_ratio;
                    grants += tenant.admission_grants;
                    quota_denied += tenant.quota_denied;
                    adm_denied += tenant.admission_denied;
                }
                const double fr_mean =
                    r.tenants.empty()
                        ? 1.0
                        : fr_sum / static_cast<double>(r.tenants.size());
                table.row()
                    .cell(std::string(admission))
                    .cell(std::string(policy))
                    .cell(r.seconds() * 1e3, 1)
                    .cell(r.fast_ratio, 3)
                    .cell(fr_min, 3)
                    .cell(fr_mean, 3)
                    .cell(fr_max, 3)
                    .cell(grants)
                    .cell(quota_denied)
                    .cell(adm_denied);
            }
        }
        emit(table, opt);
    }
    return 0;
}
