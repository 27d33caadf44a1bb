#include "tenancy/tenancy.hpp"

#include <algorithm>
#include <charconv>

#include "tenancy/admission.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"
#include "workloads/factory.hpp"

namespace artmem::tenancy {

namespace {

/** Split a comma list; empty input yields an empty vector. */
std::vector<std::string>
split_list(std::string_view text)
{
    std::vector<std::string> out;
    while (!text.empty()) {
        const std::size_t comma = text.find(',');
        const std::string_view item = text.substr(0, comma);
        if (item.empty())
            fatal("tenancy: empty entry in list '", text, "'");
        out.emplace_back(item);
        if (comma == std::string_view::npos)
            break;
        text.remove_prefix(comma + 1);
    }
    return out;
}

std::vector<std::size_t>
parse_weights(std::string_view text)
{
    std::vector<std::size_t> out;
    for (const auto& item : split_list(text)) {
        std::size_t value = 0;
        const auto [ptr, ec] = std::from_chars(
            item.data(), item.data() + item.size(), value);
        if (ec != std::errc{} || ptr != item.data() + item.size() ||
            value == 0)
            fatal("tenancy: weight '", item,
                  "' is not a positive integer");
        out.push_back(value);
    }
    return out;
}

/**
 * fatal() with a tenancy message, after "<source>: " when the values
 * came from a file.
 */
template <typename... Args>
[[noreturn]] void
reject(std::string_view source, const Args&... args)
{
    fatal(source, source.empty() ? "" : ": ", "tenancy: ", args...);
}

}  // namespace

void
TenancyConfig::validate(std::string_view source) const
{
    if (tenants > 65535)
        reject(source, tenants, " tenants exceed the 16-bit ownership map");
    if (!enabled()) {
        // Knobs without --tenants > 1 are silent no-ops waiting to
        // mislead an experiment; refuse them outright.
        TenancyConfig defaults;
        defaults.tenants = tenants;
        if (*this != defaults)
            reject(source, "quota/mix/admission knobs require tenants > 1");
        return;
    }
    // A list entry past the tenant count never runs, so the list would
    // misstate the run: refuse it like a knob without tenants. Values
    // from a file are named by key, the others by flag.
    const bool file = !source.empty();
    if (mix.size() > tenants)
        reject(source, file ? "tenancy.mix" : "--tenant-mix", " lists ",
               mix.size(), " workloads for ", tenants, " tenants");
    if (weights.size() > tenants)
        reject(source, file ? "tenancy.weights" : "--tenant-weights",
               " lists ", weights.size(), " weights for ", tenants,
               " tenants");
    if (quantum == 0)
        reject(source, "quantum must be positive");
    if (quota_share < 0.0 || quota_share > 1.0)
        reject(source, "quota share ", quota_share, " outside [0, 1]");
    const auto names = admission_names();
    if (std::find(names.begin(), names.end(), admission) == names.end())
        reject(source, "unknown admission policy '", admission, "'");
}

TenancyConfig
parse_tenancy_config(const KvConfig& config)
{
    static constexpr std::string_view kKnown[] = {
        "tenancy.tenants",         "tenancy.mix",
        "tenancy.weights",         "tenancy.quantum",
        "tenancy.phase_stride",    "tenancy.quota_share",
        "tenancy.admission",       "tenancy.admission_rate",
        "tenancy.admission_target", "tenancy.admission_max",
    };
    config.reject_unknown(kKnown);
    TenancyConfig tc;
    tc.tenants = config.get_uint("tenancy.tenants", tc.tenants);
    if (config.has("tenancy.mix"))
        tc.mix = split_list(config.get_string("tenancy.mix", ""));
    if (config.has("tenancy.weights"))
        tc.weights = parse_weights(config.get_string("tenancy.weights", ""));
    tc.quantum = config.get_uint("tenancy.quantum", tc.quantum);
    tc.phase_stride =
        config.get_uint("tenancy.phase_stride", tc.phase_stride);
    tc.quota_share =
        config.get_double("tenancy.quota_share", tc.quota_share);
    tc.admission = config.get_string("tenancy.admission", tc.admission);
    tc.admission_rate =
        config.get_uint("tenancy.admission_rate", tc.admission_rate);
    tc.admission_target =
        config.get_double("tenancy.admission_target", tc.admission_target);
    tc.admission_max =
        config.get_uint("tenancy.admission_max", tc.admission_max);
    tc.validate(config.source());
    return tc;
}

TenancyConfig
parse_tenancy_cli(const CliArgs& args)
{
    TenancyConfig tc;
    if (args.has("tenant-config"))
        tc = parse_tenancy_config(
            KvConfig::load(args.get_string("tenant-config", "")));
    tc.tenants = args.get_uint("tenants", tc.tenants);
    if (args.has("tenant-mix"))
        tc.mix = split_list(args.get_string("tenant-mix", ""));
    if (args.has("tenant-weights"))
        tc.weights = parse_weights(args.get_string("tenant-weights", ""));
    tc.quantum = args.get_uint("tenant-quantum", tc.quantum);
    tc.phase_stride = args.get_uint("tenant-phase-stride", tc.phase_stride);
    tc.quota_share =
        args.get_double("tenant-quota-share", tc.quota_share);
    tc.admission = args.get_string("admission", tc.admission);
    tc.admission_rate = args.get_uint("admission-rate", tc.admission_rate);
    tc.admission_target =
        args.get_double("admission-target", tc.admission_target);
    tc.admission_max = args.get_uint("admission-max", tc.admission_max);
    tc.validate();
    return tc;
}

std::uint64_t
tenant_seed(std::uint64_t base_seed, std::uint32_t tenant)
{
    return derive_seed(base_seed ^ 0xc2b2ae3d27d4eb4full, tenant);
}

std::unique_ptr<TenantSet>
make_tenant_set(const TenancyConfig& config, std::string_view base_workload,
                Bytes page_size, std::uint64_t total_accesses,
                std::uint64_t base_seed)
{
    if (!config.enabled())
        fatal("make_tenant_set: tenancy is disabled (tenants <= 1)");
    const std::uint64_t per_tenant =
        std::max<std::uint64_t>(1, total_accesses / config.tenants);
    // Tenants that draw from one Zipf shape share it for the run; each
    // generator keeps its shape alive after the registry goes.
    ZipfShapes shapes;
    std::vector<std::unique_ptr<workloads::AccessGenerator>> generators;
    std::vector<std::size_t> weights;
    generators.reserve(config.tenants);
    weights.reserve(config.tenants);
    for (std::uint32_t i = 0; i < config.tenants; ++i) {
        const std::string_view name =
            config.mix.empty() ? base_workload
                               : std::string_view(
                                     config.mix[i % config.mix.size()]);
        generators.push_back(workloads::make_workload(
            name, page_size, per_tenant, tenant_seed(base_seed, i), &shapes));
        weights.push_back(config.weights.empty()
                              ? 1
                              : config.weights[i % config.weights.size()]);
    }
    return std::make_unique<TenantSet>(std::move(generators),
                                       std::move(weights), page_size,
                                       config.quantum, config.phase_stride);
}

std::unique_ptr<memsim::TenantLedger>
make_tenant_ledger(const TenancyConfig& config, const TenantSet& set,
                   std::size_t total_pages, std::size_t fast_pages)
{
    auto ledger = std::make_unique<memsim::TenantLedger>(
        set.tenant_count(), total_pages);
    std::size_t quota = memsim::TenantLedger::kNoQuota;
    if (config.quota_share > 0.0)
        quota = std::max<std::size_t>(
            1, static_cast<std::size_t>(
                   static_cast<double>(fast_pages) * config.quota_share));
    for (std::uint32_t i = 0; i < set.tenant_count(); ++i) {
        ledger->set_owner_span(set.first_page(i), set.span_pages(i), i);
        ledger->set_quota(i, quota);
    }
    ledger->set_admission(make_admission(config.admission,
                                         set.tenant_count(),
                                         config.admission_rate,
                                         config.admission_target,
                                         config.admission_max));
    return ledger;
}

}  // namespace artmem::tenancy
