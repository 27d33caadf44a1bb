#include "tenancy/tenancy.hpp"

#include <algorithm>
#include <charconv>

#include "tenancy/admission.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
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

}  // namespace

void
TenancyConfig::validate() const
{
    if (tenants > 65535)
        fatal("tenancy: ", tenants, " tenants exceed the 16-bit "
              "ownership map");
    if (!enabled()) {
        // Knobs without --tenants > 1 are silent no-ops waiting to
        // mislead an experiment; refuse them outright.
        const bool knobs = !mix.empty() || !weights.empty() ||
                           quantum != 256 || phase_stride != 0 ||
                           quota_pages != 0 || quota_share != 0.0 ||
                           admission != "none" || admission_rate != 64 ||
                           admission_target != 0.5 || admission_max != 256;
        if (knobs)
            fatal("tenancy: quota/mix/admission knobs require "
                  "tenants > 1");
        return;
    }
    if (quantum == 0)
        fatal("tenancy: quantum must be positive");
    if (quota_share < 0.0 || quota_share > 1.0)
        fatal("tenancy: quota share ", quota_share, " outside [0, 1]");
    const auto names = admission_names();
    if (std::find(names.begin(), names.end(), admission) == names.end())
        fatal("tenancy: unknown admission policy '", admission, "'");
}

TenancyConfig
parse_tenancy_config(const KvConfig& config)
{
    TenancyConfig tc;
    static const char* kKnown[] = {
        "tenancy.tenants",        "tenancy.mix",
        "tenancy.weights",        "tenancy.quantum",
        "tenancy.phase_stride",   "tenancy.quota_pages",
        "tenancy.quota_share",    "tenancy.admission",
        "tenancy.admission_rate", "tenancy.admission_target",
        "tenancy.admission_max",
    };
    for (const auto& key : config.keys()) {
        if (key.rfind("tenancy.", 0) != 0)
            continue;
        const bool known =
            std::find_if(std::begin(kKnown), std::end(kKnown),
                         [&](const char* k) { return key == k; }) !=
            std::end(kKnown);
        if (!known)
            fatal("tenancy config: unknown key '", key, "'");
    }
    tc.tenants = config.get_uint<std::uint32_t>("tenancy.tenants", 1);
    tc.mix = split_list(config.get_string("tenancy.mix", ""));
    tc.weights = parse_weights(config.get_string("tenancy.weights", ""));
    tc.quantum = config.get_uint<std::size_t>("tenancy.quantum", 256);
    tc.phase_stride =
        config.get_uint<std::uint64_t>("tenancy.phase_stride", 0);
    tc.quota_pages = config.get_uint<std::size_t>("tenancy.quota_pages", 0);
    tc.quota_share = config.get_double("tenancy.quota_share", 0.0);
    tc.admission = config.get_string("tenancy.admission", "none");
    tc.admission_rate =
        config.get_uint<std::uint64_t>("tenancy.admission_rate", 64);
    tc.admission_target = config.get_double("tenancy.admission_target", 0.5);
    tc.admission_max =
        config.get_uint<std::uint64_t>("tenancy.admission_max", 256);
    tc.validate();
    return tc;
}

TenancyConfig
parse_tenancy_cli(const CliArgs& args)
{
    for (const auto& name : args.flag_names()) {
        if (name.rfind("tenant", 0) != 0 &&
            name.rfind("admission", 0) != 0)
            continue;
        bool known = false;
        for (const auto k : kTenancyFlags)
            known = known || name == k;
        if (!known)
            fatal("unknown tenancy flag --", name,
                  " (known: --tenants --tenant-config --tenant-quota "
                  "--tenant-quota-share --tenant-mix --tenant-weights "
                  "--tenant-quantum --tenant-phase-stride --admission "
                  "--admission-rate --admission-target --admission-max)");
    }
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
    tc.quota_pages = args.get_uint("tenant-quota", tc.quota_pages);
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

std::unique_ptr<TenantSet>
make_tenant_set(const TenancyConfig& config, std::string_view base_workload,
                Bytes page_size, std::uint64_t total_accesses,
                std::uint64_t base_seed)
{
    if (!config.enabled())
        fatal("make_tenant_set: tenancy is disabled (tenants <= 1)");
    const std::uint64_t per_tenant =
        std::max<std::uint64_t>(1, total_accesses / config.tenants);
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
            name, page_size, per_tenant,
            derive_seed(base_seed, SeedDomain::kTenant, i)));
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
    if (config.quota_pages > 0)
        quota = config.quota_pages;
    else if (config.quota_share > 0.0)
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
