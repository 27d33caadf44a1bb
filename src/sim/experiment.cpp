#include "sim/experiment.hpp"

#include <limits>

#include "util/config.hpp"
#include "util/logging.hpp"

namespace artmem::sim {

std::vector<RatioSpec>
paper_ratios()
{
    return {{2, 1}, {1, 1}, {1, 2}, {1, 4}, {1, 8}, {1, 16}};
}

memsim::MachineConfig
make_machine_config(Bytes footprint, Bytes fast_bytes, Bytes page_size)
{
    if (footprint == 0)
        fatal("make_machine_config: footprint must be positive");
    memsim::MachineConfig config;
    config.page_size = page_size;
    const Bytes aligned =
        (footprint + page_size - 1) / page_size * page_size;
    config.address_space = aligned;
    // At least one fast page so the model stays two-tiered.
    config.tiers[0].capacity =
        std::max<Bytes>(page_size, fast_bytes / page_size * page_size);
    // The slow tier can always absorb the whole footprint (512 GB PM in
    // the paper's testbed vs <= 290 GB footprints).
    config.tiers[1].capacity = aligned + page_size;
    return config;
}

memsim::MachineConfig
make_machine_config(Bytes footprint, const RatioSpec& ratio, Bytes page_size)
{
    const auto fast_bytes = static_cast<Bytes>(
        static_cast<double>(footprint) * ratio.fast_fraction());
    return make_machine_config(footprint, fast_bytes, page_size);
}

RatioSpec
parse_ratio_cli(const CliArgs& args, RatioSpec fallback)
{
    if (!args.has("ratio"))
        return fallback;
    const std::string text = args.get_string("ratio", "");
    const auto colon = text.find(':');
    if (colon == std::string::npos)
        fatal("--ratio expects fast:slow, got '", text, "'");
    // Half of INT_MAX per part keeps fast + slow (fast_fraction, the
    // machine sizing) inside int.
    constexpr auto kMax =
        static_cast<std::uint64_t>(std::numeric_limits<int>::max() / 2);
    const std::string what = "--ratio '" + text + "'";
    const auto fast = parse_uint(text.substr(0, colon), kMax, what);
    const auto slow = parse_uint(text.substr(colon + 1), kMax, what);
    if (fast == 0 || slow == 0)
        fatal(what, " parts must be positive");
    return {static_cast<int>(fast), static_cast<int>(slow)};
}

memsim::TxConfig
parse_tx_cli(const CliArgs& args)
{
    memsim::TxConfig tx;
    tx.enabled = args.get_bool("tx-migration", false);
    for (const auto& name : args.flag_names()) {
        if (name.rfind("tx-", 0) != 0)
            continue;
        bool known = false;
        for (const auto k : kTxFlags)
            known = known || name == k;
        if (!known) {
            fatal("unknown transactional-migration flag --", name,
                  " (known: --tx-migration --tx-seed --tx-write-ratio "
                  "--tx-max-inflight --tx-exclusive)");
        }
        if (!tx.enabled && name != "tx-migration")
            fatal("--", name, " requires --tx-migration");
    }
    if (!tx.enabled)
        return tx;
    tx.seed = args.get_uint("tx-seed", tx.seed);
    tx.write_ratio = args.get_double("tx-write-ratio", tx.write_ratio);
    tx.max_inflight = args.get_uint("tx-max-inflight", tx.max_inflight);
    tx.non_exclusive = !args.get_bool("tx-exclusive", false);
    tx.validate();
    return tx;
}

RunResult
run_experiment(const RunSpec& spec)
{
    auto policy = make_policy(spec.policy, spec.seed);
    return run_experiment(spec, *policy);
}

RunResult
run_experiment(const RunSpec& spec, policies::Policy& policy)
{
    const Bytes page_size = 2ull << 20;
    spec.tenancy.validate();
    // Multi-tenant runs interleave N per-tenant generators; the plain
    // path below is untouched at tenants <= 1 (scripts/ci.sh diffs
    // --tenants=1 against the seed goldens).
    std::unique_ptr<tenancy::TenantSet> set;
    std::unique_ptr<workloads::AccessGenerator> gen;
    if (spec.tenancy.enabled()) {
        set = tenancy::make_tenant_set(spec.tenancy, spec.workload,
                                       page_size, spec.accesses, spec.seed);
    } else {
        gen = workloads::make_workload(spec.workload, page_size,
                                       spec.accesses, spec.seed);
    }
    workloads::AccessGenerator& workload = set != nullptr ? *set : *gen;
    auto machine_config =
        make_machine_config(workload.footprint(), spec.ratio, page_size);
    memsim::TieredMachine machine(machine_config);
    if (set != nullptr) {
        machine.install_tenants(tenancy::make_tenant_ledger(
            spec.tenancy, *set, machine.page_count(),
            machine_config.fast_capacity_pages()));
    }
    return run_simulation(workload, policy, machine, spec.engine);
}

}  // namespace artmem::sim
