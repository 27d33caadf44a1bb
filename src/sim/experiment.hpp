/**
 * @file
 * Experiment plumbing shared by the bench harnesses: the paper's
 * DRAM:PM memory-ratio ladder, machine sizing from a workload
 * footprint, and a one-call "run workload X under policy Y at ratio Z"
 * helper.
 */
#ifndef ARTMEM_SIM_EXPERIMENT_HPP
#define ARTMEM_SIM_EXPERIMENT_HPP

#include <memory>
#include <string>
#include <string_view>

#include "sim/engine.hpp"
#include "sim/registry.hpp"
#include "tenancy/tenancy.hpp"
#include "util/cli.hpp"
#include "workloads/factory.hpp"

namespace artmem::sim {

/** One fast:slow capacity ratio (paper: 2:1 ... 1:16). */
struct RatioSpec {
    int fast = 1;
    int slow = 1;

    /** "2:1"-style label. */
    std::string label() const
    {
        return std::to_string(fast) + ":" + std::to_string(slow);
    }

    /** Fast-tier fraction of the footprint. */
    double fast_fraction() const
    {
        return static_cast<double>(fast) / static_cast<double>(fast + slow);
    }
};

/** The six ratios of the paper's evaluation (Section 6.1). */
std::vector<RatioSpec> paper_ratios();

/**
 * Size a machine for @p footprint with @p fast_bytes of fast tier.
 * The slow tier always gets enough capacity to hold the entire
 * footprint (as PM does in the testbed), plus paper Table 2 latencies
 * and bandwidths unless overridden afterwards.
 */
memsim::MachineConfig make_machine_config(Bytes footprint, Bytes fast_bytes,
                                          Bytes page_size = 2ull << 20);

/** Size a machine from a ratio: fast = footprint * fast/(fast+slow). */
memsim::MachineConfig make_machine_config(Bytes footprint,
                                          const RatioSpec& ratio,
                                          Bytes page_size = 2ull << 20);

/** Everything needed for one run. */
struct RunSpec {
    std::string workload;           ///< Factory workload name.
    std::string policy;             ///< Registry policy name.
    RatioSpec ratio{1, 1};          ///< DRAM:PM capacity ratio.
    std::uint64_t accesses = 8000000;
    std::uint64_t seed = 42;
    EngineConfig engine;            ///< Cadence / instrumentation.
    /**
     * Multi-tenant serving shape (DESIGN.md §13). Inert at the default
     * tenants=1: the run takes the plain single-tenant path and is
     * byte-identical to one without the subsystem. With tenants > 1 the
     * workload name becomes the base of the tenant mix, `accesses` is
     * the aggregate budget split evenly across tenants, and the machine
     * gets a TenantLedger with the configured quotas and admission
     * controller installed.
     */
    tenancy::TenancyConfig tenancy;
};

/**
 * Parse --ratio=F:S, or return @p fallback when the flag is absent.
 * Both parts must be positive integers (parse_uint) no larger than
 * INT_MAX / 2, so fast + slow cannot overflow; anything else fatal()s
 * naming --ratio and the text.
 */
RatioSpec parse_ratio_cli(const CliArgs& args, RatioSpec fallback);

/** The transactional-migration flags parse_tx_cli() reads. */
inline constexpr std::string_view kTxFlags[] = {
    "tx-migration", "tx-seed", "tx-write-ratio", "tx-max-inflight"};

/**
 * Parse the transactional-migration flags of the artmem CLI:
 * --tx-migration plus the --tx-seed, --tx-write-ratio and
 * --tx-max-inflight knobs. A tx knob given without --tx-migration
 * fatal()s; the caller rejects flags outside kTxFlags.
 */
memsim::TxConfig parse_tx_cli(const CliArgs& args);

/** Run one fully specified experiment (constructs everything). */
RunResult run_experiment(const RunSpec& spec);

/**
 * Run with a caller-provided policy instance (e.g. a custom-configured
 * ArtMem) instead of a registry name.
 */
RunResult run_experiment(const RunSpec& spec, policies::Policy& policy);

}  // namespace artmem::sim

#endif  // ARTMEM_SIM_EXPERIMENT_HPP
