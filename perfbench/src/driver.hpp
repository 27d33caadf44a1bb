/**
 * @file
 * The benchmark's workloads and the two ways it drives one simulation
 * job: through the library engine (sim::run_simulation, the timed
 * path) or through a traced copy of that engine loop that calls each
 * layer's public functions in the same order and records a span around
 * every call.
 */
#ifndef PERFBENCH_DRIVER_HPP
#define PERFBENCH_DRIVER_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/experiment.hpp"
#include "spans.hpp"

namespace perfbench {

/** One benchmark workload: the jobs of one repetition. */
struct Workload {
    std::string name;
    std::vector<artmem::sim::RunSpec> jobs;
    /** SweepRunner worker threads for a repetition. */
    unsigned workers = 1;
};

/**
 * Build the named workload (ycsb, s2_tx_storm, tenants16 or
 * policy_sweep) from @p seed. @p quick shrinks every job's
 * access count for the self-test. nullopt for an unknown name.
 */
std::optional<Workload> make_workload(std::string_view name,
                                      std::uint64_t seed, bool quick);

/** How run_job() drives the simulation. */
enum class Mode {
    kLibrary,        ///< sim::run_simulation, no spans.
    kTraced,         ///< Traced driver loop.
    kTracedAudited,  ///< Traced loop plus an invariant audit per interval.
};

/** Generator fills per timed chunk: 32768 accesses at the default batch. */
inline constexpr std::uint64_t kChunkFills = 64;

/** What one job produced and what it cost. */
struct JobOutcome {
    artmem::sim::RunResult result;
    std::int64_t setup_ns = 0;  ///< Generator, machine and policy.
    std::int64_t run_ns = 0;    ///< The driver loop alone.
    /**
     * run_ns split into chunks of kChunkFills generator fills (kLibrary
     * mode). The chunks cut the same simulated work in every
     * repetition of a job, so chunk i of one repetition can be set
     * against chunk i of another.
     */
    std::vector<std::int64_t> chunk_ns;
    /** PEBS samples delivered to on_samples (traced modes). */
    std::uint64_t samples_delivered = 0;
    /** Audits that threw or examined nothing (kTracedAudited). */
    std::uint64_t violations = 0;
    /** Non-empty when the job failed; the message says why. */
    std::string error;
    SpanLog spans;
};

/** Build and run one job; never throws (failures land in error). */
JobOutcome run_job(const artmem::sim::RunSpec& spec, Mode mode,
                   std::uint64_t run_id);

/**
 * First difference between two results over every simulated output
 * (runtime, accesses, fast ratio, machine counters, PEBS counts,
 * tenant summaries), or empty when they are identical. Host-side
 * fields (audit count, telemetry) are not compared.
 */
std::string compare(const artmem::sim::RunResult& a,
                    const artmem::sim::RunResult& b);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_HPP
