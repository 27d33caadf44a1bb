/**
 * @file
 * Deterministic parallel sweep subsystem.
 *
 * Every evaluation in the paper is a grid of independent simulations
 * (Figure 7 alone is 8 workloads x 6 ratios x 8 policies). A sweep is
 * described declaratively as a SweepSpec — an ordered list of SweepJob
 * entries, each carrying its labels and everything needed to run it —
 * and executed by a SweepRunner over a bounded worker pool
 * (util/thread_pool.hpp).
 *
 * Determinism contract: a job is a pure function of its SweepJob.
 * Each job constructs its own generator, policy, and TieredMachine on
 * the worker thread (no shared mutable state), its seed is fixed when
 * the spec is built (optionally via derive_seed(base, index), never
 * from scheduling), and results land in a vector ordered by job index.
 * Emitted numbers are therefore bit-identical between --jobs 1 and
 * --jobs N; scripts/ci.sh diffs a two-way run byte-for-byte.
 */
#ifndef ARTMEM_SWEEP_SWEEP_HPP
#define ARTMEM_SWEEP_SWEEP_HPP

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/experiment.hpp"

namespace artmem::sweep {

/** One unit of work: a fully specified run plus its table labels. */
struct SweepJob {
    /** Key cells identifying the job (workload, policy, ratio, ...);
     *  carried through to the result assembly / ResultSink. */
    std::vector<std::string> labels;

    /** Consumed by the default runner (sim::run_experiment). */
    sim::RunSpec spec;

    /**
     * Optional factory for a custom-configured policy (ablations,
     * pretrained Q-tables, tuned thresholds). Called on the worker
     * thread; must return a fresh instance per call and capture only
     * immutable state.
     */
    std::function<std::unique_ptr<policies::Policy>()> make_policy;

    /**
     * Fully custom runner (custom machines, mixed generators, MLC
     * probes). Overrides spec/make_policy when set; the same isolation
     * rule applies: build everything locally, share nothing mutable.
     */
    std::function<sim::RunResult()> run;
};

/** A declarative batch of independent jobs, executed in spec order. */
struct SweepSpec {
    std::vector<SweepJob> jobs;

    /** Append @p job; returns its index (== result vector index). */
    std::size_t add(SweepJob job)
    {
        jobs.push_back(std::move(job));
        return jobs.size() - 1;
    }

    /** Append a default-runner job. */
    std::size_t add(sim::RunSpec spec, std::vector<std::string> labels = {})
    {
        SweepJob job;
        job.labels = std::move(labels);
        job.spec = std::move(spec);
        return add(std::move(job));
    }

    /** Append a job with a custom policy factory. */
    std::size_t
    add_with_policy(sim::RunSpec spec, std::vector<std::string> labels,
                    std::function<std::unique_ptr<policies::Policy>()> make)
    {
        SweepJob job;
        job.labels = std::move(labels);
        job.spec = std::move(spec);
        job.make_policy = std::move(make);
        return add(std::move(job));
    }

    /** Append a fully custom job (its own machine/generator/probe). */
    std::size_t add_run(std::vector<std::string> labels,
                        std::function<sim::RunResult()> run)
    {
        SweepJob job;
        job.labels = std::move(labels);
        job.run = std::move(run);
        return add(std::move(job));
    }

    /**
     * The classic workload x policy x ratio grid, flattened in that
     * nesting order with labels {workload, policy, ratio}. Every job
     * copies @p prototype (accesses, seed, engine config) before the
     * three key fields are overwritten.
     */
    static SweepSpec grid(const std::vector<std::string>& workloads,
                          const std::vector<std::string>& policies,
                          const std::vector<sim::RatioSpec>& ratios,
                          const sim::RunSpec& prototype);

    /**
     * Reseed every job with derive_seed(base_seed, SeedDomain::kJob,
     * index): independent per-job streams that depend only on the
     * job's position in the spec. The kJob domain is the legacy
     * two-argument stream, so existing goldens are unchanged; tenant
     * streams derive from the disjoint kTenant domain, so job i and
     * tenant i of any job can never share a stream (util/rng.hpp). Off
     * by default — the paper convention runs every cell at one shared
     * seed — and therefore opt-in (artmem sweep --derive-seeds).
     */
    void derive_seeds(std::uint64_t base_seed);
};

/** Execution knobs for SweepRunner. */
struct SweepOptions {
    /** Worker threads; 0 means one per hardware thread. */
    unsigned jobs = 0;
    /**
     * Report "k/N jobs done" + ETA on stderr while running. Only
     * emitted when stderr is a terminal, so piped/CI output is
     * unaffected either way.
     */
    bool progress = true;
};

/**
 * Executes SweepSpecs (and arbitrary indexed job sets) on a bounded
 * worker pool, collecting results in deterministic job order.
 */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepOptions options = {});

    /**
     * Run every job of @p spec; result i corresponds to spec.jobs[i]
     * regardless of completion order. The first exception a job throws
     * is rethrown here after the remaining jobs finish.
     */
    std::vector<sim::RunResult> run(const SweepSpec& spec);

    /**
     * Generic escape hatch for sweeps whose per-job product is not a
     * RunResult (heatmaps, MLC probes): apply @p fn to every index in
     * [0, n) on the pool and collect the returns by index. T must be
     * default-constructible; @p fn must follow the same isolation rule
     * as SweepJob::run.
     */
    template <typename T>
    std::vector<T> map(std::size_t n,
                       const std::function<T(std::size_t)>& fn)
    {
        std::vector<T> results(n);
        run_indexed(n, [&](std::size_t i) { results[i] = fn(i); });
        return results;
    }

  private:
    /** Shared driver: pool dispatch, progress, exception propagation. */
    void run_indexed(std::size_t n,
                     const std::function<void(std::size_t)>& fn);

    SweepOptions options_;
};

/** Run one SweepJob in isolation (the default runner logic). */
sim::RunResult run_job(const SweepJob& job);

}  // namespace artmem::sweep

#endif  // ARTMEM_SWEEP_SWEEP_HPP
