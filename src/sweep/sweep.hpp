/**
 * @file
 * Deterministic parallel sweep subsystem.
 *
 * Every evaluation in the paper is a grid of independent simulations
 * (Figure 7 alone is 8 workloads x 6 ratios x 8 policies). A sweep is
 * described declaratively as a SweepSpec — an ordered list of SweepJob
 * entries, each carrying everything needed to run it —
 * and executed by a SweepRunner, whose threads take job indexes in
 * order from one atomic counter.
 *
 * Determinism contract: a job is a pure function of its SweepJob.
 * Each job constructs its own generator, policy, and TieredMachine on
 * the worker thread (no shared mutable state), its seed is fixed when
 * the spec is built (never by scheduling), and results land in a vector
 * ordered by job index.
 * Emitted numbers are therefore bit-identical between --jobs 1 and
 * --jobs N; ctest golden.fig7_main_csv_jobs1 and golden.fig7_main_csv
 * compare both runs with one golden.
 */
#ifndef ARTMEM_SWEEP_SWEEP_HPP
#define ARTMEM_SWEEP_SWEEP_HPP

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "sim/experiment.hpp"

namespace artmem::sweep {

/** One unit of work: everything needed to run it. */
struct SweepJob {
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
    std::size_t add(sim::RunSpec spec)
    {
        SweepJob job;
        job.spec = std::move(spec);
        return add(std::move(job));
    }

    /** Append a job with a custom policy factory. */
    std::size_t
    add_with_policy(sim::RunSpec spec,
                    std::function<std::unique_ptr<policies::Policy>()> make)
    {
        SweepJob job;
        job.spec = std::move(spec);
        job.make_policy = std::move(make);
        return add(std::move(job));
    }

    /** Append a fully custom job (its own machine/generator/probe). */
    std::size_t add_run(std::function<sim::RunResult()> run)
    {
        SweepJob job;
        job.run = std::move(run);
        return add(std::move(job));
    }
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
 * Executes SweepSpecs (and arbitrary indexed job sets) on a fixed set
 * of threads, collecting results in deterministic job order.
 */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepOptions options = {});

    /**
     * Run every job of @p spec; result i corresponds to spec.jobs[i]
     * regardless of completion order. Every job runs even after one
     * throws; once all have finished, the exception of the
     * lowest-index failed job is rethrown here.
     */
    std::vector<sim::RunResult> run(const SweepSpec& spec);

    /**
     * Generic escape hatch for sweeps whose per-job product is not a
     * RunResult (heatmaps, MLC probes): apply @p fn to every index in
     * [0, n) and collect the returns by index, with run()'s exception
     * contract. T must be default-constructible; @p fn must follow the
     * same isolation rule as SweepJob::run.
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
    /**
     * Shared body of run() and map(): options_.jobs - 1 threads plus
     * the caller take indexes from one atomic counter until all n are
     * taken; then the lowest-index exception, if any, is rethrown.
     */
    void run_indexed(std::size_t n,
                     const std::function<void(std::size_t)>& fn);

    SweepOptions options_;
};

/** Run one SweepJob in isolation (the default runner logic). */
sim::RunResult run_job(const SweepJob& job);

}  // namespace artmem::sweep

#endif  // ARTMEM_SWEEP_SWEEP_HPP
