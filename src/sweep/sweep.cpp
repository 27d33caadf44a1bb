#include "sweep/sweep.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <thread>
#include <vector>

namespace artmem::sweep {

namespace {

/**
 * Worker-shared "k/N jobs done" + ETA reporter. Writes to stderr only
 * (and only when stderr is a terminal), so it can never feed the result
 * vector and cannot break bit-identity. The ETA wall clock is likewise
 * reporting-only. The atomic count is the only state workers write;
 * the final N/N line and its newline come from finish(), called once
 * after the workers join, so no worker's late update can land after it.
 */
class ProgressMeter
{
  public:
    ProgressMeter(bool enabled, std::size_t total)
        : enabled_(enabled), total_(total),
          start_(Clock::now())
    {
    }

    void
    job_done()
    {
        if (!enabled_)
            return;
        const std::size_t done = ++done_;
        if (done < total_)
            print(done, "");
    }

    void
    finish() const
    {
        if (enabled_)
            print(total_, "\n");
    }

  private:
    // lint:allow(DL001) ETA on stderr only; never feeds results
    using Clock = std::chrono::steady_clock;

    void
    print(std::size_t done, const char* end) const
    {
        const double elapsed =
            std::chrono::duration<double>(Clock::now() - start_).count();
        const double eta = elapsed / static_cast<double>(done) *
                           static_cast<double>(total_ - done);
        std::fprintf(stderr, "\rsweep: %zu/%zu jobs done, eta %.1fs%s",
                     done, total_, eta, end);
        std::fflush(stderr);
    }

    const bool enabled_;
    const std::size_t total_;
    const Clock::time_point start_;
    std::atomic<std::size_t> done_{0};
};

}  // namespace

sim::RunResult
run_job(const SweepJob& job)
{
    if (job.run)
        return job.run();
    if (job.make_policy) {
        auto policy = job.make_policy();
        return sim::run_experiment(job.spec, *policy);
    }
    return sim::run_experiment(job.spec);
}

SweepRunner::SweepRunner(SweepOptions options) : options_(options) {}

std::vector<sim::RunResult>
SweepRunner::run(const SweepSpec& spec)
{
    return map<sim::RunResult>(spec.jobs.size(), [&](std::size_t i) {
        return run_job(spec.jobs[i]);
    });
}

void
SweepRunner::run_indexed(std::size_t n,
                         const std::function<void(std::size_t)>& fn)
{
    ProgressMeter progress(
        options_.progress && n > 1 && isatty(fileno(stderr)) != 0, n);

    // Each job writes only its own result and error slots, so neither
    // the results nor the rethrown error depend on which thread took
    // which index, or in what order the jobs finished.
    std::vector<std::exception_ptr> errors(n);
    std::atomic<std::size_t> next{0};
    const auto take_jobs = [&] {
        for (std::size_t i = next++; i < n; i = next++) {
            try {
                fn(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
            progress.job_done();
        }
    };

    const unsigned workers =
        options_.jobs != 0 ? options_.jobs
                           : std::max(1u, std::thread::hardware_concurrency());
    {
        std::vector<std::jthread> helpers;
        for (std::size_t t = 1; t < std::min<std::size_t>(workers, n); ++t)
            helpers.emplace_back(take_jobs);
        take_jobs();
    }  // The helpers join here, which publishes every slot they wrote.
    progress.finish();

    for (const auto& error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
}

}  // namespace artmem::sweep
