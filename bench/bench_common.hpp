/**
 * @file
 * Shared plumbing for the figure/table bench harnesses: common CLI
 * flags (--accesses, --seed, --quick, --csv, --jobs), the
 * sweep-runner construction, result emission, and the normalization
 * helpers the figures share. Every harness returns from main through
 * finish_stdout().
 */
#ifndef ARTMEM_BENCH_COMMON_HPP
#define ARTMEM_BENCH_COMMON_HPP

#include <algorithm>
#include <initializer_list>
#include <iostream>
#include <string>
#include <string_view>

#include "sim/experiment.hpp"
#include "sweep/sweep.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/output.hpp"
#include "util/table.hpp"

namespace artmem::bench {

/**
 * Flags every harness accepts.
 *
 * --quick divides the harness's *default* access count by 4 for a fast
 * smoke run; an explicit --accesses=N is always taken verbatim, with
 * or without --quick (so --quick cannot silently shrink a count the
 * user asked for).
 */
struct BenchOptions {
    std::uint64_t accesses = 8000000;
    std::uint64_t seed = 42;
    bool csv = false;
    /** Sweep worker threads (--jobs); 0 = one per hardware thread. */
    unsigned jobs = 0;

    /**
     * Parse the shared flag set; @p extra_flags names any harness-
     * specific flags. Anything else is a typo — fatal() naming the
     * offending flag rather than silently running the default
     * configuration.
     */
    static BenchOptions
    parse(int argc, char** argv, std::uint64_t default_accesses = 8000000,
          std::initializer_list<std::string_view> extra_flags = {})
    {
        const auto args = CliArgs::parse(argc, argv);
        static constexpr std::string_view kShared[] = {
            "accesses", "seed", "quick", "csv", "jobs"};
        args.reject_unknown(
            {kShared, {extra_flags.begin(), extra_flags.size()}},
            "known flags: --accesses --seed --quick --csv --jobs and "
            "harness-specific ones; see the file header of this bench");
        BenchOptions opt;
        if (args.has("accesses")) {
            opt.accesses = args.get_uint("accesses", default_accesses);
        } else {
            opt.accesses = default_accesses;
            if (args.get_bool("quick", false))
                opt.accesses /= 4;
        }
        opt.seed = args.get_uint<std::uint64_t>("seed", 42);
        opt.csv = args.get_bool("csv", false);
        opt.jobs = args.get_uint<unsigned>("jobs", 0);
        return opt;
    }

    /** Output format selected by --csv (table otherwise). */
    Table::Format format() const
    {
        return csv ? Table::Format::kCsv : Table::Format::kTable;
    }
};

/** Print a finished table in the selected format (main returns
 *  through finish_stdout, which checks that it arrived). */
inline void
emit(Table& table, const BenchOptions& opt)
{
    table.emit(std::cout, opt.format());
}

/** Build the sweep runner configured by --jobs. */
inline sweep::SweepRunner
make_runner(const BenchOptions& opt)
{
    return sweep::SweepRunner({.jobs = opt.jobs, .progress = true});
}

/** Build a RunSpec with the harness-wide defaults applied. */
inline sim::RunSpec
make_spec(const BenchOptions& opt, std::string workload, std::string policy,
          sim::RatioSpec ratio)
{
    sim::RunSpec spec;
    spec.workload = std::move(workload);
    spec.policy = std::move(policy);
    spec.ratio = ratio;
    spec.accesses = opt.accesses;
    spec.seed = opt.seed;
    return spec;
}

/**
 * Runtime of @p r relative to @p base — the figures' "normalized to
 * AutoNUMA at 1:16" / "normalized to static" convention (lower is
 * better).
 */
inline double
normalized_runtime(const sim::RunResult& r, const sim::RunResult& base)
{
    return static_cast<double>(r.runtime_ns) /
           static_cast<double>(base.runtime_ns);
}

/**
 * Append the Figure 7 / Table 3 baseline job — AutoNUMA at 1:16 on
 * @p workload — to @p spec and return its index, so every harness that
 * normalizes to that baseline computes it once per workload and reuses
 * the result.
 */
inline std::size_t
add_autonuma_baseline_job(sweep::SweepSpec& spec, const BenchOptions& opt,
                          const std::string& workload)
{
    return spec.add(make_spec(opt, workload, "autonuma", {1, 16}));
}

}  // namespace artmem::bench

#endif  // ARTMEM_BENCH_COMMON_HPP
