/**
 * @file
 * Tests for the deterministic parallel sweep subsystem: seed
 * derivation, SweepRunner determinism across worker counts, exception
 * propagation, result emission, and the BenchOptions --quick/--accesses
 * contract.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <stdexcept>

#include "bench_common.hpp"
#include "sweep/sweep.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace artmem {
namespace {

using bench::BenchOptions;

// ---------------------------------------------------------------- seeds

TEST(DeriveSeed, PureFunctionOfBaseAndIndex)
{
    EXPECT_EQ(derive_seed(42, 0), derive_seed(42, 0));
    EXPECT_EQ(derive_seed(42, 17), derive_seed(42, 17));
    EXPECT_NE(derive_seed(42, 0), derive_seed(42, 1));
    EXPECT_NE(derive_seed(42, 0), derive_seed(43, 0));
}

TEST(DeriveSeed, DecorrelatedAcrossIndices)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 1000; ++i)
        seen.insert(derive_seed(7, i));
    EXPECT_EQ(seen.size(), 1000u);
}

// ---------------------------------------------------------- SweepRunner

TEST(SweepRunner, MapCollectsResultsInIndexOrder)
{
    sweep::SweepRunner runner({.jobs = 4, .progress = false});
    const auto out = runner.map<std::size_t>(
        64, [](std::size_t i) { return i * 3 + 1; });
    ASSERT_EQ(out.size(), 64u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * 3 + 1);
}

/** The full result fields the benches consume, for exact comparison. */
void
expect_identical(const sim::RunResult& a, const sim::RunResult& b)
{
    EXPECT_EQ(a.runtime_ns, b.runtime_ns);
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.fast_ratio, b.fast_ratio);
    EXPECT_EQ(a.totals.promoted_pages, b.totals.promoted_pages);
    EXPECT_EQ(a.totals.demoted_pages, b.totals.demoted_pages);
    EXPECT_EQ(a.totals.exchanges, b.totals.exchanges);
    EXPECT_EQ(a.pebs_recorded, b.pebs_recorded);
}

TEST(SweepRunner, SerialAndParallelResultsIdentical)
{
    sim::RunSpec prototype;
    prototype.accesses = 60000;
    prototype.seed = 42;
    prototype.workload = "s1";
    sweep::SweepSpec spec;
    for (const char* policy : {"static", "autonuma", "memtis", "artmem"}) {
        for (const sim::RatioSpec ratio : {sim::RatioSpec{1, 1}, {1, 4}}) {
            sim::RunSpec run = prototype;
            run.policy = policy;
            run.ratio = ratio;
            spec.add(std::move(run));
        }
    }

    sweep::SweepRunner serial({.jobs = 1, .progress = false});
    sweep::SweepRunner parallel({.jobs = 4, .progress = false});
    const auto a = serial.run(spec);
    const auto b = parallel.run(spec);
    ASSERT_EQ(a.size(), spec.jobs.size());
    ASSERT_EQ(b.size(), spec.jobs.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        expect_identical(a[i], b[i]);
}

TEST(SweepRunner, CustomRunAndPolicyFactoryJobs)
{
    // A custom-run job and a make_policy job produce the same numbers
    // as the default runner for an equivalent configuration.
    sweep::SweepSpec spec;
    sim::RunSpec run_spec;
    run_spec.workload = "s1";
    run_spec.policy = "memtis";
    run_spec.accesses = 50000;
    spec.add(run_spec);
    spec.add_with_policy(run_spec,
                         [] { return sim::make_policy("memtis", 42); });
    spec.add_run([run_spec] { return sim::run_experiment(run_spec); });
    sweep::SweepRunner runner({.jobs = 3, .progress = false});
    const auto out = runner.run(spec);
    ASSERT_EQ(out.size(), 3u);
    expect_identical(out[0], out[1]);
    expect_identical(out[0], out[2]);
}

TEST(SweepRunner, JobExceptionPropagates)
{
    sweep::SweepSpec spec;
    sim::RunSpec ok;
    ok.workload = "s1";
    ok.policy = "static";
    ok.accesses = 20000;
    spec.add(ok);
    spec.add_run([]() -> sim::RunResult { throw std::runtime_error("boom"); });
    spec.add(ok);
    sweep::SweepRunner runner({.jobs = 2, .progress = false});
    EXPECT_THROW(runner.run(spec), std::runtime_error);
}

TEST(SweepRunner, EveryJobRunsAndLowestIndexErrorIsRethrown)
{
    for (const unsigned jobs : {1u, 2u, 4u}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        sweep::SweepRunner runner({.jobs = jobs, .progress = false});
        std::vector<std::atomic<int>> ran(20);
        try {
            (void)runner.map<int>(20, [&](std::size_t i) -> int {
                ++ran[i];
                if (i == 3 || i == 11)
                    throw std::runtime_error("job " + std::to_string(i));
                return 0;
            });
            ADD_FAILURE() << "no job error was rethrown";
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "job 3");
        }
        for (std::size_t i = 0; i < ran.size(); ++i)
            EXPECT_EQ(ran[i].load(), 1) << "job " << i;

        // The runner holds no state from the failed map.
        const auto out = runner.map<std::size_t>(
            9, [](std::size_t i) { return i * i; });
        for (std::size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(out[i], i * i);
    }
}

// ----------------------------------------------------------- ResultSink

// Sweep results leave through util::Table::emit. Its CSV holds the same
// rows and cells, in the same order, as the aligned table of those rows.
TEST(ResultSink, CsvMatchesTableOutput)
{
    Table table({"workload", "runtime"});
    table.row().cell(std::string("s1")).cell(1.25, 2);
    table.row().cell(std::string("s2")).cell(0.5, 2);
    std::ostringstream csv;
    table.emit(csv, Table::Format::kCsv);
    EXPECT_EQ(csv.str(), "workload,runtime\ns1,1.25\ns2,0.50\n");

    std::ostringstream aligned;
    table.emit(aligned, Table::Format::kTable);
    // Skip the rule under the header; cells are whitespace-separated.
    std::istringstream lines(aligned.str());
    std::string line;
    std::string from_table;
    while (std::getline(lines, line)) {
        if (line.find_first_not_of('-') == std::string::npos)
            continue;
        std::istringstream cells(line);
        std::string cell;
        std::string joined;
        while (cells >> cell)
            joined += (joined.empty() ? "" : ",") + cell;
        from_table += joined + "\n";
    }
    EXPECT_EQ(csv.str(), from_table);
}

// ----------------------------------------------------------- bench CLI

BenchOptions
parse_options(std::vector<std::string> argv_strings)
{
    argv_strings.insert(argv_strings.begin(), "bench");
    std::vector<char*> argv;
    argv.reserve(argv_strings.size());
    for (auto& arg : argv_strings)
        argv.push_back(arg.data());
    return BenchOptions::parse(static_cast<int>(argv.size()), argv.data(),
                               8000000);
}

TEST(BenchOptions, QuickScalesOnlyTheDefaultAccessCount)
{
    EXPECT_EQ(parse_options({}).accesses, 8000000u);
    EXPECT_EQ(parse_options({"--quick"}).accesses, 2000000u);
    // An explicit --accesses is taken verbatim, even with --quick.
    EXPECT_EQ(parse_options({"--accesses=600"}).accesses, 600u);
    EXPECT_EQ(parse_options({"--quick", "--accesses=600"}).accesses, 600u);
}

TEST(BenchOptions, JobsAndFormatFlags)
{
    EXPECT_EQ(parse_options({}).jobs, 0u);
    EXPECT_EQ(parse_options({"--jobs=4"}).jobs, 4u);
    EXPECT_EQ(parse_options({}).format(), Table::Format::kTable);
    EXPECT_EQ(parse_options({"--csv"}).format(), Table::Format::kCsv);
}

}  // namespace
}  // namespace artmem
