/**
 * @file
 * Tests for the deterministic parallel sweep subsystem: seed
 * derivation, the thread pool, SweepRunner determinism across worker
 * counts, exception propagation, ResultSink emission, and the
 * BenchOptions --quick/--accesses contract.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <stdexcept>

#include "bench_common.hpp"
#include "sweep/result_sink.hpp"
#include "sweep/sweep.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

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

TEST(DeriveSeed, IndependentOfGridShape)
{
    // The same job index gets the same seed no matter how the grid
    // that produced it was shaped: 2x3 vs 3x2 vs a flat list of 6.
    sim::RunSpec prototype;
    prototype.accesses = 1000;
    auto wide = sweep::SweepSpec::grid(
        {"s1", "s2"}, {"static", "autonuma", "tpp"}, {{1, 1}}, prototype);
    auto tall = sweep::SweepSpec::grid(
        {"s1", "s2", "s3"}, {"static", "autonuma"}, {{1, 1}}, prototype);
    wide.derive_seeds(42);
    tall.derive_seeds(42);
    ASSERT_EQ(wide.jobs.size(), tall.jobs.size());
    for (std::size_t i = 0; i < wide.jobs.size(); ++i) {
        EXPECT_EQ(wide.jobs[i].spec.seed, tall.jobs[i].spec.seed);
        EXPECT_EQ(wide.jobs[i].spec.seed, derive_seed(42, i));
    }
}

TEST(SeedDomains, JobDomainIsTheLegacyStreamExactly)
{
    // Sweep goldens pin the legacy two-argument stream; the namespaced
    // overload must reproduce it bit-for-bit under kJob.
    for (const std::uint64_t base : {0ull, 42ull, 0xdeadbeefull,
                                     0x9e3779b97f4a7c15ull}) {
        for (std::uint64_t i = 0; i < 256; ++i)
            ASSERT_EQ(derive_seed(base, SeedDomain::kJob, i),
                      derive_seed(base, i))
                << "base=" << base << " i=" << i;
    }
}

// ----------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsEveryTask)
{
    ThreadPool pool(4);
    std::atomic<int> counter{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ReusableAcrossWaits)
{
    ThreadPool pool(2);
    std::atomic<int> counter{0};
    pool.submit([&counter] { ++counter; });
    pool.wait();
    pool.submit([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPool, PropagatesFirstExceptionWithoutDeadlock)
{
    ThreadPool pool(2);
    std::atomic<int> completed{0};
    for (int i = 0; i < 20; ++i) {
        pool.submit([&completed, i] {
            if (i == 3)
                throw std::runtime_error("job 3 failed");
            ++completed;
        });
    }
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // Every non-throwing task still ran; the pool stays usable.
    EXPECT_EQ(completed.load(), 19);
    pool.submit([&completed] { ++completed; });
    pool.wait();
    EXPECT_EQ(completed.load(), 20);
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

TEST(SweepRunner, GridShapeAndLabels)
{
    sim::RunSpec prototype;
    prototype.accesses = 123;
    prototype.seed = 9;
    const auto spec = sweep::SweepSpec::grid(
        {"s1", "s2"}, {"static", "tpp"}, {{1, 1}, {1, 4}}, prototype);
    ASSERT_EQ(spec.jobs.size(), 8u);
    // Nesting order: workload (outer), policy, ratio (inner).
    EXPECT_EQ(spec.jobs[0].spec.workload, "s1");
    EXPECT_EQ(spec.jobs[0].spec.policy, "static");
    EXPECT_EQ(spec.jobs[0].spec.ratio.label(), "1:1");
    EXPECT_EQ(spec.jobs[1].spec.ratio.label(), "1:4");
    EXPECT_EQ(spec.jobs[2].spec.policy, "tpp");
    EXPECT_EQ(spec.jobs[4].spec.workload, "s2");
    const std::vector<std::string> labels{"s2", "tpp", "1:4"};
    EXPECT_EQ(spec.jobs[7].labels, labels);
    EXPECT_EQ(spec.jobs[7].spec.accesses, 123u);
    EXPECT_EQ(spec.jobs[7].spec.seed, 9u);
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
    const auto spec = sweep::SweepSpec::grid(
        {"s1"}, {"static", "autonuma", "memtis", "artmem"},
        {{1, 1}, {1, 4}}, prototype);

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
    spec.add(run_spec, {"default"});
    spec.add_with_policy(run_spec, {"factory"},
                         [] { return sim::make_policy("memtis", 42); });
    spec.add_run({"custom"}, [run_spec] {
        return sim::run_experiment(run_spec);
    });
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
    spec.add(ok, {"ok"});
    spec.add_run({"boom"}, []() -> sim::RunResult {
        throw std::runtime_error("boom");
    });
    spec.add(ok, {"ok2"});
    sweep::SweepRunner runner({.jobs = 2, .progress = false});
    EXPECT_THROW(runner.run(spec), std::runtime_error);
}

// ----------------------------------------------------------- ResultSink

TEST(ResultSink, CsvMatchesTableOutput)
{
    sweep::ResultSink sink({"workload", "runtime"});
    sink.row().cell(std::string("s1")).cell(1.25, 2);
    sink.row().cell(std::string("s2")).cell(0.5, 2);
    std::ostringstream csv;
    ASSERT_TRUE(sink.emit(csv, sweep::Format::kCsv));
    EXPECT_EQ(csv.str(), "workload,runtime\ns1,1.25\ns2,0.50\n");

    Table table({"workload", "runtime"});
    table.row().cell(std::string("s1")).cell(1.25, 2);
    table.row().cell(std::string("s2")).cell(0.5, 2);
    std::ostringstream table_csv;
    table.print_csv(table_csv);
    EXPECT_EQ(csv.str(), table_csv.str());
}

TEST(ResultSink, JsonQuotesLabelsAndEmitsNumbersRaw)
{
    sweep::ResultSink sink({"policy", "ratio", "runtime"});
    sink.row()
        .cell(std::string("artmem"))
        .cell(std::string("1:16"))
        .cell(1.5, 3);
    std::ostringstream os;
    ASSERT_TRUE(sink.emit(os, sweep::Format::kJson));
    EXPECT_EQ(os.str(), "[\n  {\"policy\": \"artmem\", "
                        "\"ratio\": \"1:16\", \"runtime\": 1.500}\n]\n");
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
    EXPECT_EQ(parse_options({}).format(), sweep::Format::kTable);
    EXPECT_EQ(parse_options({"--csv"}).format(), sweep::Format::kCsv);
    EXPECT_EQ(parse_options({"--json"}).format(), sweep::Format::kJson);
}

}  // namespace
}  // namespace artmem
