/**
 * @file
 * Unit tests for the util substrate: RNG, Zipfian, statistics, table
 * printing, config and CLI parsing.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "util/cli.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/types.hpp"
#include "util/zipf.hpp"

namespace artmem {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += a.next() == b.next();
    EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Rng, NextBelowCoversRange)
{
    Rng rng(7);
    std::vector<int> seen(8, 0);
    for (int i = 0; i < 8000; ++i)
        ++seen[rng.next_below(8)];
    for (int count : seen)
        EXPECT_GT(count, 500);  // roughly uniform
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(99);
    for (int i = 0; i < 10000; ++i) {
        const double x = rng.next_double();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(Rng, NextRangeInclusive)
{
    Rng rng(5);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.next_range(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo |= v == 3;
        saw_hi |= v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ForkIsIndependent)
{
    Rng parent(11);
    Rng child = parent.fork();
    EXPECT_NE(parent.next(), child.next());
}

TEST(ByteLiterals, ScaleCorrectly)
{
    EXPECT_EQ(1_KiB, 1024ull);
    EXPECT_EQ(1_MiB, 1024ull * 1024);
    EXPECT_EQ(2_GiB, 2ull * 1024 * 1024 * 1024);
    EXPECT_EQ(1_ms, 1000000ull);
    EXPECT_EQ(2_s, 2000000000ull);
}

TEST(Zipf, RankZeroMostPopular)
{
    Rng rng(42);
    ZipfianGenerator zipf(1000, 0.99);
    std::vector<int> hits(1000, 0);
    for (int i = 0; i < 100000; ++i)
        ++hits[zipf.next(rng)];
    EXPECT_GT(hits[0], hits[10]);
    EXPECT_GT(hits[0], hits[999]);
    // Rank 0 of a theta=0.99 Zipfian draws roughly 1/zeta share.
    EXPECT_GT(hits[0], 100000 / 20);
}

TEST(Zipf, AllDrawsInRange)
{
    Rng rng(42);
    ZipfianGenerator zipf(50, 0.7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(zipf.next(rng), 50u);
}

TEST(OnlineStats, MeanAndVariance)
{
    OnlineStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(OnlineStats, MergeMatchesSequential)
{
    OnlineStats a, b, all;
    for (int i = 0; i < 50; ++i) {
        const double x = std::sin(i) * 10;
        (i % 2 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(OnlineStats, MergeEmptyIntoPopulatedIsNoop)
{
    // An accumulator that never saw a sample carries zero-initialized
    // min/max; merging it must not pull an all-negative population's
    // extrema toward 0 (telemetry gauges merge empty shards routinely).
    OnlineStats a, empty;
    a.add(-3.0);
    a.add(-1.0);
    a.merge(empty);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.min(), -3.0);
    EXPECT_DOUBLE_EQ(a.max(), -1.0);
    EXPECT_DOUBLE_EQ(a.mean(), -2.0);
}

TEST(OnlineStats, MergePopulatedIntoEmptyAdopts)
{
    OnlineStats empty, b;
    b.add(-3.0);
    b.add(-1.0);
    empty.merge(b);
    EXPECT_EQ(empty.count(), 2u);
    EXPECT_DOUBLE_EQ(empty.min(), -3.0);
    EXPECT_DOUBLE_EQ(empty.max(), -1.0);
}

TEST(OnlineStats, MergeTwoEmptiesStaysEmpty)
{
    OnlineStats a, b;
    a.merge(b);
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_DOUBLE_EQ(a.min(), 0.0);
    EXPECT_DOUBLE_EQ(a.max(), 0.0);
}

TEST(Pearson, PerfectCorrelation)
{
    std::vector<double> x{1, 2, 3, 4, 5};
    std::vector<double> y{2, 4, 6, 8, 10};
    EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
    std::vector<double> neg{10, 8, 6, 4, 2};
    EXPECT_NEAR(pearson(x, neg), -1.0, 1e-12);
}

TEST(Pearson, ZeroVarianceIsZero)
{
    std::vector<double> x{1, 1, 1};
    std::vector<double> y{1, 2, 3};
    EXPECT_DOUBLE_EQ(pearson(x, y), 0.0);
}

TEST(Stats, GeomeanAndMean)
{
    std::vector<double> xs{1.0, 4.0, 16.0};
    EXPECT_NEAR(geomean(xs), 4.0, 1e-12);
    EXPECT_NEAR(mean(xs), 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Table, AlignsAndCounts)
{
    Table t({"name", "value"});
    t.row().cell("alpha").cell(1.5, 2);
    t.row().cell("b").cell(std::uint64_t{42});
    std::ostringstream os;
    t.print(os);
    EXPECT_EQ(t.row_count(), 2u);
    const std::string out = os.str();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("1.50"), std::string::npos);
    EXPECT_NE(out.find("42"), std::string::npos);
}

TEST(Table, CsvOutput)
{
    Table t({"a", "b"});
    t.add_row({"1", "2"});
    std::ostringstream os;
    t.print_csv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(KvConfig, ParsesTypesAndComments)
{
    const auto cfg = KvConfig::parse(
        "# comment\n"
        "name = hello\n"
        "count = 42   # trailing comment\n"
        "ratio = 0.5\n"
        "flag = true\n");
    EXPECT_EQ(cfg.get_string("name", ""), "hello");
    EXPECT_EQ(cfg.get_int("count", 0), 42);
    EXPECT_DOUBLE_EQ(cfg.get_double("ratio", 0), 0.5);
    EXPECT_TRUE(cfg.get_bool("flag", false));
    EXPECT_EQ(cfg.get_int("missing", 7), 7);
    EXPECT_EQ(cfg.size(), 4u);
}

TEST(KvConfig, OverwriteAndHas)
{
    KvConfig cfg;
    cfg.set("k", "1");
    cfg.set("k", "2");
    EXPECT_EQ(cfg.get_int("k", 0), 2);
    EXPECT_TRUE(cfg.has("k"));
    EXPECT_FALSE(cfg.has("other"));
}

TEST(CliArgs, ParsesAllForms)
{
    const char* argv[] = {"prog", "--alpha=0.5", "--name=x", "--verbose",
                          "positional"};
    auto args = CliArgs::parse(5, const_cast<char**>(argv));
    EXPECT_DOUBLE_EQ(args.get_double("alpha", 0), 0.5);
    EXPECT_EQ(args.get_string("name", ""), "x");
    EXPECT_TRUE(args.get_bool("verbose", false));
    ASSERT_EQ(args.positional().size(), 1u);
    EXPECT_EQ(args.positional()[0], "positional");
    EXPECT_FALSE(args.has("missing"));
    EXPECT_EQ(args.get_int("missing", 9), 9);
}

}  // namespace
}  // namespace artmem
