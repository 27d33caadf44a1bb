/**
 * @file
 * Unit tests for the util substrate: RNG, Zipfian, statistics, table
 * printing, config and CLI parsing, and the up-front check of a Q-table
 * file the CLI is given.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <vector>

#include "core/artmem.hpp"
#include "memsim/fault_injector.hpp"
#include "rl/qtable.hpp"
#include "sim/experiment.hpp"
#include "tenancy/tenancy.hpp"
#include "util/cli.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/types.hpp"
#include "util/zipf.hpp"
#include "workloads/masim.hpp"

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
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Table, AlignsAndCounts)
{
    Table t({"name", "value"});
    t.row().cell("alpha").cell(1.5, 2);
    t.row().cell("b").cell(std::uint64_t{42});
    std::ostringstream os;
    t.emit(os, Table::Format::kTable);
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
    t.emit(os, Table::Format::kCsv);
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
    EXPECT_EQ(cfg.get_uint<unsigned>("count", 0), 42u);
    EXPECT_DOUBLE_EQ(cfg.get_double("ratio", 0), 0.5);
    EXPECT_TRUE(cfg.get_bool("flag", false));
    EXPECT_EQ(cfg.get_uint<unsigned>("missing", 7), 7u);
    EXPECT_EQ(cfg.size(), 4u);
}

TEST(KvConfig, OverwriteAndHas)
{
    KvConfig cfg;
    cfg.set("k", "1");
    cfg.set("k", "2");
    EXPECT_EQ(cfg.get_uint<unsigned>("k", 0), 2u);
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
    EXPECT_EQ(args.get_uint<unsigned>("missing", 9), 9u);
}

/** Parse a command line given as flags after the program name. */
CliArgs
cli(std::vector<const char*> flags)
{
    flags.insert(flags.begin(), "prog");
    return CliArgs::parse(static_cast<int>(flags.size()),
                          const_cast<char**>(flags.data()));
}

TEST(CliArgs, UnsignedFlagsParse)
{
    // Decimal only: a leading zero does not switch to octal.
    const auto args = cli({"--accesses=2000000", "--seed=010", "--jobs=4"});
    EXPECT_EQ(args.get_uint<std::uint64_t>("accesses", 0), 2000000u);
    EXPECT_EQ(args.get_uint<std::uint64_t>("seed", 0), 10u);
    EXPECT_EQ(args.get_uint<unsigned>("jobs", 0), 4u);
    EXPECT_EQ(args.get_uint<unsigned>("missing", 7), 7u);
    EXPECT_EQ(cli({"--n=18446744073709551615"})
                  .get_uint<std::uint64_t>("n", 0),
              ~std::uint64_t{0});
}

TEST(CliArgs, IntegerOutOfRangeIsFatal)
{
    // strtoull clamps to ULLONG_MAX and sets ERANGE; the flag must not
    // run as a 1.8e19-access simulation.
    EXPECT_EXIT((void)cli({"--accesses=99999999999999999999"})
                    .get_uint<std::uint64_t>("accesses", 0),
                ::testing::ExitedWithCode(1), "--accesses is out of range");
    // Above the destination type: 2^32 would wrap an unsigned to 0.
    EXPECT_EXIT((void)cli({"--jobs=4294967296"}).get_uint<unsigned>("jobs", 0),
                ::testing::ExitedWithCode(1), "--jobs is out of range");
}

TEST(CliArgs, NegativeUnsignedFlagIsFatal)
{
    // strtoull would read "-1" as 2^64 - 1 and "-5" as 2^64 - 5.
    EXPECT_EXIT((void)cli({"--accesses=-1"}).get_uint<std::uint64_t>(
                    "accesses", 0),
                ::testing::ExitedWithCode(1),
                "--accesses must not be negative");
    EXPECT_EXIT((void)cli({"--seed= -5"}).get_uint<std::uint64_t>("seed", 0),
                ::testing::ExitedWithCode(1), "--seed must not be negative");
    EXPECT_EXIT((void)cli({"--seed=x"}).get_uint<std::uint64_t>("seed", 0),
                ::testing::ExitedWithCode(1), "--seed expects an unsigned");
}

TEST(CliArgs, NonDecimalUnsignedFlagIsFatal)
{
    // With base 0, strtoull read "0x1000" as 4096 and accepted "+5000".
    EXPECT_EXIT((void)cli({"--accesses=0x1000"}).get_uint<std::uint64_t>(
                    "accesses", 0),
                ::testing::ExitedWithCode(1),
                "--accesses must be a decimal integer, got '0x1000'");
    EXPECT_EXIT((void)cli({"--accesses=0X1000"}).get_uint<std::uint64_t>(
                    "accesses", 0),
                ::testing::ExitedWithCode(1),
                "--accesses must be a decimal integer");
    EXPECT_EXIT((void)cli({"--accesses=+5000"}).get_uint<std::uint64_t>(
                    "accesses", 0),
                ::testing::ExitedWithCode(1),
                "--accesses must be written without a sign, got '\\+5000'");
    EXPECT_EXIT((void)cli({"--seed= +5"}).get_uint<std::uint64_t>("seed", 0),
                ::testing::ExitedWithCode(1),
                "--seed must be written without a sign");
    const auto cfg = KvConfig::parse("hex = 0x10\nsigned = +3\n");
    EXPECT_EXIT((void)cfg.get_uint<std::uint64_t>("hex", 0),
                ::testing::ExitedWithCode(1),
                "key 'hex' must be a decimal integer");
    EXPECT_EXIT((void)cfg.get_uint<std::uint64_t>("signed", 0),
                ::testing::ExitedWithCode(1),
                "key 'signed' must be written without a sign");
}

TEST(CliArgs, LibraryFlagParsersRejectWrappedIntegers)
{
    EXPECT_EXIT((void)tenancy::parse_tenancy_cli(cli({"--tenants=-1"})),
                ::testing::ExitedWithCode(1), "--tenants must not be negative");
    EXPECT_EXIT((void)tenancy::parse_tenancy_cli(
                    cli({"--tenants=2", "--tenant-quantum=-4"})),
                ::testing::ExitedWithCode(1),
                "--tenant-quantum must not be negative");
    EXPECT_EXIT((void)sim::parse_tx_cli(
                    cli({"--tx-migration", "--tx-max-inflight=-1"})),
                ::testing::ExitedWithCode(1),
                "--tx-max-inflight must not be negative");
}

TEST(CliArgs, RatioParsesFastSlowOrFallsBack)
{
    const auto ratio = sim::parse_ratio_cli(cli({"--ratio=2:16"}), {1, 1});
    EXPECT_EQ(ratio.fast, 2);
    EXPECT_EQ(ratio.slow, 16);
    const auto fallback = sim::parse_ratio_cli(cli({}), {1, 4});
    EXPECT_EQ(fallback.fast, 1);
    EXPECT_EQ(fallback.slow, 4);
}

TEST(CliArgs, MalformedRatioIsFatalAndNamed)
{
    // None of these may throw, run as some other ratio, or size a tier
    // from a non-positive part.
    const auto dies = [](const std::string& text, const char* message) {
        const std::string flag = "--ratio=" + text;
        EXPECT_EXIT((void)sim::parse_ratio_cli(cli({flag.c_str()}), {1, 1}),
                    ::testing::ExitedWithCode(1), message)
            << text;
    };
    dies("a:4", "--ratio 'a:4' expects an unsigned integer");
    dies("1:b", "--ratio '1:b' expects an unsigned integer");
    dies("99999999999:4", "--ratio '99999999999:4' is out of range");
    dies("1.5:4", "--ratio '1.5:4' expects an unsigned integer");
    dies("1:4x", "--ratio '1:4x' expects an unsigned integer");
    dies("-1:4", "--ratio '-1:4' must not be negative");
    dies("0:4", "--ratio '0:4' parts must be positive");
    dies("14", "--ratio expects fast:slow, got '14'");
    // fast + slow must still fit in an int.
    dies("1073741824:1", "--ratio '1073741824:1' is out of range");
}

TEST(KvConfig, IntegerOutOfRangeIsFatal)
{
    const auto cfg = KvConfig::parse("big = 99999999999999999999\n"
                                     "neg = -1\n");
    EXPECT_EXIT((void)cfg.get_uint<std::uint64_t>("big", 0),
                ::testing::ExitedWithCode(1), "key 'big' is out of range");
    EXPECT_EXIT((void)cfg.get_uint<std::uint64_t>("neg", 0),
                ::testing::ExitedWithCode(1), "key 'neg' must not be negative");
}

TEST(KvConfig, MasimSpecRejectsWrappedIntegers)
{
    // phase0.accesses = -1 used to read as 2^64 - 1 accesses (a run
    // that never ends); footprint_mib = -1 died later with an unrelated
    // "empty address space".
    const std::string phase = "phases = 1\n"
                              "phase0.regions = 1\n"
                              "phase0.region0 = 0 64 1.0\n";
    EXPECT_EXIT((void)workloads::Masim::parse_spec(KvConfig::parse(
                    "footprint_mib = 64\nphase0.accesses = -1\n" + phase)),
                ::testing::ExitedWithCode(1),
                "key 'phase0.accesses' must not be negative");
    EXPECT_EXIT((void)workloads::Masim::parse_spec(KvConfig::parse(
                    "footprint_mib = -1\nphase0.accesses = 100\n" + phase)),
                ::testing::ExitedWithCode(1),
                "key 'footprint_mib' must not be negative");
    // 2^44 MiB overflows the byte count once shifted.
    EXPECT_EXIT((void)workloads::Masim::parse_spec(KvConfig::parse(
                    "footprint_mib = 17592186044416\n"
                    "phase0.accesses = 100\n" + phase)),
                ::testing::ExitedWithCode(1),
                "key 'footprint_mib' is out of range");
    // A region's MiB doubles were cast to bytes unchecked: -1 MiB
    // became 2^64 - 2^20 bytes, and 2^44 - 1 MiB wrapped offset + size
    // past the footprint check. Both crashed a run of the config
    // (SIGSEGV).
    const std::string one_region = "footprint_mib = 1024\nphases = 1\n"
                                   "phase0.accesses = 100\n"
                                   "phase0.regions = 1\n";
    EXPECT_EXIT((void)workloads::Masim::parse_spec(KvConfig::parse(
                    one_region + "phase0.region0 = -1 100 1\n")),
                ::testing::ExitedWithCode(1),
                "phase0.region0: offset must not be negative");
    EXPECT_EXIT((void)workloads::Masim::parse_spec(KvConfig::parse(
                    one_region + "phase0.region0 = 17592186044415 2 1\n")),
                ::testing::ExitedWithCode(1),
                "phase0.region0: offset .* is out of range");
    EXPECT_EXIT((void)workloads::Masim::parse_spec(KvConfig::parse(
                    one_region + "phase0.region0 = 0 -2 1\n")),
                ::testing::ExitedWithCode(1),
                "phase0.region0: size must not be negative");
    EXPECT_EXIT((void)workloads::Masim::parse_spec(KvConfig::parse(
                    one_region + "phase0.region0 = 1000 100 1\n")),
                ::testing::ExitedWithCode(1),
                "phase0.region0: region ends past footprint_mib 1024");
    EXPECT_EXIT((void)memsim::parse_fault_config(
                    KvConfig::parse("fault.seed = -3\n")),
                ::testing::ExitedWithCode(1),
                "key 'fault.seed' must not be negative");
    // Counts and the degraded tier are decimal: base 0 read "0x1" as 1,
    // and "-1" regions as none at all.
    EXPECT_EXIT((void)workloads::Masim::parse_spec(KvConfig::parse(
                    "footprint_mib = 64\nphases = 0x1\n"
                    "phase0.accesses = 100\nphase0.regions = 1\n"
                    "phase0.region0 = 0 64 1.0\n")),
                ::testing::ExitedWithCode(1),
                "key 'phases' must be a decimal integer");
    EXPECT_EXIT((void)workloads::Masim::parse_spec(KvConfig::parse(
                    "footprint_mib = 64\nphases = 1\n"
                    "phase0.accesses = 100\nphase0.regions = -1\n")),
                ::testing::ExitedWithCode(1),
                "key 'phase0.regions' must not be negative");
    EXPECT_EXIT((void)memsim::parse_fault_config(
                    KvConfig::parse("fault.degrade_tier = 0x1\n")),
                ::testing::ExitedWithCode(1),
                "key 'fault.degrade_tier' must be a decimal integer");
    // A leading zero is decimal too: base 0 read "010" as 8 regions and
    // silently ignored region8 and region9.
    std::string ten = "footprint_mib = 64\nphases = 1\n"
                      "phase0.accesses = 100\nphase0.regions = 010\n";
    for (int r = 0; r < 10; ++r)
        ten += "phase0.region" + std::to_string(r) + " = " +
               std::to_string(r) + " 1 1.0\n";
    const auto spec = workloads::Masim::parse_spec(KvConfig::parse(ten));
    ASSERT_EQ(spec.phases.size(), 1u);
    EXPECT_EQ(spec.phases[0].regions.size(), 10u);
}

TEST(CliArgs, NonFiniteNumbersAreFatal)
{
    // strtod reads these, and NaN passes every range check after it.
    for (const char* text : {"nan", "inf", "-inf", "1e999"}) {
        const std::string flag = std::string("--ratio=") + text;
        EXPECT_EXIT((void)cli({flag.c_str()}).get_double("ratio", 0),
                    ::testing::ExitedWithCode(1),
                    "flag --ratio must be finite")
            << text;
        const auto cfg = KvConfig::parse(std::string("x = ") + text + "\n");
        EXPECT_EXIT((void)cfg.get_double("x", 0),
                    ::testing::ExitedWithCode(1), "key 'x' must be finite")
            << text;
    }
    EXPECT_EXIT((void)cli({"--ratio=0.5x"}).get_double("ratio", 0),
                ::testing::ExitedWithCode(1),
                "flag --ratio expects a number, got '0.5x'");
    EXPECT_EXIT((void)KvConfig::parse("x = y\n").get_double("x", 0),
                ::testing::ExitedWithCode(1),
                "key 'x' expects a number, got 'y'");
}

TEST(QTablesFile, CheckNamesTheTableAndTheBadEntry)
{
    // artmem run --qtables=FILE rejects a file this check refuses,
    // instead of warning and running from a cold start.
    const core::ArtMemConfig config;
    const auto check = [&](const std::string& blob) {
        std::istringstream in(blob);
        return core::ArtMem::check_qtables(in, config);
    };
    rl::QTable migration(12, 10);
    rl::QTable threshold(12, 5);
    std::ostringstream good;
    migration.save(good);
    threshold.save(good);
    EXPECT_EQ(check(good.str()), "");
    EXPECT_EQ(check("qtable 12 10\n0.25 truncated"),
              "migration table: truncated or non-numeric body at entry "
              "(0,1)");
    // A whole migration table, then half a threshold table.
    std::ostringstream half;
    migration.save(half);
    half << "qtable 12 5\n1 2 3";
    EXPECT_EQ(check(half.str()),
              "threshold table: truncated or non-numeric body at entry "
              "(0,3)");
    std::ostringstream swapped;
    threshold.save(swapped);
    migration.save(swapped);
    EXPECT_EQ(check(swapped.str()),
              "migration table is 12x5, expected 12x10");
    EXPECT_EQ(check(""),
              "migration table: malformed header (expected 'qtable <S> "
              "<A>')");
}

}  // namespace
}  // namespace artmem
