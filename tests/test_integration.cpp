/**
 * @file
 * Cross-cutting integration and failure-injection tests: shipped
 * config files, trace-frozen policy comparisons, machine capacity
 * edges, and PEBS overload behaviour inside the engine.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "../bench/bench_common.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "sim/registry.hpp"
#include "workloads/masim.hpp"
#include "workloads/simple.hpp"
#include "workloads/trace.hpp"

namespace artmem {
namespace {

constexpr Bytes kPage = 2ull << 20;

/** A config shipped in the source tree's configs/, by file name. */
std::string
repo_config(const std::string& name)
{
    return (std::filesystem::path(ARTMEM_CONFIG_DIR) / name).string();
}

TEST(ShippedConfigs, ParseAndMatchBuiltInPatterns)
{
    const auto path = repo_config("s1.cfg");
    ASSERT_TRUE(std::filesystem::exists(path)) << path;
    const auto spec =
        workloads::Masim::parse_spec(KvConfig::load(path));
    EXPECT_EQ(spec.name, "s1");
    EXPECT_EQ(spec.footprint, 32ull << 30);
    ASSERT_EQ(spec.phases.size(), 1u);
    EXPECT_EQ(spec.phases[0].regions.size(), 3u);
}

TEST(ShippedConfigs, AllFourPatternsRun)
{
    for (const char* name : {"s1.cfg", "s2.cfg", "s3.cfg", "s4.cfg",
                             "mixed_demo.cfg"}) {
        const auto path = repo_config(name);
        ASSERT_TRUE(std::filesystem::exists(path)) << path;
        auto spec = workloads::Masim::parse_spec(KvConfig::load(path));
        // Shrink for test speed.
        for (auto& phase : spec.phases)
            phase.accesses = 2000;
        workloads::Masim gen(spec, kPage, 1);
        std::vector<PageId> buf(512);
        EXPECT_GT(gen.fill(buf), 0u) << name;
    }
}

TEST(TraceFrozen, PoliciesSeeIdenticalStreams)
{
    // Record one stochastic workload, then replay it under two
    // policies: the access counts delivered to the machines must be
    // identical, so runtime differences are pure policy effects.
    const std::string path =
        ::testing::TempDir() + "/frozen_ycsb.trace";
    {
        workloads::TraceWriter writer(
            workloads::make_workload("ycsb", kPage, 300000, 9), path,
            kPage);
        std::vector<PageId> buf(4096);
        while (writer.fill(buf) > 0) {
        }
        writer.close();
    }
    auto run = [&](const char* policy_name) {
        workloads::TraceReplay replay(path);
        auto mc = sim::make_machine_config(replay.footprint(),
                                           sim::RatioSpec{1, 4}, kPage);
        memsim::TieredMachine machine(mc);
        auto policy = sim::make_policy(policy_name);
        sim::EngineConfig engine;
        return sim::run_simulation(replay, *policy, machine, engine);
    };
    const auto a = run("static");
    const auto b = run("memtis");
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.totals.total_accesses(), b.totals.total_accesses());
}

TEST(MachineEdges, FootprintLargerThanMachineIsFatal)
{
    memsim::MachineConfig cfg;
    cfg.page_size = kPage;
    cfg.address_space = 64 * kPage;
    cfg.tiers[0].capacity = 16 * kPage;
    cfg.tiers[1].capacity = 16 * kPage;  // 32 < 64 pages
    EXPECT_EXIT(memsim::TieredMachine{cfg},
                ::testing::ExitedWithCode(1), "exceeds machine capacity");
}

TEST(MachineEdges, MisalignedAddressSpaceIsFatal)
{
    memsim::MachineConfig cfg;
    cfg.page_size = kPage;
    cfg.address_space = kPage + 1;
    EXPECT_EXIT(memsim::TieredMachine{cfg},
                ::testing::ExitedWithCode(1), "page aligned");
}

TEST(MachineEdges, ContentionRangeValidated)
{
    memsim::MachineConfig cfg;
    cfg.page_size = kPage;
    cfg.address_space = 4 * kPage;
    cfg.tiers[0].capacity = 4 * kPage;
    cfg.tiers[1].capacity = 4 * kPage;
    cfg.migration_contention = 1.5;
    EXPECT_EXIT(memsim::TieredMachine{cfg},
                ::testing::ExitedWithCode(1), "migration_contention");
}

TEST(MasimEdges, RegionBeyondFootprintIsFatal)
{
    workloads::MasimSpec spec;
    spec.name = "bad";
    spec.footprint = 4 * kPage;
    workloads::MasimPhase phase;
    phase.accesses = 10;
    phase.regions = {{2 * kPage, 4 * kPage, 1.0, false}};
    spec.phases.push_back(phase);
    EXPECT_EXIT((workloads::Masim{spec, kPage, 1}),
                ::testing::ExitedWithCode(1), "exceeds footprint");
}

TEST(MasimEdges, RegionWrappingPastFootprintIsFatal)
{
    // offset + size wraps to 1 MiB here, below the footprint.
    workloads::MasimSpec spec;
    spec.name = "wrap";
    spec.footprint = 4 * kPage;
    workloads::MasimPhase phase;
    phase.accesses = 10;
    phase.regions = {{~Bytes{0} - (1ull << 20) + 1, 2ull << 20, 1.0, false}};
    spec.phases.push_back(phase);
    EXPECT_EXIT((workloads::Masim{spec, kPage, 1}),
                ::testing::ExitedWithCode(1), "exceeds footprint");
}

TEST(MasimEdges, NonFiniteWeightsAreFatal)
{
    // The region pick is monotone in the draw only for a finite, positive
    // weight sum: a NaN weight, or two weights of 1e308 summing to
    // infinity, made every draw pick the last region.
    workloads::MasimSpec spec;
    spec.name = "weights";
    spec.footprint = 4 * kPage;
    workloads::MasimPhase phase;
    phase.accesses = 10;
    phase.regions = {{0, kPage, std::nan(""), false}};
    spec.phases = {phase};
    EXPECT_EXIT((workloads::Masim{spec, kPage, 1}),
                ::testing::ExitedWithCode(1), "degenerate region");
    spec.phases[0].regions = {{0, kPage, 1e308, false},
                              {kPage, kPage, 1e308, false}};
    EXPECT_EXIT((workloads::Masim{spec, kPage, 1}),
                ::testing::ExitedWithCode(1), "region weights overflow");
}

TEST(MasimEdges, MalformedConfigLineIsFatal)
{
    EXPECT_EXIT(KvConfig::parse("this line has no equals sign"),
                ::testing::ExitedWithCode(1), "missing '='");
}

TEST(MasimEdges, UnknownSpecKeyIsFatalAndNamed)
{
    // A typo ("acesses") must not silently fall back to a default; the
    // error names the offending key.
    const auto cfg = KvConfig::parse(
        "name = typo\nfootprint_mib = 8\nphases = 1\n"
        "phase0.acesses = 100\nphase0.regions = 1\n"
        "phase0.region0 = 0 8 1.0\n");
    EXPECT_EXIT(workloads::Masim::parse_spec(cfg),
                ::testing::ExitedWithCode(1), "phase0.acesses");
}

TEST(MasimEdges, NonNumericRegionTripleIsFatal)
{
    const auto cfg = KvConfig::parse(
        "name = bad\nfootprint_mib = 8\nphases = 1\n"
        "phase0.accesses = 100\nphase0.regions = 1\n"
        "phase0.region0 = zero 8 1.0\n");
    EXPECT_EXIT(workloads::Masim::parse_spec(cfg),
                ::testing::ExitedWithCode(1), "malformed phase0.region0");
}

TEST(MasimEdges, UnknownRegionModeIsFatal)
{
    const auto cfg = KvConfig::parse(
        "name = bad\nfootprint_mib = 8\nphases = 1\n"
        "phase0.accesses = 100\nphase0.regions = 1\n"
        "phase0.region0 = 0 8 1.0 sequentialish\n");
    EXPECT_EXIT(workloads::Masim::parse_spec(cfg),
                ::testing::ExitedWithCode(1), "unknown access mode");
}

TEST(MasimEdges, TrailingGarbageInRegionIsFatal)
{
    const auto cfg = KvConfig::parse(
        "name = bad\nfootprint_mib = 8\nphases = 1\n"
        "phase0.accesses = 100\nphase0.regions = 1\n"
        "phase0.region0 = 0 8 1.0 seq extra\n");
    EXPECT_EXIT(workloads::Masim::parse_spec(cfg),
                ::testing::ExitedWithCode(1), "trailing garbage");
}

TEST(MasimEdges, NonNumericValueForIntKeyIsFatal)
{
    const auto cfg = KvConfig::parse(
        "name = bad\nfootprint_mib = lots\nphases = 1\n"
        "phase0.accesses = 100\nphase0.regions = 1\n"
        "phase0.region0 = 0 8 1.0\n");
    EXPECT_EXIT(workloads::Masim::parse_spec(cfg),
                ::testing::ExitedWithCode(1), "footprint_mib");
}

TEST(ShippedConfigs, AllPassTheStrictKeyValidation)
{
    // Every config we ship must survive the unknown-key rejection added
    // to parse_spec; a config drifting out of the schema is a bug here,
    // not at the user's machine.
    for (const char* name : {"s1.cfg", "s2.cfg", "s3.cfg", "s4.cfg",
                             "mixed_demo.cfg"}) {
        const auto path = repo_config(name);
        ASSERT_TRUE(std::filesystem::exists(path)) << path;
        const auto spec =
            workloads::Masim::parse_spec(KvConfig::load(path));
        EXPECT_FALSE(spec.phases.empty()) << name;
    }
}

TEST(BenchOptionsEdges, UnknownFlagIsFatalAndNamed)
{
    const char* argv[] = {"bench", "--acesses=100"};
    EXPECT_EXIT(
        bench::BenchOptions::parse(2, const_cast<char**>(argv)),
        ::testing::ExitedWithCode(1), "unknown flag --acesses");
}

TEST(BenchOptionsEdges, ExtraFlagsAreAccepted)
{
    const char* argv[] = {"bench", "--workload=s1", "--quick"};
    const auto opt = bench::BenchOptions::parse(
        3, const_cast<char**>(argv), 8000, {"workload"});
    EXPECT_EQ(opt.accesses, 2000u);  // --quick quarters the default
}

TEST(PebsOverload, TinyBufferDropsButEngineSurvives)
{
    // Failure injection: a 64-slot PEBS buffer against a 1 ms drain
    // cadence guarantees drops; the run must still complete with
    // correct access accounting.
    sim::RunSpec spec;
    spec.workload = "s1";
    spec.policy = "memtis";
    spec.accesses = 400000;
    spec.engine.pebs.buffer_capacity = 64;
    spec.engine.pebs.period = 2;  // flood it
    const auto r = sim::run_experiment(spec);
    EXPECT_EQ(r.accesses, 400000u);
    EXPECT_GT(r.pebs_dropped, 0u);
    EXPECT_EQ(r.pebs_recorded, 200000u);
}

TEST(EngineEdges, ZeroLengthWorkloadFinishesImmediately)
{
    workloads::SequentialScan gen(4 * kPage, kPage, 0);
    memsim::MachineConfig cfg;
    cfg.page_size = kPage;
    cfg.address_space = 4 * kPage;
    cfg.tiers[0].capacity = 4 * kPage;
    cfg.tiers[1].capacity = 8 * kPage;
    memsim::TieredMachine machine(cfg);
    auto policy = sim::make_policy("artmem");
    sim::EngineConfig engine;
    const auto r = sim::run_simulation(gen, *policy, machine, engine);
    EXPECT_EQ(r.accesses, 0u);
    EXPECT_DOUBLE_EQ(r.fast_ratio, 1.0);  // idle convention
}

}  // namespace
}  // namespace artmem
