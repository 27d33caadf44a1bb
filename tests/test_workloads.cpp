/**
 * @file
 * Unit tests for the workload generators: MASIM, the S1-S4 patterns,
 * YCSB, graph emulations, B-tree, app specs, and the factory.
 */
#include <gtest/gtest.h>

#include <fstream>
#include <map>

#include "workloads/apps.hpp"
#include "workloads/btree.hpp"
#include "workloads/factory.hpp"
#include "workloads/graph.hpp"
#include "workloads/masim.hpp"
#include "workloads/patterns.hpp"
#include "workloads/simple.hpp"
#include "workloads/trace.hpp"
#include "workloads/ycsb.hpp"

namespace artmem::workloads {
namespace {

constexpr Bytes kPage = 2ull << 20;

/** Drain a generator fully, returning per-page access counts. */
std::map<PageId, std::uint64_t>
histogram(AccessGenerator& gen)
{
    std::map<PageId, std::uint64_t> counts;
    std::vector<PageId> buf(4096);
    std::size_t n;
    std::uint64_t total = 0;
    while ((n = gen.fill(buf)) > 0) {
        for (std::size_t i = 0; i < n; ++i)
            ++counts[buf[i]];
        total += n;
        EXPECT_LE(total, gen.total_accesses() + buf.size()) << "runaway";
        if (total > gen.total_accesses() + buf.size())
            break;
    }
    std::uint64_t sum = 0;
    for (const auto& [page, c] : counts)
        sum += c;
    EXPECT_EQ(sum, gen.total_accesses());
    return counts;
}

TEST(Masim, RespectsBudgetAndFootprint)
{
    MasimSpec spec;
    spec.name = "t";
    spec.footprint = 64ull << 20;  // 32 pages
    MasimPhase phase;
    phase.accesses = 1000;
    phase.regions = {{0, 64ull << 20, 1.0, false}};
    spec.phases.push_back(phase);
    Masim gen(spec, kPage, 1);
    auto counts = histogram(gen);
    for (const auto& [page, c] : counts)
        EXPECT_LT(page, 32u);
}

TEST(Masim, WeightsDriveDistribution)
{
    MasimSpec spec;
    spec.name = "t";
    spec.footprint = 100 * kPage;
    MasimPhase phase;
    phase.accesses = 100000;
    phase.regions = {
        {0, 10 * kPage, 90.0, false},      // pages 0..9: 90%
        {10 * kPage, 90 * kPage, 10.0, false},
    };
    spec.phases.push_back(phase);
    Masim gen(spec, kPage, 1);
    auto counts = histogram(gen);
    std::uint64_t hot = 0;
    for (PageId p = 0; p < 10; ++p)
        hot += counts.count(p) ? counts[p] : 0;
    EXPECT_NEAR(static_cast<double>(hot) / 100000.0, 0.9, 0.02);
}

TEST(Masim, SequentialRegionCyclesInOrder)
{
    MasimSpec spec;
    spec.name = "t";
    spec.footprint = 4 * kPage;
    MasimPhase phase;
    phase.accesses = 8;
    phase.regions = {{0, 4 * kPage, 1.0, true}};
    spec.phases.push_back(phase);
    Masim gen(spec, kPage, 1);
    std::vector<PageId> buf(8);
    ASSERT_EQ(gen.fill(buf), 8u);
    const std::vector<PageId> expect = {0, 1, 2, 3, 0, 1, 2, 3};
    EXPECT_EQ(buf, expect);
}

TEST(Masim, PhasesSwitchAtBoundaries)
{
    MasimSpec spec;
    spec.name = "t";
    spec.footprint = 20 * kPage;
    MasimPhase a, b;
    a.accesses = 100;
    a.regions = {{0, kPage, 1.0, false}};  // page 0 only
    b.accesses = 100;
    b.regions = {{10 * kPage, kPage, 1.0, false}};  // page 10 only
    spec.phases = {a, b};
    Masim gen(spec, kPage, 1);
    auto counts = histogram(gen);
    EXPECT_EQ(counts[0], 100u);
    EXPECT_EQ(counts[10], 100u);
}

TEST(Masim, ParseSpecRoundTrip)
{
    const auto cfg = KvConfig::parse(
        "name = demo\n"
        "footprint_mib = 64\n"
        "phases = 1\n"
        "phase0.accesses = 500\n"
        "phase0.regions = 2\n"
        "phase0.region0 = 0 32 9.0\n"
        "phase0.region1 = 32 32 1.0 seq\n");
    const auto spec = Masim::parse_spec(cfg);
    EXPECT_EQ(spec.name, "demo");
    EXPECT_EQ(spec.footprint, 64ull << 20);
    ASSERT_EQ(spec.phases.size(), 1u);
    ASSERT_EQ(spec.phases[0].regions.size(), 2u);
    EXPECT_FALSE(spec.phases[0].regions[0].sequential);
    EXPECT_TRUE(spec.phases[0].regions[1].sequential);
    EXPECT_DOUBLE_EQ(spec.phases[0].regions[0].weight, 9.0);
}

class PatternSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(PatternSweep, SpecIsValidAndRuns)
{
    const int k = GetParam();
    const auto spec = pattern_spec(k, 50000);
    EXPECT_EQ(spec.footprint, 32ull << 30);
    Masim gen(spec, kPage, 7);
    EXPECT_EQ(gen.total_accesses(), 50000u);
    auto counts = histogram(gen);
    EXPECT_FALSE(counts.empty());
}

INSTANTIATE_TEST_SUITE_P(S1toS4, PatternSweep, ::testing::Range(1, 5));

TEST(Patterns, S1ConcentratesInHotRegions)
{
    Masim gen(pattern_spec(1, 200000), kPage, 7);
    auto counts = histogram(gen);
    // Hot regions: 500 MiB at 20 GiB and 30 GiB -> 250 pages each.
    const PageId hot1 = (20ull << 30) / kPage;
    const PageId hot2 = (30ull << 30) / kPage;
    std::uint64_t hot = 0;
    for (const auto& [page, c] : counts) {
        if ((page >= hot1 && page < hot1 + 250) ||
            (page >= hot2 && page < hot2 + 250)) {
            hot += c;
        }
    }
    EXPECT_GT(static_cast<double>(hot) / 200000.0, 0.9);
}

TEST(Patterns, S2PhasesAreTransient)
{
    Masim gen(pattern_spec(2, 160000), kPage, 7);
    // First phase hot region: offset 0, 2 GiB = pages 0..1023.
    // Last phase hot region: offset 28 GiB.
    std::vector<PageId> buf(160000 / 8);
    gen.fill(buf);  // phase 0
    std::uint64_t in_first = 0;
    for (PageId p : buf)
        in_first += p < 1024;
    EXPECT_GT(static_cast<double>(in_first) /
                  static_cast<double>(buf.size()),
              0.85);
    // Drain to the final phase.
    for (int i = 0; i < 6; ++i)
        gen.fill(buf);
    gen.fill(buf);
    const PageId last_base = (28ull << 30) / kPage;
    std::uint64_t in_last = 0;
    for (PageId p : buf)
        in_last += p >= last_base && p < last_base + 1024;
    EXPECT_GT(static_cast<double>(in_last) /
                  static_cast<double>(buf.size()),
              0.85);
}

TEST(Ycsb, LoadPhaseIsSequential)
{
    Ycsb::Params params;
    params.footprint = 512ull << 20;  // 256 pages
    params.total_accesses = 100000;
    Ycsb gen(params, kPage, 3);
    EXPECT_EQ(gen.footprint(), 512ull << 20);
    std::vector<PageId> buf(230);  // populated = 230 pages (0.9 fill)
    ASSERT_EQ(gen.fill(buf), 230u);
    for (PageId p = 0; p < 230; ++p)
        EXPECT_EQ(buf[p], p);  // sequential population sweep
}

TEST(Ycsb, ZipfHeadIsHottestPage)
{
    Ycsb::Params params;
    params.footprint = 512ull << 20;
    params.total_accesses = 100000;
    Ycsb gen(params, kPage, 3);
    auto counts = histogram(gen);
    std::uint64_t max_count = 0;
    for (const auto& [page, c] : counts)
        max_count = std::max(max_count, c);
    EXPECT_EQ(counts[0], max_count);
}

TEST(Ycsb, PhaseOrderIsABCFD)
{
    Ycsb::Params params;
    params.footprint = 512ull << 20;
    params.total_accesses = 50000;
    Ycsb gen(params, kPage, 3);
    EXPECT_EQ(gen.current_phase(), 'A');
    std::vector<PageId> buf(10000);
    gen.fill(buf);
    EXPECT_EQ(gen.current_phase(), 'B');
    gen.fill(buf);
    EXPECT_EQ(gen.current_phase(), 'C');
    gen.fill(buf);
    EXPECT_EQ(gen.current_phase(), 'F');
    gen.fill(buf);
    EXPECT_EQ(gen.current_phase(), 'D');
}

TEST(Graph, PresetsMatchPaperFootprints)
{
    EXPECT_EQ(GraphWorkload::cc(1).footprint, 69ull << 30);
    EXPECT_EQ(GraphWorkload::sssp(1).footprint, 64ull << 30);
    EXPECT_EQ(GraphWorkload::pr(1).footprint, 25ull << 30);
}

TEST(Graph, CcHotBlockIsCompact)
{
    GraphWorkload gen(GraphWorkload::cc(200000), kPage, 5);
    auto counts = histogram(gen);
    // Find the hottest page; its neighbourhood should also be hot
    // (compact hot block, Fig. 10b).
    PageId hottest = 0;
    std::uint64_t best = 0;
    for (const auto& [page, c] : counts) {
        if (c > best) {
            best = c;
            hottest = page;
        }
    }
    const auto near = [&](PageId p) {
        auto it = counts.find(p);
        return it == counts.end() ? 0 : it->second;
    };
    EXPECT_GT(near(hottest + 1) + near(hottest + 2), best / 8);
}

TEST(Graph, SsspFrontierMoves)
{
    auto params = GraphWorkload::sssp(100000);
    GraphWorkload gen(params, kPage, 5);
    std::vector<PageId> first(10000), last(10000);
    gen.fill(first);
    for (int i = 0; i < 8; ++i)
        gen.fill(last);
    gen.fill(last);
    // The frontier windows of the first and last supersteps barely
    // overlap: compare median pages.
    auto median = [](std::vector<PageId> v) {
        std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
        return v[v.size() / 2];
    };
    EXPECT_NE(median(first) / 1000, median(last) / 1000);
}

TEST(Btree, DepthAndLevelHotness)
{
    Btree::Params params;
    params.footprint = 1ull << 30;  // small tree
    params.total_accesses = 120000;
    Btree gen(params, kPage, 9);
    EXPECT_GE(gen.depth(), 2u);
    auto counts = histogram(gen);
    // The root page (page 0) is touched on every lookup: strictly the
    // hottest page.
    std::uint64_t best = 0;
    for (const auto& [page, c] : counts)
        best = std::max(best, c);
    EXPECT_EQ(counts[0], best);
}

TEST(Btree, EveryLookupDescendsAllLevels)
{
    Btree::Params params;
    params.footprint = 1ull << 30;
    params.total_accesses = 1000;
    Btree gen(params, kPage, 9);
    std::vector<PageId> buf(static_cast<std::size_t>(gen.depth()));
    ASSERT_EQ(gen.fill(buf), buf.size());
    EXPECT_EQ(buf[0], 0u);  // root first
}

TEST(Btree, TotalAccessesCountsWholeLookups)
{
    // The stream always ends on a whole lookup, so the count it
    // reports is the budget rounded up to a multiple of the depth.
    for (const std::uint64_t total : {1000u, 1001u, 1004u}) {
        Btree::Params params;
        params.total_accesses = total;
        Btree gen(params, kPage, 9);
        ASSERT_EQ(gen.depth(), 5u);
        std::vector<PageId> buf(512);
        std::uint64_t drained = 0;
        std::size_t n;
        while ((n = gen.fill(buf)) > 0)
            drained += n;
        EXPECT_EQ(drained, gen.total_accesses()) << total;
        EXPECT_EQ(drained, (total + 4) / 5 * 5) << total;
    }
}

TEST(Btree, NonPowerOfTwoShapeIsFatal)
{
    Btree::Params params;
    params.fanout = 48;
    EXPECT_EXIT((Btree{params, kPage, 1}), ::testing::ExitedWithCode(1),
                "must be powers of two");
    params.fanout = 64;
    params.node_size = 3000;
    EXPECT_EXIT((Btree{params, kPage, 1}), ::testing::ExitedWithCode(1),
                "must be powers of two");
    params.node_size = 4096;
    EXPECT_EXIT((Btree{params, 3ull << 20, 1}),
                ::testing::ExitedWithCode(1), "must be powers of two");
}

TEST(Apps, SpecsMatchTable3Footprints)
{
    EXPECT_EQ(xsbench_spec(1).footprint, 69ull << 30);
    EXPECT_EQ(dlrm_spec(1).footprint, 72ull << 30);
    EXPECT_EQ(liblinear_spec(1).footprint, 68ull << 30);
    EXPECT_EQ(liblinear_spec(1000).phases.size(), 3u);
}

TEST(Factory, BuildsEveryAdvertisedWorkload)
{
    for (const auto name : workload_names()) {
        auto gen = make_workload(name, kPage, 1000, 1);
        ASSERT_NE(gen, nullptr) << name;
        EXPECT_EQ(gen->name(), name);
        EXPECT_GT(gen->footprint(), 0u) << name;
        std::vector<PageId> buf(128);
        EXPECT_GT(gen->fill(buf), 0u) << name;
    }
}

TEST(Factory, AppListIsTable3)
{
    EXPECT_EQ(app_workload_names().size(), 8u);
}

TEST(Factory, MasimConfigFileSetsItsOwnAccesses)
{
    const std::string path = ::testing::TempDir() + "/two_phase.cfg";
    {
        std::ofstream out(path);
        out << "name = two-phase\nfootprint_mib = 256\nphases = 2\n"
               "phase0.accesses = 300\nphase0.regions = 1\n"
               "phase0.region0 = 0 64 1\n"
               "phase1.accesses = 200\nphase1.regions = 2\n"
               "phase1.region0 = 128 128 3\nphase1.region1 = 0 256 1 seq\n";
    }
    EXPECT_TRUE(is_masim_config(path));
    EXPECT_FALSE(is_masim_config("s1"));
    // The budget is ignored: the phases set the accesses.
    auto gen = make_workload(path, kPage, 123456, 7);
    EXPECT_EQ(gen->name(), "two-phase");
    EXPECT_EQ(gen->total_accesses(), 500u);
    Masim reference(Masim::parse_spec(KvConfig::load(path)), kPage, 7);
    std::vector<PageId> got(600);
    std::vector<PageId> want(600);
    ASSERT_EQ(gen->fill(got), 500u);
    ASSERT_EQ(reference.fill(want), 500u);
    EXPECT_EQ(got, want);
}

TEST(Trace, RecordAndReplayRoundTrip)
{
    const std::string path = ::testing::TempDir() + "/artmem_trace.bin";
    std::vector<PageId> original;
    {
        auto inner = std::make_unique<Ycsb>(
            Ycsb::Params{.footprint = 256ull << 20,
                         .total_accesses = 20000},
            kPage, 5);
        // Capture the stream once for comparison.
        Ycsb reference(Ycsb::Params{.footprint = 256ull << 20,
                                    .total_accesses = 20000},
                       kPage, 5);
        std::vector<PageId> buf(333);
        std::size_t n;
        while ((n = reference.fill(buf)) > 0)
            original.insert(original.end(), buf.begin(), buf.begin() + n);

        TraceWriter writer(std::move(inner), path, kPage);
        while (writer.fill(buf) > 0) {
        }
        EXPECT_EQ(writer.written(), original.size());
        writer.close();
    }

    TraceReplay replay(path);
    EXPECT_EQ(replay.page_size(), kPage);
    EXPECT_EQ(replay.footprint(), 256ull << 20);
    EXPECT_EQ(replay.total_accesses(), original.size());
    std::vector<PageId> replayed;
    std::vector<PageId> buf(777);
    std::size_t n;
    while ((n = replay.fill(buf)) > 0)
        replayed.insert(replayed.end(), buf.begin(), buf.begin() + n);
    EXPECT_EQ(replayed, original);
}

TEST(Trace, ReplayRejectsGarbage)
{
    const std::string path = ::testing::TempDir() + "/artmem_garbage.bin";
    {
        std::ofstream out(path, std::ios::binary);
        out << "this is not a trace file at all";
    }
    EXPECT_EXIT(TraceReplay{path}, ::testing::ExitedWithCode(1), "");
}

/**
 * Writes a version-1 trace with the given header fields followed by
 * @p pages as u32 page ids, and returns its path.
 */
std::string
write_trace(const char* name, std::uint32_t page_size_log2,
            std::uint64_t footprint, std::uint64_t count,
            const std::vector<std::uint32_t>& pages)
{
    const std::string path = ::testing::TempDir() + "/" + name;
    std::ofstream out(path, std::ios::binary);
    const std::uint32_t version = 1;
    out.write("ARTMEMTR", 8);
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    out.write(reinterpret_cast<const char*>(&page_size_log2),
              sizeof(page_size_log2));
    out.write(reinterpret_cast<const char*>(&footprint), sizeof(footprint));
    out.write(reinterpret_cast<const char*>(&count), sizeof(count));
    out.write(reinterpret_cast<const char*>(pages.data()),
              static_cast<std::streamsize>(pages.size() * sizeof(pages[0])));
    return path;
}

/** A 1 GiB-footprint trace header with the given fields, then pages 0
 *  and 1. */
std::string
write_trace_with_header(const char* name, std::uint32_t page_size_log2,
                        std::uint64_t count)
{
    return write_trace(name, page_size_log2, 1ull << 30, count, {0, 1});
}

TEST(Trace, ReplayRejectsPageSizeShiftOf64)
{
    const std::string path =
        write_trace_with_header("artmem_shift64.bin", 64, 2);
    EXPECT_EXIT(TraceReplay{path}, ::testing::ExitedWithCode(1),
                "artmem_shift64.bin: header page_size_log2 64");
}

TEST(Trace, ReplayRejectsCountBeyondFile)
{
    // 2^61 accesses would ask for 8 EiB; the file holds two.
    const std::string path =
        write_trace_with_header("artmem_bigcount.bin", 21, 1ull << 61);
    EXPECT_EXIT(TraceReplay{path}, ::testing::ExitedWithCode(1),
                "artmem_bigcount.bin: header count 2305843009213693952 "
                "does not match the 8 bytes");
}

TEST(Trace, ReplayRejectsFootprintPastPageIdSpace)
{
    // 2^62 bytes of 2 MiB pages is 2^41 pages: no u32 id can name most
    // of them, and a machine of that size would not fit in memory.
    const std::string path =
        write_trace("artmem_bigfootprint.bin", 21, 1ull << 62, 2, {0, 1});
    EXPECT_EXIT(TraceReplay{path}, ::testing::ExitedWithCode(1),
                "artmem_bigfootprint.bin: header footprint "
                "4611686018427387904 spans 2199023255552 pages of 2097152 "
                "bytes, more than the 4294967295 page ids");
}

TEST(Trace, ReplayRejectsPageIdPastFootprint)
{
    // Four 2 MiB pages: ids 0..3 are valid, access 2 names page 4.
    const std::string path = write_trace("artmem_pastfootprint.bin", 21,
                                         4 * kPage, 4, {0, 3, 4, 1});
    EXPECT_EXIT(TraceReplay{path}, ::testing::ExitedWithCode(1),
                "artmem_pastfootprint.bin: access 2 names page 4, at or "
                "past the footprint's 4 pages");
}

TEST(Trace, ReplayAcceptsLastPageOfUnalignedFootprint)
{
    // 3.5 pages round up to 4, as the machine built for the trace does.
    const std::string path = write_trace("artmem_unaligned.bin", 21,
                                         3 * kPage + kPage / 2, 3,
                                         {3, 0, 2});
    TraceReplay replay(path);
    EXPECT_EQ(replay.total_accesses(), 3u);
    std::vector<PageId> buf(8);
    ASSERT_EQ(replay.fill(buf), 3u);
    EXPECT_EQ(buf[0], 3u);
}

TEST(Simple, UniformCoversSpace)
{
    UniformRandom gen(16 * kPage, kPage, 16000, 3);
    auto counts = histogram(gen);
    EXPECT_EQ(counts.size(), 16u);
}

}  // namespace
}  // namespace artmem::workloads
