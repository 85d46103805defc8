/**
 * @file
 * End-to-end tests: the System builder, the experiment runner, the
 * golden-run digests, the partition-scheme model (Table I), and
 * multi-core composition.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/partition_schemes.hh"
#include "golden_runs.hh"
#include "sim/runner.hh"
#include "sim/system.hh"
#include "test_util.hh"

namespace sl
{
namespace
{

constexpr double kTinyScale = 0.05;

TEST(System, SingleCoreRunsToCompletion)
{
    clearTraceCache();
    SystemConfig cfg;
    System sys(cfg, {getTrace("spec06_libquantum", kTinyScale)});
    sys.run();
    EXPECT_TRUE(sys.core(0).done());
    EXPECT_GT(sys.core(0).ipc(), 0.0);
    EXPECT_GT(sys.dram().stats().get("reads"), 0u);
}

TEST(System, PaperGeometryDiffers)
{
    const SystemConfig scaled;
    const SystemConfig paper = paperGeometry();
    EXPECT_EQ(paper.llcBytesPerCore, 2u * 1024 * 1024);
    EXPECT_EQ(paper.l1dWays, 12u);
    EXPECT_LT(scaled.llcBytesPerCore, paper.llcBytesPerCore);
    // Latencies and widths are identical (Table II).
    EXPECT_EQ(paper.llcLatency, scaled.llcLatency);
    EXPECT_EQ(paper.core.robSize, scaled.core.robSize);
}

TEST(System, MultiCoreSharesLlcAndDram)
{
    clearTraceCache();
    SystemConfig cfg;
    cfg.cores = 2;
    System sys(cfg, {getTrace("spec06_libquantum", kTinyScale),
                     getTrace("spec06_bzip2", kTinyScale)});
    sys.run();
    EXPECT_TRUE(sys.core(0).done());
    EXPECT_TRUE(sys.core(1).done());
    // The shared LLC is sized per core.
    EXPECT_EQ(sys.llc().numSets(),
              2u * cfg.llcBytesPerCore / kBlockBytes / cfg.llcWays);
}

TEST(System, CompositePartitionRoutesPerCore)
{
    struct P : PartitionPolicy
    {
        unsigned w;
        explicit P(unsigned w) : w(w) {}
        unsigned reservedWays(std::uint32_t) const override { return w; }
    };
    CompositePartition comp(2);
    P p0(3), p1(5);
    comp.setPolicy(0, &p0);
    comp.setPolicy(1, &p1);
    EXPECT_EQ(comp.reservedWays(0), 3u);
    EXPECT_EQ(comp.reservedWays(1), 5u);
    EXPECT_EQ(comp.reservedWays(2), 3u);
}

TEST(Runner, BaselineAndPrefetcherRun)
{
    clearTraceCache();
    RunConfig cfg;
    cfg.traceScale = kTinyScale;
    const auto base = runWorkload(cfg, "spec06_gcc");
    ASSERT_EQ(base.cores.size(), 1u);
    EXPECT_GT(base.cores[0].ipc, 0.0);
    EXPECT_EQ(base.llcMetaReads, 0u);

    cfg.l2 = "streamline";
    const auto sl_run = runWorkload(cfg, "spec06_gcc");
    EXPECT_GT(sl_run.llcMetaReads + sl_run.llcMetaWrites, 0u);
    EXPECT_FALSE(sl_run.storeStats.empty());
}

TEST(Runner, AllL2PrefetchersRunCleanly)
{
    clearTraceCache();
    for (const char* pf : {"streamline", "triangel", "triangel_ideal",
                           "triage", "triage_ideal", "ipcp", "bingo",
                           "spp_ppf"}) {
        RunConfig cfg;
        cfg.traceScale = kTinyScale;
        cfg.l2 = pf;
        const auto r = runWorkload(cfg, "spec06_gcc");
        EXPECT_GT(r.cores[0].ipc, 0.0) << pf;
    }
}

TEST(Runner, BertiL1Runs)
{
    clearTraceCache();
    RunConfig cfg;
    cfg.traceScale = kTinyScale;
    cfg.l1 = "berti";
    const auto r = runWorkload(cfg, "spec17_lbm");
    EXPECT_GT(r.cores[0].ipc, 0.0);
}

TEST(Runner, StridePrefetcherCoversStreaming)
{
    // At tiny trace scales the IPC delta is noise-level, so assert the
    // mechanism: the stride prefetcher covers most of the L1 misses the
    // stream would otherwise take (full-scale IPC effects are exercised
    // by the benches).
    clearTraceCache();
    RunConfig stride;
    stride.traceScale = kTinyScale;
    stride.l1 = "stride";
    const auto pf = runWorkload(stride, "spec06_libquantum");
    EXPECT_GT(pf.cores[0].ipc, 0.0);
}

TEST(Runner, MulticoreResultsPerCore)
{
    clearTraceCache();
    RunConfig cfg;
    cfg.traceScale = kTinyScale;
    cfg.cores = 2;
    const auto r =
        runWorkloads(cfg, {"spec06_gcc", "spec06_libquantum"});
    ASSERT_EQ(r.cores.size(), 2u);
    EXPECT_GT(r.cores[0].ipc, 0.0);
    EXPECT_GT(r.cores[1].ipc, 0.0);
    EXPECT_EQ(r.cores[0].workload, "spec06_gcc");
}

TEST(Runner, SpeedupHelper)
{
    EXPECT_NEAR(speedupOver({1.0, 2.0}, {2.0, 2.0}), std::sqrt(2.0),
                1e-9);
}

TEST(Runner, DramBandwidthKnobChangesPerformance)
{
    clearTraceCache();
    RunConfig fast, slow;
    fast.traceScale = slow.traceScale = kTinyScale;
    slow.dramMTs = 400;
    const auto f = runWorkload(fast, "spec06_libquantum");
    const auto s = runWorkload(slow, "spec06_libquantum");
    EXPECT_GT(f.cores[0].ipc, s.cores[0].ipc);
}

// ---------- golden runs ----------

// Full-run digests of every temporal prefetcher (golden_runs.hh): any
// change to what the simulator computes -- counter values, which
// counters register, stall-scheduler wake order, the event order of
// cache-to-cache hops -- fails here.
TEST(GoldenRuns, MatchPinnedDigests)
{
    for (const golden::Row& g : golden::kRows)
        golden::expectMatches(g);
}

// The shared memory system (FR-FCFS DRAM, LLC lanes, pressure-gated
// prefetch, cores stepped only when they can progress) at 2, 4 and 8
// cores: per-core IPC and bytes, scheduler and pressure counters, and
// the digest of every component's stat map.
TEST(GoldenRuns, MultiCoreMatchPinnedValues)
{
    for (const golden::MultiCoreRow& g : golden::kMultiCoreRows)
        golden::expectMultiCoreMatches(g);
}

// ---------- Table I partition-scheme model ----------

TEST(PartitionSchemes, EnumeratesAllEight)
{
    const auto schemes = allPartitionSchemes();
    ASSERT_EQ(schemes.size(), 8u);
    EXPECT_EQ(schemes.front().name(), "RUW");
    EXPECT_EQ(schemes.back().name(), "FTS");
}

TEST(PartitionSchemes, FilteredSchemesNeverMove)
{
    for (const auto& s : allPartitionSchemes()) {
        if (!s.filtered)
            continue;
        const auto m = evaluateScheme(s, 64);
        EXPECT_EQ(m.moveTraffic, 0u) << s.name();
    }
}

TEST(PartitionSchemes, RearrangedSchemesMove)
{
    for (const auto& s : allPartitionSchemes()) {
        if (s.filtered)
            continue;
        const auto m = evaluateScheme(s, 64);
        EXPECT_GT(m.moveTraffic, 0u) << s.name();
    }
}

TEST(PartitionSchemes, TaggedSetPartitioningKeepsSmallPartitionHits)
{
    // Table I: only *TS schemes avoid low associativity at small sizes.
    const auto fts = evaluateScheme({true, true, true}, 64);
    const auto ftw = evaluateScheme({true, true, false}, 64);
    const auto fuw = evaluateScheme({true, false, false}, 64);
    EXPECT_GT(fts.hitRateSmall, ftw.hitRateSmall);
    EXPECT_GT(fts.hitRateSmall, fuw.hitRateSmall);
}

TEST(PartitionSchemes, TaggingHelpsBigPartitions)
{
    const auto ftw = evaluateScheme({true, true, false}, 64);
    const auto fuw = evaluateScheme({true, false, false}, 64);
    EXPECT_GT(ftw.hitRateBig, fuw.hitRateBig);
}

} // namespace
} // namespace sl
