/**
 * @file
 * Tests for the telemetry subsystem (DESIGN.md §10).
 *
 * Four halves: histogram bucket math at the edges, IntervalSampler delta
 * math against hand-scripted counter snapshots (including ring wrap and
 * idle fast-forward), exporter well-formedness (JSONL/CSV row counts,
 * Chrome-trace balance and ts monotonicity), and whole-run properties —
 * an instrumented run produces a contiguous non-trivial interval series,
 * and enabling telemetry leaves every stat digest bit-identical.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "golden_runs.hh"
#include "sim/runner.hh"
#include "telemetry/histogram.hh"
#include "telemetry/telemetry.hh"
#include "trace/workloads.hh"

namespace sl
{
namespace
{

// ---------- histogram bucket math ----------

TEST(TelemetryHistogram, BucketEdges)
{
    using H = Histogram<8>;
    EXPECT_EQ(H::bucketOf(0), 0u);
    EXPECT_EQ(H::bucketOf(1), 1u);
    EXPECT_EQ(H::bucketOf(2), 2u);
    EXPECT_EQ(H::bucketOf(3), 2u);
    EXPECT_EQ(H::bucketOf(4), 3u);
    // Each power of two opens its own bucket until the overflow bucket.
    for (unsigned i = 1; i + 1 < H::kBuckets; ++i) {
        EXPECT_EQ(H::bucketOf(std::uint64_t{1} << (i - 1)), i);
        EXPECT_EQ(H::bucketOf((std::uint64_t{1} << i) - 1), i);
    }
    // At and past 2^(kBuckets-2) everything lands in the overflow bucket.
    EXPECT_EQ(H::bucketOf(std::uint64_t{1} << (H::kBuckets - 2)),
              H::kBuckets - 1);
    EXPECT_EQ(H::bucketOf(UINT64_MAX), H::kBuckets - 1);

    EXPECT_EQ(H::bucketLow(0), 0u);
    EXPECT_EQ(H::bucketLow(1), 1u);
    EXPECT_EQ(H::bucketLow(5), 16u);
}

TEST(TelemetryHistogram, RecordAccumulatesAndResets)
{
    Histogram<8> h;
    h.record(0);
    h.record(1);
    h.record(7);
    h.record(1000); // overflow bucket (>= 2^6)
    EXPECT_EQ(h.samples(), 4u);
    EXPECT_EQ(h.sum(), 1008u);
    EXPECT_EQ(h.maxValue(), 1000u);
    EXPECT_EQ(h.count(0), 1u);
    EXPECT_EQ(h.count(1), 1u);
    EXPECT_EQ(h.count(3), 1u);
    EXPECT_EQ(h.count(7), 1u);
    EXPECT_DOUBLE_EQ(h.mean(), 252.0);

    h.reset();
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(h.maxValue(), 0u);
    EXPECT_EQ(h.count(7), 0u);
    EXPECT_EQ(h.percentile(0.5), 0u);
}

TEST(TelemetryHistogram, PercentileReturnsBucketLowerEdge)
{
    Histogram<16> h;
    for (int i = 0; i < 90; ++i)
        h.record(10); // bucket 4, low edge 8
    for (int i = 0; i < 10; ++i)
        h.record(1000); // bucket 10, low edge 512
    EXPECT_EQ(h.percentile(0.50), 8u);
    EXPECT_EQ(h.percentile(0.95), 512u);
    EXPECT_EQ(h.percentile(0.99), 512u);
}

// ---------- sampler delta math ----------

TEST(TelemetrySampler, DeltaMathAgainstScriptedSource)
{
    IntervalSampler s(100, 8);
    CounterSnapshot script;
    s.setSource([&](CounterSnapshot& out) { out = script; });

    EXPECT_FALSE(s.due(99));
    EXPECT_TRUE(s.due(100));

    script.retired = 500;
    script.l1dAccesses = 200;
    script.l1dMisses = 20;
    script.l2Misses = 10;
    script.llcMisses = 5;
    script.pfIssued = 8;
    script.pfUseful = 6;
    script.pfLate = 1;
    script.dramReads = 4;
    script.dramWrites = 2;
    script.dramBytes = 6 * 64;
    script.dramRowHits = 3;
    s.noteOccupancy(3, 10);
    s.noteOccupancy(2, 40);
    s.sample(100);

    script.retired = 800; // +300
    script.l1dMisses = 50; // +30
    s.sample(200);

    const auto v = s.intervals();
    ASSERT_EQ(v.size(), 2u);

    EXPECT_EQ(v[0].index, 0u);
    EXPECT_EQ(v[0].startCycle, 0u);
    EXPECT_EQ(v[0].endCycle, 100u);
    EXPECT_EQ(v[0].delta.retired, 500u);
    EXPECT_EQ(v[0].delta.l1dMisses, 20u);
    EXPECT_EQ(v[0].mshrHighWater, 3u);
    EXPECT_EQ(v[0].eventQueueHighWater, 40u);
    EXPECT_DOUBLE_EQ(v[0].ipc(), 5.0);
    EXPECT_DOUBLE_EQ(v[0].l1dMpki(), 40.0);          // 1000*20/500
    EXPECT_DOUBLE_EQ(v[0].accuracy(), 0.75);         // 6/8
    EXPECT_DOUBLE_EQ(v[0].coverage(), 0.375);        // 6/(6+10)
    EXPECT_DOUBLE_EQ(v[0].dramRowHitRate(), 0.5);    // 3/(4+2)
    EXPECT_DOUBLE_EQ(v[0].dramBytesPerKCycle(), 3840.0);

    // Second interval: deltas only, and the high-waters reset.
    EXPECT_EQ(v[1].index, 1u);
    EXPECT_EQ(v[1].startCycle, 100u);
    EXPECT_EQ(v[1].endCycle, 200u);
    EXPECT_EQ(v[1].delta.retired, 300u);
    EXPECT_EQ(v[1].delta.l1dMisses, 30u);
    EXPECT_EQ(v[1].delta.l1dAccesses, 0u);
    EXPECT_EQ(v[1].mshrHighWater, 0u);
    EXPECT_EQ(v[1].eventQueueHighWater, 0u);

    // Zero-denominator helpers stay finite.
    EXPECT_DOUBLE_EQ(v[1].accuracy(), 0.0);
    EXPECT_DOUBLE_EQ(v[1].dramRowHitRate(), 0.0);
}

TEST(TelemetrySampler, IdleFastForwardRearmsCleanly)
{
    IntervalSampler s(100, 8);
    s.sample(100);
    // The run loop jumped far past several sample points while idle: one
    // record covers the whole stretch and the next sample point re-arms
    // relative to now, not to the missed schedule.
    s.sample(5000);
    const auto v = s.intervals();
    ASSERT_EQ(v.size(), 2u);
    EXPECT_EQ(v[1].startCycle, 100u);
    EXPECT_EQ(v[1].endCycle, 5000u);
    EXPECT_FALSE(s.due(5099));
    EXPECT_TRUE(s.due(5100));
}

TEST(TelemetrySampler, FinalizeCapturesTrailingPartial)
{
    IntervalSampler s(100, 8);
    s.sample(100);
    s.finalize(100); // nothing pending: no extra record
    EXPECT_EQ(s.intervals().size(), 1u);
    s.finalize(142);
    const auto v = s.intervals();
    ASSERT_EQ(v.size(), 2u);
    EXPECT_EQ(v[1].startCycle, 100u);
    EXPECT_EQ(v[1].endCycle, 142u);
}

TEST(TelemetrySampler, RingWrapDropsOldestAndCounts)
{
    IntervalSampler s(10, 3);
    for (Cycle c = 10; c <= 60; c += 10)
        s.sample(c);
    EXPECT_EQ(s.sampledIntervals(), 6u);
    EXPECT_EQ(s.droppedIntervals(), 3u);
    const auto v = s.intervals();
    ASSERT_EQ(v.size(), 3u);
    // Oldest-first, and the survivors are the last three intervals.
    EXPECT_EQ(v[0].index, 3u);
    EXPECT_EQ(v[1].index, 4u);
    EXPECT_EQ(v[2].index, 5u);
    EXPECT_EQ(v[0].startCycle, 30u);
    EXPECT_EQ(v[2].endCycle, 60u);
}

// ---------- exporters ----------

TelemetryData
syntheticData()
{
    IntervalSampler s(100, 8);
    CounterSnapshot script;
    s.setSource([&](CounterSnapshot& out) { out = script; });
    script.retired = 400;
    script.l1dMisses = 12;
    script.dramBytes = 640;
    s.sample(100);
    script.retired = 900;
    s.sample(200);

    TelemetryData d;
    d.intervalCycles = s.intervalCycles();
    d.droppedIntervals = s.droppedIntervals();
    d.intervals = s.intervals();
    d.incidents.push_back(
        {150, "watchdog_probe", "retired=650"});
    d.incidents.push_back(
        {50, "dram_delay", "tricky \"detail\"\nwith newline"});
    HistogramData h;
    h.name = "load_to_use_cycles";
    h.counts = {0, 2, 1};
    h.samples = 3;
    h.sum = 7;
    h.maxValue = 3;
    h.p50 = 1;
    h.p95 = 2;
    h.p99 = 2;
    d.histograms.push_back(h);
    return d;
}

/** Structural JSON check: braces/brackets balance outside strings and
 *  strings terminate; enough to catch broken escaping or truncation. */
bool
balancedJson(const std::string& s)
{
    std::vector<char> stack;
    bool in_str = false, esc = false;
    for (const char c : s) {
        if (in_str) {
            if (esc)
                esc = false;
            else if (c == '\\')
                esc = true;
            else if (c == '"')
                in_str = false;
            continue;
        }
        switch (c) {
          case '"': in_str = true; break;
          case '{': stack.push_back('}'); break;
          case '[': stack.push_back(']'); break;
          case '}':
          case ']':
            if (stack.empty() || stack.back() != c)
                return false;
            stack.pop_back();
            break;
          default: break;
        }
    }
    return stack.empty() && !in_str;
}

TEST(TelemetryExport, JsonlOneBalancedObjectPerInterval)
{
    const TelemetryData d = syntheticData();
    const std::string jsonl = telemetryJsonl(d);
    std::istringstream is(jsonl);
    std::string line;
    std::size_t lines = 0;
    while (std::getline(is, line)) {
        EXPECT_TRUE(balancedJson(line)) << line;
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        EXPECT_NE(line.find("\"interval\":" + std::to_string(lines)),
                  std::string::npos);
        ++lines;
    }
    EXPECT_EQ(lines, d.intervals.size());
    EXPECT_NE(jsonl.find("\"retired\":400"), std::string::npos);
    EXPECT_NE(jsonl.find("\"retired\":500"), std::string::npos);
}

TEST(TelemetryExport, CsvHeaderMatchesRows)
{
    const TelemetryData d = syntheticData();
    std::istringstream is(telemetryCsv(d));
    std::string header;
    ASSERT_TRUE(std::getline(is, header));
    const auto commas = [](const std::string& s) {
        return std::count(s.begin(), s.end(), ',');
    };
    std::string line;
    std::size_t rows = 0;
    while (std::getline(is, line)) {
        EXPECT_EQ(commas(line), commas(header)) << line;
        ++rows;
    }
    EXPECT_EQ(rows, d.intervals.size());
}

TEST(TelemetryExport, ChromeTraceBalancedAndMonotone)
{
    const TelemetryData d = syntheticData();
    const std::string trace = chromeTraceJson(d);
    EXPECT_TRUE(balancedJson(trace));
    EXPECT_EQ(trace.front(), '[');

    // Every ts, in document order, must be non-decreasing.
    double last = -1.0;
    std::size_t events = 0;
    for (std::size_t pos = trace.find("\"ts\":");
         pos != std::string::npos;
         pos = trace.find("\"ts\":", pos + 1)) {
        const double t = std::stod(trace.substr(pos + 5));
        EXPECT_GE(t, last);
        last = t;
        ++events;
    }
    // 2 metadata events + 6 counter tracks per interval + 2 incidents.
    EXPECT_EQ(events, 2 + 6 * d.intervals.size() + d.incidents.size());

    // The raw quote/newline in the incident detail must arrive escaped.
    EXPECT_NE(trace.find("tricky \\\"detail\\\"\\nwith newline"),
              std::string::npos);
    EXPECT_NE(trace.find("\"dropped_intervals\":0"), std::string::npos);
}

TEST(TelemetryExport, PerJobPathVariants)
{
    EXPECT_EQ(perJobPath("out.jsonl", 3), "out.job3.jsonl");
    EXPECT_EQ(perJobPath("dir/run.trace.json", 0),
              "dir/run.trace.job0.json");
    EXPECT_EQ(perJobPath("noext", 7), "noext.job7");
    EXPECT_EQ(perJobPath("dotted.dir/noext", 2), "dotted.dir/noext.job2");
    EXPECT_EQ(perJobPath("", 1), "");
}

// ---------- whole-run behaviour ----------

RunConfig
telemetryRunConfig()
{
    RunConfig cfg;
    cfg.traceScale = 0.05;
    cfg.l2 = "streamline";
    cfg.telemetry.enabled = true;
    cfg.telemetry.intervalCycles = 20'000;
    return cfg;
}

TEST(TelemetryRun, IntervalSeriesIsContiguousAndNonTrivial)
{
    clearTraceCache();
    const RunResult r = runWorkload(telemetryRunConfig(), "spec06_mcf");
    ASSERT_TRUE(r.telemetry);
    const TelemetryData& t = *r.telemetry;

    ASSERT_GE(t.intervals.size(), 10u);
    EXPECT_EQ(t.droppedIntervals, 0u);

    std::uint64_t retired = 0, dram_bytes = 0;
    std::size_t nonzero_ipc = 0, nonzero_mpki = 0, nonzero_bw = 0;
    for (std::size_t i = 0; i < t.intervals.size(); ++i) {
        const IntervalRecord& rec = t.intervals[i];
        EXPECT_EQ(rec.index, i);
        EXPECT_GT(rec.endCycle, rec.startCycle);
        if (i > 0) {
            EXPECT_EQ(rec.startCycle, t.intervals[i - 1].endCycle);
        }
        retired += rec.delta.retired;
        dram_bytes += rec.delta.dramBytes;
        nonzero_ipc += rec.ipc() > 0;
        nonzero_mpki += rec.l1dMpki() > 0;
        nonzero_bw += rec.dramBytesPerKCycle() > 0;
    }
    EXPECT_EQ(t.intervals.front().startCycle, 0u);
    EXPECT_GT(retired, 0u);
    EXPECT_GT(dram_bytes, 0u);
    // The acceptance bar: a healthy run shows at least 10 intervals with
    // live IPC/MPKI/bandwidth, not a series of zeros.
    EXPECT_GE(nonzero_ipc, 10u);
    EXPECT_GE(nonzero_mpki, 10u);
    EXPECT_GE(nonzero_bw, 10u);

    // Probes fed the histograms.
    ASSERT_EQ(t.histograms.size(), 3u);
    EXPECT_EQ(t.histograms[0].name, "load_to_use_cycles");
    EXPECT_GT(t.histograms[0].samples, 0u);
    EXPECT_EQ(t.histograms[1].name, "dram_latency_cycles");
    EXPECT_GT(t.histograms[1].samples, 0u);
    EXPECT_GT(t.histograms[1].p50, 0u);
    EXPECT_EQ(t.histograms[2].name, "prefetch_fill_to_demand_cycles");
    EXPECT_GT(t.histograms[2].samples, 0u);
}

TEST(TelemetryRun, OutputFilesMatchIntervalCount)
{
    clearTraceCache();
    RunConfig cfg = telemetryRunConfig();
    const std::string base =
        ::testing::TempDir() + "/sl_telemetry_test";
    cfg.telemetry.jsonlPath = base + ".jsonl";
    cfg.telemetry.tracePath = base + ".trace.json";
    const RunResult r = runWorkload(cfg, "spec06_mcf");
    ASSERT_TRUE(r.telemetry);

    std::ifstream jsonl(cfg.telemetry.jsonlPath);
    ASSERT_TRUE(jsonl.good());
    std::size_t lines = 0;
    for (std::string line; std::getline(jsonl, line);)
        ++lines;
    EXPECT_EQ(lines, r.telemetry->intervals.size());

    std::ifstream trace(cfg.telemetry.tracePath);
    ASSERT_TRUE(trace.good());
    std::stringstream body;
    body << trace.rdbuf();
    EXPECT_TRUE(balancedJson(body.str()));
}

// ---------- determinism: telemetry only observes ----------

using golden::digestStats;

TEST(TelemetryDeterminism, EnablingTelemetryLeavesDigestsBitIdentical)
{
    const std::vector<std::pair<const char*, const char*>> grid = {
        {"streamline", "spec06_mcf"},
        {"streamline", "gap_bfs"},
        {"triangel", "spec06_mcf"},
        {"triangel", "gap_bfs"},
    };
    for (const auto& [l2, workload] : grid) {
        RunConfig off;
        off.traceScale = 0.05;
        off.l2 = l2;
        RunConfig on = off;
        on.telemetry.enabled = true;
        on.telemetry.intervalCycles = 50'000;

        clearTraceCache();
        const RunResult a = runWorkload(off, workload);
        clearTraceCache();
        const RunResult b = runWorkload(on, workload);
        const std::string where = on.l2 + "/" + workload;

        EXPECT_FALSE(a.telemetry) << where;
        ASSERT_TRUE(b.telemetry) << where;
        EXPECT_GT(b.telemetry->intervals.size(), 0u) << where;

        std::uint64_t ipc_a = 0, ipc_b = 0;
        std::memcpy(&ipc_a, &a.cores[0].ipc, sizeof(ipc_a));
        std::memcpy(&ipc_b, &b.cores[0].ipc, sizeof(ipc_b));
        EXPECT_EQ(ipc_a, ipc_b) << where;
        EXPECT_EQ(digestStats(a.l2PfStats[0]), digestStats(b.l2PfStats[0]))
            << where;
        EXPECT_EQ(digestStats(a.storeStats), digestStats(b.storeStats))
            << where;
        EXPECT_EQ(a.dramReads, b.dramReads) << where;
        EXPECT_EQ(a.dramWrites, b.dramWrites) << where;
        EXPECT_EQ(a.dramBytes, b.dramBytes) << where;
        EXPECT_EQ(a.llcMetaReads, b.llcMetaReads) << where;
        EXPECT_EQ(a.llcMetaWrites, b.llcMetaWrites) << where;
        EXPECT_EQ(a.cores[0].l2DemandMisses, b.cores[0].l2DemandMisses)
            << where;
        EXPECT_EQ(a.cores[0].l2PrefetchUseful,
                  b.cores[0].l2PrefetchUseful)
            << where;
        EXPECT_EQ(a.cores[0].l2PrefetchIssued,
                  b.cores[0].l2PrefetchIssued)
            << where;
        EXPECT_EQ(a.storedCorrelations, b.storedCorrelations) << where;
    }
}

} // namespace
} // namespace sl
