/**
 * @file
 * The simulator's one golden-digest set: full-run results of every
 * temporal prefetcher on a DRAM-bound (spec06_mcf) and a graph (gap_bfs)
 * workload at traceScale 0.05, seed 1, stride L1. The digests cover the
 * complete prefetcher and metadata-store stat maps, so any change to
 * counter values -- or to which counters get registered -- fails, as
 * does any change to wake order or wake pass-on in the stall scheduler,
 * or to the event order of the cache-to-cache hops (DESIGN.md §13.1).
 *
 * GoldenRuns.MatchPinnedDigests (test_system.cc) runs every row, which
 * pins the metadata stores, the request pool and the stall scheduler
 * end to end; GoldenRuns.MultiCoreMatchPinnedValues runs kMultiCoreRows,
 * which pin the shared memory system of 2-, 4- and 8-core runs;
 * Determinism.BackToBackRunsAreBitIdentical (test_pool.cc) reuses the
 * Streamline cells. Re-pinning this table changes what the
 * simulator computes: bump kResultsVersion (sim/batch.hh) in the same
 * change.
 */

#ifndef SL_TESTS_GOLDEN_RUNS_HH
#define SL_TESTS_GOLDEN_RUNS_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.hh"
#include "sim/runner.hh"

namespace sl::golden
{

struct Row
{
    const char* l2;
    const char* workload;
    std::uint64_t ipcBits;
    std::uint64_t pfStatsDigest, storeStatsDigest;
    std::uint64_t dramReads, dramBytes;
    std::uint64_t metaReads, metaWrites;
    std::uint64_t l2Miss, l2Useful, l2Issued;
};

inline constexpr Row kRows[] = {
    {"streamline", "spec06_mcf", 0x3fd4cffd02f97434ULL,
     10141471530684141400ULL, 7464902752503185837ULL, 40633, 2600512,
     15156, 6962, 26899, 15610, 15762},
    {"streamline", "gap_bfs", 0x40180008b9ce15f0ULL,
     7327373188210526362ULL, 5774471847350328593ULL, 790, 50560,
     1816, 1041, 2489, 2918, 2921},
    {"triage", "spec06_mcf", 0x3fd6faba307ff79dULL,
     6110952764202114771ULL, 14695981039346656037ULL, 40682, 2603648,
     117990, 35680, 25342, 21560, 22050},
    {"triage", "gap_bfs", 0x40110854b8de1eafULL,
     3555628081271659658ULL, 14695981039346656037ULL, 809, 51776,
     16758, 4890, 3112, 2625, 2843},
    {"triangel", "spec06_mcf", 0x3fd55ae428473e93ULL,
     4055457244824761657ULL, 14695981039346656037ULL, 40671, 2602944,
     43795, 11125, 25237, 20798, 21111},
    {"triangel", "gap_bfs", 0x40180008b9ce15f0ULL,
     14831948969272157849ULL, 14695981039346656037ULL, 790, 50560,
     5937, 1731, 1665, 3694, 3706},
};

/**
 * A multi-core cell: the shared-memory path (FR-FCFS DRAM scheduler,
 * per-core LLC lanes, pressure-gated prefetch) that no single-core row
 * reaches. Pins per-core IPC and DRAM bytes, the scheduler and pressure
 * counters, the MSHR stall counts, and a digest of the complete
 * SL_DUMP_STATS block (every component's counter map).
 */
struct MultiCoreRow
{
    const char* l2;
    unsigned cores;
    const char* mix; //!< one workload per core; a single name replicates
    double scale;
    std::uint64_t ipcBits[8];
    std::uint64_t dramReads, dramBytes;
    std::uint64_t coreBytes[8];
    std::uint64_t readQWait, writeDrains;
    std::uint64_t pfAdmitted, pfDroppedElevated, pfDroppedSaturated;
    std::uint64_t l1dRetries, llcRetries; //!< mshr_retries, l1d_* summed
    std::uint64_t statsDigest;
};

inline constexpr MultiCoreRow kMultiCoreRows[] = {
    {"none", 2, "spec06_soplex,gap_pr", 0.05,
     {0x3fd43aa33a949941ULL, 0x3fd179205e2485e1ULL},
     58731, 4575360,
     {2555136, 2020224},
     91049564, 1380, 3266, 2365, 74178, 100418, 0,
     10492424180858306174ULL},
    {"streamline", 2, "spec06_soplex,gap_pr", 0.05,
     {0x3fd43aa33a949941ULL, 0x3fd179205e2485e1ULL},
     58731, 4575360,
     {2555136, 2020224},
     91049564, 1380, 3266, 2365, 74178, 100418, 0,
     8063450796922497386ULL},
    {"triangel", 2, "spec06_soplex,gap_pr", 0.05,
     {0x3fd43aa33a949941ULL, 0x3fd179205e2485e1ULL},
     58731, 4575360,
     {2555136, 2020224},
     91049564, 1380, 3266, 2365, 74178, 100418, 0,
     11346291024626312356ULL},
    {"triangel", 4, "gap_pr", 0.02,
     {0x3fc8252a5388c663ULL, 0x3fc8267b9627725dULL, 0x3fc93799cd9b9fdcULL,
      0x3fc7a8a98412b221ULL},
     71252, 6456128,
     {1600896, 1603968, 1666880, 1584384},
     168117208, 2302, 371, 370, 161019, 74880, 0,
     8294181467456802470ULL},
    {"streamline", 8, "gap_pr", 0.02,
     {0x3fc9232bc89a287aULL, 0x3fc87df8adbfd05bULL, 0x3fc83edb2595721cULL,
      0x3fc85ead0b1c2cb4ULL, 0x3fc8199bb09794aaULL, 0x3fc7f0f2a419e052ULL,
      0x3fc7e99da69f6c3dULL, 0x3fc9c8ed73a6b00fULL},
     141215, 12401664,
     {1569088, 1550016, 1572096, 1536896, 1548608, 1533824, 1525056,
      1566080},
     322661534, 4228, 170, 169, 313320, 136661, 0,
     9769869798704754260ULL},
};

inline std::uint64_t
digestStats(const std::map<std::string, std::uint64_t>& m)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto& [k, v] : m) {
        h = fnv1a(k.data(), k.size(), h);
        h = fnv1a(&v, sizeof(v), h);
    }
    return h;
}

/** One run's SL_DUMP_STATS block: the text and its "group.key" values. */
struct StatDump
{
    std::string text;
    std::map<std::string, std::uint64_t> values;

    std::uint64_t
    get(const std::string& key) const
    {
        auto it = values.find(key);
        return it == values.end() ? 0 : it->second;
    }
};

/** Run @p workloads under @p cfg with SL_DUMP_STATS on, capturing the
 *  stat block it prints into @p dump. */
inline RunResult
runWithStatDump(const RunConfig& cfg,
                const std::vector<std::string>& workloads, StatDump& dump)
{
    ::setenv("SL_DUMP_STATS", "1", 1);
    ::testing::internal::CaptureStdout();
    RunResult r = runWorkloadsRaw(cfg, workloads);
    const std::string out = ::testing::internal::GetCapturedStdout();
    ::unsetenv("SL_DUMP_STATS");

    const std::string begin = "==STATS==\n", end = "==ENDSTATS==\n";
    const std::size_t b = out.find(begin), e = out.find(end);
    EXPECT_NE(b, std::string::npos) << "no stat dump printed";
    EXPECT_NE(e, std::string::npos) << "stat dump not terminated";
    if (b == std::string::npos || e == std::string::npos)
        return r;
    dump.text = out.substr(b, e + end.size() - b);
    std::istringstream lines(out.substr(b + begin.size(),
                                        e - b - begin.size()));
    for (std::string line; std::getline(lines, line);) {
        const std::size_t eq = line.find(" = ");
        if (eq != std::string::npos)
            dump.values[line.substr(0, eq)] =
                std::stoull(line.substr(eq + 3));
    }
    return r;
}

/** Values a MultiCoreRow pins, as one run produced them. */
struct MultiCoreObserved
{
    std::vector<std::uint64_t> ipcBits, coreBytes;
    std::uint64_t dramReads = 0, dramBytes = 0;
    std::uint64_t readQWait = 0, writeDrains = 0;
    std::uint64_t pfAdmitted = 0, pfDroppedElevated = 0,
                  pfDroppedSaturated = 0;
    std::uint64_t l1dRetries = 0, llcRetries = 0;
    std::uint64_t statsDigest = 0;
};

inline MultiCoreObserved
observeMultiCore(const MultiCoreRow& g)
{
    clearTraceCache();
    RunConfig cfg;
    cfg.cores = g.cores;
    cfg.traceScale = g.scale;
    cfg.l2 = g.l2;
    std::vector<std::string> workloads;
    std::istringstream names(g.mix);
    for (std::string w; std::getline(names, w, ',');)
        workloads.push_back(w);
    if (workloads.size() == 1)
        workloads.resize(g.cores, workloads[0]);

    StatDump dump;
    const RunResult r = runWithStatDump(cfg, workloads, dump);
    MultiCoreObserved o;
    for (const CoreResult& c : r.cores) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &c.ipc, sizeof(bits));
        o.ipcBits.push_back(bits);
    }
    o.coreBytes = r.dramCoreBytes;
    o.dramReads = r.dramReads;
    o.dramBytes = r.dramBytes;
    o.readQWait = r.dramReadQueueWait;
    o.writeDrains = dump.get("dram.sched_write_drains");
    o.pfAdmitted = dump.get("mem_pressure.admitted");
    o.pfDroppedElevated = dump.get("mem_pressure.dropped_elevated");
    o.pfDroppedSaturated = dump.get("mem_pressure.dropped_saturated");
    for (unsigned c = 0; c < g.cores; ++c)
        o.l1dRetries +=
            dump.get("l1d_" + std::to_string(c) + ".mshr_retries");
    o.llcRetries = dump.get("llc.mshr_retries");
    o.statsDigest = fnv1a(dump.text.data(), dump.text.size(),
                          0xcbf29ce484222325ULL);
    return o;
}

/** Run @p g's multi-core cell and expect every pinned value. */
inline void
expectMultiCoreMatches(const MultiCoreRow& g)
{
    const MultiCoreObserved o = observeMultiCore(g);
    const std::string where = std::string(g.l2) + "/" +
                              std::to_string(g.cores) + "c/" + g.mix;
    ASSERT_EQ(o.ipcBits.size(), g.cores) << where;
    ASSERT_EQ(o.coreBytes.size(), g.cores) << where;
    for (unsigned c = 0; c < g.cores; ++c) {
        EXPECT_EQ(o.ipcBits[c], g.ipcBits[c]) << where << " core " << c;
        EXPECT_EQ(o.coreBytes[c], g.coreBytes[c])
            << where << " core " << c;
    }
    EXPECT_EQ(o.dramReads, g.dramReads) << where;
    EXPECT_EQ(o.dramBytes, g.dramBytes) << where;
    EXPECT_EQ(o.readQWait, g.readQWait) << where;
    EXPECT_EQ(o.writeDrains, g.writeDrains) << where;
    EXPECT_EQ(o.pfAdmitted, g.pfAdmitted) << where;
    EXPECT_EQ(o.pfDroppedElevated, g.pfDroppedElevated) << where;
    EXPECT_EQ(o.pfDroppedSaturated, g.pfDroppedSaturated) << where;
    EXPECT_EQ(o.l1dRetries, g.l1dRetries) << where;
    EXPECT_EQ(o.llcRetries, g.llcRetries) << where;
    EXPECT_EQ(o.statsDigest, g.statsDigest) << where;
}

/** Run @p g's cell and expect every pinned value. */
inline void
expectMatches(const Row& g)
{
    clearTraceCache();
    RunConfig cfg;
    cfg.traceScale = 0.05;
    cfg.l2 = g.l2;
    const RunResult r = runWorkload(cfg, g.workload);
    const std::string where = std::string(g.l2) + "/" + g.workload;

    std::uint64_t ipc_bits = 0;
    std::memcpy(&ipc_bits, &r.cores[0].ipc, sizeof(ipc_bits));
    EXPECT_EQ(ipc_bits, g.ipcBits) << where;
    EXPECT_EQ(digestStats(r.l2PfStats[0]), g.pfStatsDigest) << where;
    EXPECT_EQ(digestStats(r.storeStats), g.storeStatsDigest) << where;
    EXPECT_EQ(r.dramReads, g.dramReads) << where;
    EXPECT_EQ(r.dramBytes, g.dramBytes) << where;
    EXPECT_EQ(r.llcMetaReads, g.metaReads) << where;
    EXPECT_EQ(r.llcMetaWrites, g.metaWrites) << where;
    EXPECT_EQ(r.cores[0].l2DemandMisses, g.l2Miss) << where;
    EXPECT_EQ(r.cores[0].l2PrefetchUseful, g.l2Useful) << where;
    EXPECT_EQ(r.cores[0].l2PrefetchIssued, g.l2Issued) << where;
}

} // namespace sl::golden

#endif // SL_TESTS_GOLDEN_RUNS_HH
