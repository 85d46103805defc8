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
 * end to end; Determinism.BackToBackRunsAreBitIdentical (test_pool.cc)
 * reuses the Streamline cells. Re-pinning this table changes what the
 * simulator computes: bump kResultsVersion (sim/batch.hh) in the same
 * change.
 */

#ifndef SL_TESTS_GOLDEN_RUNS_HH
#define SL_TESTS_GOLDEN_RUNS_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <string>

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
