/**
 * @file
 * Tests for the structural-stall scheduler (DESIGN.md §13.1).
 *
 * A request blocked on a full MSHR table parks in FIFO order on the
 * table's waiter list and is replayed the cycle an entry frees. This
 * scheduler was once an opt-in mode (FastWake) beside a retry-polling
 * default; the polling scheduler is gone, and the test names keep the
 * old prefix.
 * Five properties are checked:
 *
 *  1. Agreement and liveness: against the polling scheduler's results,
 *     pinned from the last build that had it, retired-instruction
 *     counts are identical and IPC and prefetch counts stay within the
 *     documented tolerance. A tight audit interval keeps the waiter
 *     invariants under check throughout each retry storm, and once the
 *     event queue drains every parked request has been woken and
 *     retired to its pool.
 *  2. Determinism: full-run stat digests match the golden set
 *     (GoldenRuns.MatchPinnedDigests, test_system.cc).
 *  3. Snapshot round-trip: saving mid retry storm (waiter lists and
 *     wake probes live) and restoring resumes bit-identically.
 *  4. Old snapshots: a snapshot written by the polling build, in either
 *     of its modes, is refused (test_snapshot.cc, next to the other
 *     snapshot-rejection tests).
 *  5. The shared LLC never parks: the L2 MSHR bound keeps every core
 *     within its share of the LLC table.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "sim/runner.hh"
#include "sim/system.hh"
#include "trace/workloads.hh"

namespace sl
{
namespace
{

// ---------- agreement with the polling scheduler, and liveness ----------

/** One polling-scheduler run: streamline L2, stride L1, trace scale
 *  0.05, seed 1, 10K-cycle audit interval. Pinned from the last build
 *  that had the polling scheduler (its default mode). */
struct PollingRun
{
    const char* workload;
    std::uint64_t retired, cycles;
    std::uint64_t pfIssued, pfUseful;
};

constexpr PollingRun kPolling[] = {
    {"spec06_mcf", 1109856, 3412898, 15762, 15610},
    {"spec06_omnetpp", 835615, 279171, 2027, 285},
    {"spec06_soplex", 625818, 1047508, 9625, 3971},
    {"gap_bfs", 901277, 150213, 2866, 2859},
    {"gap_pr", 901442, 1886112, 6194, 2904},
};

TEST(FastWakeEquivalence, DefaultAndFastWakeAgree)
{
    RunConfig cfg; // stride L1D
    cfg.l2 = "streamline";
    for (const PollingRun& poll : kPolling) {
        const char* w = poll.workload;
        clearTraceCache();
        SystemConfig sc = systemConfigFor(cfg);
        // The InvariantAuditor checks MSHR/downstream accounting and the
        // waiter invariants (a parked waiter against a free resource with
        // no wake probe in flight throws) every 10K cycles.
        sc.hardening.auditInterval = 10'000;
        System sys(sc, {getTrace(w, 0.05, /*seed=*/1)});
        sys.run();
        EXPECT_GT(sys.l1d(0).stats().counter("mshr_retries").value(), 0u)
            << w << ": no structural stall to exercise";

        // Evaluation-region counts, not the live retire counter: the run
        // stops the cycle the last record retires, and trailing
        // non-record instructions may or may not fit into that cycle
        // depending on the schedule. The measurement region closes at a
        // fixed record count, so its length is the trace's, not the
        // scheduler's.
        const Core& core = sys.core(0);
        EXPECT_EQ(core.evalInstructions(), poll.retired) << w;

        // IPC tolerance (DESIGN.md §13.1): retired counts are equal, so
        // comparing cycle counts compares IPC. Wakes fire the cycle a
        // resource frees instead of on the next poll boundary, so timing
        // drifts by a few percent (under 3% on these five workloads).
        // Past 15% either way the two schedulers would be telling
        // different performance stories.
        const double ratio = static_cast<double>(core.evalCycles()) /
                             static_cast<double>(poll.cycles);
        EXPECT_GT(ratio, 0.85) << w << ": " << core.evalCycles()
                               << " cycles vs polling " << poll.cycles;
        EXPECT_LT(ratio, 1.15) << w << ": " << core.evalCycles()
                               << " cycles vs polling " << poll.cycles;

        // Prefetcher training sees a different access interleaving, so
        // issue/useful counts drift more than IPC does; they must stay
        // within a factor of two -- same order, same qualitative story.
        StatGroup& l2 = sys.l2(0).stats();
        const std::uint64_t issued = l2.counter("prefetch_issued").value();
        const std::uint64_t useful = l2.counter("prefetch_useful").value();
        EXPECT_LT(issued, 2 * poll.pfIssued + 100) << w;
        EXPECT_GT(2 * issued + 100, poll.pfIssued) << w;
        EXPECT_LT(useful, 2 * poll.pfUseful + 100) << w;
        EXPECT_GT(2 * useful + 100, poll.pfUseful) << w;

        EventQueue& eq = sys.eventQueue();
        while (!eq.empty())
            eq.runUntil(eq.nextCycle());
        EXPECT_TRUE(sys.l1d(0).idle()) << w;
        EXPECT_TRUE(sys.l2(0).idle()) << w;
        EXPECT_TRUE(sys.llc().idle()) << w;
        EXPECT_NO_THROW(sys.l1d(0).audit(eq.now())) << w;
        EXPECT_EQ(sys.requestPool().outstanding(), 0u) << w;
    }
}

// ---------- the shared LLC never parks ----------

// Each LLC miss holds one of its core's L2 MSHRs until it returns, and
// SystemConfig::validate keeps l2Mshrs <= llcMshrsPerCore, so the LLC
// table cannot overflow and a core cannot exceed its share of it: the
// LLC needs no per-core quota. At the tightest legal geometry (L2 and
// per-core LLC MSHRs equal, and fewer than the L1D's, so L1D misses
// alone overrun the L2), drive both L2 tables into structural stalls
// and check that the LLC never parks a request.
TEST(LlcMshrBound, TwoCoreStormNeverParksAtTheLlc)
{
    RunConfig cfg; // stride L1D
    cfg.l2 = "streamline";
    clearTraceCache();
    SystemConfig sc = systemConfigFor(cfg);
    sc.cores = 2;
    sc.l2Mshrs = 8;
    sc.llcMshrsPerCore = 8;
    sc.hardening.auditInterval = 10'000;
    System sys(sc, {getTrace("gap_pr", 0.05, /*seed=*/1),
                    getTrace("spec06_mcf", 0.05, /*seed=*/1)});
    sys.run();
    for (unsigned c = 0; c < sc.cores; ++c)
        EXPECT_GT(sys.l2(c).stats().get("mshr_retries"), 0u)
            << "core " << c << ": its L2 never filled its MSHR table";
    EXPECT_EQ(sys.llc().stats().get("mshr_retries"), 0u);
}

// ---------- snapshot round-trip mid retry storm ----------

void
expectIdenticalResults(const RunResult& a, const RunResult& b)
{
    ASSERT_EQ(a.cores.size(), b.cores.size());
    for (std::size_t i = 0; i < a.cores.size(); ++i) {
        EXPECT_EQ(a.cores[i].ipc, b.cores[i].ipc);
        EXPECT_EQ(a.cores[i].l2DemandMisses, b.cores[i].l2DemandMisses);
        EXPECT_EQ(a.cores[i].l2PrefetchUseful,
                  b.cores[i].l2PrefetchUseful);
        EXPECT_EQ(a.cores[i].l2PrefetchIssued,
                  b.cores[i].l2PrefetchIssued);
    }
    EXPECT_EQ(a.metadataTraffic(), b.metadataTraffic());
    EXPECT_EQ(a.dramReads, b.dramReads);
    EXPECT_EQ(a.dramWrites, b.dramWrites);
    EXPECT_EQ(a.dramBytes, b.dramBytes);
    EXPECT_EQ(a.storedCorrelations, b.storedCorrelations);
}

/** gap_bfs: the MSHR-saturating workload. The save point sits mid-run
 *  (the full run is ~245K cycles at this scale), where waiter lists and
 *  in-flight wake probes are live, so the waiter-list snapshot sections
 *  carry real state, not empty counts. */
TEST(FastWakeSnapshot, MidStormRoundTripIsBitIdentical)
{
    const std::string path = "sl_test_stall_snapshot.bin";
    RunConfig cfg;
    cfg.traceScale = 0.05;
    cfg.l2 = "streamline";
    const std::vector<std::string> w{"gap_bfs"};

    const RunResult plain = runWorkloadsRaw(cfg, w);

    RunHooks save;
    save.snapshotAt = 100'000;
    save.snapshotPath = path;
    const RunResult saved = runWorkloadsRaw(cfg, w, save);
    // Saving mid-run must not perturb the run that continues past it.
    expectIdenticalResults(plain, saved);

    RunHooks restore;
    restore.restorePath = path;
    const RunResult resumed = runWorkloadsRaw(cfg, w, restore);
    expectIdenticalResults(plain, resumed);
    std::remove(path.c_str());
}

} // namespace
} // namespace sl
