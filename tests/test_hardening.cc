/**
 * @file
 * Hardening-layer tests: SL_CHECK liveness, config validation, the
 * invariant auditor, the progress watchdog, deterministic fault
 * injection, and repro-bundle serialization.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "common/error.hh"
#include "common/event.hh"
#include "common/fault.hh"
#include "common/ring_buffer.hh"
#include "core/stream_store.hh"
#include "dram/dram.hh"
#include "sim/hardening.hh"
#include "sim/runner.hh"
#include "sim/system.hh"
#include "test_util.hh"

namespace sl
{
namespace
{

constexpr double kTinyScale = 0.05;

// ---------- SL_CHECK / SimError ----------

TEST(SimError, ChecksAreLiveAndCarryContext)
{
    // The default build defines NDEBUG; this test passing at all proves
    // SL_CHECK survives where assert would have been compiled out.
    try {
        const int x = 7;
        SL_CHECK_AT(x < 0, "widget", 42, "x=" << x << " should be negative");
        FAIL() << "SL_CHECK_AT did not throw";
    } catch (const SimError& e) {
        EXPECT_EQ(e.component(), "widget");
        EXPECT_EQ(e.cycle(), 42u);
        EXPECT_NE(e.detail().find("x=7"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("[widget @42]"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("x < 0"), std::string::npos);
    }
}

TEST(SimError, RequireUsesNoCycleSentinel)
{
    try {
        SL_REQUIRE(false, "cfg", "bad knob");
        FAIL() << "SL_REQUIRE did not throw";
    } catch (const SimError& e) {
        EXPECT_EQ(e.cycle(), kNoErrorCycle);
        // No "@cycle" in the message when outside simulated time.
        EXPECT_NE(std::string(e.what()).find("[cfg]"), std::string::npos);
    }
}

TEST(SimError, IsCatchableAsRuntimeError)
{
    EXPECT_THROW(SL_CHECK(false, "x", "y"), std::runtime_error);
}

// ---------- RingBuffer misuse ----------

TEST(RingBufferHardening, ZeroCapacityRejected)
{
    EXPECT_THROW(RingBuffer<int>(0), SimError);
}

TEST(RingBufferHardening, PushOnFullThrows)
{
    RingBuffer<int> rb(2);
    rb.push(1);
    rb.push(2);
    EXPECT_THROW(rb.push(3), SimError);
    // pushEvict remains the sanctioned overwrite path.
    rb.pushEvict(3);
    EXPECT_EQ(rb.at(0), 2);
    EXPECT_EQ(rb.at(1), 3);
}

TEST(RingBufferHardening, OutOfRangeAndEmptyThrow)
{
    RingBuffer<int> rb(4);
    EXPECT_THROW(rb.pop(), SimError);
    EXPECT_THROW(rb.front(), SimError);
    rb.push(5);
    EXPECT_THROW(rb.at(1), SimError);
    EXPECT_EQ(rb.at(0), 5);
}

// ---------- EventQueue monotonicity ----------

TEST(EventQueueHardening, ScheduleIntoPastThrows)
{
    EventQueue eq;
    int runs = 0;
    eq.schedule(5, [&](Cycle) { ++runs; });
    eq.runUntil(10);
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_THROW(eq.schedule(9, [](Cycle) {}), SimError);
    eq.schedule(10, [&](Cycle) { ++runs; }); // "now" itself is still legal
    eq.runUntil(10);
    EXPECT_EQ(runs, 2);
}

TEST(EventQueueHardening, FifoWithinACycleSurvivesExtraction)
{
    EventQueue eq;
    std::string order;
    eq.schedule(3, [&](Cycle) { order += 'a'; });
    eq.schedule(3, [&](Cycle) { order += 'b'; });
    // A callback rescheduling at its own cycle runs in the same drain.
    eq.schedule(3, [&](Cycle) {
        eq.schedule(3, [&](Cycle) { order += 'd'; });
        order += 'c';
    });
    eq.runUntil(3);
    EXPECT_EQ(order, "abcd");
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.size(), 0u);
}

// ---------- Configuration validation ----------

TEST(ConfigValidation, CoreParamsRejected)
{
    CoreParams p;
    p.width = 0;
    EXPECT_THROW(p.validate(), SimError);
    p.width = 16;
    p.robSize = 8;
    EXPECT_THROW(p.validate(), SimError);
}

TEST(ConfigValidation, SystemConfigRejectsBadGeometry)
{
    {
        SystemConfig c;
        c.cores = 0;
        EXPECT_THROW(c.validate(), SimError);
    }
    {
        SystemConfig c;
        c.l1dWays = 0;
        EXPECT_THROW(c.validate(), SimError);
    }
    {
        SystemConfig c;
        c.l2Latency = 0;
        EXPECT_THROW(c.validate(), SimError);
    }
    {
        SystemConfig c;
        c.llcMshrsPerCore = 0;
        EXPECT_THROW(c.validate(), SimError);
    }
    {
        // One core's L2 could then hold more LLC misses than its share
        // of the LLC MSHRs.
        SystemConfig c;
        c.l2Mshrs = c.llcMshrsPerCore + 1;
        EXPECT_THROW(c.validate(), SimError);
        c.cores = 4;
        EXPECT_THROW(c.validate(), SimError);
        c.l2Mshrs = c.llcMshrsPerCore;
        EXPECT_NO_THROW(c.validate());
    }
    {
        // 96KB / 64B / 8 ways = 192 sets: not a power of two.
        SystemConfig c;
        c.l1dBytes = 96 * 1024;
        EXPECT_THROW(c.validate(), SimError);
    }
    {
        SystemConfig c;
        c.dramMTs = 0;
        EXPECT_THROW(c.validate(), SimError);
    }
    // The defaults themselves must of course pass.
    EXPECT_NO_THROW(SystemConfig{}.validate());
    EXPECT_NO_THROW(paperGeometry().validate());
}

TEST(ConfigValidation, DramParamsRejected)
{
    // The address decode is shift/mask only: channels, banks per
    // channel and rows per bank must each be a nonzero power of two.
    const auto expectRejected = [](void (*mutate)(DramParams&)) {
        DramParams p;
        mutate(p);
        EXPECT_THROW(p.validate(), SimError);
    };
    expectRejected([](DramParams& p) { p.channels = 0; });
    expectRejected([](DramParams& p) { p.channels = 3; });
    expectRejected([](DramParams& p) { p.ranksPerChannel = 0; });
    expectRejected([](DramParams& p) { p.banksPerRank = 0; });
    expectRejected([](DramParams& p) { p.ranksPerChannel = 3; });
    expectRejected([](DramParams& p) { p.banksPerRank = 6; });
    expectRejected([](DramParams& p) { p.rowsPerBank = 0; });
    expectRejected([](DramParams& p) { p.rowsPerBank = 65535; });
    expectRejected([](DramParams& p) { p.transferMTs = 0; });

    // Every Table II shape passes, and the Dram constructor validates.
    DramParams ok;
    EXPECT_NO_THROW(ok.validate());
    ok.channels = 4;
    ok.ranksPerChannel = 2;
    EXPECT_NO_THROW(ok.validate());
    EventQueue eq;
    ok.channels = 3;
    EXPECT_THROW(Dram(ok, eq), SimError);
}

TEST(ConfigValidation, FaultRatesRejected)
{
    FaultConfig f;
    f.metadataBitFlipRate = 1.5;
    EXPECT_THROW(f.validate(), SimError);
    f.metadataBitFlipRate = 0.0;
    f.dramDelayRate = -0.1;
    EXPECT_THROW(f.validate(), SimError);
    f.dramDelayRate = 0.0;
    EXPECT_NO_THROW(f.validate());
    EXPECT_FALSE(f.enabled());
    f.dropPrefetchFillRate = 0.1;
    EXPECT_TRUE(f.enabled());
}

TEST(ConfigValidation, RunConfigRejected)
{
    RunConfig c;
    c.cores = 0;
    EXPECT_THROW(c.validate(), SimError);
    c.cores = 1;
    c.traceScale = 50.0;
    EXPECT_THROW(c.validate(), SimError);
    c.traceScale = -1.0;
    c.faults.loseRequestRate = 2.0;
    EXPECT_THROW(c.validate(), SimError);
}

TEST(ConfigValidation, WorkloadCountMustMatchCores)
{
    RunConfig c;
    c.cores = 2;
    c.traceScale = kTinyScale;
    EXPECT_THROW(runWorkloads(c, {"spec06_gcc"}), SimError);
}

TEST(ConfigValidation, StreamStoreParamsRejected)
{
    StreamStoreParams p;
    p.sets = 100; // not a power of two
    EXPECT_THROW(StreamStore{p}, SimError);
    p = StreamStoreParams{};
    p.partialTagBits = 0;
    EXPECT_THROW(StreamStore{p}, SimError);
    p = StreamStoreParams{};
    p.streamLength = 0;
    EXPECT_THROW(StreamStore{p}, SimError);
}

// ---------- Progress watchdog (standalone) ----------

TEST(Watchdog, TripsAfterAFullWindowWithoutWork)
{
    ProgressWatchdog wd(100, [](Cycle) { return "snapshot-text"; });
    wd.observe(0, 5);
    wd.observe(60, 5);   // inside the window: fine
    wd.observe(100, 5);  // exactly the window: still fine
    try {
        wd.observe(101, 5);
        FAIL() << "watchdog did not trip";
    } catch (const SimError& e) {
        EXPECT_EQ(e.component(), "progress_watchdog");
        EXPECT_EQ(e.cycle(), 101u);
        EXPECT_NE(std::string(e.what()).find("snapshot-text"),
                  std::string::npos);
    }
}

TEST(Watchdog, WorkResetsTheWindow)
{
    ProgressWatchdog wd(100, nullptr);
    wd.observe(0, 1);
    wd.observe(90, 2);   // progress
    EXPECT_NO_THROW(wd.observe(190, 2));
    EXPECT_THROW(wd.observe(191, 2), SimError);
}

TEST(Watchdog, ZeroWindowDisables)
{
    ProgressWatchdog wd(0, nullptr);
    wd.observe(0, 1);
    EXPECT_NO_THROW(wd.observe(1'000'000'000, 1));
}

// ---------- Auditor / watchdog on a live System ----------

TEST(Auditor, CleanRunPassesPeriodicAudits)
{
    clearTraceCache();
    SystemConfig cfg;
    cfg.hardening.auditInterval = 10'000;
    System sys(cfg, {getTrace("spec06_libquantum", kTinyScale)});
    sys.run();
    EXPECT_TRUE(sys.core(0).done());
    ASSERT_NE(sys.auditor(), nullptr);
    EXPECT_GT(sys.auditor()->auditsRun(), 0u);
}

/**
 * A trace of loads to many distinct blocks: with every downstream miss
 * request lost, the first 16 misses occupy every L1D MSHR forever and
 * all later misses park on the full table with nothing left to wake
 * them. The run loop reports that quiet deadlock at once unless
 * something else keeps the event queue busy.
 */
TracePtr
distinctBlockTrace()
{
    std::vector<std::pair<std::uint32_t, Addr>> acc;
    for (unsigned i = 0; i < 400; ++i)
        acc.emplace_back(3, Addr{0x400000} + i * kBlockBytes);
    return test::makeTrace(acc);
}

TEST(Auditor, CatchesLostMissRequest)
{
    // Every downstream miss request vanishes after MSHR allocation (a
    // hung controller). The first audit must flag the MSHR/in-flight
    // mismatch instead of letting the run spin.
    SystemConfig cfg;
    cfg.faults.loseRequestRate = 1.0;
    cfg.hardening.auditInterval = 64;
    cfg.hardening.watchdogWindow = 0; // isolate the auditor
    System sys(cfg, {distinctBlockTrace()});
    try {
        sys.run();
        FAIL() << "auditor did not catch the lost request";
    } catch (const SimError& e) {
        EXPECT_NE(e.detail().find("downstream requests in flight"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(e.cycle(), kNoErrorCycle);
    }
}

/** A livelock stand-in: an event that reschedules itself every 1,000
 *  cycles forever, so the queue never drains while nothing retires. */
void
armHeartbeat(EventQueue& eq, Cycle at)
{
    eq.schedule(at, [&eq](Cycle now) { armHeartbeat(eq, now + 1'000); });
}

TEST(Watchdog, TripsOnLiveLockedSystemWithSnapshot)
{
    // Every miss is lost, so the core wedges; on its own that is a quiet
    // deadlock the run loop reports at once. The heartbeat keeps the
    // event queue busy (so the deadlock check can't fire) while nothing
    // retires, and with the auditor off only the watchdog can convert
    // this hang into a diagnosis.
    SystemConfig cfg;
    cfg.faults.loseRequestRate = 1.0;
    cfg.hardening.auditInterval = 0; // isolate the watchdog
    cfg.hardening.watchdogWindow = 50'000;
    System sys(cfg, {distinctBlockTrace()});
    armHeartbeat(sys.eventQueue(), 1'000);
    try {
        sys.run();
        FAIL() << "watchdog did not trip";
    } catch (const SimError& e) {
        EXPECT_EQ(e.component(), "progress_watchdog");
        const std::string what = e.what();
        EXPECT_NE(what.find("diagnostic snapshot"), std::string::npos);
        EXPECT_NE(what.find("mshrs"), std::string::npos);
        EXPECT_NE(what.find("events pending"), std::string::npos);
        EXPECT_NE(what.find("retired"), std::string::npos);
    }
}

// ---------- Graceful fault injection ----------

FaultConfig
gracefulFaults()
{
    FaultConfig f;
    f.metadataBitFlipRate = 0.05;
    f.dropPrefetchFillRate = 0.10;
    f.dramDelayRate = 0.02;
    f.dramDelayCycles = 300;
    return f;
}

TEST(FaultInjection, TemporalPrefetchersSurviveFaultsGracefully)
{
    // The acceptance bar: under nonzero fault rates on a graph workload
    // and a pointer chase, every temporal-prefetcher configuration
    // completes without crash or hang, and demand-access bookkeeping
    // stays exactly conserved -- prefetches are hints, so faults may
    // only degrade coverage/IPC.
    clearTraceCache();
    for (const char* workload : {"gap_bfs", "spec06_mcf"}) {
        for (const char* pf : {"streamline", "triangel", "triage"}) {
            RunConfig cfg;
            cfg.traceScale = kTinyScale;
            cfg.l2 = pf;
            cfg.faults = gracefulFaults();
            const RunResult r = runWorkload(cfg, workload);
            SCOPED_TRACE(std::string(workload) + "/" + pf);
            ASSERT_EQ(r.cores.size(), 1u);
            EXPECT_GT(r.cores[0].ipc, 0.0);
            EXPECT_GE(r.cores[0].coverage(), 0.0);
            EXPECT_LE(r.cores[0].coverage(), 1.0);
            EXPECT_GE(r.cores[0].accuracy(), 0.0);
            EXPECT_LE(r.cores[0].accuracy(), 1.0);
        }
    }
}

TEST(FaultInjection, DemandCountersConservedUnderFaults)
{
    clearTraceCache();
    SystemConfig cfg;
    cfg.faults = gracefulFaults();
    cfg.hardening.auditInterval = 10'000; // audits must also stay green
    System sys(cfg, {getTrace("gap_bfs", kTinyScale)});
    sys.run();
    EXPECT_TRUE(sys.core(0).done());
    for (Cache* c : {&sys.l1d(0), &sys.l2(0), &sys.llc()}) {
        const auto& s = c->stats();
        EXPECT_EQ(s.get("demand_accesses"),
                  s.get("demand_hits") + s.get("demand_misses"))
            << c->name();
    }
    // The injector really fired.
    ASSERT_NE(sys.faultInjector(), nullptr);
    const auto& fs = sys.faultInjector()->stats();
    EXPECT_GT(fs.get("prefetch_fills_dropped") +
                  fs.get("dram_responses_delayed"),
              0u);
}

TEST(FaultInjection, FaultsDegradeButDoNotBreakStreamline)
{
    clearTraceCache();
    RunConfig clean;
    clean.traceScale = kTinyScale;
    clean.l2 = "streamline";
    const RunResult base = runWorkload(clean, "gap_bfs");

    RunConfig faulty = clean;
    faulty.faults.metadataBitFlipRate = 0.5; // heavy corruption
    faulty.faults.dropPrefetchFillRate = 0.5;
    const RunResult hurt = runWorkload(faulty, "gap_bfs");

    EXPECT_GT(hurt.cores[0].ipc, 0.0);
    // Heavy metadata corruption must not *help* coverage.
    EXPECT_LE(hurt.cores[0].coverage(), base.cores[0].coverage() + 1e-9);
}

TEST(FaultInjection, FaultyRunsReplayDeterministically)
{
    clearTraceCache();
    RunConfig cfg;
    cfg.traceScale = kTinyScale;
    cfg.l2 = "triangel";
    cfg.faults = gracefulFaults();
    const RunResult a = runWorkload(cfg, "spec06_mcf");
    clearTraceCache();
    const RunResult b = runWorkload(cfg, "spec06_mcf");
    EXPECT_EQ(a.cores[0].ipc, b.cores[0].ipc);
    EXPECT_EQ(a.dramReads, b.dramReads);
    EXPECT_EQ(a.cores[0].l2PrefetchIssued, b.cores[0].l2PrefetchIssued);
}

// ---------- Repro bundle ----------

TEST(ReproBundle, FormatContainsEverythingNeededToReplay)
{
    RunConfig cfg;
    cfg.seed = 77;
    cfg.l2 = "streamline";
    cfg.faults.loseRequestRate = 1.0;
    const SimError err("progress_watchdog", 123456, "stuck",
                       "[progress_watchdog @123456] stuck");
    const std::string b = formatReproBundle(cfg, {"gap_bfs"}, err);
    EXPECT_NE(b.find("seed = 77"), std::string::npos);
    EXPECT_NE(b.find("workloads = gap_bfs"), std::string::npos);
    EXPECT_NE(b.find("l2_prefetcher = streamline"), std::string::npos);
    EXPECT_NE(b.find("fault.lose_request_rate = 1"), std::string::npos);
    EXPECT_NE(b.find("error.component = progress_watchdog"),
              std::string::npos);
    EXPECT_NE(b.find("error.cycle = 123456"), std::string::npos);
}

TEST(ReproBundle, WrittenWhenARunTrips)
{
    clearTraceCache();
    const std::string path = "test_repro_bundle.txt";
    ::setenv("SL_REPRO_PATH", path.c_str(), 1);
    std::remove(path.c_str());

    RunConfig cfg;
    cfg.traceScale = kTinyScale;
    cfg.faults.loseRequestRate = 1.0;
    cfg.hardening.watchdogWindow = 50'000;
    cfg.hardening.auditInterval = 0;
    EXPECT_THROW(runWorkload(cfg, "spec06_libquantum"), SimError);

    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "repro bundle was not written";
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string bundle = ss.str();
    EXPECT_NE(bundle.find("seed = "), std::string::npos);
    EXPECT_NE(bundle.find("spec06_libquantum"), std::string::npos);
    EXPECT_NE(bundle.find("fault.lose_request_rate = 1"),
              std::string::npos);
    ::unsetenv("SL_REPRO_PATH");
    std::remove(path.c_str());
}

} // namespace
} // namespace sl
