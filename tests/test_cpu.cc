/**
 * @file
 * Tests for the core model: retirement accounting, IPC measurement,
 * dependent-load serialisation, and warmup split.
 */

#include <gtest/gtest.h>

#include "cpu/core.hh"
#include "test_util.hh"

namespace sl
{
namespace
{

using test::makeTrace;
using test::ScriptedMemory;

/** Minimal run loop mirroring System::run for a single core. */
void
runCore(Core& core, EventQueue& eq, std::uint64_t max_cycles = 10'000'000)
{
    // Each runCore is an independent simulation from cycle 0: flush any
    // straggler events from a previous run, then rebase the clock.
    test::drain(eq);
    Cycle cycle = 0;
    while (!core.done()) {
        ASSERT_LT(cycle, max_cycles) << "core did not finish";
        eq.runUntil(cycle);
        const bool progress = core.step(cycle);
        if (progress) {
            ++cycle;
            continue;
        }
        Cycle next = std::min(eq.nextCycle(), core.nextWake(cycle));
        ASSERT_NE(next, kNoCycle) << "deadlock";
        cycle = std::max(next, cycle + 1);
    }
}

struct CpuFixture : ::testing::Test
{
    CpuFixture() : mem(eq, 50)
    {
        CacheParams p;
        p.name = "l1";
        p.sizeBytes = 4096;
        p.ways = 4;
        p.latency = 4;
        p.mshrs = 8;
        p.ports = 2;
        l1 = std::make_unique<Cache>(p, eq, &mem);
    }

    EventQueue eq;
    ScriptedMemory mem;
    std::unique_ptr<Cache> l1;
};

TEST_F(CpuFixture, RetiresEverything)
{
    std::vector<std::pair<std::uint32_t, Addr>> acc;
    for (unsigned i = 0; i < 200; ++i)
        acc.emplace_back(1, 0x1000 + (i % 8) * kBlockBytes);
    auto trace = makeTrace(acc);
    Core core(0, CoreParams{}, l1.get(), trace);
    runCore(core, eq);
    EXPECT_TRUE(core.done());
    EXPECT_EQ(core.evalInstructions(), trace->instructionCount());
    EXPECT_GT(core.ipc(), 0.0);
}

TEST_F(CpuFixture, CacheHitsGiveHigherIpcThanMisses)
{
    // Hot loop over one block vs a cold sweep.
    std::vector<std::pair<std::uint32_t, Addr>> hot, cold;
    for (unsigned i = 0; i < 300; ++i) {
        hot.emplace_back(1, 0x1000);
        cold.emplace_back(1, 0x100000 + i * 0x1000);
    }
    Core hot_core(0, CoreParams{}, l1.get(), makeTrace(hot));
    runCore(hot_core, eq);

    CacheParams p;
    p.name = "l1b";
    p.sizeBytes = 4096;
    p.ways = 4;
    p.latency = 4;
    p.mshrs = 8;
    p.ports = 2;
    Cache l1b(p, eq, &mem);
    Core cold_core(1, CoreParams{}, &l1b, makeTrace(cold));
    runCore(cold_core, eq);

    EXPECT_GT(hot_core.ipc(), cold_core.ipc() * 1.5);
}

TEST_F(CpuFixture, DependentLoadsSerialise)
{
    // Same miss stream; one independent, one dependent.
    std::vector<Addr> blocks;
    for (unsigned i = 0; i < 200; ++i)
        blocks.push_back(0x200000 + i * 0x1000);

    auto indep = std::make_shared<Trace>();
    auto dep = std::make_shared<Trace>();
    {
        TraceRecorder ri, rd;
        for (Addr a : blocks) {
            ri.load(1, a, 1);
            rd.loadDep(1, a, 1);
        }
        indep->records = ri.take();
        dep->records = rd.take();
    }

    CacheParams p;
    p.name = "l1c";
    p.sizeBytes = 4096;
    p.ways = 4;
    p.latency = 4;
    p.mshrs = 8;
    p.ports = 2;
    Cache ca(p, eq, &mem), cb(p, eq, &mem);
    Core core_i(0, CoreParams{}, &ca, indep);
    Core core_d(1, CoreParams{}, &cb, dep);
    runCore(core_i, eq);
    runCore(core_d, eq);
    EXPECT_GT(core_i.ipc(), core_d.ipc() * 2.0);
}

TEST_F(CpuFixture, WarmupSplitsMeasurement)
{
    std::vector<std::pair<std::uint32_t, Addr>> acc;
    for (unsigned i = 0; i < 400; ++i)
        acc.emplace_back(1, 0x1000 + (i % 4) * kBlockBytes);
    auto trace = makeTrace(acc, 2, 0.25);
    ASSERT_EQ(trace->warmupRecords, 100u);
    Core core(0, CoreParams{}, l1.get(), trace);
    runCore(core, eq);
    EXPECT_LT(core.evalInstructions(), trace->instructionCount());
    EXPECT_GT(core.evalCycles(), 0u);
}

TEST_F(CpuFixture, AddressOffsetSeparatesCores)
{
    auto trace = makeTrace({{1, 0x1000}});
    Core c1(1, CoreParams{}, l1.get(), trace);
    runCore(c1, eq);
    ASSERT_FALSE(mem.requests.empty());
    EXPECT_EQ(mem.requests.back().addr, (Addr{1} << 44) + 0x1000);
}

TEST_F(CpuFixture, StoresRetireThroughStoreBuffer)
{
    auto t = std::make_shared<Trace>();
    TraceRecorder rec;
    for (unsigned i = 0; i < 100; ++i)
        rec.store(1, 0x700000 + i * 0x1000, 1);
    t->records = rec.take();
    Core core(0, CoreParams{}, l1.get(), t);
    runCore(core, eq);
    // Stores never stall retirement on memory: IPC near width-limited.
    EXPECT_GT(core.ipc(), 2.0);
    EXPECT_EQ(core.stats().get("stores"), 100u);
}

// ---------- wake-driven stepping ----------

/** (cycle, instructions retired so far) at each cycle retirement moved. */
using Timeline = std::vector<std::pair<Cycle, std::uint64_t>>;

/**
 * Visit every cycle from @p from until the core finishes or @p until --
 * as the system loop does while another core keeps progressing -- and
 * call step() (the reference) or stepAwake() each cycle, logging the
 * retirement timeline. @p end receives the cycle the loop stopped at.
 */
Timeline
driveEveryCycle(Core& core, EventQueue& eq, bool awake, Cycle from,
                Cycle until, Cycle& end)
{
    Timeline t;
    std::uint64_t retired = core.retiredInstructions();
    Cycle cycle = from;
    for (; cycle < until && !core.done(); ++cycle) {
        eq.runUntil(cycle);
        if (awake)
            core.stepAwake(cycle);
        else
            core.step(cycle);
        if (core.retiredInstructions() != retired) {
            retired = core.retiredInstructions();
            t.emplace_back(cycle, retired);
        }
    }
    end = cycle;
    return t;
}

/** One core over its own L1D (8 MSHRs, 4-cycle hits) and a scripted
 *  memory of fixed latency. */
struct Rig
{
    static CacheParams
    l1Params()
    {
        CacheParams p;
        p.name = "l1";
        p.sizeBytes = 4096;
        p.ways = 4;
        p.latency = 4;
        p.mshrs = 8;
        p.ports = 2;
        return p;
    }

    Rig(const CoreParams& cp, TracePtr trace, Cycle mem_latency)
        : mem(eq, mem_latency), l1(l1Params(), eq, &mem),
          core(0, cp, &l1, std::move(trace))
    {
    }

    EventQueue eq;
    ScriptedMemory mem;
    Cache l1;
    Core core;
};

/** A trace of raw records (exact bubble counts, no expansion). */
TracePtr
rawTrace(const std::vector<TraceRecord>& records)
{
    auto t = std::make_shared<Trace>();
    t->name = "synthetic";
    t->records = records;
    return t;
}

TraceRecord
rec(AccessType type, Addr addr, unsigned bubbles, bool dep = false)
{
    TraceRecord r{};
    r.addr = addr;
    r.pc = 1;
    r.type = type;
    r.bubbles = static_cast<std::uint8_t>(bubbles);
    r.flags = dep ? TraceRecord::kDependsOnPrev : 0;
    return r;
}

/** The wake-driven loop retires every record on the same cycle as the
 *  reference loop and finishes on the same cycle. */
void
expectSameAsReference(const CoreParams& cp, const TracePtr& trace,
                      Cycle mem_latency)
{
    constexpr Cycle kLimit = 2'000'000;
    Rig ref(cp, trace, mem_latency), awake(cp, trace, mem_latency);
    Cycle ref_end = 0, awake_end = 0;
    const Timeline a =
        driveEveryCycle(ref.core, ref.eq, false, 0, kLimit, ref_end);
    const Timeline b =
        driveEveryCycle(awake.core, awake.eq, true, 0, kLimit, awake_end);
    ASSERT_TRUE(ref.core.done()) << "reference run did not finish";
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
    EXPECT_EQ(ref_end, awake_end);
    EXPECT_EQ(ref.core.evalCycles(), awake.core.evalCycles());
}

TEST(WakeDrivenStepping, DependentChainOfInlineL1Hits)
{
    // After four cold misses every load hits the L1D, which answers
    // inline with a data-ready cycle 4 cycles ahead: each dependent
    // load waits on a completion that exists only in the ROB.
    std::vector<TraceRecord> r;
    for (unsigned i = 0; i < 400; ++i)
        r.push_back(rec(AccessType::Load, 0x1000 + (i % 4) * kBlockBytes,
                        i % 3, true));
    expectSameAsReference(CoreParams{}, rawTrace(r), 50);
}

TEST(WakeDrivenStepping, RobFullStall)
{
    // Independent misses fill a 16-entry ROB (half of them parked on the
    // full MSHR table) long before the head's data returns.
    CoreParams cp;
    cp.robSize = 16;
    cp.width = 4;
    std::vector<TraceRecord> r;
    for (unsigned i = 0; i < 200; ++i)
        r.push_back(rec(AccessType::Load, 0x100000 + i * 0x1000, 1));
    expectSameAsReference(cp, rawTrace(r), 200);
}

TEST(WakeDrivenStepping, BlockedCoreWokenByRequestDone)
{
    // A pointer chase through cold blocks: every load waits on memory
    // with no completion cycle known until the fill calls requestDone.
    std::vector<TraceRecord> r;
    for (unsigned i = 0; i < 150; ++i)
        r.push_back(rec(AccessType::Load, 0x200000 + i * 0x1000, 2, true));
    expectSameAsReference(CoreParams{}, rawTrace(r), 120);
}

TEST(WakeDrivenStepping, MixedLoadsStoresAndChases)
{
    std::vector<TraceRecord> r;
    std::uint64_t x = 12345;
    for (unsigned i = 0; i < 600; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        const Addr addr = 0x300000 + ((x >> 33) % 96) * kBlockBytes;
        const unsigned kind = (x >> 20) % 4;
        r.push_back(rec(kind == 0 ? AccessType::Store : AccessType::Load,
                        addr, (x >> 40) % 5, kind == 1));
    }
    CoreParams cp;
    cp.robSize = 32;
    expectSameAsReference(cp, rawTrace(r), 80);
}

TEST(WakeDrivenStepping, RestoreAndFastForwardResetTheWake)
{
    // Loads to cold blocks behind a distant memory: the core blocks with
    // its ROB full and no completion cycle known.
    CoreParams cp;
    cp.robSize = 16;
    cp.width = 4;
    std::vector<TraceRecord> r;
    for (unsigned i = 0; i < 64; ++i)
        r.push_back(rec(AccessType::Load, 0x400000 + i * 0x1000, 3));
    const TracePtr trace = rawTrace(r);
    Rig ref(cp, trace, 1'000'000), awake(cp, trace, 1'000'000);
    Serializer initial;
    awake.core.serializeState(initial);
    auto restoreInitial = [&] {
        for (Rig* rig : {&ref, &awake}) {
            Serializer load(initial.buffer().data(),
                            initial.buffer().size());
            rig->core.serializeState(load);
        }
    };
    Cycle ref_end = 0, awake_end = 0;
    auto expectSame = [&](Cycle from, Cycle until) {
        const Timeline a =
            driveEveryCycle(ref.core, ref.eq, false, from, until, ref_end);
        const Timeline b = driveEveryCycle(awake.core, awake.eq, true,
                                           from, until, awake_end);
        EXPECT_FALSE(a.empty());
        EXPECT_EQ(a, b);
        EXPECT_EQ(ref.core.retiredInstructions(),
                  awake.core.retiredInstructions());
    };

    expectSame(0, 300);
    ASSERT_FALSE(awake.core.stepAwake(300)); // blocked on memory
    ASSERT_FALSE(ref.core.step(300));

    // Restoring the initial state empties the ROB, so the core can
    // dispatch at once: the wake recorded while blocked must not hold
    // it back.
    restoreInitial();
    EXPECT_TRUE(awake.core.stepAwake(301));
    EXPECT_TRUE(ref.core.step(301));
    expectSame(302, 600);
    ASSERT_FALSE(awake.core.stepAwake(600)); // blocked again

    // Likewise across a fast-forward to record 32 (which needs the
    // empty ROB a restore leaves).
    restoreInitial();
    for (Rig* rig : {&ref, &awake})
        rig->core.fastForwardTo(32, 32 * 4, 601);
    EXPECT_TRUE(awake.core.stepAwake(601));
    EXPECT_TRUE(ref.core.step(601));
    expectSame(602, 3000);
}

} // namespace
} // namespace sl
