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

} // namespace
} // namespace sl
