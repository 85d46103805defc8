/**
 * @file
 * Tests for the DRAM timing model: row-buffer states, channel mapping,
 * bandwidth scaling, write handling, and the FR-FCFS scheduler's pick
 * rules (requestors > 1).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "dram/dram.hh"
#include "test_util.hh"

namespace sl
{
namespace
{

using test::drain;
using test::RecordingClient;

struct DramFixture : ::testing::Test
{
    DramFixture()
    {
        params.channels = 1;
        params.ranksPerChannel = 1;
        params.controllerNs = 0.0; // isolate bank/bus timing in tests
    }

    MemRequest*
    read(Addr addr, RequestClient* c)
    {
        auto* r = new MemRequest;
        r->addr = addr;
        r->kind = ReqKind::DemandLoad;
        r->client = c;
        return r;
    }

    EventQueue eq;
    DramParams params;
    RecordingClient client;
};

TEST_F(DramFixture, RowMissThenRowHit)
{
    Dram dram(params, eq);
    dram.access(read(0x0, &client), 0);
    drain(eq);
    dram.access(read(0x400, &client), 100'000); // same 8KB row
    drain(eq);
    ASSERT_EQ(client.completions.size(), 2u);
    const Cycle first = client.completions[0].second;
    const Cycle second = client.completions[1].second - 100'000;
    // First access opens the row (tRCD+tCAS); second is a row hit (tCAS).
    EXPECT_GT(first, second);
    EXPECT_EQ(dram.stats().get("row_misses"), 1u);
    EXPECT_EQ(dram.stats().get("row_hits"), 1u);
}

TEST_F(DramFixture, RowConflictCostsMost)
{
    Dram dram(params, eq);
    dram.access(read(0x0, &client), 0);
    drain(eq);
    // Same bank, different row: one full bank rotation away (128-block
    // rows x 8 banks x 64B blocks = 64KB).
    const Addr other_row = Addr{128} * 8 * kBlockBytes;
    dram.access(read(other_row, &client), 100'000);
    drain(eq);
    EXPECT_EQ(dram.stats().get("row_conflicts"), 1u);
    const Cycle miss = client.completions[0].second;
    const Cycle conflict = client.completions[1].second - 100'000;
    EXPECT_GT(conflict, miss);
}

TEST_F(DramFixture, ChannelBusSerialises)
{
    Dram dram(params, eq);
    // Two same-cycle reads to different banks on one channel: the data
    // bursts share the bus.
    dram.access(read(0x0, &client), 0);
    dram.access(read(kBlockBytes, &client), 0);
    drain(eq);
    ASSERT_EQ(client.completions.size(), 2u);
    const Cycle gap = client.completions[1].second >
                              client.completions[0].second
                          ? client.completions[1].second -
                                client.completions[0].second
                          : client.completions[0].second -
                                client.completions[1].second;
    EXPECT_GE(gap, dram.burstCycles());
}

TEST_F(DramFixture, MoreChannelsMoreParallel)
{
    params.channels = 4;
    Dram dram(params, eq);
    for (unsigned i = 0; i < 4; ++i)
        dram.access(read(i * kBlockBytes, &client), 0);
    drain(eq);
    ASSERT_EQ(client.completions.size(), 4u);
    // All four land on distinct channels: identical completion times.
    for (unsigned i = 1; i < 4; ++i)
        EXPECT_EQ(client.completions[i].second,
                  client.completions[0].second);
}

TEST_F(DramFixture, BandwidthKnobScalesBurst)
{
    Dram fast(params, eq);
    params.transferMTs = 800;
    Dram slow(params, eq);
    EXPECT_EQ(fast.burstCycles() * 4, slow.burstCycles());
    EXPECT_GT(fast.peakBytesPerCycle(), slow.peakBytesPerCycle());
}

TEST_F(DramFixture, WritesConsumeBandwidthSilently)
{
    Dram dram(params, eq);
    auto* wb = new MemRequest;
    wb->addr = 0x9000;
    wb->kind = ReqKind::Writeback;
    dram.access(wb, 0);
    drain(eq);
    EXPECT_EQ(dram.stats().get("writes"), 1u);
    EXPECT_EQ(dram.stats().get("bytes"), kBlockBytes);
    EXPECT_TRUE(client.completions.empty());
}

TEST_F(DramFixture, ControllerLatencyAdds)
{
    Dram base(params, eq);
    params.controllerNs = 30.0;
    Dram slow(params, eq);
    RecordingClient c1, c2;
    base.access(read(0x0, &c1), 0);
    slow.access(read(0x0, &c2), 0);
    drain(eq);
    ASSERT_EQ(c1.completions.size(), 1u);
    ASSERT_EQ(c2.completions.size(), 1u);
    EXPECT_EQ(c2.completions[0].second - c1.completions[0].second, 120u);
}

// ---------- FR-FCFS scheduler (requestors > 1) ----------

/**
 * One channel of 8 banks under the scheduler. Every scenario first
 * services a read X at cycle 0, so the requests queued after it wait
 * for the bus together and the next tick sees all of them. Writebacks
 * carry a client here only so their service order is observable; the
 * channel bus serialises bursts, so completion order is pick order.
 */
struct DramSchedFixture : ::testing::Test
{
    DramSchedFixture()
    {
        params.channels = 1;
        params.ranksPerChannel = 1;
        params.controllerNs = 0.0;
        params.requestors = 2;
    }

    /** Column @p col of @p row in channel-local @p bank (128-block rows
     *  interleave across the 8 banks). */
    static Addr
    at(unsigned bank, unsigned row, unsigned col = 0)
    {
        return ((Addr{row} * 8 + bank) * 128 + col) * kBlockBytes;
    }

    void
    issue(Dram& dram, Addr addr, ReqKind kind, int core, Cycle now)
    {
        auto* r = new MemRequest;
        r->addr = addr;
        r->kind = kind;
        r->coreId = core;
        r->client = &client;
        dram.access(r, now);
    }

    /** Service X (core 0, bank 0, row 0) alone at cycle 0. */
    void
    occupyBus(Dram& dram)
    {
        issue(dram, at(0, 0), ReqKind::DemandLoad, 0, 0);
        eq.runUntil(0);
    }

    std::vector<Addr>
    order() const
    {
        std::vector<Addr> out;
        for (const auto& [addr, cycle] : client.completions)
            out.push_back(addr);
        return out;
    }

    EventQueue eq;
    DramParams params;
    RecordingClient client;
};

TEST_F(DramSchedFixture, DemandReadBeatsOlderPrefetch)
{
    Dram dram(params, eq);
    occupyBus(dram);
    const Addr pf = at(1, 0), demand = at(2, 0);
    issue(dram, pf, ReqKind::Prefetch, 0, 1);
    issue(dram, demand, ReqKind::DemandLoad, 0, 2);
    drain(eq);
    EXPECT_EQ(order(), (std::vector<Addr>{at(0, 0), demand, pf}));
    EXPECT_EQ(dram.stats().get("sched_demand_reads"), 2u);
    EXPECT_EQ(dram.stats().get("sched_prefetch_reads"), 1u);
}

TEST_F(DramSchedFixture, RowHitBeatsOlderRowMissWithinACoresTurn)
{
    Dram dram(params, eq);
    occupyBus(dram); // opens bank 0, row 0
    const Addr miss = at(1, 0), hit = at(0, 0, 1);
    issue(dram, miss, ReqKind::DemandLoad, 0, 1);
    issue(dram, hit, ReqKind::DemandLoad, 0, 2);
    drain(eq);
    EXPECT_EQ(order(), (std::vector<Addr>{at(0, 0), hit, miss}));
    EXPECT_EQ(dram.stats().get("row_hits"), 1u);
}

TEST_F(DramSchedFixture, CoresTakeRoundRobinTurns)
{
    Dram dram(params, eq);
    occupyBus(dram); // core 0 served: core 1's turn is next
    const Addr a0 = at(1, 0), a1 = at(2, 0);
    const Addr b0 = at(3, 0), b1 = at(4, 0);
    issue(dram, a0, ReqKind::DemandLoad, 0, 1);
    issue(dram, a1, ReqKind::DemandLoad, 0, 2);
    issue(dram, b0, ReqKind::DemandLoad, 1, 3);
    issue(dram, b1, ReqKind::DemandLoad, 1, 4);
    drain(eq);
    EXPECT_EQ(order(), (std::vector<Addr>{at(0, 0), b0, a0, b1, a1}));
    EXPECT_EQ(dram.stats().get("core0_bytes"), 3 * kBlockBytes);
    EXPECT_EQ(dram.stats().get("core1_bytes"), 2 * kBlockBytes);
}

TEST_F(DramSchedFixture, AnotherCoresRowHitDoesNotTakeTheTurn)
{
    Dram dram(params, eq);
    occupyBus(dram); // core 0 served, bank 0 row 0 open: core 1's turn
    const Addr hit0 = at(0, 0, 1);
    const Addr b0 = at(1, 0), b1 = at(2, 0);
    issue(dram, hit0, ReqKind::DemandLoad, 0, 1);
    issue(dram, b0, ReqKind::DemandLoad, 1, 2);
    issue(dram, b1, ReqKind::DemandLoad, 1, 3);
    drain(eq);
    // Core 0's row hit waits out core 1's turn, which takes core 1's
    // oldest read (neither of its reads hits an open row).
    EXPECT_EQ(order(), (std::vector<Addr>{at(0, 0), b0, hit0, b1}));
}

TEST_F(DramSchedFixture, PrefetchOnlyCoreLosesTurnToNextDemandHolder)
{
    params.requestors = 3;
    Dram dram(params, eq);
    occupyBus(dram); // core 0 served: core 1's turn
    const Addr d0 = at(1, 0), pf1 = at(2, 0), d2 = at(3, 0);
    issue(dram, d0, ReqKind::DemandLoad, 0, 1);
    issue(dram, pf1, ReqKind::Prefetch, 1, 2);
    issue(dram, d2, ReqKind::DemandLoad, 2, 3);
    drain(eq);
    // Core 1 holds only a prefetch while demand reads wait, so the turn
    // passes to core 2 (the next demand holder), not to the oldest
    // demand read (core 0's); prefetches go once no demand waits.
    EXPECT_EQ(order(), (std::vector<Addr>{at(0, 0), d2, d0, pf1}));
}

TEST_F(DramSchedFixture, CursorAdvancesPastTheServicedCore)
{
    params.requestors = 3;
    Dram dram(params, eq);
    occupyBus(dram); // core 0 served: the cursor points at core 1
    const Addr c2a = at(1, 0), c2b = at(2, 0), d0 = at(3, 0);
    issue(dram, c2a, ReqKind::DemandLoad, 2, 1);
    issue(dram, c2b, ReqKind::DemandLoad, 2, 2);
    issue(dram, d0, ReqKind::DemandLoad, 0, 3);
    drain(eq);
    // Core 1 has nothing, so core 2 is served; the cursor then moves
    // past core 2 (to core 0), not one past where it started (core 2).
    EXPECT_EQ(order(), (std::vector<Addr>{at(0, 0), c2a, d0, c2b}));
}

/**
 * A scheduler snapshot taken between two ticks, with reads of both
 * classes from both cores still queued, restores into a fresh Dram that
 * picks the rest in the same order: the per-queue bookkeeping derived
 * from the queues is rebuilt on load, not saved.
 */
TEST_F(DramSchedFixture, SnapshotBetweenTicksResumesTheSamePicks)
{
    Dram dram(params, eq);
    occupyBus(dram); // core 0 served: core 1's turn
    std::vector<MemRequest*> live;
    auto queue = [&](Addr addr, ReqKind kind, int core, Cycle now) {
        auto* r = new MemRequest;
        r->addr = addr;
        r->kind = kind;
        r->coreId = core;
        r->client = &client;
        live.push_back(r);
        dram.access(r, now);
    };
    queue(at(1, 0), ReqKind::Prefetch, 0, 1);
    queue(at(0, 0, 1), ReqKind::DemandLoad, 0, 2);
    queue(at(2, 0), ReqKind::Prefetch, 1, 3);
    queue(at(3, 0), ReqKind::DemandLoad, 1, 4);
    queue(at(3, 1), ReqKind::DemandLoad, 1, 5);
    queue(at(4, 0), ReqKind::Writeback, 0, 6);
    queue(at(5, 0), ReqKind::DemandLoad, 0, 7);
    eq.runUntil(eq.nextCycle()); // one tick: services core 1's oldest

    // Swizzle queued requests by their issue index; the restored side
    // gets copies answering to its own client.
    RecordingClient restoredClient;
    std::vector<MemRequest*> copies;
    for (const MemRequest* r : live) {
        copies.push_back(new MemRequest(*r));
        copies.back()->client = &restoredClient;
    }
    struct Maps
    {
        std::vector<MemRequest*>* live;
        std::vector<MemRequest*>* copies;
    } maps{&live, &copies};
    SnapshotCtx ctx;
    ctx.impl = &maps;
    ctx.reqId = [](const SnapshotCtx& c, const void* p) {
        const auto& v = *static_cast<Maps*>(c.impl)->live;
        return static_cast<std::uint32_t>(
            std::find(v.begin(), v.end(), p) - v.begin());
    };
    ctx.reqPtr = [](const SnapshotCtx& c, std::uint32_t id) {
        return static_cast<void*>(
            (*static_cast<Maps*>(c.impl)->copies)[id]);
    };
    Serializer save;
    dram.serializeState(save, ctx);
    Cycle tickAt = kNoCycle;
    eq.forEachPending([&](Cycle when, const EventCallback& cb) {
        if (cb.kind() == EventKind::DramTick)
            tickAt = when;
    });
    ASSERT_NE(tickAt, kNoCycle);
    const Cycle savedAt = eq.now();

    drain(eq);
    const std::vector<Addr> full = order();
    ASSERT_EQ(full.size(), 8u); // X plus the seven requests queued
    EXPECT_EQ(full[1], at(3, 0));

    EventQueue eq2;
    eq2.restoreClock(savedAt);
    Dram restored(params, eq2);
    Serializer load(save.buffer().data(), save.buffer().size());
    restored.serializeState(load, ctx);
    load.finish();
    EventDesc d;
    d.comp = &restored;
    d.a = 0;
    eq2.schedule(tickAt, EventCallback::make(EventKind::DramTick, d));
    drain(eq2);

    // The two requests serviced before the save answer only the
    // original client; the rest must follow in the original order.
    std::vector<Addr> rest;
    for (const auto& [addr, cycle] : restoredClient.completions)
        rest.push_back(addr);
    EXPECT_EQ(rest, std::vector<Addr>(full.begin() + 2, full.end()));
    EXPECT_EQ(restored.stats().counters().size(),
              dram.stats().counters().size());
    for (const auto& [key, c] : dram.stats().counters())
        EXPECT_EQ(restored.stats().get(key), c.value()) << key;
    delete copies[3]; // serviced before the save, so never restored
}

TEST_F(DramSchedFixture, WritesWaitForHighWatermarkOrIdleReads)
{
    params.writeDrainHigh = 4;
    params.writeDrainLow = 2;
    {
        // Below the high watermark a waiting read goes first, even
        // behind older writes; the writes drain once no read waits.
        Dram dram(params, eq);
        occupyBus(dram);
        const Addr w1 = at(1, 0), w2 = at(2, 0), w3 = at(3, 0);
        const Addr r = at(6, 0);
        for (const Addr w : {w1, w2, w3})
            issue(dram, w, ReqKind::Writeback, 0, 1);
        issue(dram, r, ReqKind::DemandLoad, 0, 1);
        drain(eq);
        EXPECT_EQ(order(), (std::vector<Addr>{at(0, 0), r, w1, w2, w3}));
        EXPECT_EQ(dram.stats().get("sched_write_drains"), 1u);
    }
    client.completions.clear();
    {
        // At the high watermark writes drain ahead of the waiting read
        // down to the low watermark; the read then goes, and the rest
        // drain once no read waits.
        Dram dram(params, eq);
        occupyBus(dram);
        const Addr w1 = at(1, 0), w2 = at(2, 0), w3 = at(3, 0);
        const Addr w4 = at(4, 0), w5 = at(5, 0);
        const Addr r = at(6, 0);
        for (const Addr w : {w1, w2, w3, w4, w5})
            issue(dram, w, ReqKind::Writeback, 0, 1);
        issue(dram, r, ReqKind::DemandLoad, 0, 1);
        drain(eq);
        EXPECT_EQ(order(),
                  (std::vector<Addr>{at(0, 0), w1, w2, w3, r, w4, w5}));
        EXPECT_EQ(dram.stats().get("sched_write_drains"), 2u);
    }
}

} // namespace
} // namespace sl
