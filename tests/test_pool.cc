/**
 * @file
 * Hot-path infrastructure tests: the request arena (ObjectPool), the
 * open-addressed MshrTable, and end-to-end determinism of pooled runs.
 *
 * Pooled runs must repeat bit-identically; their pinned values live in
 * the golden set (golden_runs.hh, GoldenRuns.MatchPinnedDigests in
 * test_system.cc).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cache/mshr_table.hh"
#include "cache/request.hh"
#include "common/hash.hh"
#include "common/pool.hh"
#include "golden_runs.hh"
#include "sim/runner.hh"
#include "sim/system.hh"
#include "trace/workloads.hh"
#include "test_util.hh"

namespace sl
{
namespace
{

// ---------- ObjectPool ----------

TEST(RequestPoolTest, AcquireResetsAndStampsOwnership)
{
    RequestPool pool;
    MemRequest* r = pool.acquire();
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->pool, &pool);
    EXPECT_FALSE(r->inFreeList);
    EXPECT_EQ(r->addr, 0u);
    EXPECT_EQ(r->client, nullptr);

    r->addr = 0xdeadbeefc0;
    r->coreId = 3;
    pool.release(r);
    EXPECT_TRUE(r->inFreeList);

    // LIFO free list: the same object comes back, scrubbed.
    MemRequest* again = pool.acquire();
    EXPECT_EQ(again, r);
    EXPECT_EQ(again->addr, 0u);
    EXPECT_EQ(again->coreId, 0);
    EXPECT_FALSE(again->inFreeList);
}

TEST(RequestPoolTest, GrowsByChunkAndAccountsCapacity)
{
    ObjectPool<MemRequest> pool(4); // tiny chunks to force growth
    std::vector<MemRequest*> live;
    for (int i = 0; i < 5; ++i)
        live.push_back(pool.acquire());
    EXPECT_EQ(pool.capacity(), 8u); // two 4-object chunks
    EXPECT_EQ(pool.outstanding(), 5u);
    EXPECT_EQ(pool.freeCount(), 3u);
    for (MemRequest* r : live)
        pool.release(r);
    EXPECT_EQ(pool.outstanding(), 0u);
    EXPECT_EQ(pool.freeCount(), 8u);
    EXPECT_EQ(pool.acquired(), 5u);
    EXPECT_EQ(pool.released(), 5u);
}

TEST(RequestPoolTest, DoubleReleaseThrows)
{
    RequestPool pool;
    MemRequest* r = pool.acquire();
    pool.release(r);
    EXPECT_THROW(pool.release(r), SimError);
}

TEST(RequestPoolTest, ReleaseToForeignPoolThrows)
{
    RequestPool a, b;
    MemRequest* r = a.acquire();
    EXPECT_THROW(b.release(r), SimError);
    a.release(r); // still fine with the rightful owner
}

TEST(RequestPoolTest, ReleaseOfHeapObjectThrows)
{
    RequestPool pool;
    (void)pool.acquire(); // pool must exist and have storage
    MemRequest heap;      // pool == nullptr
    EXPECT_THROW(pool.release(&heap), SimError);
}

TEST(RequestPoolTest, AuditBalancesThroughAcquireReleaseCycles)
{
    ObjectPool<MemRequest> pool(4);
    std::vector<MemRequest*> live;
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 6; ++i)
            live.push_back(pool.acquire());
        pool.audit("request_pool", 0);
        while (live.size() > 2) {
            pool.release(live.back());
            live.pop_back();
        }
        pool.audit("request_pool", 0);
    }
    EXPECT_NO_THROW(pool.audit("request_pool", 99));
}

TEST(RequestPoolTest, DisposeRoutesByOwner)
{
    RequestPool pool;
    MemRequest* pooled = pool.acquire();
    disposeRequest(pooled); // must go back to the arena, not delete
    EXPECT_EQ(pool.outstanding(), 0u);

    auto* heap = new MemRequest; // plain heap object: dispose deletes
    disposeRequest(heap);        // (ASan would flag a mismatch)
}

// ---------- MshrTable ----------

/** First @p n block-aligned addresses hashing to one home slot. */
std::vector<Addr>
collidingBlocks(unsigned limit, std::size_t n)
{
    std::size_t cap = 8;
    while (cap < 2 * static_cast<std::size_t>(limit))
        cap <<= 1;
    const std::uint32_t mask = static_cast<std::uint32_t>(cap - 1);
    const std::uint32_t want =
        static_cast<std::uint32_t>(mix64(1ULL << kBlockShift)) & mask;
    std::vector<Addr> out;
    for (Addr block = 1; out.size() < n; ++block) {
        const Addr addr = block << kBlockShift;
        if ((static_cast<std::uint32_t>(mix64(addr)) & mask) == want)
            out.push_back(addr);
    }
    return out;
}

TEST(MshrTableTest, FillToLimitThenFull)
{
    MshrTable t(4);
    EXPECT_TRUE(t.empty());
    for (Addr b = 0; b < 4; ++b) {
        Mshr& m = t.insert(b << kBlockShift);
        EXPECT_EQ(m.addr, b << kBlockShift);
        EXPECT_TRUE(m.waiters.empty());
        EXPECT_TRUE(m.prefetchOnly);
        EXPECT_FALSE(m.demandMerged);
    }
    EXPECT_EQ(t.size(), 4u);
    EXPECT_TRUE(t.full());
    EXPECT_THROW(t.insert(7 << kBlockShift), SimError);
    for (Addr b = 0; b < 4; ++b)
        EXPECT_NE(t.find(b << kBlockShift), nullptr);
    EXPECT_EQ(t.find(5 << kBlockShift), nullptr);
}

TEST(MshrTableTest, DuplicateInsertThrows)
{
    MshrTable t(4);
    t.insert(0x40);
    EXPECT_THROW(t.insert(0x40), SimError);
}

TEST(MshrTableTest, CollidingKeysProbeCorrectly)
{
    MshrTable t(8);
    const auto blocks = collidingBlocks(8, 3);
    for (Addr a : blocks)
        t.insert(a).demandMerged = true;
    for (Addr a : blocks) {
        Mshr* m = t.find(a);
        ASSERT_NE(m, nullptr);
        EXPECT_EQ(m->addr, a);
        EXPECT_TRUE(m->demandMerged);
    }
}

TEST(MshrTableTest, EraseMidChainKeepsLaterEntriesFindable)
{
    // Backward-shift deletion: erasing the first entry of a collision
    // chain must not orphan the entries that probed past it.
    MshrTable t(8);
    const auto blocks = collidingBlocks(8, 3);
    for (Addr a : blocks)
        t.insert(a);
    t.erase(blocks[0]);
    EXPECT_EQ(t.find(blocks[0]), nullptr);
    ASSERT_NE(t.find(blocks[1]), nullptr);
    ASSERT_NE(t.find(blocks[2]), nullptr);
    EXPECT_EQ(t.size(), 2u);

    // Erase-then-reinsert lands in a consistent state.
    Mshr& back = t.insert(blocks[0]);
    EXPECT_EQ(back.addr, blocks[0]);
    EXPECT_TRUE(back.waiters.empty());
    for (Addr a : blocks)
        EXPECT_NE(t.find(a), nullptr);
    EXPECT_THROW(t.erase(0x12345 << kBlockShift), SimError);
}

/** First @p n block-aligned addresses whose home slot is exactly
 *  @p slot for a table of @p limit. */
std::vector<Addr>
blocksHomedAt(unsigned limit, std::uint32_t slot, std::size_t n)
{
    std::size_t cap = 8;
    while (cap < 2 * static_cast<std::size_t>(limit))
        cap <<= 1;
    const std::uint32_t mask = static_cast<std::uint32_t>(cap - 1);
    std::vector<Addr> out;
    for (Addr block = 1; out.size() < n; ++block) {
        const Addr addr = block << kBlockShift;
        if ((static_cast<std::uint32_t>(mix64(addr)) & mask) ==
            (slot & mask))
            out.push_back(addr);
    }
    return out;
}

TEST(MshrTableTest, EraseAtProbeWrapBoundary)
{
    // A chain homed at the last slot wraps to slot 0; backward-shift
    // deletion must compute home/hole distances cyclically or the
    // wrapped tail gets orphaned. Exercise every erase position.
    const std::uint32_t last = 15; // MshrTable(8) -> 16 slots
    for (std::size_t victim = 0; victim < 3; ++victim) {
        MshrTable t(8);
        const auto blocks = blocksHomedAt(8, last, 3);
        for (Addr a : blocks)
            t.insert(a); // occupies slots 15, 0, 1
        t.erase(blocks[victim]);
        EXPECT_EQ(t.find(blocks[victim]), nullptr);
        for (std::size_t i = 0; i < blocks.size(); ++i) {
            if (i == victim)
                continue;
            Mshr* m = t.find(blocks[i]);
            ASSERT_NE(m, nullptr) << "entry " << i << " lost after "
                                  << "erasing entry " << victim;
            EXPECT_EQ(m->addr, blocks[i]);
        }
        // Reinsert the victim: the chain is whole again.
        t.insert(blocks[victim]);
        for (Addr a : blocks)
            EXPECT_NE(t.find(a), nullptr);
    }
}

TEST(MshrTableTest, EraseWithMixedHomesAcrossWrap)
{
    // Interleave a chain homed at the last slot with one homed at 0:
    // the wrapped tail of the first chain sits among entries whose home
    // really is 0, so the cyclic distance test in erase() must keep the
    // slot-0-homed entries where lookups expect them.
    MshrTable t(8);
    const auto tail = blocksHomedAt(8, 15, 2);
    const auto zero = blocksHomedAt(8, 0, 2);
    t.insert(tail[0]); // slot 15
    t.insert(zero[0]); // slot 0 (its home)
    t.insert(tail[1]); // slot 1 (wrapped past zero[0])
    t.insert(zero[1]); // slot 2
    t.erase(tail[0]);
    for (Addr a : {zero[0], tail[1], zero[1]})
        ASSERT_NE(t.find(a), nullptr) << std::hex << a;
    t.erase(zero[0]);
    for (Addr a : {tail[1], zero[1]})
        ASSERT_NE(t.find(a), nullptr) << std::hex << a;
    EXPECT_EQ(t.size(), 2u);
}

TEST(MshrTableTest, InsertAfterEraseRetainsWaiterCapacity)
{
    // The slot recycler (insert() and erase()) clears waiter vectors
    // but never shrinks them, so the steady-state hot path stops
    // allocating once every slot has seen its deepest waiter list.
    MshrTable t(8);
    const Addr a = 3 << kBlockShift;
    Mshr& m = t.insert(a);
    m.waiters.reserve(128);
    const std::size_t cap = m.waiters.capacity();
    ASSERT_GE(cap, 128u);
    t.erase(a);
    Mshr& again = t.insert(a);
    EXPECT_TRUE(again.waiters.empty());
    EXPECT_GE(again.waiters.capacity(), cap);
}

TEST(MshrTableTest, BackwardShiftMovesKeepWaiterCapacity)
{
    // Backward-shift relocation swaps whole Mshr slots, so a grown
    // waiter vector must travel with its entry instead of being copied
    // into a fresh allocation (or worse, left behind on the hole).
    MshrTable t(8);
    const auto blocks = collidingBlocks(8, 3);
    for (Addr a : blocks)
        t.insert(a);
    t.find(blocks[1])->waiters.reserve(64);
    t.find(blocks[2])->waiters.reserve(96);
    t.erase(blocks[0]); // relocates blocks[1] and blocks[2]
    EXPECT_GE(t.find(blocks[1])->waiters.capacity(), 64u);
    EXPECT_GE(t.find(blocks[2])->waiters.capacity(), 96u);
    // And the vacated slot keeps its capacity for the next insert that
    // probes into it: inserting the erased key reuses the chain.
    Mshr& back = t.insert(blocks[0]);
    EXPECT_TRUE(back.waiters.empty());
}

TEST(MshrTableTest, ForEachVisitsExactlyLiveEntries)
{
    MshrTable t(8);
    for (Addr b = 1; b <= 6; ++b)
        t.insert(b << kBlockShift);
    t.erase(3 << kBlockShift);
    t.erase(6 << kBlockShift);
    std::vector<Addr> seen;
    t.forEach([&](const Mshr& m) { seen.push_back(m.addr); });
    EXPECT_EQ(seen.size(), 4u);
    for (Addr a : seen)
        EXPECT_NE(t.find(a), nullptr);
}

// ---------- whole-system pool accounting ----------

TEST(RequestPoolTest, SystemRunBalancesAndDrains)
{
    clearTraceCache();
    SystemConfig cfg;
    System sys(cfg, {getTrace("spec06_libquantum", 0.05)});
    sys.run();
    const RequestPool& pool = sys.requestPool();
    EXPECT_GT(pool.acquired(), 0u);
    EXPECT_NO_THROW(pool.audit("request_pool", sys.eventQueue().now()));

    // Drain the residual in-flight fills: every request returns home.
    EventQueue& eq = sys.eventQueue();
    while (!eq.empty())
        eq.runUntil(eq.nextCycle());
    EXPECT_EQ(pool.outstanding(), 0u);
    EXPECT_EQ(pool.freeCount(), pool.capacity());
}

// ---------- determinism ----------

/** The golden set's Streamline cells (golden_runs.hh). */
std::vector<golden::Row>
streamlineRows()
{
    std::vector<golden::Row> rows;
    for (const golden::Row& g : golden::kRows)
        if (std::string(g.l2) == "streamline")
            rows.push_back(g);
    return rows;
}

RunResult
goldenRun(const char* workload)
{
    clearTraceCache();
    RunConfig cfg;
    cfg.traceScale = 0.05;
    cfg.l2 = "streamline";
    return runWorkload(cfg, workload);
}

TEST(Determinism, BackToBackRunsAreBitIdentical)
{
    for (const golden::Row& g : streamlineRows()) {
        const RunResult a = goldenRun(g.workload);
        const RunResult b = goldenRun(g.workload);
        EXPECT_EQ(a.cores[0].ipc, b.cores[0].ipc) << g.workload;
        EXPECT_EQ(a.dramReads, b.dramReads) << g.workload;
        EXPECT_EQ(a.llcMetaReads, b.llcMetaReads) << g.workload;
        EXPECT_EQ(a.cores[0].l2PrefetchIssued, b.cores[0].l2PrefetchIssued)
            << g.workload;
    }
}

} // namespace
} // namespace sl
