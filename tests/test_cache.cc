/**
 * @file
 * Tests for the cache model: hit/miss paths, MSHR merging, writebacks,
 * prefetch semantics, metadata accounting, partition reservation, and
 * equal billing in detailed and functional mode.
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "test_util.hh"

namespace sl
{
namespace
{

using test::drain;
using test::RecordingClient;
using test::ScriptedMemory;

struct CacheFixture : ::testing::Test
{
    CacheFixture()
        : mem(eq, 100)
    {
        CacheParams p;
        p.name = "test";
        p.sizeBytes = 4 * 1024; // 64 blocks
        p.ways = 4;             // 16 sets
        p.latency = 10;
        p.mshrs = 4;
        p.ports = 1;
        cache = std::make_unique<Cache>(p, eq, &mem);
    }

    MemRequest*
    makeLoad(Addr addr, RequestClient* c = nullptr, std::uint64_t tag = 0)
    {
        auto* r = new MemRequest;
        r->addr = addr;
        r->kind = ReqKind::DemandLoad;
        r->client = c;
        r->tag = tag;
        return r;
    }

    EventQueue eq;
    ScriptedMemory mem;
    std::unique_ptr<Cache> cache;
    RecordingClient client;
};

TEST_F(CacheFixture, ColdMissFetchesAndFills)
{
    cache->access(makeLoad(0x1000, &client), 0);
    drain(eq);
    ASSERT_EQ(client.completions.size(), 1u);
    EXPECT_EQ(client.completions[0].first, 0x1000u);
    // Miss path: lookup latency (10) + memory (100).
    EXPECT_GE(client.completions[0].second, 110u);
    EXPECT_EQ(cache->stats().get("demand_misses"), 1u);
    ASSERT_EQ(mem.requests.size(), 1u);
}

TEST_F(CacheFixture, SecondAccessHits)
{
    cache->access(makeLoad(0x1000, &client), 0);
    drain(eq);
    cache->access(makeLoad(0x1008, &client), 500); // same block
    drain(eq);
    EXPECT_EQ(cache->stats().get("demand_hits"), 1u);
    EXPECT_EQ(cache->stats().get("demand_misses"), 1u);
    ASSERT_EQ(client.completions.size(), 2u);
    // Hit latency is exactly 10.
    EXPECT_EQ(client.completions[1].second, 510u);
    EXPECT_EQ(mem.requests.size(), 1u);
}

TEST_F(CacheFixture, MshrMergesSameBlock)
{
    cache->access(makeLoad(0x2000, &client), 0);
    cache->access(makeLoad(0x2010, &client), 1);
    drain(eq);
    EXPECT_EQ(mem.requests.size(), 1u); // merged
    EXPECT_EQ(client.completions.size(), 2u);
    EXPECT_EQ(cache->stats().get("demand_misses"), 2u);
}

TEST_F(CacheFixture, MshrFullRetries)
{
    // 5 distinct blocks with 4 MSHRs: the 5th retries but completes.
    for (Addr a = 0; a < 5; ++a)
        cache->access(makeLoad(0x10000 + a * 0x1000, &client), 0);
    drain(eq);
    EXPECT_EQ(client.completions.size(), 5u);
    EXPECT_GE(cache->stats().get("mshr_retries"), 1u);
    EXPECT_TRUE(cache->idle());
}

TEST_F(CacheFixture, LruEvictionWithinSet)
{
    // 5 blocks mapping to set 0 in a 4-way cache (set = block % 16).
    for (unsigned i = 0; i < 5; ++i) {
        cache->access(
            makeLoad(static_cast<Addr>(i) * 16 * kBlockBytes, &client),
            i * 1000);
        drain(eq);
    }
    EXPECT_EQ(cache->stats().get("evictions"), 1u);
    // The first block was LRU; re-access misses.
    cache->access(makeLoad(0, &client), 50'000);
    drain(eq);
    EXPECT_EQ(cache->stats().get("demand_misses"), 6u);
}

TEST_F(CacheFixture, DirtyEvictionWritesBack)
{
    auto* st = new MemRequest;
    st->addr = 0;
    st->kind = ReqKind::DemandStore;
    st->client = nullptr;
    cache->access(st, 0);
    drain(eq);
    // Evict block 0 by filling set 0.
    for (unsigned i = 1; i <= 4; ++i) {
        cache->access(
            makeLoad(static_cast<Addr>(i) * 16 * kBlockBytes, &client),
            i * 1000);
        drain(eq);
    }
    EXPECT_EQ(cache->stats().get("writebacks"), 1u);
    bool saw_wb = false;
    for (const auto& r : mem.requests)
        saw_wb |= r.kind == ReqKind::Writeback;
    EXPECT_TRUE(saw_wb);
}

TEST_F(CacheFixture, PrefetchFillsAndCountsUseful)
{
    cache->issuePrefetch(0x3000, 0, 0, 0);
    drain(eq);
    EXPECT_EQ(cache->stats().get("prefetch_issued"), 1u);
    // First demand use counts useful exactly once.
    cache->access(makeLoad(0x3000, &client), 1000);
    drain(eq);
    EXPECT_EQ(cache->stats().get("prefetch_useful"), 1u);
    cache->access(makeLoad(0x3000, &client), 2000);
    drain(eq);
    EXPECT_EQ(cache->stats().get("prefetch_useful"), 1u);
    EXPECT_EQ(cache->stats().get("demand_misses"), 0u);
}

TEST_F(CacheFixture, RedundantPrefetchDropped)
{
    cache->access(makeLoad(0x4000, &client), 0);
    drain(eq);
    cache->issuePrefetch(0x4000, 0, 0, 1000);
    drain(eq);
    EXPECT_EQ(cache->stats().get("prefetch_redundant"), 1u);
    EXPECT_EQ(cache->stats().get("prefetch_issued"), 0u);
}

TEST_F(CacheFixture, LatePrefetchCountsOnce)
{
    cache->issuePrefetch(0x5000, 0, 0, 0);
    // Demand arrives while the prefetch is still in flight.
    cache->access(makeLoad(0x5000, &client), 5);
    drain(eq);
    EXPECT_EQ(cache->stats().get("prefetch_late"), 1u);
    EXPECT_EQ(cache->stats().get("prefetch_useful"), 1u);
    EXPECT_EQ(client.completions.size(), 1u);
}

TEST_F(CacheFixture, ListenerSeesHitsAndMisses)
{
    struct Listener : CacheListener
    {
        std::vector<AccessInfo> seen;
        void onAccess(const AccessInfo& i) override { seen.push_back(i); }
    } listener;
    cache->setListener(&listener);

    cache->access(makeLoad(0x6000, &client), 0);
    drain(eq);
    cache->access(makeLoad(0x6000, &client), 1000);
    drain(eq);
    ASSERT_EQ(listener.seen.size(), 2u);
    EXPECT_FALSE(listener.seen[0].hit);
    EXPECT_TRUE(listener.seen[1].hit);
    EXPECT_FALSE(listener.seen[1].prefetchHit);
}

TEST_F(CacheFixture, PrefetchHitFlagOnFirstUse)
{
    struct Listener : CacheListener
    {
        std::vector<AccessInfo> seen;
        void onAccess(const AccessInfo& i) override { seen.push_back(i); }
    } listener;
    cache->setListener(&listener);
    cache->issuePrefetch(0x7000, 0, 0, 0);
    drain(eq);
    cache->access(makeLoad(0x7000, &client), 1000);
    drain(eq);
    ASSERT_EQ(listener.seen.size(), 1u);
    EXPECT_TRUE(listener.seen[0].hit);
    EXPECT_TRUE(listener.seen[0].prefetchHit);
}

TEST_F(CacheFixture, MetadataAccessCountsAndTimes)
{
    const Cycle t1 = cache->metadataAccess(false, 100);
    const Cycle t2 = cache->metadataAccess(true, 100);
    EXPECT_EQ(t1, 110u);
    EXPECT_GE(t2, t1); // port serialisation pushes the second access out
    EXPECT_EQ(cache->stats().get("metadata_reads"), 1u);
    EXPECT_EQ(cache->stats().get("metadata_writes"), 1u);
}

TEST_F(CacheFixture, BulkMetadataTrafficOccupiesPorts)
{
    cache->metadataBulkTraffic(500, 0);
    EXPECT_EQ(cache->stats().get("metadata_shuffle_blocks"), 500u);
    // The next access is pushed out by the shuffle occupancy.
    const Cycle t = cache->metadataAccess(false, 0);
    EXPECT_GE(t, 1000u); // 2 * 500 blocks / 1 port
}

struct FixedPartition : PartitionPolicy
{
    unsigned ways;
    explicit FixedPartition(unsigned w) : ways(w) {}
    unsigned reservedWays(std::uint32_t) const override { return ways; }
};

TEST_F(CacheFixture, PartitionReservesWays)
{
    FixedPartition part(3); // 3 of 4 ways reserved -> 1 data way
    cache->setPartition(&part);
    // Two conflicting blocks now thrash the single data way.
    cache->access(makeLoad(0, &client), 0);
    drain(eq);
    cache->access(makeLoad(16 * kBlockBytes, &client), 1000);
    drain(eq);
    cache->access(makeLoad(0, &client), 2000);
    drain(eq);
    EXPECT_EQ(cache->stats().get("demand_misses"), 3u);
}

TEST_F(CacheFixture, FullReservationBypassesFills)
{
    FixedPartition part(4);
    cache->setPartition(&part);
    cache->access(makeLoad(0x8000, &client), 0);
    drain(eq);
    EXPECT_EQ(cache->stats().get("fill_bypassed"), 1u);
    ASSERT_EQ(client.completions.size(), 1u); // still responds
}

TEST_F(CacheFixture, ReclaimEvictsReservedWays)
{
    // Fill set 0 with data, then reserve and reclaim.
    for (unsigned i = 0; i < 4; ++i) {
        cache->access(
            makeLoad(static_cast<Addr>(i) * 16 * kBlockBytes, &client),
            i * 1000);
        drain(eq);
    }
    FixedPartition part(2);
    cache->setPartition(&part);
    cache->reclaimReservedWays(0, 10'000);
    EXPECT_EQ(cache->stats().get("partition_reclaims"), 2u);
}

TEST_F(CacheFixture, StatsConsistency)
{
    for (unsigned i = 0; i < 50; ++i) {
        cache->access(makeLoad((i % 7) * 0x1000, &client), i * 300);
        drain(eq);
    }
    const auto& s = cache->stats();
    EXPECT_EQ(s.get("demand_accesses"),
              s.get("demand_hits") + s.get("demand_misses"));
}

/** An L1 over an L2 over fixed-latency memory, for driving one access
 *  sequence through either cache mode. */
struct CacheChain
{
    CacheChain() : mem(eq, 100)
    {
        CacheParams p;
        p.name = "l2";
        p.sizeBytes = 4 * 1024; // 16 sets x 4 ways
        p.ways = 4;
        p.latency = 10;
        p.mshrs = 4;
        l2 = std::make_unique<Cache>(p, eq, &mem);
        p.name = "l1";
        p.sizeBytes = 1024; // 8 sets x 2 ways
        p.ways = 2;
        p.latency = 2;
        l1 = std::make_unique<Cache>(p, eq, l2.get());
    }

    /** One demand access; detailed mode drains it to completion. */
    void
    access(Addr addr, bool store, Cycle now, bool functional)
    {
        if (functional) {
            l1->functionalAccess(addr, 0, 0, store, now);
            return;
        }
        auto* r = new MemRequest;
        r->addr = addr;
        r->kind = store ? ReqKind::DemandStore : ReqKind::DemandLoad;
        r->client = &client;
        l1->access(r, now);
        drain(eq);
    }

    EventQueue eq;
    ScriptedMemory mem;
    std::unique_ptr<Cache> l2;
    std::unique_ptr<Cache> l1;
    RecordingClient client;
};

TEST(CacheModes, FunctionalAndDetailedAccessBillTheSame)
{
    // 24 blocks, all in L1 set 0 and in L2 sets 0 and 8, so both levels
    // see conflict evictions; every fourth access revisits the block two
    // back, which the 2-way L1 still holds; every third access is a
    // store, so dirty victims write back from the L1 into the L2 and
    // from the L2 out.
    std::vector<Addr> seq;
    for (unsigned i = 0; i < 300; ++i)
        seq.push_back(i % 4 == 3 ? seq[i - 2]
                                 : static_cast<Addr>((i * 7 + i / 11) % 24) *
                                       8 * kBlockBytes);

    CacheChain detailed, functional;
    functional.l1->setFunctionalMode(true);
    functional.l2->setFunctionalMode(true);
    std::vector<bool> probe_hits[2];
    for (CacheChain* c : {&detailed, &functional}) {
        const bool fn = c == &functional;
        Cycle t = 0;
        for (std::size_t i = 0; i < seq.size(); ++i, t += 1000)
            c->access(seq[i], i % 3 == 0, t, fn);
        // Probe every touched block once more: equal hit patterns mean
        // the two modes left the same blocks resident.
        for (Addr b = 0; b < 24; ++b, t += 1000) {
            const std::uint64_t hits = c->l1->stats().get("demand_hits");
            c->access(b * 8 * kBlockBytes, false, t, fn);
            probe_hits[fn].push_back(c->l1->stats().get("demand_hits") >
                                     hits);
        }
    }
    EXPECT_EQ(probe_hits[0], probe_hits[1]);

    for (const char* ctr :
         {"demand_accesses", "demand_stores", "demand_hits",
          "demand_misses", "evictions", "writebacks", "writeback_in"}) {
        EXPECT_EQ(detailed.l1->stats().get(ctr),
                  functional.l1->stats().get(ctr))
            << "l1 " << ctr;
        EXPECT_EQ(detailed.l2->stats().get(ctr),
                  functional.l2->stats().get(ctr))
            << "l2 " << ctr;
    }
    // The sequence exercises what it claims to.
    EXPECT_GT(detailed.l1->stats().get("writebacks"), 0u);
    EXPECT_GT(detailed.l2->stats().get("writebacks"), 0u);
    EXPECT_GT(detailed.l2->stats().get("evictions"), 0u);
    EXPECT_GT(detailed.l2->stats().get("demand_hits"), 0u);
    EXPECT_GT(detailed.l1->stats().get("demand_hits"), 0u);
}

} // namespace
} // namespace sl
