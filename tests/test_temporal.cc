/**
 * @file
 * Tests for the temporal-prefetching baselines: the pairwise store and
 * the Triage / Triangel prefetchers.
 */

#include <gtest/gtest.h>

#include "common/hash.hh"
#include "temporal/pairwise_store.hh"
#include "temporal/sampler.hh"
#include "temporal/triage.hh"
#include "temporal/triangel.hh"
#include "test_util.hh"

namespace sl
{
namespace
{

using test::drain;
using test::ScriptedMemory;

// ---------- pairwise store ----------

PairwiseStoreParams
smallPairwise()
{
    PairwiseStoreParams p;
    p.sets = 64;
    p.maxWays = 8;
    p.entriesPerBlock = 12;
    p.sampledSets = 4;
    return p;
}

TEST(PairwiseStore, RoundTrip)
{
    PairwiseStore store(smallPairwise());
    store.insert(100, 200);
    auto got = store.lookup(100);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, 200u);
    EXPECT_FALSE(store.lookup(101).has_value());
}

TEST(PairwiseStore, UpdateOverwritesTarget)
{
    PairwiseStore store(smallPairwise());
    store.insert(100, 200);
    store.insert(100, 300);
    EXPECT_EQ(*store.lookup(100), 300u);
    EXPECT_EQ(store.size(), 1u);
}

TEST(PairwiseStore, CapacityTracksWays)
{
    PairwiseStore store(smallPairwise());
    EXPECT_EQ(store.capacity(), 64u * 8 * 12);
    store.resize(4);
    EXPECT_EQ(store.capacity(), 64u * 4 * 12);
}

TEST(PairwiseStore, ResizeMovesMisplacedEntries)
{
    PairwiseStore store(smallPairwise());
    for (Addr t = 1; t <= 2000; ++t)
        store.insert(t * 104729, t);
    const auto moved_blocks = store.resize(4);
    EXPECT_GT(moved_blocks, 0u);
    EXPECT_GT(store.stats().get("rearranged_entries"), 0u);
    // Entries remain findable after rearrangement (they moved, not died).
    unsigned found = 0;
    for (Addr t = 1; t <= 2000; ++t)
        found += store.lookup(t * 104729).has_value();
    EXPECT_GT(found, 100u);
}

TEST(PairwiseStore, ResizeToZeroDiscardsAllButSampled)
{
    PairwiseStore store(smallPairwise());
    for (Addr t = 1; t <= 2000; ++t)
        store.insert(t * 104729, t);
    store.resize(0);
    unsigned found = 0;
    for (Addr t = 1; t <= 2000; ++t)
        found += store.lookup(t * 104729).has_value();
    EXPECT_GT(found, 0u); // sampled sets keep entries
    EXPECT_LT(found, 200u);
}

TEST(PairwiseStore, SampledHitsEpochCounter)
{
    PairwiseStore store(smallPairwise());
    for (Addr t = 1; t <= 500; ++t)
        store.insert(t * 31, t);
    for (Addr t = 1; t <= 500; ++t)
        store.lookup(t * 31);
    const auto hits = store.takeSampledHits();
    EXPECT_GT(hits, 0u);
    EXPECT_EQ(store.takeSampledHits(), 0u); // reset after take
}

TEST(PairwiseStore, UtilityReplProtectsStableCorrelations)
{
    auto mk = [](bool utility) {
        auto p = smallPairwise();
        p.sets = 8; // tight store so scans genuinely contend
        p.sampledSets = 2;
        p.utilityRepl = utility;
        return PairwiseStore(p);
    };
    auto run = [](PairwiseStore& store) {
        std::uint64_t hits = 0;
        Addr scan = 1'000'000;
        for (unsigned round = 0; round < 40; ++round) {
            for (Addr t = 1; t <= 200; ++t) {
                if (store.lookup(t * 7919))
                    ++hits;
                store.insert(t * 7919, t + 1); // stable correlation
                for (int k = 0; k < 4; ++k) {  // heavy one-shot noise
                    store.insert(scan, scan + 1);
                    scan += 104729;
                }
            }
        }
        return hits;
    };
    auto plain = mk(false);
    auto utility = mk(true);
    EXPECT_GT(run(utility), run(plain));
}

// ---------- shared sampler ----------

TEST(LruStackSampler, DepthHistogram)
{
    LruStackSampler s(4, 64, 8);
    // Keys in set 0 (sampled): A B A -> A's second access at depth 1.
    s.access(0, 100);
    s.access(0, 200);
    s.access(0, 100);
    EXPECT_EQ(s.hitsWithin(1), 0u);
    EXPECT_EQ(s.hitsWithin(2), 1u);
    EXPECT_EQ(s.sampledAccesses(), 3u);
    s.reset();
    EXPECT_EQ(s.hitsWithin(8), 0u);
}

TEST(LruStackSampler, IgnoresUnsampledSets)
{
    LruStackSampler s(4, 64, 8);
    s.access(1, 100);
    s.access(1, 100);
    EXPECT_EQ(s.sampledAccesses(), 0u);
    EXPECT_EQ(s.hitsWithin(8), 0u);
}

TEST(LruStackSampler, DeepReuseMisses)
{
    LruStackSampler s(1, 1, 4);
    s.access(0, 1);
    for (std::uint64_t k = 2; k <= 10; ++k)
        s.access(0, k);
    s.access(0, 1); // reuse beyond depth 4
    EXPECT_EQ(s.hitsWithin(4), 0u);
}

// ---------- Triage / Triangel integration ----------

struct TemporalFixture : ::testing::Test
{
    TemporalFixture() : mem(eq, 80)
    {
        llc = std::make_unique<Cache>(
            CacheParams{"llc", 256 * 1024, 16, 20, 64, 2}, eq, &mem);
        l2 = std::make_unique<Cache>(
            CacheParams{"l2", 16 * 1024, 8, 10, 32, 2}, eq, llc.get());
    }

    void
    feedRepeatingStream(Prefetcher& pf, unsigned blocks, unsigned rounds)
    {
        pf.attach(l2.get(), llc.get(), &eq, 0, 1);
        l2->setListener(&pf);
        Cycle t = 0;
        for (unsigned r = 0; r < rounds; ++r) {
            for (unsigned b = 0; b < blocks; ++b) {
                auto* req = new MemRequest;
                // A stride-free but repeating irregular sequence.
                req->addr = (mix64(b) % 100'000) << kBlockShift;
                req->pc = 77;
                req->kind = ReqKind::DemandLoad;
                l2->access(req, t);
                drain(eq);
                t += 200;
            }
        }
    }

    EventQueue eq;
    ScriptedMemory mem;
    std::unique_ptr<Cache> llc;
    std::unique_ptr<Cache> l2;
};

TEST_F(TemporalFixture, TriageLearnsRepeatingSequence)
{
    TriagePrefetcher pf;
    feedRepeatingStream(pf, 400, 6);
    EXPECT_GT(pf.stats().get("chain_prefetches"), 100u);
    EXPECT_GT(l2->stats().get("prefetch_useful"), 50u);
    EXPECT_GT(llc->stats().get("metadata_reads"), 0u);
    EXPECT_GT(llc->stats().get("metadata_writes"), 0u);
}

TEST_F(TemporalFixture, TriageIdealUnlimited)
{
    TriagePrefetcher pf(TriageConfig{}, /*unlimited=*/true);
    feedRepeatingStream(pf, 400, 4);
    // Every pair remembered (minus occasional block-hash collisions).
    EXPECT_GE(pf.storedCorrelations(), 350u);
    EXPECT_LE(pf.storedCorrelations(), 400u);
    EXPECT_EQ(llc->stats().get("metadata_reads"), 0u); // zero cost
    EXPECT_EQ(pf.reservedWays(0), 0u);
}

TEST_F(TemporalFixture, TriageResizeReclaimsAtTrainingCycle)
{
    // Growing the partition evicts the data in the newly reserved ways.
    // Dirty victims must reach the level below at the cycle of the
    // training access that triggered the resize: a multi-core LLC sits
    // above the scheduled DRAM, which rejects a request from the past.
    TriageConfig cfg;
    cfg.resizeInterval = 12'000;
    TriagePrefetcher pf(cfg);
    pf.attach(l2.get(), llc.get(), &eq, 0, 1);
    llc->setPartition(pf.partitionPolicy());

    // An 8k-block irregular stream has no LLC-depth data reuse but
    // plenty of metadata reuse on its second pass, so the first resize
    // grows the partition from its initial half of maxWays.
    constexpr unsigned kBlocks = 8'000;
    constexpr Cycle kDrainLimit = 100'000'000;
    AccessInfo info;
    info.pc = 77;
    auto train = [&](unsigned i, Cycle now) {
        info.addr = (mix64(i % kBlocks) % 1'000'000) << kBlockShift;
        info.cycle = now;
        pf.onAccess(info);
    };
    unsigned i = 0;
    for (; i + 1 < cfg.resizeInterval; ++i)
        train(i, 10 * (i + 1));
    drain(eq, kDrainLimit);
    ASSERT_EQ(pf.stats().get("resizes"), 0u);

    // Fill every unreserved LLC way with dirty data.
    constexpr std::uint64_t kLlcBlocks = 256 * 1024 / kBlockBytes;
    for (Addr b = 0; b < 2 * kLlcBlocks; ++b) {
        auto* wb = new MemRequest;
        wb->addr = (Addr{1} << 40) + (b << kBlockShift);
        wb->kind = ReqKind::Writeback;
        llc->access(wb, 0);
    }
    drain(eq, kDrainLimit);

    constexpr Cycle kResizeAt = 10'000'000;
    const std::size_t before = mem.requests.size();
    train(i, kResizeAt);
    drain(eq, kDrainLimit);
    ASSERT_EQ(pf.stats().get("resizes"), 1u);
    ASSERT_GT(pf.reservedWays(1), TriagePrefetcher::kMaxWays / 2);
    ASSERT_GT(llc->stats().get("partition_reclaims"), 0u);

    unsigned writebacks = 0, early = 0;
    for (std::size_t r = before; r < mem.requests.size(); ++r) {
        if (mem.requests[r].kind != ReqKind::Writeback)
            continue;
        ++writebacks;
        early += mem.arrivals[r] < kResizeAt;
    }
    EXPECT_GT(writebacks, 0u);
    EXPECT_EQ(early, 0u) << "writebacks arrived before the resize cycle";
}

TEST_F(TemporalFixture, TriangelLearnsAndUsesMrb)
{
    TriangelPrefetcher pf;
    feedRepeatingStream(pf, 400, 8);
    EXPECT_GT(pf.stats().get("issued"), 100u);
    EXPECT_GT(l2->stats().get("prefetch_useful"), 50u);
    EXPECT_GT(pf.stats().get("mrb_write_skips") +
                  pf.stats().get("mrb_hits"),
              0u);
}

TEST_F(TemporalFixture, TriangelIdealHasNoLlcFootprint)
{
    TriangelPrefetcher pf(TriangelConfig{}, /*ideal=*/true);
    feedRepeatingStream(pf, 300, 6);
    EXPECT_EQ(llc->stats().get("metadata_reads"), 0u);
    EXPECT_EQ(pf.partitionPolicy(), nullptr);
}

TEST_F(TemporalFixture, TriangelFiltersScans)
{
    TriangelPrefetcher pf;
    pf.attach(l2.get(), llc.get(), &eq, 0, 1);
    l2->setListener(&pf);
    // A pure scan (never repeats): confidence should collapse and most
    // inserts get filtered.
    Cycle t = 0;
    for (unsigned i = 0; i < 20'000; ++i) {
        auto* req = new MemRequest;
        req->addr = Addr{0x10000000} + i * kBlockBytes * 7;
        req->pc = 88;
        req->kind = ReqKind::DemandLoad;
        l2->access(req, t);
        drain(eq);
        t += 50;
    }
    EXPECT_GT(pf.stats().get("filtered_inserts"), 5'000u);
}

TEST_F(TemporalFixture, TriangelResizeShufflesMetadata)
{
    TriangelConfig cfg;
    cfg.resizeInterval = 2'000;
    TriangelPrefetcher pf(cfg);
    feedRepeatingStream(pf, 700, 10);
    if (pf.stats().get("resizes") > 0) {
        // Rearrangement traffic is the Triangel cost Streamline removes.
        EXPECT_GT(pf.stats().get("shuffle_blocks"), 0u);
    }
}

} // namespace
} // namespace sl
