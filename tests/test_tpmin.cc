/**
 * @file
 * Tests for the offline MIN / TP-MIN replacement analysis (§IV-D1) and
 * the utility-aware partitioner scoring.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/tp_min.hh"
#include "core/uadp.hh"
#include "trace/trace.hh"

namespace sl
{
namespace
{

CorrelationTrace
fromPairs(std::initializer_list<std::pair<Addr, Addr>> pairs)
{
    CorrelationTrace t;
    t.events.assign(pairs.begin(), pairs.end());
    return t;
}

TEST(TpMin, Fig6Example)
{
    // Fig 6: the stream alternates B's target while (A -> B) is stable.
    // With a 1-entry store, MIN keeps B (most trigger hits) but covers
    // nothing useful; TP-MIN keeps (A, B) and covers its recurrences.
    CorrelationTrace t;
    Addr other = 100;
    for (unsigned i = 0; i < 12; ++i) {
        t.events.emplace_back(1, 2);       // A -> B (stable)
        t.events.emplace_back(2, other++); // B -> ? (unstable)
        t.events.emplace_back(2, other++); // B again: twice as frequent
    }
    const auto min_res = simulateMin(t, 1);
    const auto tp_res = simulateTpMin(t, 1);
    // MIN favours B (nearest trigger reuse) -> more trigger hits but no
    // useful coverage; TP-MIN holds (A, B) and covers its recurrences.
    EXPECT_GT(min_res.triggerHits, tp_res.triggerHits);
    EXPECT_GT(tp_res.correlationHits, min_res.correlationHits);
}

TEST(TpMin, UnlimitedCapacityEqualises)
{
    CorrelationTrace t;
    for (unsigned r = 0; r < 4; ++r) {
        for (Addr a = 1; a <= 50; ++a)
            t.events.emplace_back(a, a + 1);
    }
    const auto min_res = simulateMin(t, 1000);
    const auto tp_res = simulateTpMin(t, 1000);
    EXPECT_EQ(min_res.correlationHits, tp_res.correlationHits);
    EXPECT_EQ(min_res.triggerHits, 150u);
}

TEST(TpMin, ZeroCapacityNeverHits)
{
    auto t = fromPairs({{1, 2}, {1, 2}, {1, 2}});
    const auto res = simulateMin(t, 0);
    EXPECT_EQ(res.triggerHits, 0u);
    EXPECT_EQ(res.accesses, 3u);
}

TEST(TpMin, MinMaximisesTriggerHits)
{
    // Under any capacity, MIN's trigger hits dominate TP-MIN's (MIN is
    // optimal for that metric by construction).
    CorrelationTrace t;
    Rng rng(5);
    for (unsigned i = 0; i < 3000; ++i) {
        const Addr trig = rng.below(100);
        const Addr tgt = rng.below(4) == 0 ? trig + 1000 : rng.below(50);
        t.events.emplace_back(trig, tgt);
    }
    for (std::size_t cap : {8u, 32u, 64u}) {
        const auto m = simulateMin(t, cap);
        const auto p = simulateTpMin(t, cap);
        EXPECT_GE(m.triggerHits, p.triggerHits) << cap;
    }
}

TEST(TpMin, TpMinWinsCorrelationHitsOnMixedStability)
{
    // Half the triggers have stable targets, half unstable; under
    // pressure TP-MIN should hold the stable half.
    CorrelationTrace t;
    Rng rng(6);
    for (unsigned round = 0; round < 30; ++round) {
        for (Addr a = 0; a < 40; ++a) {
            // Interleave stable/unstable so insertion order does not
            // hand MIN the stable half by accident.
            const bool stable = a % 2 == 1;
            t.events.emplace_back(
                a + 1, stable ? a + 500 : rng.below(1 << 20));
        }
    }
    const auto m = simulateMin(t, 20);
    const auto p = simulateTpMin(t, 20);
    EXPECT_GT(p.correlationHits, m.correlationHits);
}

TEST(TpMin, ExtractsPerPcCorrelations)
{
    TraceRecorder rec;
    rec.load(1, 0x1000);
    rec.load(2, 0x9000); // other PC interleaves
    rec.load(1, 0x2000);
    rec.load(2, 0xA000);
    rec.load(1, 0x3000);
    Trace t;
    t.records = rec.take();
    const auto ct = correlationsFromTrace(t);
    ASSERT_EQ(ct.events.size(), 3u);
    EXPECT_EQ(ct.events[0].first, blockNumber(0x1000));
    EXPECT_EQ(ct.events[0].second, blockNumber(0x2000));
    EXPECT_EQ(ct.events[1].first, blockNumber(0x9000));
    EXPECT_EQ(ct.events[2].first, blockNumber(0x2000));
}

TEST(TpMin, SameBlockRepeatsSkipped)
{
    TraceRecorder rec;
    rec.load(1, 0x1000);
    rec.load(1, 0x1010); // same block
    rec.load(1, 0x2000);
    Trace t;
    t.records = rec.take();
    EXPECT_EQ(correlationsFromTrace(t).events.size(), 1u);
}

// ---------- UADP scoring ----------

TEST(Uadp, AccuracyBucketsMatchPaper)
{
    UtilityPartitioner up(256, 16, 8);
    auto run_epoch = [&](double accuracy) {
        for (unsigned i = 0; i < 2048; ++i) {
            up.onPrefetchIssued();
            if (i < accuracy * 2048)
                up.onPrefetchUseful();
        }
        return up.accuracyWeight();
    };
    EXPECT_EQ(run_epoch(0.05), 1u);
    EXPECT_EQ(run_epoch(0.20), 2u);
    EXPECT_EQ(run_epoch(0.40), 3u);
    EXPECT_EQ(run_epoch(0.60), 4u);
    EXPECT_EQ(run_epoch(0.80), 6u);
    EXPECT_EQ(run_epoch(0.93), 7u);
    EXPECT_EQ(run_epoch(0.99), 8u);
}

TEST(Uadp, HighUtilityMetadataChoosesFull)
{
    UtilityPartitioner up(256, 16, 8, 1.0);
    // Drive accuracy high.
    for (unsigned i = 0; i < 4096; ++i) {
        up.onPrefetchIssued();
        up.onPrefetchUseful();
    }
    // Data with no reuse; metadata with many hits.
    for (unsigned i = 0; i < 40'000; ++i) {
        up.onDataAccess(i % 256, i);
        if (i % 2 == 0)
            up.onSampledCorrelationHit();
    }
    EXPECT_TRUE(up.shouldResize());
    EXPECT_EQ(up.pickDenominator(), 1u);
}

TEST(Uadp, HotDataChoosesOff)
{
    UtilityPartitioner up(256, 16, 8);
    // Data re-hits deep in the stack; no correlation hits at all.
    for (unsigned i = 0; i < 40'000; ++i)
        up.onDataAccess(0, i % 12);
    EXPECT_EQ(up.pickDenominator(), 0u);
}

TEST(Uadp, ResizeEpochIs32kAccesses)
{
    UtilityPartitioner up(256, 16, 8);
    for (unsigned i = 0; i < (1u << 15) - 1; ++i)
        up.onDataAccess(i % 256, i);
    EXPECT_FALSE(up.shouldResize());
    up.onDataAccess(0, 0);
    EXPECT_TRUE(up.shouldResize());
    up.pickDenominator();
    EXPECT_FALSE(up.shouldResize());
}

} // namespace
} // namespace sl
