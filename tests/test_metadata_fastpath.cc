/**
 * @file
 * Tests for the flattened metadata fast path (DESIGN.md §8).
 *
 * Unit tests for the structural changes (power-of-two geometry, flat
 * slot arrays, occupancy masks, resize rearrangement accounting). Full-run
 * stat snapshots of both stores are pinned by the golden set
 * (golden_runs.hh, GoldenRuns.MatchPinnedDigests in test_system.cc).
 */

#include <gtest/gtest.h>

#include <string>

#include "common/hash.hh"
#include "core/stream_store.hh"
#include "temporal/pairwise_store.hh"

namespace sl
{
namespace
{

// ---------- PairwiseStore: flat layout ----------

PairwiseStoreParams
pairwiseParams(std::uint32_t sets, unsigned sampled = 64)
{
    PairwiseStoreParams p;
    p.sets = sets;
    p.maxWays = 8;
    p.entriesPerBlock = 12;
    p.sampledSets = sampled;
    return p;
}

TEST(PairwiseFastPath, RejectsNonPowerOfTwoGeometry)
{
    // Set and sampled-set membership are masks over one hash, so a
    // geometry that is not a power of two is rejected, never rounded.
    EXPECT_THROW(PairwiseStore{pairwiseParams(1000)}, SimError);
    EXPECT_THROW(PairwiseStore{pairwiseParams(1024, 60)}, SimError);

    PairwiseStore exact(pairwiseParams(2048));
    EXPECT_EQ(exact.sets(), 2048u);
}

TEST(PairwiseFastPath, SampledSetsCoverExactly)
{
    const auto count = [](const PairwiseStore& st) {
        unsigned n = 0;
        for (std::uint32_t s = 0; s < st.sets(); ++s)
            n += st.sampledSet(s);
        return n;
    };
    // 64 sampled sets of 1024: stride 16.
    PairwiseStore store(pairwiseParams(1024, 64));
    EXPECT_EQ(count(store), 64u);
    EXPECT_TRUE(store.sampledSet(0));
    EXPECT_TRUE(store.sampledSet(16));
    EXPECT_FALSE(store.sampledSet(1));
    // No sample, and a sample no smaller than the store (every set).
    EXPECT_EQ(count(PairwiseStore(pairwiseParams(64, 0))), 0u);
    EXPECT_EQ(count(PairwiseStore(pairwiseParams(32, 64))), 32u);
}

TEST(PairwiseFastPath, RoundTripOnFlatLayout)
{
    PairwiseStore store(pairwiseParams(64, 4));
    store.resize(4);
    for (Addr t = 1; t <= 300; ++t)
        store.insert(t * 7919, t * 7919 + 1);
    unsigned found = 0;
    for (Addr t = 1; t <= 300; ++t) {
        const auto got = store.lookup(t * 7919);
        if (got) {
            EXPECT_EQ(*got, t * 7919 + 1);
            ++found;
        }
    }
    EXPECT_EQ(found, store.size());
    EXPECT_GT(found, 0u);
    store.erase(7919);
    EXPECT_FALSE(store.lookup(7919).has_value());
}

TEST(PairwiseFastPath, ResizeRearrangementCounts)
{
    auto fill = [] {
        PairwiseStore s(pairwiseParams(64, 4));
        s.resize(8);
        for (Addr t = 1; t <= 500; ++t)
            s.insert(t * 104729, t);
        return s;
    };

    // Resizing to the current way count moves nothing.
    PairwiseStore same = fill();
    EXPECT_EQ(same.resize(8), 0u);

    // Shrinking rearranges misplaced blocks, deterministically: two
    // identically built stores report the same move count, and the store
    // stays structurally sound afterwards.
    PairwiseStore a = fill();
    PairwiseStore b = fill();
    const std::uint64_t moved_a = a.resize(4);
    const std::uint64_t moved_b = b.resize(4);
    EXPECT_GT(moved_a, 0u);
    EXPECT_EQ(moved_a, moved_b);
    EXPECT_NO_THROW(a.audit(0));

    // Growing back is also counted and audit-clean.
    EXPECT_GT(a.resize(8), 0u);
    EXPECT_NO_THROW(a.audit(0));
}

TEST(PairwiseFastPath, AuditTracksFlatLayoutThroughChurn)
{
    PairwiseStore store(pairwiseParams(64, 4));
    store.resize(8);
    for (Addr t = 1; t <= 1000; ++t)
        store.insert(t * 15485863, t);
    EXPECT_NO_THROW(store.audit(0));
    for (Addr t = 1; t <= 1000; t += 3)
        store.erase(t * 15485863);
    EXPECT_NO_THROW(store.audit(0));
    store.resize(2);
    EXPECT_NO_THROW(store.audit(0));
}

// ---------- StreamStore: single-hash refs and occupancy masks ----------

StreamStoreParams
streamParams()
{
    StreamStoreParams p;
    p.sets = 64;
    p.ways = 8;
    p.streamLength = 4;
    p.sampledSets = 4;
    return p;
}

StreamEntry
entryOf(Addr trigger)
{
    StreamEntry e;
    e.trigger = trigger;
    for (Addr t = trigger + 1; t <= trigger + 4; ++t)
        e.targets[e.length++] = t;
    return e;
}

TEST(StreamFastPath, RefMatchesPerCallDerivations)
{
    StreamStore store(streamParams());
    for (Addr t = 1; t <= 500; ++t) {
        const Addr trigger = t * 2654435761ULL;
        const StreamStore::Ref ref = store.refOf(trigger);
        EXPECT_EQ(ref.set, store.indexOf(trigger));
        EXPECT_EQ(ref.ptag,
                  partialTagFromHash(ref.hash, 6));
    }
}

TEST(StreamFastPath, LookupAtEqualsLookup)
{
    StreamStore store(streamParams());
    for (Addr t = 1; t <= 200; ++t)
        store.insert(entryOf(t * 7919), 7);
    for (Addr t = 1; t <= 200; ++t) {
        const Addr trigger = t * 7919;
        const auto via_ref = store.lookupAt(store.refOf(trigger), trigger);
        const auto direct = store.lookup(trigger);
        EXPECT_EQ(via_ref.has_value(), direct.has_value()) << trigger;
        if (via_ref && direct) {
            EXPECT_EQ(via_ref->targets[0], direct->targets[0]);
        }
    }
}

TEST(StreamFastPath, TagPrefilterNeverFalselyMisses)
{
    // The pre-filter compares stored partial tags before full triggers;
    // since every stored tag derives from its trigger, a dense insert set
    // must see zero false negatives on re-lookup.
    StreamStore store(streamParams());
    std::uint64_t stored = 0;
    for (Addr t = 1; t <= 300; ++t)
        stored += store.insert(entryOf(t * 104729), 7) !=
                  InsertOutcome::Filtered;
    std::uint64_t found = 0;
    for (Addr t = 1; t <= 300; ++t)
        found += store.lookup(t * 104729).has_value();
    EXPECT_EQ(found, store.size());
    EXPECT_GT(found, 0u);
}

TEST(StreamFastPath, OccupancyMasksSurviveChurn)
{
    // The per-(set, way) occupancy bits are the only record of slot
    // validity: audit() counts live entries and checks placement through
    // them. Drive every mutation path and keep it clean; an erased slot
    // keeps its stale trigger, so only its cleared bit hides it.
    StreamStore store(streamParams());
    store.setAllocation(1, 8);
    for (Addr t = 1; t <= 2000; ++t)
        store.insert(entryOf(t * 31), 7);
    EXPECT_NO_THROW(store.audit(0));
    for (Addr t = 1; t <= 2000; t += 2)
        store.erase(t * 31);
    EXPECT_NO_THROW(store.audit(0));
    for (Addr t = 1; t <= 2000; t += 2)
        EXPECT_FALSE(store.lookup(t * 31).has_value()) << t;
    store.setAllocation(2, 8); // drops odd-set entries, clears their bits
    EXPECT_NO_THROW(store.audit(0));
    store.setAllocation(0, 8);
    EXPECT_NO_THROW(store.audit(0));
}

} // namespace
} // namespace sl
