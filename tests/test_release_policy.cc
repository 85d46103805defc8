/**
 * @file
 * The shared-LLC release policy of the metadata-holding prefetchers
 * (DESIGN.md §12, "Prefetcher-side release") and the MemPressure probe
 * it samples. Designs are driven only through their public surface --
 * attach, setPressure, onAccess, and the allocation they report -- with
 * a scripted pressure level, so these tests pin the policy's observable
 * behaviour, not where it is coded.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "common/hash.hh"
#include "core/streamline.hh"
#include "sim/mem_pressure.hh"
#include "temporal/triangel.hh"
#include "test_util.hh"

namespace sl
{
namespace
{

using test::drain;
using test::ScriptedMemory;

/** Pressure probe whose level the test sets; admits every prefetch. */
struct ScriptedPressure : PressureSignal
{
    unsigned lvl = 0;

    bool admitPrefetch(Cycle) override { return true; }
    unsigned level() const override { return lvl; }
};

struct ReleasePolicy : ::testing::Test
{
    /** Training accesses per between-epochs pressure verdict. */
    static constexpr unsigned kPressureEpoch = 2048;

    ReleasePolicy() : mem(eq, 80)
    {
        llc = std::make_unique<Cache>(
            CacheParams{"llc", 256 * 1024, 16, 20, 64, 2}, eq, &mem);
        l2 = std::make_unique<Cache>(
            CacheParams{"l2", 16 * 1024, 8, 10, 32, 2}, eq, llc.get());
    }

    /** Attach @p pf to the L2, with the scripted probe when @p shared. */
    void
    attach(Prefetcher& pf, bool shared)
    {
        if (shared)
            pf.setPressure(&probe);
        pf.attach(l2.get(), llc.get(), &eq, 0, 1);
    }

    /** LLC metadata reads plus writes billed so far. */
    std::uint64_t
    metadataTraffic() const
    {
        return llc->stats().get("metadata_reads") +
               llc->stats().get("metadata_writes");
    }

    /** Present @p n L2 training misses from a repeating irregular stream
     *  of @p blocks blocks, then deliver the prefetches they issued. */
    void
    train(Prefetcher& pf, unsigned n, unsigned blocks = 400)
    {
        for (unsigned k = 0; k < n; ++k, ++next) {
            AccessInfo info;
            info.addr = (1000 + mix64(next % blocks) % 500'000)
                        << kBlockShift;
            info.pc = 77;
            info.cycle = clock += 200;
            pf.onAccess(info);
        }
        drain(eq, ~Cycle{0});
    }

    EventQueue eq;
    ScriptedMemory mem;
    std::unique_ptr<Cache> llc;
    std::unique_ptr<Cache> l2;
    ScriptedPressure probe;
    std::uint64_t next = 0;
    Cycle clock = 0;
};

// ---------- starting allocation ----------

TEST_F(ReleasePolicy, StreamlineStartsHalfAloneAndReleasedShared)
{
    StreamlinePrefetcher alone;
    attach(alone, false);
    EXPECT_EQ(alone.store().allocationDen(), 2u);

    StreamlinePrefetcher shared;
    attach(shared, true);
    EXPECT_EQ(shared.store().allocationDen(), 0u);
}

TEST_F(ReleasePolicy, TriangelStartsHalfAloneAndReleasedShared)
{
    TriangelPrefetcher alone;
    attach(alone, false);
    EXPECT_EQ(alone.currentWays(), 4u);

    TriangelPrefetcher shared;
    attach(shared, true);
    EXPECT_EQ(shared.currentWays(), 0u);
}

// ---------- a released store stays off the shared LLC ----------

TEST_F(ReleasePolicy, ReleasedStreamlineReservesIssuesAndBillsNothing)
{
    // Reference: the same stream on a private LLC issues prefetches,
    // bills metadata traffic, and keeps its sampled sets reserved even
    // where the half-size partition leaves a set unallocated.
    {
        StreamlinePrefetcher alone;
        attach(alone, false);
        train(alone, 2400);
        EXPECT_GT(alone.stats().get("issued"), 0u);
        EXPECT_GT(metadataTraffic(), 0u);
    }
    const std::uint64_t billed = metadataTraffic();

    StreamlinePrefetcher pf;
    attach(pf, true);
    unsigned sampled = 0;
    for (std::uint32_t s = 0; s < 256; ++s) {
        sampled += pf.store().sampledSet(s);
        EXPECT_EQ(pf.reservedWays(s), 0u) << "set " << s;
    }
    EXPECT_GT(sampled, 0u);
    train(pf, 2400);
    EXPECT_EQ(pf.store().allocationDen(), 0u);
    EXPECT_EQ(pf.stats().get("issued"), 0u);
    EXPECT_EQ(metadataTraffic(), billed);
    EXPECT_GT(pf.stats().get("train_events"), 0u);
}

TEST_F(ReleasePolicy, ReleasedTriangelReservesIssuesAndBillsNothing)
{
    unsigned widest = 0;
    {
        TriangelPrefetcher alone;
        attach(alone, false);
        // Sampled sets hold the full store for the dueling measurement.
        for (std::uint32_t s = 0; s < 256; ++s)
            widest = std::max(widest, alone.reservedWays(s));
        train(alone, 2400);
        EXPECT_GT(alone.stats().get("issued"), 0u);
        EXPECT_GT(metadataTraffic(), 0u);
    }
    EXPECT_EQ(widest, 8u);
    const std::uint64_t billed = metadataTraffic();

    TriangelPrefetcher pf;
    attach(pf, true);
    for (std::uint32_t s = 0; s < 256; ++s)
        EXPECT_EQ(pf.reservedWays(s), 0u) << "set " << s;
    train(pf, 2400);
    EXPECT_EQ(pf.currentWays(), 0u);
    EXPECT_EQ(pf.stats().get("issued"), 0u);
    EXPECT_EQ(metadataTraffic(), billed);
    EXPECT_GT(pf.stats().get("train_events"), 0u);
}

// ---------- between the designs' own resize epochs ----------

TEST_F(ReleasePolicy, ElevatedPressureRatchetsTriangelDown)
{
    TriangelPrefetcher pf;
    attach(pf, false);
    pf.setPressure(&probe);
    probe.lvl = 1;
    train(pf, kPressureEpoch - 1);
    EXPECT_EQ(pf.currentWays(), 4u);
    train(pf, 1);
    EXPECT_EQ(pf.currentWays(), 2u);
    train(pf, kPressureEpoch - 1);
    EXPECT_EQ(pf.currentWays(), 2u);
    train(pf, 1);
    EXPECT_EQ(pf.currentWays(), 0u);
    EXPECT_EQ(pf.stats().get("resizes"), 2u);
    EXPECT_EQ(pf.stats().get("pressure_deallocations"), 0u);
    // Released: further elevated epochs have nothing left to take.
    train(pf, kPressureEpoch);
    EXPECT_EQ(pf.currentWays(), 0u);
    EXPECT_EQ(pf.stats().get("resizes"), 2u);
}

TEST_F(ReleasePolicy, ElevatedPressureRatchetsStreamlineDown)
{
    StreamlinePrefetcher pf;
    attach(pf, false);
    pf.setPressure(&probe);
    probe.lvl = 1;
    train(pf, kPressureEpoch - 1);
    EXPECT_EQ(pf.store().allocationDen(), 2u);
    train(pf, 1);
    EXPECT_EQ(pf.store().allocationDen(), 4u);
    train(pf, kPressureEpoch - 1);
    EXPECT_EQ(pf.store().allocationDen(), 4u);
    train(pf, 1);
    EXPECT_EQ(pf.store().allocationDen(), 0u);
    EXPECT_EQ(pf.stats().get("resizes"), 2u);
    EXPECT_EQ(pf.stats().get("pressure_deallocations"), 0u);
    train(pf, kPressureEpoch);
    EXPECT_EQ(pf.store().allocationDen(), 0u);
    EXPECT_EQ(pf.stats().get("resizes"), 2u);
}

TEST_F(ReleasePolicy, SaturatedPressureReleasesBetweenEpochs)
{
    TriangelPrefetcher tg;
    attach(tg, false);
    tg.setPressure(&probe);
    StreamlinePrefetcher st;
    attach(st, false);
    st.setPressure(&probe);
    probe.lvl = 2;

    train(tg, kPressureEpoch);
    EXPECT_EQ(tg.currentWays(), 0u);
    EXPECT_EQ(tg.stats().get("pressure_deallocations"), 1u);
    EXPECT_EQ(tg.stats().get("resizes"), 1u);

    train(st, kPressureEpoch);
    EXPECT_EQ(st.store().allocationDen(), 0u);
    EXPECT_EQ(st.stats().get("pressure_deallocations"), 1u);
    EXPECT_EQ(st.stats().get("resizes"), 1u);

    // Every saturated verdict counts, even with nothing left to release.
    train(tg, kPressureEpoch);
    train(st, kPressureEpoch);
    EXPECT_EQ(tg.stats().get("pressure_deallocations"), 2u);
    EXPECT_EQ(st.stats().get("pressure_deallocations"), 2u);
    EXPECT_EQ(tg.stats().get("resizes"), 1u);
    EXPECT_EQ(st.stats().get("resizes"), 1u);
}

// ---------- at the designs' own resize epochs ----------

TEST_F(ReleasePolicy, SaturatedResizeEpochReleasesTriangel)
{
    TriangelConfig cfg;
    cfg.resizeInterval = 1000;
    TriangelPrefetcher pf(cfg);
    attach(pf, false);
    pf.setPressure(&probe);
    probe.lvl = 2;
    train(pf, cfg.resizeInterval - 1);
    EXPECT_EQ(pf.currentWays(), 4u);
    train(pf, 1);
    EXPECT_EQ(pf.currentWays(), 0u);
    EXPECT_EQ(pf.stats().get("pressure_deallocations"), 1u);
    train(pf, cfg.resizeInterval);
    EXPECT_EQ(pf.stats().get("pressure_deallocations"), 2u);
    EXPECT_EQ(pf.stats().get("resizes"), 1u);
}

TEST_F(ReleasePolicy, GrowthWaitsOutACalmStreakThatForcedReleasesLengthen)
{
    // Each 128-access dueling epoch is one pressure epoch. The 6000-block
    // stream has no reuse within LLC depth but steady metadata reuse in
    // the sampled sets, so a calm epoch whose verdict may grow does grow.
    TriangelConfig cfg;
    cfg.resizeInterval = 128;
    TriangelPrefetcher pf(cfg);
    attach(pf, false);
    pf.setPressure(&probe);
    const unsigned blocks = 6000;
    const auto epochs = [&](unsigned n, unsigned lvl = 0) {
        probe.lvl = lvl;
        train(pf, n * cfg.resizeInterval, blocks);
    };
    epochs(3 * blocks / cfg.resizeInterval); // learn the stream
    ASSERT_EQ(pf.currentWays(), 8u);

    // An elevated epoch halves the store and restarts the calm streak;
    // growth waits for 16 calm epochs.
    epochs(1, 1);
    ASSERT_EQ(pf.currentWays(), 4u);
    epochs(15);
    EXPECT_EQ(pf.currentWays(), 4u) << "grew before 16 calm epochs";
    epochs(1);
    EXPECT_EQ(pf.currentWays(), 8u) << "did not grow at 16 calm epochs";

    // A forced release quadruples the wait to 64.
    epochs(1, 2);
    ASSERT_EQ(pf.currentWays(), 0u);
    epochs(63);
    EXPECT_EQ(pf.currentWays(), 0u) << "grew before 64 calm epochs";
    epochs(1);
    EXPECT_GT(pf.currentWays(), 0u) << "did not grow at 64 calm epochs";

    // A second makes it 256, past the calm streak's 255 cap: the store
    // stays released for the rest of the run.
    epochs(1, 2);
    ASSERT_EQ(pf.currentWays(), 0u);
    epochs(300);
    EXPECT_EQ(pf.currentWays(), 0u) << "regrew after a second release";
    EXPECT_EQ(pf.stats().get("pressure_deallocations"), 2u);
}

// ---------- MemPressure ----------

struct MemPressureProbe : ::testing::Test
{
    MemPressureProbe() : mem(eq, 1'000'000)
    {
        DramParams dp;
        dp.channels = 2;
        dp.requestors = 2; // scheduled: reads queue until a tick
        dram = std::make_unique<Dram>(dp, eq);
        llc = std::make_unique<Cache>(
            CacheParams{"llc", 64 * 1024, 16, 20, 8, 2}, eq, &mem);
        pressure = std::make_unique<MemPressure>(*dram, *llc);
    }

    /** Serve everything still queued so no request outlives the test. */
    ~MemPressureProbe() override { drain(eq, ~Cycle{0}); }

    /** Queue one DRAM read per call; nothing ticks until a drain. */
    void
    queueRead()
    {
        auto* r = new MemRequest;
        r->addr = (next++) << kBlockShift;
        r->kind = ReqKind::DemandLoad;
        dram->access(r, 0);
    }

    /** Hold one more LLC MSHR (the miss waits on a slow memory). */
    void
    holdMshr()
    {
        auto* r = new MemRequest;
        r->addr = (next++) << kBlockShift;
        r->kind = ReqKind::DemandLoad;
        llc->access(r, 0);
    }

    EventQueue eq;
    ScriptedMemory mem;
    std::unique_ptr<Dram> dram;
    std::unique_ptr<Cache> llc;
    std::unique_ptr<MemPressure> pressure;
    Addr next = 1;
};

TEST_F(MemPressureProbe, ReadQueueThresholdsArePerChannel)
{
    // Two channels: the level reads the total queued reads / 2.
    for (unsigned i = 0; i < 3; ++i)
        queueRead();
    EXPECT_EQ(dram->queuedReads(), 3u);
    EXPECT_EQ(pressure->level(), 0u);
    queueRead(); // 2 per channel
    EXPECT_EQ(pressure->level(), 1u);
    for (unsigned i = 0; i < 7; ++i)
        queueRead();
    EXPECT_EQ(dram->queuedReads(), 11u);
    EXPECT_EQ(pressure->level(), 1u);
    queueRead(); // 6 per channel
    EXPECT_EQ(pressure->level(), 2u);
}

TEST_F(MemPressureProbe, LlcMshrThresholds)
{
    // Eight MSHRs: 50% is four outstanding misses, 75% is six.
    for (unsigned i = 0; i < 3; ++i)
        holdMshr();
    EXPECT_EQ(llc->mshrCount(), 3u);
    EXPECT_EQ(pressure->level(), 0u);
    holdMshr();
    EXPECT_EQ(pressure->level(), 1u);
    holdMshr();
    EXPECT_EQ(pressure->level(), 1u);
    holdMshr();
    EXPECT_EQ(llc->mshrCount(), 6u);
    EXPECT_EQ(pressure->level(), 2u);
}

TEST_F(MemPressureProbe, ElevatedLevelAdmitsEveryOtherPrefetch)
{
    EXPECT_TRUE(pressure->admitPrefetch(0)); // calm
    for (unsigned i = 0; i < 4; ++i)
        holdMshr();
    ASSERT_EQ(pressure->level(), 1u);
    const bool expect[] = {true, false, true, false, true};
    for (const bool e : expect)
        EXPECT_EQ(pressure->admitPrefetch(0), e);
    for (unsigned i = 0; i < 2; ++i)
        holdMshr();
    ASSERT_EQ(pressure->level(), 2u);
    EXPECT_FALSE(pressure->admitPrefetch(0));
    EXPECT_EQ(pressure->stats().get("admitted"), 4u);
    EXPECT_EQ(pressure->stats().get("dropped_elevated"), 2u);
    EXPECT_EQ(pressure->stats().get("dropped_saturated"), 1u);
}

} // namespace
} // namespace sl
