/**
 * @file
 * Prefetcher base class and attach points.
 *
 * A prefetcher observes demand accesses at the cache it is attached to and
 * issues prefetch fills into that cache. Temporal prefetchers additionally
 * hold a pointer to the LLC for metadata traffic and partition control.
 */

#ifndef SL_PREFETCH_PREFETCHER_HH
#define SL_PREFETCH_PREFETCHER_HH

#include <functional>
#include <memory>
#include <string>

#include "common/event.hh"
#include "common/fault.hh"
#include "common/serializer.hh"
#include "common/stats.hh"
#include "cache/cache.hh"

namespace sl
{

/** Base class for all prefetchers. */
class Prefetcher : public CacheListener
{
  public:
    explicit Prefetcher(const std::string& name) : stats_(name) {}

    /** Wire up the prefetcher. Called once by the System builder. */
    virtual void
    attach(Cache* owner, Cache* llc, EventQueue* eq, int core_id,
           unsigned total_cores)
    {
        owner_ = owner;
        llc_ = llc;
        eq_ = eq;
        coreId_ = core_id;
        totalCores_ = total_cores;
    }

    /**
     * LLC partition policy of a metadata-holding prefetcher, expressed over
     * this core's *virtual* set range (see CompositePartition). Null for
     * prefetchers without LLC metadata.
     */
    virtual const PartitionPolicy* partitionPolicy() const
    {
        return nullptr;
    }

    /**
     * Attach the system's fault injector (null = no faults). Called by
     * the System builder before attach(), where temporal prefetchers
     * hand it to their metadata stores so lookups can return corrupted
     * targets.
     */
    void setFaultInjector(FaultInjector* f) { faults_ = f; }

    /**
     * Audit internal invariants (metadata-store size bounds and entry
     * placement); throws SimError on violation. Called periodically by
     * the InvariantAuditor; default is a no-op for stateless designs.
     */
    virtual void audit(Cycle now) const { (void)now; }

    /**
     * Attach the shared-memory pressure probe (always null on
     * single-core systems, so designs that sample it cannot perturb
     * single-core digests). Temporal prefetchers fold the sampled level
     * into their partition-sizing epochs: metadata capacity shrinks
     * while the shared LLC/DRAM are contended.
     */
    void setPressure(PressureSignal* p) { pressure_ = p; }

    /**
     * Correlations resident in the metadata store at this instant; 0 for
     * designs without one. Lets the runner report storage-efficiency
     * metrics without knowing concrete prefetcher types.
     */
    virtual std::uint64_t storedCorrelations() const { return 0; }

    /**
     * Stat group of the backing metadata store, or null. Only Streamline
     * returns one. Regular prefetchers have no store; Triage and Triangel
     * return null too, so their PairwiseStore counters (hits, misses,
     * inserts, rearranged entries) reach no stat dump -- only
     * metadataOps() reads them.
     */
    virtual const StatGroup* metadataStoreStats() const { return nullptr; }

    /**
     * Total metadata-store operations performed so far (lookups, inserts,
     * updates); 0 for designs without a store. bench_simspeed divides
     * this by wall time to track the metadata layer's modelling speed.
     */
    virtual std::uint64_t metadataOps() const { return 0; }

    StatGroup& stats() { return stats_; }
    const StatGroup& stats() const { return stats_; }
    const std::string& name() const { return stats_.name(); }

    /**
     * Snapshot the prefetcher's mutable state. The default refuses with
     * a SimError naming the design: a snapshot that silently skipped a
     * prefetcher's tables would restore into a wrong-answer run. Every
     * design the paper's experiments sweep (stride, streamline, triage,
     * triangel) overrides this.
     */
    virtual void
    serializeState(Serializer& s, const SnapshotCtx& ctx)
    {
        (void)s;
        (void)ctx;
        SL_CHECK(false, "snapshot",
                 "prefetcher '" << name() << "' does not support "
                 "checkpoint/restore; rerun without snapshots or use a "
                 "snapshot-capable design");
    }

  protected:
    /** Base-class state shared by every design (issue counter, pressure
     *  epoch accumulators); overrides call this first. */
    void
    serializeBaseState(Serializer& s)
    {
        s.marker(0x50524546, "prefetcher");
        stats_.serializeState(s);
        s.io(pressureSum_);
        s.io(pressureSamples_);
        s.io(calmEpochs_);
        s.io(calmNeed_);
    }
    /** Issue a prefetch into the owning cache at cycle @p when. */
    void
    prefetch(Addr addr, PC pc, Cycle when)
    {
        ++issuedCtr_;
        EventDesc d;
        d.comp = owner_;
        d.a = addr;
        d.pc = pc;
        d.core = coreId_;
        eq_->schedule(when,
                      EventCallback::make(EventKind::PrefetchIssue, d));
    }

    /** Number of LLC sets this core's prefetcher can place metadata in. */
    std::uint32_t
    metadataSets() const
    {
        return llc_ ? llc_->numSets() / totalCores_ : 0;
    }

    /** Translate a virtual metadata set to a physical LLC set. */
    std::uint32_t
    physicalSet(std::uint32_t virt) const
    {
        return virt * totalCores_ + static_cast<std::uint32_t>(coreId_);
    }

    /** Fold the shared-memory pressure level into the current pressure
     *  epoch; call once per training event (no-op single-core). */
    void
    samplePressure()
    {
        if (pressure_) {
            pressureSum_ += pressure_->level();
            ++pressureSamples_;
        }
    }

    // ---- shared-LLC release policy (DESIGN.md §12) ----
    // Designs pass allocations in their own units, in which halving is
    // exact (Streamline: quarters of the store; Triangel: ways), and
    // apply the verdict. With a null probe (single-core) every verdict
    // is the design's own choice.

    /** Allocation at attach: @p alone on a private LLC, 0 on a shared
     *  one, where a store must earn capacity through a utility epoch (a
     *  cycle-0 claim can evict a co-runner's resident working set). */
    unsigned
    startingAllocation(unsigned alone) const
    {
        return pressure_ ? 0 : alone;
    }

    /** True when the LLC is shared and nothing is @p held. A released
     *  store reserves no LLC ways (sampled sets included), issues no
     *  prefetches and bills no LLC metadata ports; it keeps training so
     *  its utility signal can regrow it. */
    bool
    released(unsigned held) const
    {
        return pressure_ != nullptr && held == 0;
    }

    /**
     * Verdict at the design's own resize epoch on the allocation @p want
     * its utility logic chose, holding @p held: a mostly-elevated
     * pressure epoch halves @p want; a mostly-saturated one returns 0
     * (counted in pressure_deallocations) and backs off if anything was
     * held. Never grows past @p held until the calm streak is long enough.
     */
    unsigned
    pressureAtEpoch(unsigned want, unsigned held)
    {
        const unsigned lvl = pressureDemotions();
        if (lvl == 1) {
            want /= 2;
        } else if (lvl == 2) {
            want = 0;
            ++stats_.counter("pressure_deallocations");
            if (held != 0)
                notePressureRelease();
        }
        return pressureRecentlyHot() && want > held ? held : want;
    }

    /**
     * Shrink-only verdict between resize epochs, holding @p held of a
     * @p full allocation: a thin miss stream may never finish a utility
     * epoch, and the co-runners it starves cannot wait. Once a pressure
     * epoch is full (until then: @p held), elevated halves @p held, or
     * releases it at @p full / 4 or less; saturated releases it (counted
     * in pressure_deallocations). A forced release backs off.
     */
    unsigned
    pressureBetweenEpochs(unsigned held, unsigned full)
    {
        if (!pressureEpochReady())
            return held;
        unsigned next = held;
        const unsigned lvl = pressureDemotions();
        if (lvl == 1) {
            next = held <= full / 4 ? 0 : held / 2;
        } else if (lvl == 2) {
            next = 0;
            ++stats_.counter("pressure_deallocations");
        }
        if (held != 0 && next == 0)
            notePressureRelease();
        return next;
    }

    Cache* owner_ = nullptr;
    Cache* llc_ = nullptr;
    EventQueue* eq_ = nullptr;
    FaultInjector* faults_ = nullptr;
    PressureSignal* pressure_ = nullptr;
    int coreId_ = 0;
    unsigned totalCores_ = 1;
    StatGroup stats_;

  private:
    /** True once the pressure epoch holds enough samples to act on. */
    bool pressureEpochReady() const { return pressureSamples_ >= 2048; }

    /** Close the pressure epoch: 0 = calm, 1 = mostly elevated, 2 =
     *  mostly saturated. Updates the calm streak. */
    unsigned
    pressureDemotions()
    {
        const std::uint64_t sum = pressureSum_;
        const std::uint64_t n = pressureSamples_;
        pressureSum_ = 0;
        pressureSamples_ = 0;
        if (n == 0)
            return 0;
        // Mean level >= 1.5 -> saturated epoch; >= 0.5 -> elevated.
        unsigned lvl = 0;
        if (2 * sum >= 3 * n)
            lvl = 2;
        else if (2 * sum >= n)
            lvl = 1;
        if (lvl == 0) {
            if (calmEpochs_ < 255)
                ++calmEpochs_;
        } else {
            calmEpochs_ = 0;
        }
        return lvl;
    }

    /**
     * Growth hysteresis. A demoted metadata store drains the very queues
     * whose depth demoted it, so the next epoch reads calm and the
     * design's own utility logic grows the store right back — a
     * shrink/drain/regrow/saturate limit cycle. Growth is blocked until
     * enough consecutive calm pressure epochs have passed. Always false
     * single-core (null probe).
     */
    bool pressureRecentlyHot() const
    {
        return pressure_ != nullptr && calmEpochs_ < calmNeed_;
    }

    /**
     * Exponential backoff on the hysteresis window, applied each time
     * pressure forces a held allocation all the way to zero (NOT when
     * the utility logic chooses zero): a store whose utility signal
     * keeps regrowing it into the same contention is overclaiming, so
     * each strike quadruples the calm streak required before the next
     * growth, which effectively locks a repeat offender released for the
     * rest of the run.
     */
    void
    notePressureRelease()
    {
        if (calmNeed_ <= 64)
            calmNeed_ *= 4;
    }

    std::uint64_t pressureSum_ = 0;
    std::uint64_t pressureSamples_ = 0;
    /** Consecutive calm pressure epochs; starts at the hysteresis
     *  threshold ("long calm") so a store that starts released can grow
     *  at its first utility epoch unless pressure is actually seen. */
    std::uint32_t calmEpochs_ = 16;
    /** Calm streak required before growth; quadrupled per forced
     *  release (16 -> 64 -> 256, capped). */
    std::uint32_t calmNeed_ = 16;
    /** Issue counter resolved once; prefetch() is per-issue hot. */
    Counter& issuedCtr_{stats_.counter("issued")};
};

/** Factory invoked per core by the System builder. */
using PrefetcherFactory =
    std::function<std::unique_ptr<Prefetcher>(int core_id)>;

} // namespace sl

#endif // SL_PREFETCH_PREFETCHER_HH
