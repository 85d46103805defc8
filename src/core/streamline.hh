/**
 * @file
 * The Streamline temporal prefetcher -- the paper's contribution (§IV).
 *
 * Streamline stores temporal metadata as streams (stream_entry.hh) in a
 * filtered tagged set-partition of the LLC (stream_store.hh), aligns
 * overlapping streams through a per-PC metadata buffer (§IV-B2), realigns
 * filtered triggers (§IV-C), replaces metadata with TP-Mockingjay
 * (tp_mockingjay.hh), sizes its partition with utility-aware set dueling
 * (uadp.hh), and sets per-PC degree from stream stability (§IV-E6).
 *
 * Every mechanism is individually switchable so the Fig 12/13/14/15
 * sweeps and ablations run through this one class.
 */

#ifndef SL_CORE_STREAMLINE_HH
#define SL_CORE_STREAMLINE_HH

#include <optional>
#include <vector>

#include "common/ring_buffer.hh"
#include "core/stream_store.hh"
#include "core/uadp.hh"
#include "prefetch/prefetcher.hh"

namespace sl
{

/** All of Streamline's knobs. Defaults are the paper's configuration. */
struct StreamlineConfig
{
    unsigned streamLength = 4;      //!< Fig 12a sweeps 2..16
    unsigned bufferEntries = 3;     //!< Fig 12c sweeps 1..6
    unsigned tuEntries = 256;
    unsigned maxDegree = 4;         //!< Fig 10f sweeps 1..8

    bool enableBuffer = true;       //!< MB  (Fig 14)
    bool enableAlignment = true;    //!< SA  (Fig 14)
    bool taggedSetPartition = true; //!< TSP (Fig 14)
    bool useTpMockingjay = true;    //!< TP-MJ (Fig 14 / Fig 13c)
    bool degreeControl = true;      //!< stability-based degree (§IV-E6)
    bool realignment = true;        //!< §IV-C / Fig 15
    bool skewedIndexing = false;    //!< Fig 15
    bool triangelPartitioner = false; //!< §V-D3 comparison

    /**
     * Fixed allocation (Fig 13a/b, Fig 15 sweeps): setDen > 0 pins the
     * store to sets divisible by setDen with fixedWays ways each and
     * disables dynamic partitioning. setDen == 0 -> UADP (0/0.5/1MB).
     */
    unsigned fixedDen = 0;
    unsigned fixedWays = 8;

    /** Dedicated store outside the LLC: no capacity loss, fixed-latency
     *  metadata access, full allocation (diagnostic / Fig 13a analog). */
    bool ideal = false;

    unsigned metaWaysPerSet = 8;    //!< §IV-B3: half the LLC's 16 ways
    unsigned partialTagBits = 6;    //!< §V-D5
    unsigned degreeEpoch = 1024;    //!< §IV-E6
};

/** The Streamline prefetcher. Attach to an L2; metadata lives in the LLC. */
class StreamlinePrefetcher : public Prefetcher, public PartitionPolicy
{
  public:
    explicit StreamlinePrefetcher(const StreamlineConfig& cfg = {});

    void attach(Cache* owner, Cache* llc, EventQueue* eq, int core_id,
                unsigned total_cores) override;

    void onAccess(const AccessInfo& info) override;

    void
    setFaultInjector(FaultInjector* f) override
    {
        Prefetcher::setFaultInjector(f);
        if (store_)
            store_->setFaultInjector(f);
    }

    void
    audit(Cycle now) const override
    {
        if (store_)
            store_->audit(now);
    }

    const PartitionPolicy* partitionPolicy() const override
    {
        return cfg_.ideal ? nullptr : this;
    }

    unsigned
    reservedWays(std::uint32_t set) const override
    {
        if (!store_ || released(store_->allocationDen()))
            return 0;
        return store_->allocated(set) ? store_->allocationWays() : 0;
    }

    /** The metadata store (exposed for probes, tests, and benches). */
    StreamStore& store() { return *store_; }
    const StreamStore& store() const { return *store_; }

    UtilityPartitioner& partitioner() { return *uadp_; }

    /** Live correlations in the store. */
    std::uint64_t storedCorrelations() const override
    {
        return store_->correlations();
    }

    /** The stream store's counters (the runner snapshots these). */
    const StatGroup* metadataStoreStats() const override
    {
        return &store_->stats();
    }

    std::uint64_t
    metadataOps() const override
    {
        if (!store_)
            return 0;
        const StatGroup& s = store_->stats();
        return s.get("hits") + s.get("misses") + s.get("inserts") +
               s.get("updates") + s.get("filtered_inserts") +
               s.get("bypassed");
    }

    /** Correlation hit rate (buffer + store hits over lookups). */
    double correlationHitRate() const;

    const StreamlineConfig& config() const { return cfg_; }

    void
    serializeState(Serializer& s, const SnapshotCtx& ctx) override
    {
        (void)ctx;
        serializeBaseState(s);
        s.marker(0x53544c4e, "streamline");
        if (store_)
            store_->serializeState(s);
        if (uadp_)
            uadp_->serializeState(s);
        // TuEntry holds a vector (the per-PC metadata buffer), so the
        // training unit serializes per-field.
        std::uint32_t n = static_cast<std::uint32_t>(tu_.size());
        s.io(n);
        SL_CHECK(n == tu_.size(), "streamline",
                 "snapshot has " << n << " TU entries but this prefetcher "
                 "is configured for " << tu_.size());
        for (auto& tu : tu_) {
            s.io(tu.pc);
            s.io(tu.valid);
            s.io(tu.cur);
            s.io(tu.prevTail);
            s.io(tu.hasTrigger);
            s.io(tu.buffer);
            s.io(tu.epochAccesses);
            s.io(tu.epochInsertions);
            s.io(tu.degree);
        }
    }

  private:
    struct TuEntry
    {
        PC pc = 0;
        bool valid = false;

        StreamEntry cur;        //!< stream being recorded
        Addr prevTail = 0;      //!< address preceding cur.trigger
        bool hasTrigger = false;

        /** Per-PC stream metadata buffer (§IV-E2). */
        std::vector<StreamEntry> buffer;

        // Stability-based degree control (§IV-E6).
        unsigned epochAccesses = 0;
        unsigned epochInsertions = 0;
        unsigned degree = 4;
    };

    /** UADP set denominator <-> allocation in quarters of the full
     *  store, the release policy's unit (1/2/4 <-> 4/2/1, 0 <-> 0; the
     *  map is its own inverse, and halving a quarter count doubles the
     *  denominator). */
    static unsigned denQuarters(unsigned x) { return x ? 4 / x : 0; }

    TuEntry& tuFor(PC pc);
    void trainOn(TuEntry& tu, Addr block, Cycle now);
    void completeEntry(TuEntry& tu, Cycle now);
    void writeEntry(TuEntry& tu, const StreamEntry& e, Cycle now,
                    bool allow_realign = true);
    void bufferInsert(TuEntry& tu, const StreamEntry& e);
    /** Find a buffered entry holding @p block with targets beyond it. */
    const StreamEntry* bufferFind(const TuEntry& tu, Addr block,
                                  int* pos) const;
    void issuePrefetches(TuEntry& tu, Addr block, Cycle now);
    void rollDegreeEpoch(TuEntry& tu);
    void applyAllocation(unsigned den, unsigned ways, Cycle now);

    StreamlineConfig cfg_;
    std::optional<StreamStore> store_;
    std::optional<UtilityPartitioner> uadp_;
    std::vector<TuEntry> tu_;
    // Per-miss-path counters; lazily registered so stat snapshots (and
    // the determinism digests over them) are unchanged by the hoist.
    HotCounter trainEventsCtr_{stats_, "train_events"};
    HotCounter usefulFeedbackCtr_{stats_, "useful_feedback"};
    HotCounter bufferHitsCtr_{stats_, "buffer_hits"};
    HotCounter degreeIssuedCtr_{stats_, "degree_issued"};
    HotCounter missedTriggersCtr_{stats_, "missed_triggers"};
    HotCounter filteredSkippedCtr_{stats_, "filtered_lookups_skipped"};
    // Stream-completion counters (alignment and realignment, §IV-B/C).
    HotCounter overlapDetectedCtr_{stats_, "overlap_detected"};
    HotCounter benignOverlapCtr_{stats_, "benign_overlap"};
    HotCounter alignedCtr_{stats_, "aligned"};
    HotCounter redundantStoredCtr_{stats_, "redundant_stored"};
    HotCounter realignAttemptsCtr_{stats_, "realign_attempts"};
    HotCounter realignSuccessCtr_{stats_, "realign_success"};
};

} // namespace sl

#endif // SL_CORE_STREAMLINE_HH
