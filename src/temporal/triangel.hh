/**
 * @file
 * Triangel on-chip temporal prefetcher [4] -- the paper's main baseline.
 *
 * Improves Triage with (1) per-PC reuse/pattern confidence learned through
 * a history sampler (HS) and second-chance sampler (SCS), (2) a shared
 * metadata reuse buffer (MRB) that short-circuits LLC metadata reads, and
 * (3) set-dueling dynamic partitioning over 9 sizes (0..8 ways) that
 * rearranges misplaced metadata after each resize -- the costly shuffle
 * Streamline eliminates. Targets are stored uncompressed (12
 * correlations/block). The `triangel_ideal` design builds
 * Triangel-Ideal (Fig 13a): a dedicated 1MB store outside the LLC.
 */

#ifndef SL_TEMPORAL_TRIANGEL_HH
#define SL_TEMPORAL_TRIANGEL_HH

#include <optional>
#include <vector>

#include "prefetch/prefetcher.hh"
#include "temporal/pairwise_store.hh"
#include "temporal/sampler.hh"

namespace sl
{

/** Triangel's experiment knobs; table sizes are class constants. */
struct TriangelConfig
{
    unsigned maxDegree = 4;        //!< Fig 10f sweeps 1..8
    unsigned maxWays = 8;          //!< 8 of 16 ways = 1MB max for 2MB LLC
    /** Accesses per dueling epoch; tests shorten it. */
    unsigned resizeInterval = 50'000;
    bool useTpMockingjay = false;  //!< Fig 13c: Triangel + TP-MJ variant
};

/** The Triangel prefetcher. Attach to an L2; metadata lives in the LLC. */
class TriangelPrefetcher : public Prefetcher, public PartitionPolicy
{
  public:
    static constexpr unsigned kTuEntries = 256;
    static constexpr unsigned kHsEntries = 256;  //!< history sampler
    static constexpr unsigned kScsEntries = 64;  //!< second-chance sampler
    static constexpr unsigned kMrbEntries = 32;  //!< metadata reuse buffer

    /** @p ideal: a dedicated full-size store with no LLC interaction. */
    explicit TriangelPrefetcher(const TriangelConfig& cfg = {},
                                bool ideal = false);

    void attach(Cache* owner, Cache* llc, EventQueue* eq, int core_id,
                unsigned total_cores) override;

    void onAccess(const AccessInfo& info) override;

    void
    audit(Cycle now) const override
    {
        if (store_)
            store_->audit(now);
    }

    const PartitionPolicy* partitionPolicy() const override
    {
        return ideal_ ? nullptr : this;
    }

    unsigned
    reservedWays(std::uint32_t set) const override
    {
        if (released(currentWays()))
            return 0;
        // Sampled sets stay at full size (utility measurement).
        if (store_ && store_->sampledSet(set))
            return cfg_.maxWays;
        return currentWays();
    }

    std::uint64_t storedCorrelations() const override
    {
        return store_->size();
    }

    std::uint64_t
    metadataOps() const override
    {
        if (!store_)
            return 0;
        const StatGroup& s = store_->stats();
        return s.get("hits") + s.get("misses") + s.get("inserts");
    }

    /** The partition size; the store keeps the only copy. */
    unsigned currentWays() const { return store_ ? store_->ways() : 0; }

    void
    serializeState(Serializer& s, const SnapshotCtx& ctx) override
    {
        (void)ctx;
        serializeBaseState(s);
        s.marker(0x5452494e, "triangel");
        if (store_)
            store_->serializeState(s);
        static_assert(std::is_trivially_copyable_v<TuEntry> &&
                      std::has_unique_object_representations_v<TuEntry> &&
                      std::is_trivially_copyable_v<HsEntry> &&
                      std::has_unique_object_representations_v<HsEntry> &&
                      std::is_trivially_copyable_v<MrbEntry> &&
                      std::has_unique_object_representations_v<MrbEntry>);
        s.io(tu_);
        s.io(hs_);
        s.io(scs_);
        s.io(mrb_);
        s.io(mrbTick_);
        if (dataSampler_)
            dataSampler_->serializeState(s);
        s.io(accessesSinceResize_);
        std::uint32_t shift = sampleShift_;
        s.io(shift);
        sampleShift_ = shift;
        s.io(windowEvents_);
        s.io(windowHsHits_);
        s.io(windowHsInserts_);
    }

  private:
    struct TuEntry
    {
        PC pc = 0;
        bool valid = false;
        std::uint8_t pad0[7] = {}; //!< explicit, so snapshots are stable
        Addr last = 0;       //!< most recent block
        Addr secondLast = 0; //!< one before (lookahead correlation source)
        bool lookahead = false;
        std::uint8_t pad1[3] = {};
        int reuseConf = 8;   //!< 0..15; gate for storing correlations
        int patternConf = 8; //!< 0..15; sets the prefetch degree
        unsigned trainCount = 0;
    };

    /** History-sampler entry: one sampled correlation awaiting its echo. */
    struct HsEntry
    {
        bool valid = false;
        std::uint8_t pad[7] = {}; //!< explicit, so snapshots are stable
        PC pc = 0;
        Addr trigger = 0;
        Addr target = 0;
    };

    /** MRB entry: a correlation recently read from the LLC. */
    struct MrbEntry
    {
        bool valid = false;
        std::uint8_t pad[7] = {};
        Addr trigger = 0;
        Addr target = 0;
        std::uint64_t lru = 0;
    };

    TuEntry& tuFor(PC pc);
    void trainConfidence(TuEntry& tu, Addr trigger, Addr target);
    void adaptSampleRate();
    std::optional<Addr> mrbLookup(Addr trigger);
    void mrbInsert(Addr trigger, Addr target);
    unsigned degreeFor(const TuEntry& tu) const;
    void maybeResize(Cycle now);
    /** Repartition the store to @p ways, shuffling misplaced entries
     *  through the LLC and reclaiming data ways on growth. */
    void resizeTo(unsigned ways, Cycle now);

    TriangelConfig cfg_;
    bool ideal_;
    std::optional<PairwiseStore> store_;
    std::vector<TuEntry> tu_;
    std::vector<HsEntry> hs_;
    std::vector<HsEntry> scs_;
    std::vector<MrbEntry> mrb_;
    std::uint64_t mrbTick_ = 0;

    std::optional<LruStackSampler> dataSampler_;
    std::uint64_t accessesSinceResize_ = 0;

    // Adaptive HS sampling rate (Triangel's 4-bit per-PC sample rate,
    // modelled globally): sample 1-in-2^sampleShift_ correlations, tuned
    // so samples survive long enough to observe cross-iteration reuse.
    unsigned sampleShift_ = 6;
    std::uint64_t windowEvents_ = 0;
    std::uint64_t windowHsHits_ = 0;
    std::uint64_t windowHsInserts_ = 0;

    // Per-miss-path counters; lazily registered so stat snapshots (and
    // the determinism digests over them) are unchanged by the hoist.
    HotCounter trainEventsCtr_{stats_, "train_events"};
    HotCounter usefulFeedbackCtr_{stats_, "useful_feedback"};
    HotCounter mrbHitsCtr_{stats_, "mrb_hits"};
    HotCounter mrbWriteSkipsCtr_{stats_, "mrb_write_skips"};
    HotCounter filteredInsertsCtr_{stats_, "filtered_inserts"};
};

} // namespace sl

#endif // SL_TEMPORAL_TRIANGEL_HH
