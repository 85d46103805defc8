/**
 * @file
 * Triage on-chip temporal prefetcher [53], [54].
 *
 * First prefetcher to keep temporal metadata in an LLC partition. Pairwise
 * metadata with LUT-compressed targets (16 correlations/block), a per-PC
 * training unit holding the last address, degree-4 chained prefetching,
 * and Hawkeye-style partition sizing every 50K accesses (modelled with
 * stack-distance samplers). Also provides the *idealised* variant with
 * unlimited metadata used to define the paper's irregular subset (§V-A3).
 */

#ifndef SL_TEMPORAL_TRIAGE_HH
#define SL_TEMPORAL_TRIAGE_HH

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "prefetch/prefetcher.hh"
#include "temporal/pairwise_store.hh"
#include "temporal/sampler.hh"

namespace sl
{

/**
 * Triage's one setting: accesses per partition-sizing epoch. No
 * experiment varies it; tests shorten it.
 */
struct TriageConfig
{
    unsigned resizeInterval = 50'000;
};

/** The Triage prefetcher. Attach to an L2; metadata lives in the LLC. */
class TriagePrefetcher : public Prefetcher, public PartitionPolicy
{
  public:
    static constexpr unsigned kDegree = 4;
    static constexpr unsigned kTuEntries = 256;
    static constexpr unsigned kMaxWays = 8;

    /** @p unlimited: the idealised variant, unbounded zero-cost metadata
     *  (built by the registry's `triage_ideal`). */
    explicit TriagePrefetcher(const TriageConfig& cfg = {},
                              bool unlimited = false);

    void attach(Cache* owner, Cache* llc, EventQueue* eq, int core_id,
                unsigned total_cores) override;

    void onAccess(const AccessInfo& info) override;

    void
    audit(Cycle now) const override
    {
        if (store_)
            store_->audit(now);
    }

    const PartitionPolicy* partitionPolicy() const override { return this; }

    // PartitionPolicy (way-partitioning: same reservation in every set)
    unsigned
    reservedWays(std::uint32_t set) const override
    {
        if (unlimited_ || !store_)
            return 0;
        return store_->sampledSet(set) ? kMaxWays : store_->ways();
    }

    /** Correlations currently stored (used by capacity probes). */
    std::uint64_t storedCorrelations() const override;

    std::uint64_t
    metadataOps() const override
    {
        if (!store_)
            return 0;
        const StatGroup& s = store_->stats();
        return s.get("hits") + s.get("misses") + s.get("inserts");
    }

    void
    serializeState(Serializer& s, const SnapshotCtx& ctx) override
    {
        (void)ctx;
        serializeBaseState(s);
        s.marker(0x54524947, "triage");
        if (store_)
            store_->serializeState(s);
        // The idealised variant's unbounded map, in sorted key order so
        // the payload is deterministic.
        std::uint64_t n = unlimitedStore_.size();
        s.io(n);
        if (s.saving()) {
            std::vector<std::pair<Addr, Addr>> sorted(
                unlimitedStore_.begin(), unlimitedStore_.end());
            std::sort(sorted.begin(), sorted.end());
            for (auto& [k, v] : sorted) {
                s.io(k);
                s.io(v);
            }
        } else {
            unlimitedStore_.clear();
            for (std::uint64_t i = 0; i < n; ++i) {
                Addr k = 0, v = 0;
                s.io(k);
                s.io(v);
                unlimitedStore_.emplace(k, v);
            }
        }
        static_assert(std::is_trivially_copyable_v<TuEntry> &&
                      std::has_unique_object_representations_v<TuEntry>);
        s.io(tu_);
        s.io(lut_.regions);
        if (dataSampler_)
            dataSampler_->serializeState(s);
        s.io(accessesSinceResize_);
    }

  private:
    struct TuEntry
    {
        PC pc = 0;
        Addr lastBlock = 0;
        bool valid = false;
        std::uint8_t pad[7] = {}; //!< explicit, so snapshots are stable
    };

    struct Lut
    {
        // Direct-mapped region table modelling Triage's target compression;
        // stale regions reconstruct wrong targets (the accuracy loss the
        // Triangel authors reported).
        std::vector<std::uint64_t> regions = std::vector<std::uint64_t>(
            1024, ~0ULL);

        std::uint16_t
        index(std::uint64_t region) const
        {
            return static_cast<std::uint16_t>(region % regions.size());
        }
    };

    void train(Addr block, PC pc, Cycle now);
    void issueChain(Addr block, PC pc, Cycle now);
    void maybeResize(Cycle now);

    TriageConfig cfg_;
    bool unlimited_;
    // Sized at attach() time from the LLC geometry.
    std::optional<PairwiseStore> store_;
    std::unordered_map<Addr, Addr> unlimitedStore_;
    std::vector<TuEntry> tu_;
    Lut lut_;

    // Partition sizing sampler (see temporal/sampler.hh).
    std::optional<LruStackSampler> dataSampler_;
    std::uint64_t accessesSinceResize_ = 0;

    // Per-miss-path counters; lazily registered so stat snapshots (and
    // the determinism digests over them) are unchanged by the hoist.
    HotCounter trainEventsCtr_{stats_, "train_events"};
    HotCounter chainPrefetchesCtr_{stats_, "chain_prefetches"};
    HotCounter lutMisdecompressCtr_{stats_, "lut_misdecompress"};
};

} // namespace sl

#endif // SL_TEMPORAL_TRIAGE_HH
