/**
 * @file
 * Streamline's metadata store: filtered tagged set-partitioning (FTS).
 *
 * The store occupies `ways` ways in an allocated subset of LLC sets
 * (§IV-E3): every set for a 1MB partition, every other set for 0.5MB, and
 * so on. The index function is *static* (computed for the maximum
 * partition size); entries whose home set is not currently allocated are
 * simply filtered out (§IV-C), which removes Triangel's costly
 * rearrangement. Partial trigger tags live in the LLC tag store, giving
 * effective 32-way associativity (8 ways x 4 entries); aliasing partial
 * tags constrain placement (§V-D5). Replacement is TP-Mockingjay or SRRIP.
 *
 * Fast path (DESIGN.md §8): one mix64() of the trigger yields the home
 * set, the partial tag, and (via Ref) the sampled-set test; per-way
 * occupancy bitmasks let trigger scans skip empty ways and victim search
 * jump straight to the first free slot; the partial tag pre-filters the
 * trigger comparison (every valid slot's tag is derived from its stored
 * trigger, so the filter is exact). The occupancy words are the only
 * record of which slots are valid.
 */

#ifndef SL_CORE_STREAM_STORE_HH
#define SL_CORE_STREAM_STORE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/fault.hh"
#include "common/stats.hh"
#include "core/stream_entry.hh"
#include "core/tp_mockingjay.hh"

namespace sl
{

/** Metadata replacement policy selector (Fig 13c / Fig 14 ablations). */
enum class MetaRepl { Srrip, TpMockingjay };

/** Configuration of the stream metadata store. */
struct StreamStoreParams
{
    std::uint32_t sets = 2048;   //!< virtual LLC sets (max partition)
    unsigned ways = 8;           //!< metadata ways per allocated set
    unsigned streamLength = 4;
    unsigned partialTagBits = 6;
    /**
     * Tagged set-partitioning: entries place freely within their set's
     * metadata ways. When false (the -TSP ablation), a second-level hash
     * pins each trigger to a single way (associativity = one block).
     */
    bool tagged = true;
    MetaRepl repl = MetaRepl::TpMockingjay;
    /** Bias the trigger->set map toward always-allocated sets (Fig 15). */
    bool skewedIndex = false;
    /** Permanently allocated sampled sets (the paper's 64). */
    unsigned sampledSets = 64;
};

/** Outcome of an insert attempt. */
enum class InsertOutcome
{
    Stored,   //!< placed as a new entry
    Updated,  //!< overwrote an existing entry with the same trigger
    Filtered, //!< home set not allocated; entry discarded
    Bypassed  //!< TP-Mockingjay: predicted deader than every victim
};

/** The FTS stream metadata store. */
class StreamStore
{
  public:
    explicit StreamStore(const StreamStoreParams& params);

    /**
     * Precomputed per-trigger derivations: home set and partial tag from
     * ONE hash. Callers that need the set for an allocation check, the
     * lookup itself, and the sampled-set test (Streamline's prefetch
     * chain walk) compute this once per hop instead of re-hashing.
     */
    struct Ref
    {
        std::uint32_t set;
        std::uint16_t ptag;
        std::uint64_t hash;
    };

    /** Derive the home set and partial tag of @p trigger (one hash). */
    Ref refOf(Addr trigger) const;

    /** Stream entries per metadata block at this stream length. */
    unsigned entriesPerBlock() const { return epb_; }

    /**
     * Home set of @p trigger under the static (max-size) index function.
     */
    std::uint32_t indexOf(Addr trigger) const { return refOf(trigger).set; }

    /** Is @p set currently allocated for metadata? */
    bool
    allocated(std::uint32_t set) const
    {
        if (sampledSet(set))
            return true;
        if (setDen_ == 0)
            return false;
        return denPow2_ ? (set & denMask_) == 0 : set % setDen_ == 0;
    }

    /** Is @p set one of the permanently allocated sampled sets? */
    bool
    sampledSet(std::uint32_t set) const
    {
        return (set & sampledMask_) == 0;
    }

    /**
     * Change the allocation: sets where set % setDen == 0 (plus sampled
     * sets) hold metadata; setDen == 0 means "sampled sets only". With
     * filtered indexing nothing moves -- entries in deallocated sets are
     * dropped, entries elsewhere stay put.
     * @return entries dropped
     */
    std::uint64_t setAllocation(unsigned set_den, unsigned ways);

    unsigned allocationDen() const { return setDen_; }
    unsigned allocationWays() const { return ways_; }

    /** Look up the entry whose *trigger* is @p trigger. */
    std::optional<StreamEntry>
    lookup(Addr trigger)
    {
        return lookupAt(refOf(trigger), trigger);
    }

    /** Look up @p trigger through a precomputed Ref (no re-hash). */
    std::optional<StreamEntry> lookupAt(const Ref& ref, Addr trigger);

    /** Insert or update @p e (trained by @p pc, for TP-Mockingjay). */
    InsertOutcome insert(const StreamEntry& e, PC pc);

    /** Remove the entry with trigger @p trigger, if present. */
    void erase(Addr trigger);

    /** Feed TP-Mockingjay's sampler with a completed correlation. */
    void sampleCorrelation(Addr trigger, Addr first_target, PC pc);

    /** Live entries (each holds up to streamLength correlations). */
    std::uint64_t size() const { return liveEntries_; }

    /** Live correlations currently stored. */
    std::uint64_t correlations() const;

    /** Correlations the current allocation can hold. */
    std::uint64_t capacity() const;

    StatGroup& stats() { return stats_; }
    const StatGroup& stats() const { return stats_; }

    /** Attach the system's fault injector: lookup results may then come
     *  back with a flipped target bit (a corrupt metadata read). */
    void setFaultInjector(FaultInjector* f) { faults_ = f; }

    /**
     * Audit the store's structural invariants; throws SimError on
     * violation. Checks: the live-entry count matches the occupied
     * slots, every valid entry is homed to an allocated set, stream
     * lengths respect the configured bound, and stored partial tags
     * match their triggers.
     */
    void audit(Cycle now) const;

    /** Snapshot the slot array, occupancy masks, current allocation, and
     *  replacement state. Geometry is rebuilt from params and only
     *  cross-checked here; the denominator's mask is rebuilt from it. */
    void
    serializeState(Serializer& s)
    {
        s.marker(0x53545253, "stream_store");
        std::uint64_t nslots = slots_.size();
        s.io(nslots);
        SL_CHECK(nslots == slots_.size(), "stream_store",
                 "snapshot has " << nslots << " slots but this store is "
                 "sized for " << slots_.size());
        std::uint32_t den = setDen_;
        s.io(den);
        setDenominator(den);
        std::uint32_t w = ways_;
        s.io(w);
        SL_CHECK(w <= params_.ways, "stream_store",
                 "snapshot allocation " << w << " ways exceeds configured "
                 << params_.ways);
        ways_ = w;
        static_assert(std::is_trivially_copyable_v<Slot> &&
                      std::has_unique_object_representations_v<Slot>);
        s.io(slots_);
        s.io(occ_);
        s.io(liveEntries_);
        if (tpmj_)
            tpmj_->serializeState(s);
        stats_.serializeState(s);
    }

  private:
    /** One stream slot; its occupancy bit in occ_ says whether it is
     *  valid. */
    struct Slot
    {
        StreamEntry entry;
        std::uint16_t ptag = 0;
        std::uint8_t rrpv = 2;  //!< SRRIP state
        std::int8_t etr = 0;    //!< TP-Mockingjay estimated time remaining
        std::uint8_t pad[4] = {}; //!< explicit, so snapshots are stable
        PC pc = 0;
    };

    Slot* slotArray(std::uint32_t set, unsigned way);
    Slot* findTrigger(std::uint32_t set, Addr trigger, std::uint16_t ptag);
    Slot* chooseVictim(const Ref& ref);
    void ageSet(std::uint32_t set);
    void markSlot(std::uint32_t set, unsigned way, unsigned idx, bool on);
    std::uint16_t& occWord(std::uint32_t set, unsigned way);
    /** Set the allocation denominator and its derived fast-path mask. */
    void setDenominator(unsigned set_den);

    StreamStoreParams params_;
    unsigned epb_;
    unsigned setDen_ = 1; //!< current allocation denominator (0 = off)
    unsigned ways_;
    std::uint32_t setMask_;     //!< sets - 1 (sets is a power of two)
    std::uint32_t sampledMask_; //!< sampled-set stride - 1
    /** Derived from setDen_ (setDenominator), never saved. UADP's
     *  denominators {0,1,2} all qualify for the mask test. */
    bool denPow2_ = true;
    std::uint32_t denMask_ = 0; //!< setDen_ - 1 when denPow2_
    std::uint16_t fullMask_;    //!< all-epb-slots-valid occupancy word
    std::vector<Slot> slots_;
    /** Per-(set, way) valid bitmask, the only copy of slot validity;
     *  epb_ <= 16 fits a 16-bit word. */
    std::vector<std::uint16_t> occ_;
    std::uint64_t liveEntries_ = 0;
    std::unique_ptr<TpMockingjay> tpmj_;
    FaultInjector* faults_ = nullptr;
    StatGroup stats_;
    // Hot-path counters; lazily registered so stat snapshots (and the
    // determinism digests over them) are unchanged by the hoist.
    HotCounter hitsCtr_{stats_, "hits"};
    HotCounter missesCtr_{stats_, "misses"};
    HotCounter sampledHitsCtr_{stats_, "sampled_hits"};
    HotCounter filteredLookupsCtr_{stats_, "filtered_lookups"};
    HotCounter filteredInsertsCtr_{stats_, "filtered_inserts"};
    HotCounter updatesCtr_{stats_, "updates"};
    HotCounter insertsCtr_{stats_, "inserts"};
    HotCounter evictionsCtr_{stats_, "evictions"};
    HotCounter bypassedCtr_{stats_, "bypassed"};
    HotCounter aliasConstrainedCtr_{stats_, "alias_constrained"};
    HotCounter corruptReadsCtr_{stats_, "corrupt_reads"};
};

} // namespace sl

#endif // SL_CORE_STREAM_STORE_HH
