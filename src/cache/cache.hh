/**
 * @file
 * Set-associative, non-blocking cache model.
 *
 * Models the properties the paper's evaluation depends on: hit/miss latency,
 * MSHR occupancy, per-cycle port throughput, writebacks, prefetch fills with
 * usefulness tracking, and (for the LLC) a metadata partition that steals
 * capacity from data and serves temporal-prefetcher metadata traffic.
 */

#ifndef SL_CACHE_CACHE_HH
#define SL_CACHE_CACHE_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/event.hh"
#include "common/fault.hh"
#include "common/serializer.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "cache/mshr_table.hh"
#include "cache/request.hh"

namespace sl
{

class Telemetry;

/** Anything that can accept a MemRequest (a cache level or DRAM). */
class MemLevel
{
  public:
    virtual ~MemLevel() = default;

    /** Present @p req at cycle @p now. Ownership transfers to the level. */
    virtual void access(MemRequest* req, Cycle now) = 0;
};

/** Notification passed to an attached prefetcher on each demand access. */
struct AccessInfo
{
    Addr addr = 0;    //!< block-aligned address
    PC pc = 0;
    int coreId = 0;
    Cycle cycle = 0;
    AccessType type = AccessType::Load;
    bool hit = false;
    /** True when this is the first demand use of a prefetched block. */
    bool prefetchHit = false;
};

/** Prefetcher attach point; see prefetch/prefetcher.hh for the base class. */
class CacheListener
{
  public:
    virtual ~CacheListener() = default;
    virtual void onAccess(const AccessInfo& info) = 0;
};

/**
 * Reserves LLC real estate for prefetcher metadata. The cache asks, per
 * set, how many of its lowest-numbered ways are off-limits to data.
 */
class PartitionPolicy
{
  public:
    virtual ~PartitionPolicy() = default;
    virtual unsigned reservedWays(std::uint32_t set) const = 0;
};

/**
 * Shared-memory-system congestion probe consulted at the prefetch issue
 * path. Declared here (not in sim/) so the cache layer needs no upward
 * dependency; the concrete MemPressure lives in sim/mem_pressure.hh and
 * reads DRAM queue depth plus LLC MSHR occupancy.
 */
class PressureSignal
{
  public:
    virtual ~PressureSignal() = default;

    /** False = the memory system is saturated, drop this prefetch. May
     *  admit a deterministic fraction under moderate pressure
     *  (down-degreeing). */
    virtual bool admitPrefetch(Cycle now) = 0;

    /** Instantaneous congestion level: 0 calm, 1 elevated, 2 saturated.
     *  Temporal prefetchers sample this into their partition-sizing
     *  epochs so metadata capacity shrinks when the shared LLC/DRAM are
     *  contended (capacity a co-runner's demand misses would use). */
    virtual unsigned level() const = 0;
};

/** Static cache geometry and timing. */
struct CacheParams
{
    std::string name;
    std::size_t sizeBytes = 0;
    unsigned ways = 8;
    unsigned latency = 10;   //!< cycles from access to data on a hit
    unsigned mshrs = 16;
    unsigned ports = 1;      //!< accesses accepted per cycle

    /** Cores sharing this cache's ports. 0 (default) keeps one shared
     *  port pool; > 0 splits ports into per-core request lanes so one
     *  core's retry storm only pushes its own lane's port time
     *  (multi-core LLC only). */
    unsigned arbCores = 0;
};

/**
 * The cache model. Non-blocking with MSHRs; misses forward to the next
 * level; fills install with LRU replacement (skipping metadata-reserved
 * ways at the LLC).
 */
class Cache : public MemLevel, public RequestClient
{
  public:
    /**
     * @param pool request arena shared across the hierarchy (the System
     *        passes its own); null makes the cache carve a private one,
     *        which keeps standalone construction (tests) allocation-safe.
     */
    Cache(const CacheParams& params, EventQueue& eq, MemLevel* next,
          RequestPool* pool = nullptr);
    ~Cache() override;

    Cache(const Cache&) = delete;
    Cache& operator=(const Cache&) = delete;

    // MemLevel
    void access(MemRequest* req, Cycle now) override;

    // RequestClient (responses from the next level)
    void requestDone(const MemRequest& req, Cycle now) override;

    /** Attach a prefetcher; it is notified of demand accesses. */
    void setListener(CacheListener* l) { listener_ = l; }

    /** Install a metadata partition policy (LLC only). */
    void setPartition(const PartitionPolicy* p) { partition_ = p; }

    /** Attach the system's fault injector (null = no faults). */
    void setFaultInjector(FaultInjector* f) { faults_ = f; }

    /** Attach the system's telemetry hub (null = probes disabled). */
    void setTelemetry(Telemetry* t) { tele_ = t; }

    /** Attach the memory-pressure probe gating prefetch issue (null =
     *  always admit; single-core systems never attach one). */
    void setPressure(PressureSignal* p) { pressure_ = p; }

    /**
     * Issue a prefetch into this cache for @p addr. Dropped when already
     * resident or in flight, or when the attached PressureSignal reports
     * memory-system saturation. @p now may be in the future (scheduled).
     */
    void issuePrefetch(Addr addr, PC pc, int core_id, Cycle now);

    /**
     * Functional-warmup mode (sampled checkpoint generation, DESIGN.md
     * §14): accesses update tags/LRU/dirty/prefetched bits, train the
     * listener, and bill the same hit/miss counters, but move no
     * MemRequests and schedule no events — no MSHRs, ports, retries, or
     * DRAM traffic. Detailed and functional traffic must not interleave:
     * switching modes requires an idle cache (no MSHR outstanding). The
     * flag is orchestration, not state — it is not serialized.
     */
    void setFunctionalMode(bool on);

    /**
     * Present one demand access in functional mode. Misses recurse down
     * the cache chain (stores forward as loads, like the detailed path)
     * and install on the unwind, so the end state mirrors what the
     * detailed fill path would leave behind.
     */
    void functionalAccess(Addr addr, PC pc, int core, bool store,
                          Cycle now);

    /** Wake probe: re-present @p r, parked on an MSHR stall, after the
     *  resource it waited for freed (EventKind::Retry target). */
    void retryNow(MemRequest* r, Cycle now);

    /** Hand @p down to the next level (EventKind::Forward target). */
    void forwardNow(MemRequest* down, Cycle now) { next_->access(down, now); }

    /**
     * Snapshot every mutable field (blocks, tag/LRU/dirty arrays, MSHRs with
     * swizzled waiter pointers, port state, stats). Geometry fields are
     * cross-checked, not restored: the restore side reconstructs the
     * cache from config first. Only legal between cycles (no fill in
     * progress).
     */
    void serializeState(Serializer& s, const SnapshotCtx& ctx);

    /**
     * Account one metadata access (LLC partition read/write): consumes a
     * port slot and traffic counters; returns the data-ready cycle.
     * Metadata residency is tracked by the prefetcher's own structures.
     */
    Cycle metadataAccess(bool write, Cycle now);

    /**
     * Account @p blocks worth of bulk metadata movement (Triangel's
     * repartition shuffle): consumes ports and counts traffic.
     */
    void metadataBulkTraffic(std::uint64_t blocks, Cycle now);

    /**
     * Evict data from the metadata-reserved ways of @p set (called by a
     * prefetcher after growing its partition). Dirty blocks write back.
     */
    void reclaimReservedWays(std::uint32_t set, Cycle now);

    std::uint32_t numSets() const { return numSets_; }
    unsigned ways() const { return params_.ways; }
    unsigned latency() const { return params_.latency; }
    const std::string& name() const { return params_.name; }

    StatGroup& stats() { return stats_; }
    const StatGroup& stats() const { return stats_; }

    /** True when no MSHR is outstanding (used for drain checks in tests). */
    bool idle() const { return mshrs_.empty(); }

    /** Outstanding MSHR entries (diagnostic snapshots). */
    std::size_t mshrCount() const { return mshrs_.size(); }

    /** Configured MSHR capacity (diagnostic snapshots). */
    unsigned mshrLimit() const { return params_.mshrs; }

    /**
     * Audit this cache's structural invariants; throws SimError on
     * violation. Checks: MSHR occupancy within params.mshrs and matching
     * the count of downstream requests in flight (a mismatch means a
     * request was lost — the hierarchy would hang silently); every MSHR
     * key block-aligned; every valid way's tag homed to its set and its
     * LRU stamp no later than the clock. O(blocks); called periodically
     * by the InvariantAuditor.
     */
    void audit(Cycle now) const;

  private:
    /** Per-way prefetch state. Tag, validity, LRU and dirtiness live
     *  only in the packed tags_/lru_/dirty_ arrays. */
    struct Block
    {
        bool prefetched = false;       //!< filled by a prefetch, unused yet
        bool prefetchOriginHere = false; //!< that prefetch originated here
        std::uint8_t pad[6] = {};      //!< explicit, so snapshots are stable
        /** Install cycle; with telemetry on, the first demand hit on a
         *  prefetched block reports (now - fillAt) as fill-to-demand
         *  distance. Maintained unconditionally — one store into a row
         *  the fill already writes. */
        Cycle fillAt = 0;
    };

    /** One port pool's booking cursor: the cycle the next access can
     *  start and how many accesses that cycle has booked. Exact only
     *  while bookings arrive in time order (DESIGN.md §13.1). */
    struct PortCursor
    {
        Cycle time = 0;
        unsigned count = 0;

        /** Book one of @p ports slots at or after @p now; returns the
         *  cycle the access starts. */
        Cycle
        reserve(Cycle now, unsigned ports)
        {
            if (now < time)
                now = time;
            if (now > time) {
                time = now;
                count = 0;
            }
            if (++count >= ports) {
                time = now + 1;
                count = 0;
            }
            return now;
        }
    };

    std::uint32_t setIndex(Addr addr) const;
    /** Index of @p addr's way in blocks_ and tags_/lru_/dirty_, or
     *  kNoWay when it is not resident. */
    std::size_t findWay(Addr addr) const;
    static constexpr std::size_t kNoWay = ~std::size_t{0};
    /** Book a request port: @p core's lane when arbCores > 0 (clamped
     *  to [0, arbCores)), else the shared pool. */
    Cycle reservePortFor(int core, Cycle now);
    void handleAt(MemRequest* req, Cycle start);
    /** The demand lookup both modes share: bill the access (only when
     *  @p fresh -- a request re-presented after an MSHR stall was billed
     *  and trained the listener on first presentation), refresh LRU,
     *  settle a pending prefetch as useful, dirty the line on a store,
     *  and train the listener. Returns true on a hit. */
    bool demandLookup(Addr addr, PC pc, int core, bool store, bool fresh,
                      Cycle now);
    /** Accept a writeback from an upstream level (write-validate):
     *  dirty the resident line or install it dirty. Both modes. */
    void acceptWriteback(Addr addr, std::int32_t core, Cycle now);
    /** When a request is parked and the MSHR table has a free slot,
     *  pop the oldest waiter and schedule its wake probe at @p now. One
     *  waiter per freed slot -- waking the whole list would send N-1
     *  requests through a full handleAt re-probe just to re-park them
     *  (a thundering herd). requestDone calls it after freeing a slot;
     *  a woken request that resolves as a hit or an MSHR merge calls it
     *  again, since it left its slot free for the next waiter. */
    void wakeOne(Cycle now);
    /** Install @p addr over the set's victim, writing a dirty victim
     *  back (charged to @p core). Detailed and functional fills both
     *  come through here, so warmup leaves exactly the state detailed
     *  fills would. */
    void installFill(Addr addr, bool prefetched, bool origin_here,
                     bool store, std::int32_t core, Cycle now);
    /** Victim scan over the packed tag/LRU side arrays: first invalid
     *  way at or past @p reserved, else the least-LRU way; params_.ways
     *  when the whole set is metadata-reserved. */
    unsigned pickVictimWay(std::size_t base, unsigned reserved) const;
    /** Write dirty block @p addr back to the next level: a Writeback
     *  request in detailed mode, a direct acceptWriteback in functional
     *  mode (where a DRAM hop carries nothing and is skipped). */
    void writeBack(Addr addr, std::int32_t core, Cycle now);
    /** Tell the listener (non-null) about one demand access. */
    void notifyListener(Addr addr, PC pc, int core, bool store, bool hit,
                        bool prefetch_hit, Cycle now);
    /** Downstream leg of a functional prefetch chain: install at every
     *  level like the detailed prefetch fill unwind would. */
    void functionalPrefetch(Addr addr, Cycle now);
    void respond(MemRequest* req, Cycle when);
    unsigned reservedWays(std::uint32_t set) const;

    CacheParams params_;
    EventQueue& eq_;
    MemLevel* next_;
    /** next_ downcast once at construction; non-null iff the next level
     *  is another cache. Only the functional-warmup chain calls it
     *  directly; detailed misses always hop through a Forward event. */
    Cache* nextCache_ = nullptr;
    CacheListener* listener_ = nullptr;
    const PartitionPolicy* partition_ = nullptr;
    FaultInjector* faults_ = nullptr;
    Telemetry* tele_ = nullptr;
    PressureSignal* pressure_ = nullptr;

    /** Private arena backing pool_ when none was passed in. */
    std::unique_ptr<RequestPool> ownPool_;
    RequestPool* pool_;

    /** Downstream miss requests sent but not yet answered; must equal
     *  mshrs_.size() whenever the event queue is drained. */
    std::size_t outstandingDownstream_ = 0;

    /** Sentinel tag for invalid ways in tags_ (never a real tag: block
     *  numbers are addresses >> 6, far below 2^64). */
    static constexpr Addr kNoTag = ~Addr{0};

    std::uint32_t numSets_;
    std::vector<Block> blocks_; //!< numSets_ * ways, row-major
    /** Tags, the only copy: tags_[i] is way i's block number, kNoTag
     *  when the way is invalid. Packed apart from the blocks so the hit
     *  scan touches only 8 bytes per way -- misses (the common case
     *  under an MSHR retry storm) scan every way. */
    std::vector<Addr> tags_;
    /** LRU stamps, packed the same way: the install victim scan reads
     *  one stamp per way, so a set costs two cache lines, and the hit
     *  path's stamp refresh is a single 8-byte store. lru_[i] is only
     *  meaningful while tags_[i] != kNoTag. */
    std::vector<std::uint64_t> lru_;
    /** Dirty bits, packed the same way, so the fill path decides the
     *  victim's writeback from tags_ and dirty_ alone. Invalid ways are
     *  clean. */
    std::vector<std::uint8_t> dirty_;
    std::uint64_t lruTick_ = 0;

    MshrTable mshrs_; //!< keyed by block address; capacity = MSHR limit

    /** Functional-warmup mode flag (see setFunctionalMode). Not
     *  serialized: snapshots are always taken from-and-for detailed
     *  simulation; the checkpoint generator flips it off before save. */
    bool functional_ = false;

    /** Waiter list of the MSHR currently being filled; a member so its
     *  capacity is reused across every requestDone call. */
    std::vector<MemRequest*> fillWaiters_;

    // ---- structural-stall wakeup list (DESIGN.md §13.1) ----
    /** Requests parked on a full MSHR table, in arrival (FIFO) order.
     *  requestDone is the only site that frees an MSHR -- and every fill
     *  and eviction happens there too -- so popping this list there
     *  subsumes the per-set fill/eviction waiter classes: a parked
     *  request implies the table is full, which implies downstream fills
     *  are outstanding, which guarantees a future wake. A deque, so a
     *  wake pops the oldest in O(1) however long the list grows. */
    std::deque<MemRequest*> mshrFreeWaiters_;
    /** Wake probes scheduled but not yet executed (every Retry event is
     *  one). Lets the auditor tell a stranded waiter (a bug) from one
     *  whose wake is simply pending a port slot: a free table slot with
     *  parked waiters is legal only while a probe is in flight. */
    std::size_t wakeProbes_ = 0;

    /** Shared port pool: every request when arbCores == 0, and always
     *  the metadata traffic (it models the partition's own port). */
    PortCursor port_;
    /** Per-core request lanes (arbCores of them, else empty), each
     *  with lanePorts_ slots per cycle. */
    std::vector<PortCursor> lanes_;
    unsigned lanePorts_ = 0;

    StatGroup stats_;

    /** Hot-path counters resolved once at construction: the access path
     *  must not pay a string-keyed map lookup per event. Cold-path
     *  counters (faults, partition reclaims) stay on stats_.counter(). */
    struct HotCounters
    {
        explicit HotCounters(StatGroup& s)
            : writebackIn(s.counter("writeback_in")),
              demandAccesses(s.counter("demand_accesses")),
              demandStores(s.counter("demand_stores")),
              demandHits(s.counter("demand_hits")),
              demandMisses(s.counter("demand_misses")),
              prefetchRequests(s.counter("prefetch_requests")),
              prefetchUseful(s.counter("prefetch_useful")),
              prefetchRedundant(s.counter("prefetch_redundant")),
              prefetchLate(s.counter("prefetch_late")),
              prefetchIssued(s.counter("prefetch_issued")),
              mshrRetries(s.counter("mshr_retries")),
              fillBypassed(s.counter("fill_bypassed")),
              evictions(s.counter("evictions")),
              writebacks(s.counter("writebacks")),
              metadataReads(s.counter("metadata_reads")),
              metadataWrites(s.counter("metadata_writes"))
        {
        }

        Counter& writebackIn;
        Counter& demandAccesses;
        Counter& demandStores;
        Counter& demandHits;
        Counter& demandMisses;
        Counter& prefetchRequests;
        Counter& prefetchUseful;
        Counter& prefetchRedundant;
        Counter& prefetchLate;
        Counter& prefetchIssued;
        Counter& mshrRetries;
        Counter& fillBypassed;
        Counter& evictions;
        Counter& writebacks;
        Counter& metadataReads;
        Counter& metadataWrites;
    };
    HotCounters ctr_{stats_};
    /** Fires only under a pressure probe (multi-core), so it registers
     *  lazily and single-core stat maps never see it. */
    HotCounter droppedPressureCtr_{stats_, "prefetch_dropped_pressure"};
};

} // namespace sl

#endif // SL_CACHE_CACHE_HH
