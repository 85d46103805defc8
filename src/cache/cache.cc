#include "cache/cache.hh"

#include <algorithm>

#include "telemetry/telemetry.hh"

namespace sl
{

namespace
{
/** Functional-warmup prefetch fills land this many cycles after issue,
 *  approximating the detailed path's DRAM round trip (row access plus
 *  queueing). The exact figure is uncritical; what matters is that the
 *  in-flight window is long enough for racing demand accesses to miss
 *  and train, as they do in detailed mode. */
constexpr Cycle kFunctionalFillDelay = 60;
} // namespace

// Tagged-event entry points (see EventKind in common/event.hh). Each
// reads the EventDesc out of the callback's capture buffer and re-enters
// the component exactly as the former lambda did; storing these function
// pointers directly in EventCallback::invoke_ keeps dispatch cost
// identical to the lambda path while making pending events serializable.
namespace event_invoke
{

namespace
{
inline const EventDesc&
descOf(void* buf)
{
    return *std::launder(reinterpret_cast<const EventDesc*>(buf));
}

inline MemRequest*
reqOf(const EventDesc& d)
{
    return reinterpret_cast<MemRequest*>(
        static_cast<std::uintptr_t>(d.a));
}
} // namespace

void
retry(void* buf, Cycle now)
{
    const EventDesc& d = descOf(buf);
    static_cast<Cache*>(d.comp)->retryNow(reqOf(d), now);
}

void
forward(void* buf, Cycle now)
{
    const EventDesc& d = descOf(buf);
    static_cast<Cache*>(d.comp)->forwardNow(reqOf(d), now);
}

void
respond(void* buf, Cycle now)
{
    MemRequest* req = reqOf(descOf(buf));
    req->client->requestDone(*req, now);
    disposeRequest(req);
}

void
prefetchIssue(void* buf, Cycle now)
{
    const EventDesc& d = descOf(buf);
    static_cast<Cache*>(d.comp)->issuePrefetch(
        static_cast<Addr>(d.a), static_cast<PC>(d.pc), d.core, now);
}

} // namespace event_invoke

/** Descriptor for the request-carrying event kinds. */
static EventDesc
reqDesc(Cache* comp, MemRequest* req)
{
    EventDesc d;
    d.comp = comp;
    d.a = static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(req));
    return d;
}

Cache::Cache(const CacheParams& params, EventQueue& eq, MemLevel* next,
             RequestPool* pool)
    : params_(params), eq_(eq), next_(next),
      ownPool_(pool ? nullptr : std::make_unique<RequestPool>()),
      pool_(pool ? pool : ownPool_.get()),
      numSets_(static_cast<std::uint32_t>(
          params.ways == 0
              ? 0
              : params.sizeBytes / kBlockBytes / params.ways)),
      blocks_(static_cast<std::size_t>(numSets_) * params.ways),
      tags_(static_cast<std::size_t>(numSets_) * params.ways, kNoTag),
      lru_(static_cast<std::size_t>(numSets_) * params.ways, 0),
      dirty_(static_cast<std::size_t>(numSets_) * params.ways, 0),
      mshrs_(params.mshrs == 0 ? 1 : params.mshrs),
      stats_(params.name)
{
    const char* comp = params_.name.empty() ? "cache" : params_.name.c_str();
    SL_REQUIRE(params_.ways > 0, comp, "cache needs at least one way");
    SL_REQUIRE(params_.latency > 0, comp, "cache latency must be nonzero");
    SL_REQUIRE(params_.mshrs > 0, comp, "cache needs at least one MSHR");
    SL_REQUIRE(params_.ports > 0, comp, "cache needs at least one port");
    SL_REQUIRE(numSets_ > 0 && (numSets_ & (numSets_ - 1)) == 0, comp,
               "cache set count must be a nonzero power of two, got "
                   << numSets_ << " (size " << params_.sizeBytes << "B / "
                   << params_.ways << " ways)");
    if (params_.arbCores > 0) {
        lanes_.resize(params_.arbCores);
        lanePorts_ = std::max(1u, params_.ports / params_.arbCores);
    }
    nextCache_ = dynamic_cast<Cache*>(next_);
}

// Requests still parked in MSHR waiter lists at teardown are abandoned,
// not disposed: a waiter may belong to an upstream component's private
// pool that is already gone (member destruction order), so even reading
// its owner field would be a use-after-free. Pooled requests are
// reclaimed wholesale when their arena frees its chunks; heap-allocated
// ones follow the documented run-to-completion ownership model (see
// README — leak checking is off for exactly this class of teardown).
Cache::~Cache() = default;

std::uint32_t
Cache::setIndex(Addr addr) const
{
    return static_cast<std::uint32_t>(blockNumber(addr)) & (numSets_ - 1);
}

std::size_t
Cache::findWay(Addr addr) const
{
    const Addr tag = blockNumber(addr);
    const std::size_t base =
        static_cast<std::size_t>(setIndex(addr)) * params_.ways;
    const Addr* row = &tags_[base];
    for (unsigned w = 0; w < params_.ways; ++w) {
        if (row[w] == tag)
            return base + w;
    }
    return kNoWay;
}

Cycle
Cache::reservePortFor(int core, Cycle now)
{
    if (lanes_.empty())
        return port_.reserve(now, params_.ports);
    const unsigned c = core < 0 ? 0 : static_cast<unsigned>(core);
    return lanes_[std::min<std::size_t>(c, lanes_.size() - 1)].reserve(
        now, lanePorts_);
}

unsigned
Cache::reservedWays(std::uint32_t set) const
{
    if (!partition_)
        return 0;
    unsigned r = partition_->reservedWays(set);
    return r > params_.ways ? params_.ways : r;
}

void
Cache::access(MemRequest* req, Cycle now)
{
    req->addr = blockAlign(req->addr);
    handleAt(req, reservePortFor(req->coreId, now));
}

void
Cache::retryNow(MemRequest* r, Cycle now)
{
    SL_CHECK_AT(wakeProbes_ > 0, params_.name.c_str(), now,
                "wake probe executed with none in flight");
    --wakeProbes_;
    handleAt(r, reservePortFor(r->coreId, now));
}

void
Cache::handleAt(MemRequest* req, Cycle start)
{
    if (req->kind == ReqKind::Writeback) {
        acceptWriteback(req->addr, req->coreId, start);
        disposeRequest(req);
        return;
    }

    const bool demand = req->isDemand();
    // Requests re-presented after an MSHR stall already counted their
    // stats and trained the listener on first presentation.
    const bool fresh = !req->retried;
    bool hit;
    if (demand) {
        hit = demandLookup(req->addr, req->pc, req->coreId,
                           req->kind == ReqKind::DemandStore, fresh, start);
    } else {
        if (fresh)
            ++ctr_.prefetchRequests;
        const std::size_t i = findWay(req->addr);
        hit = i != kNoWay;
        if (hit)
            lru_[i] = ++lruTick_;
    }

    if (hit) {
        if (!fresh)
            wakeOne(start);
        // A prefetch for a resident block is redundant.
        if (!demand && req->origin == this)
            ++ctr_.prefetchRedundant;
        respond(req, start + params_.latency);
        return;
    }

    // ----- miss -----
    if (Mshr* m = mshrs_.find(req->addr)) {
        // Merge into the outstanding miss.
        if (req->retried)
            wakeOne(start);
        if (demand) {
            if (m->prefetchOnly && !m->demandMerged) {
                m->demandMerged = true;
                if (m->prefetchOriginHere)
                    ++ctr_.prefetchLate;
            }
            m->waiters.push_back(req);
        } else if (req->client) {
            // Upstream-originated prefetch: it still needs a response.
            m->waiters.push_back(req);
        } else {
            if (req->origin == this)
                ++ctr_.prefetchRedundant;
            disposeRequest(req);
        }
        return;
    }

    if (mshrs_.full()) {
        // Structural stall: park in FIFO order on the table's wakeup
        // list; requestDone wakes it the cycle an entry frees.
        ++ctr_.mshrRetries;
        req->retried = true;
        mshrFreeWaiters_.push_back(req);
        return;
    }

    Mshr& m = mshrs_.insert(req->addr);
    m.prefetchOnly = !demand;
    m.prefetchOriginHere = !demand && req->origin == this;
    if (demand || req->client)
        m.waiters.push_back(req);

    // Forward downstream after the lookup latency.
    MemRequest* down = pool_->acquire();
    down->addr = req->addr;
    down->pc = req->pc;
    down->coreId = req->coreId;
    down->kind = demand ? ReqKind::DemandLoad : ReqKind::Prefetch;
    down->client = this;
    down->origin = req->origin;
    if (!demand) {
        if (req->origin == this)
            ++ctr_.prefetchIssued;
        if (!req->client)
            disposeRequest(req); // locally originated prefetch, no waiter
    }
    SL_CHECK_AT(next_ != nullptr, params_.name.c_str(), start,
                "miss with no downstream level to forward to");
    if (faults_ && faults_->loseRequest()) {
        // Injected fault: the downstream message vanishes (hung
        // controller). The MSHR stays allocated with nothing in flight —
        // exactly the state the auditor and watchdog exist to catch.
        disposeRequest(down);
        if (tele_)
            tele_->incident("request_lost", start,
                            params_.name + " dropped a downstream miss "
                                           "request (injected fault)");
        return;
    }
    ++outstandingDownstream_;
    // Forward downstream as an event at the arrival cycle, so the next
    // level books its port, probes its tags and allocates its MSHR in
    // simulated-time order (DESIGN.md §13.1).
    const Cycle fwd_at = start + params_.latency;
    eq_.schedule(fwd_at, EventCallback::make(EventKind::Forward,
                                             reqDesc(this, down)));
}

bool
Cache::demandLookup(Addr addr, PC pc, int core, bool store, bool fresh,
                    Cycle now)
{
    if (fresh) {
        ++ctr_.demandAccesses;
        if (store)
            ++ctr_.demandStores;
    }
    const std::size_t i = findWay(addr);
    if (i == kNoWay) {
        if (fresh) {
            ++ctr_.demandMisses;
            if (listener_)
                notifyListener(addr, pc, core, store, false, false, now);
        }
        return false;
    }
    lru_[i] = ++lruTick_;
    if (fresh)
        ++ctr_.demandHits;
    bool prefetch_hit = false;
    Block& b = blocks_[i];
    if (b.prefetched) {
        b.prefetched = false;
        if (b.prefetchOriginHere)
            ++ctr_.prefetchUseful;
        prefetch_hit = true;
        if (tele_ && !functional_)
            tele_->fillToDemand.record(now > b.fillAt ? now - b.fillAt : 0);
    }
    if (store)
        dirty_[i] = 1;
    if (fresh && listener_)
        notifyListener(addr, pc, core, store, true, prefetch_hit, now);
    return true;
}

void
Cache::acceptWriteback(Addr addr, std::int32_t core, Cycle now)
{
    // Writebacks allocate here (write-validate); no response needed.
    ++ctr_.writebackIn;
    const std::size_t i = findWay(addr);
    if (i == kNoWay) {
        installFill(addr, false, false, true, core, now);
        return;
    }
    dirty_[i] = 1;
    lru_[i] = ++lruTick_;
}

void
Cache::requestDone(const MemRequest& req, Cycle now)
{
    Mshr* m = mshrs_.find(req.addr);
    SL_CHECK_AT(m != nullptr, params_.name.c_str(), now,
                "fill for block 0x" << std::hex << req.addr << std::dec
                                    << " without a matching MSHR");
    SL_CHECK_AT(outstandingDownstream_ > 0, params_.name.c_str(), now,
                "fill arrived with no downstream request in flight");
    --outstandingDownstream_;
    const bool prefetch_only = m->prefetchOnly;
    const bool demand_merged = m->demandMerged;
    const bool origin_here = m->prefetchOriginHere;
    // Steal the waiter list into the reusable member (swap keeps both
    // vectors' capacities alive), then free the MSHR before installing:
    // the fill path must see this miss as resolved.
    fillWaiters_.clear();
    std::swap(fillWaiters_, m->waiters);
    mshrs_.erase(req.addr);

    // This is the only site that frees an MSHR, so it is the only wake
    // point. One fill frees exactly one table slot, so exactly one
    // waiter wakes. It runs later this same cycle; if it resolves
    // without allocating it hands the wake to the next waiter, so
    // single wakes cannot strand the list.
    wakeOne(now);

    bool store = false;
    for (const MemRequest* w : fillWaiters_) {
        if (w->kind == ReqKind::DemandStore)
            store = true;
    }

    const bool mark_prefetched = prefetch_only && !demand_merged;
    // Injected fault: a prefetch-only fill may be dropped on the floor.
    // Demand-serving fills are never dropped — prefetches are hints,
    // demand correctness is not negotiable. Waiters (upstream prefetch
    // clients) still get their responses so no state leaks.
    const bool drop_fill = mark_prefetched && faults_ &&
                           faults_->dropPrefetchFill();
    if (drop_fill) {
        ++stats_.counter("prefetch_fills_dropped");
        if (tele_)
            tele_->incident("prefetch_fill_dropped", now,
                            params_.name + " lost a prefetch fill "
                                           "(injected fault)");
    } else
        installFill(req.addr, mark_prefetched, origin_here, store,
                    req.coreId, now);
    if (prefetch_only && demand_merged && origin_here) {
        // The prefetch fetched data a demand wanted before arrival.
        ++ctr_.prefetchUseful;
    }

    for (MemRequest* w : fillWaiters_)
        respond(w, now);
}

void
Cache::wakeOne(Cycle now)
{
    // At most one probe is in flight per free slot, so pass-on chains
    // stay O(waiters) per freed slot in the worst case and O(1)
    // typically. Scheduling at `now` is legal mid-drain: the event queue
    // appends to the bucket being drained, so the woken retry executes
    // later this same cycle, after the current event -- never
    // reentrantly.
    if (mshrFreeWaiters_.empty() || mshrs_.full())
        return;
    MemRequest* w = mshrFreeWaiters_.front();
    mshrFreeWaiters_.pop_front();
    ++wakeProbes_;
    eq_.schedule(now,
                 EventCallback::make(EventKind::Retry, reqDesc(this, w)));
}

unsigned
Cache::pickVictimWay(std::size_t base, unsigned reserved) const
{
    // Victim selection runs entirely off the packed tag/LRU arrays
    // (two cache lines per set instead of one Block per way): first
    // invalid way in scan order, else the strictly-least LRU stamp in
    // way order.
    unsigned vw = params_.ways;
    const Addr* tagRow = &tags_[base];
    const std::uint64_t* lruRow = &lru_[base];
    for (unsigned w = reserved; w < params_.ways; ++w) {
        if (tagRow[w] == kNoTag)
            return w;
        if (vw == params_.ways || lruRow[w] < lruRow[vw])
            vw = w;
    }
    return vw;
}

void
Cache::installFill(Addr addr, bool prefetched, bool origin_here,
                   bool store, std::int32_t core, Cycle now)
{
    const std::uint32_t set = setIndex(addr);
    const unsigned reserved = reservedWays(set);
    const std::size_t base = static_cast<std::size_t>(set) * params_.ways;

    const unsigned vw = pickVictimWay(base, reserved);
    if (vw == params_.ways) {
        // Entire set reserved for metadata: the fill bypasses this cache.
        ++ctr_.fillBypassed;
        return;
    }
    const std::size_t i = base + vw;

    // The eviction decision reads only the packed arrays: the victim's
    // Block row is written below, never loaded.
    if (tags_[i] != kNoTag) {
        ++ctr_.evictions;
        // Charge the writeback to the core whose fill evicted the victim
        // so the DRAM scheduler's per-core accounting and the downstream
        // arbiter see a complete core tag chain.
        if (dirty_[i] && next_)
            writeBack(tags_[i] << kBlockShift, core, now);
    }

    Block& victim = blocks_[i];
    victim.prefetched = prefetched;
    victim.prefetchOriginHere = prefetched && origin_here;
    victim.fillAt = now;
    tags_[i] = blockNumber(addr);
    lru_[i] = ++lruTick_;
    dirty_[i] = store;
}

void
Cache::writeBack(Addr addr, std::int32_t core, Cycle now)
{
    ++ctr_.writebacks;
    if (functional_) {
        // The hop into DRAM carries no state the functional pass needs;
        // only cache-to-cache writebacks walk the chain.
        if (nextCache_)
            nextCache_->acceptWriteback(addr, core, now);
        return;
    }
    MemRequest* wb = pool_->acquire();
    wb->addr = addr;
    wb->kind = ReqKind::Writeback;
    wb->coreId = core;
    next_->access(wb, now);
}

void
Cache::notifyListener(Addr addr, PC pc, int core, bool store, bool hit,
                      bool prefetch_hit, Cycle now)
{
    AccessInfo info;
    info.addr = addr;
    info.pc = pc;
    info.coreId = core;
    info.cycle = now;
    info.hit = hit;
    info.prefetchHit = prefetch_hit;
    info.type = store ? AccessType::Store : AccessType::Load;
    listener_->onAccess(info);
}

void
Cache::respond(MemRequest* req, Cycle when)
{
    if (!req->client) {
        disposeRequest(req);
        return;
    }
    if (req->directRespond) {
        // The client opted into immediate delivery: its requestDone only
        // records the data-ready cycle (@p when may be in the future),
        // so skipping the Respond event round-trip through the queue is
        // unobservable -- the core consults doneAt against the current
        // cycle, never against wall delivery order. Core::nextWake folds
        // the recorded cycle back into the idle fast-forward so the wake
        // the dropped event would have provided is preserved.
        req->client->requestDone(*req, when);
        disposeRequest(req);
        return;
    }
    // An upstream cache installs the fill, evicts (writing back to this
    // level) and wakes its own waiters when it handles the response, so
    // it must run at @p when in time order, not inline from here.
    eq_.schedule(when, EventCallback::make(EventKind::Respond,
                                           reqDesc(nullptr, req)));
}

void
Cache::setFunctionalMode(bool on)
{
    SL_REQUIRE(mshrs_.empty() && outstandingDownstream_ == 0,
               params_.name.empty() ? "cache" : params_.name.c_str(),
               "functional-mode switch with " << mshrs_.size()
                   << " MSHRs outstanding");
    functional_ = on;
}

void
Cache::functionalAccess(Addr addr, PC pc, int core, bool store, Cycle now)
{
    SL_CHECK_AT(functional_, params_.name.c_str(), now,
                "functionalAccess on a cache in detailed mode");
    addr = blockAlign(addr);
    if (demandLookup(addr, pc, core, store, true, now))
        return;
    // Downstream demand misses forward as loads (store-ness does not
    // propagate, matching the detailed miss path); install on unwind
    // with the dirty bit only at this level.
    if (nextCache_)
        nextCache_->functionalAccess(addr, pc, core, false, now);
    installFill(addr, false, false, store, core, now);
}

void
Cache::functionalPrefetch(Addr addr, Cycle now)
{
    ++ctr_.prefetchRequests;
    if (const std::size_t i = findWay(addr); i != kNoWay) {
        lru_[i] = ++lruTick_;
        return;
    }
    if (nextCache_)
        nextCache_->functionalPrefetch(addr, now);
    installFill(addr, true, false, false, 0, now);
}

void
Cache::issuePrefetch(Addr addr, PC pc, int core_id, Cycle now)
{
    if (functional_) {
        // Prefetchers keep training (and issuing) during functional
        // warmup so their metadata and the cache contents they imply
        // stay coherent in the snapshot. Resident blocks count redundant
        // exactly like the detailed path; fresh blocks install down the
        // chain with the prefetched/origin bits the detailed fill unwind
        // would set.
        (void)pc;
        (void)core_id;
        addr = blockAlign(addr);
        ++ctr_.prefetchRequests;
        if (findWay(addr) != kNoWay) {
            ++ctr_.prefetchRedundant;
            return;
        }
        ++ctr_.prefetchIssued;
        // The fill lands a DRAM-round-trip later, not instantly: demand
        // accesses that race an in-flight prefetch must keep missing (and
        // keep training the temporal prefetchers) exactly as they would
        // in the detailed run — instant fills starve the training stream
        // and the snapshot's metadata underperforms after restore.
        Cache* self = this;
        eq_.schedule(now + kFunctionalFillDelay, [self, addr](Cycle when) {
            if (!self->functional_ || self->findWay(addr) != kNoWay)
                return;
            if (self->nextCache_)
                self->nextCache_->functionalPrefetch(addr, when);
            self->installFill(addr, true, true, false, 0, when);
        });
        return;
    }
    if (pressure_ && !pressure_->admitPrefetch(now)) {
        // Memory system saturated: the prefetch is a hint, shed it
        // before it costs an MSHR, a downstream slot, and DRAM bandwidth
        // a demand miss needs more.
        ++droppedPressureCtr_;
        return;
    }
    MemRequest* req = pool_->acquire();
    req->addr = blockAlign(addr);
    req->pc = pc;
    req->coreId = core_id;
    req->kind = ReqKind::Prefetch;
    req->client = nullptr;
    req->origin = this;
    access(req, now);
}

Cycle
Cache::metadataAccess(bool write, Cycle now)
{
    const Cycle start = port_.reserve(now, params_.ports);
    ++(write ? ctr_.metadataWrites : ctr_.metadataReads);
    return start + params_.latency;
}

void
Cache::metadataBulkTraffic(std::uint64_t blocks, Cycle now)
{
    stats_.counter("metadata_shuffle_blocks") += blocks;
    // Bulk movement occupies the cache ports for blocks/ports cycles
    // (each block is one read plus one write; charge two accesses).
    const Cycle busy = 2 * blocks / params_.ports;
    if (port_.time < now)
        port_.time = now;
    port_.time += busy;
}

void
Cache::audit(Cycle now) const
{
    const char* comp = params_.name.c_str();
    SL_CHECK_AT(mshrs_.size() <= params_.mshrs, comp, now,
                "MSHR occupancy " << mshrs_.size() << " exceeds the "
                                  << params_.mshrs << " configured MSHRs");
    SL_CHECK_AT(mshrs_.size() == outstandingDownstream_, comp, now,
                "MSHR/in-flight mismatch: " << mshrs_.size()
                    << " MSHRs allocated but " << outstandingDownstream_
                    << " downstream requests in flight (a miss request "
                       "was lost or double-answered)");
    // A parked request implies the table is still full OR a wake probe
    // is in flight toward it: requests only park on a full table, and
    // the sole release site (requestDone) immediately wakes one waiter
    // per freed slot. A waiter coexisting with a free slot and zero
    // pending probes is stranded -- a deadlock the scheduler must never
    // introduce.
    SL_CHECK_AT(mshrFreeWaiters_.empty() || mshrs_.full() ||
                    wakeProbes_ > 0,
                comp, now,
                mshrFreeWaiters_.size()
                    << " requests parked on a free MSHR with no wake "
                       "in flight (table holds " << mshrs_.size() << "/"
                    << params_.mshrs << " entries)");
    for (const MemRequest* w : mshrFreeWaiters_)
        SL_CHECK_AT(w != nullptr && w->retried, comp, now,
                    "corrupt mshr-free waiter");
    mshrs_.forEach([&](const Mshr& m) {
        SL_CHECK_AT(m.addr == blockAlign(m.addr), comp, now,
                    "corrupt MSHR key 0x" << std::hex << m.addr
                                          << std::dec);
        SL_CHECK_AT(mshrs_.find(m.addr) == &m, comp, now,
                    "MSHR for block 0x" << std::hex << m.addr << std::dec
                                        << " is unreachable from its "
                                           "probe chain");
        for (const MemRequest* w : m.waiters)
            SL_CHECK_AT(w != nullptr && w->addr == m.addr, comp, now,
                        "MSHR waiter does not match its block");
    });
    for (std::size_t i = 0; i < tags_.size(); ++i) {
        if (tags_[i] == kNoTag)
            continue;
        const std::size_t set = i / params_.ways;
        const std::uint32_t home = setIndex(tags_[i] << kBlockShift);
        SL_CHECK_AT(home == set, comp, now,
                    "block tag 0x" << std::hex << tags_[i] << std::dec
                                   << " homed to set " << home
                                   << " found in set " << set);
        SL_CHECK_AT(lru_[i] <= lruTick_, comp, now,
                    "LRU stamp from the future");
    }
}

void
Cache::reclaimReservedWays(std::uint32_t set, Cycle now)
{
    const std::size_t base = static_cast<std::size_t>(set) * params_.ways;
    const std::size_t end = base + reservedWays(set);
    for (std::size_t i = base; i < end; ++i) {
        if (tags_[i] == kNoTag)
            continue;
        ++stats_.counter("partition_reclaims");
        // Charged to core 0, whichever core's partition grew.
        if (dirty_[i] && next_)
            writeBack(tags_[i] << kBlockShift, 0, now);
        tags_[i] = kNoTag;
        dirty_[i] = 0;
    }
}

void
Cache::serializeState(Serializer& s, const SnapshotCtx& ctx)
{
    const char* comp = params_.name.empty() ? "cache" : params_.name.c_str();
    s.marker(0x43414348, comp);
    // Geometry cross-check: a snapshot taken under different cache
    // parameters must fail loudly, not reinterpret the block array.
    std::uint32_t sets = numSets_;
    std::uint32_t ways = params_.ways;
    s.io(sets);
    s.io(ways);
    SL_CHECK(sets == numSets_ && ways == params_.ways, comp,
             "snapshot geometry (" << sets << " sets x " << ways
             << " ways) does not match this cache (" << numSets_ << " x "
             << params_.ways << ")");
    // fillWaiters_ is scratch: requestDone clears it on entry and the
    // stale pointers left behind are dead by the time the cycle ends, so
    // it carries no state across the snapshot point -- just drop the
    // stale pointers on restore.
    if (s.loading())
        fillWaiters_.clear();
    static_assert(std::is_trivially_copyable_v<Block> &&
                  std::has_unique_object_representations_v<Block>);
    s.io(blocks_);
    s.io(tags_);
    s.io(lru_);
    s.io(dirty_);
    s.io(lruTick_);
    std::uint64_t outstanding = outstandingDownstream_;
    s.io(outstanding);
    outstandingDownstream_ = static_cast<std::size_t>(outstanding);
    std::uint64_t lanes = lanes_.size();
    s.io(lanes);
    SL_CHECK(lanes == lanes_.size(), comp,
             "snapshot port lane count " << lanes << " does not match "
             "this cache's " << lanes_.size());
    s.io(port_.time);
    s.io(port_.count);
    for (PortCursor& l : lanes_) {
        s.io(l.time);
        s.io(l.count);
    }
    mshrs_.serializeState(s, ctx);
    // The wakeup list is live state: parked requests exist ONLY here (no
    // Retry event references them), so dropping them would leak the
    // requests and wedge their cores.
    s.marker(0x57414b45, comp);
    std::uint64_t n = mshrFreeWaiters_.size();
    s.io(n);
    if (s.loading())
        mshrFreeWaiters_.assign(static_cast<std::size_t>(n), nullptr);
    for (MemRequest*& w : mshrFreeWaiters_)
        ctx.ioReq(s, w);
    // In-flight wake probes ride along with the waiter list: the event
    // queue restores their Retry events, and retryNow decrements this
    // on each, so the two must agree or the probe accounting check trips.
    std::uint64_t probes = wakeProbes_;
    s.io(probes);
    wakeProbes_ = static_cast<std::size_t>(probes);
    stats_.serializeState(s);
}

} // namespace sl
