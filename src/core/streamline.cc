#include "core/streamline.hh"

#include <algorithm>
#include <cassert>

#include "common/hash.hh"
#include "prefetch/registry.hh"

namespace sl
{

StreamlinePrefetcher::StreamlinePrefetcher(const StreamlineConfig& cfg)
    : Prefetcher("streamline"), cfg_(cfg), tu_(cfg.tuEntries)
{
    assert(cfg.streamLength >= 2 && cfg.streamLength <= kMaxStreamLength);
}

void
StreamlinePrefetcher::attach(Cache* owner, Cache* llc, EventQueue* eq,
                             int core_id, unsigned total_cores)
{
    Prefetcher::attach(owner, llc, eq, core_id, total_cores);

    StreamStoreParams sp;
    sp.sets = metadataSets();
    sp.ways = cfg_.metaWaysPerSet;
    sp.streamLength = cfg_.streamLength;
    sp.partialTagBits = cfg_.partialTagBits;
    sp.tagged = cfg_.taggedSetPartition;
    sp.repl = cfg_.useTpMockingjay ? MetaRepl::TpMockingjay
                                   : MetaRepl::Srrip;
    sp.skewedIndex = cfg_.skewedIndexing;
    sp.sampledSets = std::max<unsigned>(4, sp.sets / 32);
    store_.emplace(sp);
    store_->setFaultInjector(faults_);

    const double corr_scale =
        static_cast<double>(std::min<std::uint32_t>(64, sp.sets)) /
        sp.sampledSets;
    uadp_.emplace(sp.sets, llc_->ways(), cfg_.metaWaysPerSet,
                  cfg_.triangelPartitioner, corr_scale);

    if (cfg_.ideal)
        store_->setAllocation(1, cfg_.metaWaysPerSet);
    else if (cfg_.fixedDen > 0)
        store_->setAllocation(cfg_.fixedDen, cfg_.fixedWays);
    else // UADP starts at the half-size partition
        store_->setAllocation(denQuarters(startingAllocation(2)),
                              cfg_.metaWaysPerSet);
}

StreamlinePrefetcher::TuEntry&
StreamlinePrefetcher::tuFor(PC pc)
{
    TuEntry& tu = tu_[mix64(pc) % tu_.size()];
    if (!tu.valid || tu.pc != pc) {
        // Field-wise reset: reassigning a fresh TuEntry would free and
        // re-reserve the buffer vector on every conflict, and this runs
        // on the per-miss path.
        tu.pc = pc;
        tu.valid = true;
        tu.cur = StreamEntry{};
        tu.prevTail = 0;
        tu.hasTrigger = false;
        tu.buffer.clear();
        tu.epochAccesses = 0;
        tu.epochInsertions = 0;
        tu.degree = cfg_.maxDegree;
        // The buffer needs at least one slot for stream alignment even
        // in the -MB ablation; after the first conflict this is a no-op.
        tu.buffer.reserve(std::max(1u, cfg_.bufferEntries));
    }
    return tu;
}

double
StreamlinePrefetcher::correlationHitRate() const
{
    const std::uint64_t hits =
        stats_.get("buffer_hits") + store_->stats().get("hits");
    const std::uint64_t lookups =
        stats_.get("buffer_hits") + store_->stats().get("hits") +
        store_->stats().get("misses");
    return ratio(hits, lookups);
}

void
StreamlinePrefetcher::onAccess(const AccessInfo& info)
{
    // Train on L2 misses and on the first demand use of a prefetch.
    if (info.hit && !info.prefetchHit)
        return;

    const Addr block = blockNumber(info.addr);
    ++trainEventsCtr_;

    if (info.prefetchHit) {
        ++usefulFeedbackCtr_;
        uadp_->onPrefetchUseful();
    }

    // Feed the utility-aware partitioner with the L2-miss data stream,
    // and sample shared-memory pressure into the same epoch (no-op on
    // single-core systems, where the probe is null).
    samplePressure();
    uadp_->onDataAccess(
        static_cast<std::uint32_t>(block % metadataSets()), block);

    TuEntry& tu = tuFor(info.pc);

    ++tu.epochAccesses;
    if (cfg_.degreeControl && tu.epochAccesses >= cfg_.degreeEpoch)
        rollDegreeEpoch(tu);

    trainOn(tu, block, info.cycle);
    issuePrefetches(tu, block, info.cycle);

    // Dynamic partitioning epoch (§IV-E4), with the shared-LLC release
    // policy (prefetcher.hh) deciding between and at UADP's epochs.
    if (!cfg_.ideal && cfg_.fixedDen == 0) {
        const unsigned held = denQuarters(store_->allocationDen());
        const unsigned q =
            uadp_->shouldResize()
                ? pressureAtEpoch(denQuarters(uadp_->pickDenominator()),
                                  held)
                : pressureBetweenEpochs(held, 4); // 4/4: full store
        applyAllocation(denQuarters(q), cfg_.metaWaysPerSet, info.cycle);
    }
}

void
StreamlinePrefetcher::trainOn(TuEntry& tu, Addr block, Cycle now)
{
    if (!tu.hasTrigger) {
        tu.cur = StreamEntry{};
        tu.cur.trigger = block;
        tu.hasTrigger = true;
        return;
    }
    // Ignore same-block repeats (an L2 miss and its prefetch-hit echo).
    if (tu.cur.lastAddress() == block)
        return;

    tu.cur.targets[tu.cur.length++] = block;
    if (tu.cur.length >= cfg_.streamLength)
        completeEntry(tu, now);
}

void
StreamlinePrefetcher::completeEntry(TuEntry& tu, Cycle now)
{
    const StreamEntry e = tu.cur;
    const unsigned L = cfg_.streamLength;

    // ---- stream alignment (§IV-B2) ----
    // Look for a buffered entry that contains e's trigger somewhere other
    // than its final position: the streams overlap and storing both would
    // be redundant (Fig 3) or stale (Fig 4).
    const StreamEntry* match = nullptr;
    int match_pos = -1;
    for (const auto& old : tu.buffer) {
        const int pos = old.find(e.trigger);
        if (pos >= 0 && pos < static_cast<int>(old.length)) {
            match = &old;
            match_pos = pos;
            break;
        }
    }

    if (match) {
        ++overlapDetectedCtr_;
        // Benign redundancy (§V-C2): the overlapping address follows a
        // *different* predecessor in the two streams, so the extra copy
        // disambiguates context rather than wasting space.
        const Addr pred_old =
            match_pos == 0 ? match->trigger
                           : (match_pos == 1 ? match->trigger
                                             : match->targets[match_pos - 2]);
        if (match_pos > 0 && pred_old != tu.prevTail)
            ++benignOverlapCtr_;
    }

    if (cfg_.enableAlignment && match) {
        // Aligned entry: the old entry's trigger plus the new entry's
        // updated correlations; the new entry's final target bootstraps
        // the next stream (Fig 3b).
        StreamEntry aligned;
        aligned.trigger = match->trigger;
        aligned.targets[0] = e.trigger;
        for (unsigned i = 0; i + 1 < L; ++i)
            aligned.targets[i + 1] = e.targets[i];
        aligned.length = static_cast<std::uint8_t>(L);

        ++alignedCtr_;
        writeEntry(tu, aligned, now, /*allow_realign=*/false);

        // Bootstrap the next stream from the leftover correlation.
        tu.prevTail = L >= 2 ? e.targets[L - 2] : e.trigger;
        tu.cur = StreamEntry{};
        tu.cur.trigger = tu.prevTail;
        tu.cur.targets[0] = e.targets[L - 1];
        tu.cur.length = 1;
        // Replace the stale buffered entry with the aligned one.
        for (auto& old : tu.buffer) {
            if (old.trigger == aligned.trigger) {
                old = aligned;
                break;
            }
        }
        return;
    }

    if (match)
        ++redundantStoredCtr_;

    writeEntry(tu, e, now);
    bufferInsert(tu, e);

    // Chain: the last address becomes the next trigger (GHB-style streams
    // without per-access duplication).
    tu.prevTail = L >= 2 ? e.targets[L - 2] : e.trigger;
    tu.cur = StreamEntry{};
    tu.cur.trigger = e.lastAddress();
}

void
StreamlinePrefetcher::writeEntry(TuEntry& tu, const StreamEntry& e,
                                 Cycle now, bool allow_realign)
{
    // A released store bills no LLC metadata ports.
    const bool bill = !cfg_.ideal && !released(store_->allocationDen());
    InsertOutcome out = store_->insert(e, tu.pc);

    if (out == InsertOutcome::Filtered && allow_realign &&
        cfg_.realignment && tu.prevTail != 0) {
        // Stream realignment (§IV-C): shift the window back by one access
        // so the entry lands on an unfiltered trigger.
        StreamEntry realigned;
        realigned.trigger = tu.prevTail;
        realigned.targets[0] = e.trigger;
        for (unsigned i = 0; i + 1 < e.length; ++i)
            realigned.targets[i + 1] = e.targets[i];
        realigned.length = e.length;
        ++realignAttemptsCtr_;
        out = store_->insert(realigned, tu.pc);
        if (out != InsertOutcome::Filtered) {
            ++realignSuccessCtr_;
            if (out != InsertOutcome::Bypassed && bill)
                llc_->metadataAccess(true, now);
            store_->sampleCorrelation(realigned.trigger,
                                      realigned.targets[0], tu.pc);
        }
        return;
    }

    if (out != InsertOutcome::Filtered) {
        // One LLC write per completed stream entry -- the 4x traffic
        // reduction over pairwise formats (§IV-A). Bypassed entries are
        // still sampled (the sampler is how bypass decisions improve).
        if (out != InsertOutcome::Bypassed && bill)
            llc_->metadataAccess(true, now);
        store_->sampleCorrelation(e.trigger, e.targets[0], tu.pc);
    }
}

void
StreamlinePrefetcher::bufferInsert(TuEntry& tu, const StreamEntry& e)
{
    const unsigned cap = std::max(1u, cfg_.bufferEntries);
    for (auto& old : tu.buffer) {
        if (old.trigger == e.trigger) {
            old = e;
            return;
        }
    }
    if (tu.buffer.size() >= cap)
        tu.buffer.erase(tu.buffer.begin());
    tu.buffer.push_back(e);
}

const StreamEntry*
StreamlinePrefetcher::bufferFind(const TuEntry& tu, Addr block,
                                 int* pos) const
{
    for (const auto& e : tu.buffer) {
        const int p = e.find(block);
        if (p >= 0 && p < static_cast<int>(e.length)) {
            *pos = p;
            return &e;
        }
    }
    return nullptr;
}

void
StreamlinePrefetcher::issuePrefetches(TuEntry& tu, Addr block, Cycle now)
{
    const unsigned degree =
        cfg_.degreeControl ? tu.degree : cfg_.maxDegree;
    // A released store walks the chain for the utility measurement but
    // issues nothing (see Prefetcher::released).
    const bool suppress = released(store_->allocationDen());
    unsigned issued = 0;
    Addr cursor = block;
    Cycle t = now;

    for (unsigned hops = 0; issued < degree && hops < degree + 4; ++hops) {
        int pos = -1;
        const StreamEntry* entry =
            cfg_.enableBuffer ? bufferFind(tu, cursor, &pos) : nullptr;

        if (entry) {
            ++bufferHitsCtr_;
        } else {
            // One hash serves the allocation check, the store lookup,
            // and the sampled-set test (previously three mix64 calls).
            const StreamStore::Ref ref = store_->refOf(cursor);
            // Filtered indexing: an unallocated home set means the entry
            // cannot exist -- known from the index alone, no LLC read.
            if (!store_->allocated(ref.set)) {
                ++filteredSkippedCtr_;
                ++missedTriggersCtr_;
                break;
            }
            // Metadata read from the LLC partition (§IV-E7 step 3).
            // A released store's sampled sets read as shadow tags at
            // fixed latency -- no shared LLC port traffic.
            t = cfg_.ideal || suppress
                    ? t + llc_->latency()
                    : llc_->metadataAccess(false, t);
            ++tu.epochInsertions;
            auto fetched = store_->lookupAt(ref, cursor);
            if (!fetched) {
                ++missedTriggersCtr_;
                break;
            }
            if (store_->sampledSet(ref.set))
                uadp_->onSampledCorrelationHit();
            bufferInsert(tu, *fetched);
            // Locate the fetched entry in the buffer (bufferInsert may
            // have merged it into an existing slot).
            entry = nullptr;
            for (const auto& b : tu.buffer) {
                if (b.trigger == fetched->trigger) {
                    entry = &b;
                    break;
                }
            }
            assert(entry);
            pos = entry->find(cursor);
            if (pos < 0 || pos >= static_cast<int>(entry->length))
                break;
        }

        // Issue the targets beyond the cursor's position.
        const Addr prev_cursor = cursor;
        for (unsigned i = static_cast<unsigned>(pos);
             i < entry->length && issued < degree; ++i) {
            const Addr target = entry->targets[i];
            if (!suppress) {
                prefetch(target << kBlockShift, tu.pc, t);
                uadp_->onPrefetchIssued();
            }
            ++issued;
            cursor = target;
        }
        if (issued < degree)
            cursor = entry->lastAddress();
        if (cursor == prev_cursor)
            break; // no forward progress possible
    }

    if (!suppress)
        degreeIssuedCtr_ += issued;
}

void
StreamlinePrefetcher::rollDegreeEpoch(TuEntry& tu)
{
    // §IV-E6: a stable PC hits in the metadata buffer ~75% of the time,
    // needing ~256 reads per 1024 accesses; instability shows up as extra
    // metadata-buffer insertions.
    const unsigned ins = tu.epochInsertions;
    if (ins < 400)
        tu.degree = cfg_.maxDegree;
    else if (ins < 600)
        tu.degree = std::min(cfg_.maxDegree, 3u);
    else if (ins < 800)
        tu.degree = std::min(cfg_.maxDegree, 2u);
    else
        tu.degree = 1;
    tu.epochAccesses = 0;
    tu.epochInsertions = 0;
}

void
StreamlinePrefetcher::applyAllocation(unsigned den, unsigned ways,
                                      Cycle now)
{
    const unsigned old_den = store_->allocationDen();
    if (den == old_den)
        return;
    ++stats_.counter("resizes");
    store_->setAllocation(den, ways);
    // Newly allocated sets evict their resident data blocks; filtered
    // indexing means *no metadata moves* (the win over Triangel, §IV-C).
    for (std::uint32_t s = 0; s < metadataSets(); ++s) {
        if (store_->allocated(s))
            llc_->reclaimReservedWays(physicalSet(s), now);
    }
}

void
registerStreamlinePrefetchers(PrefetcherRegistry& reg)
{
    reg.add("streamline", PrefetcherRegistry::L2,
            [](const PrefetcherTuning& t) -> PrefetcherFactory {
                const StreamlineConfig cfg =
                    t.streamline ? *t.streamline : StreamlineConfig{};
                return [cfg](int) {
                    return std::make_unique<StreamlinePrefetcher>(cfg);
                };
            });
}

} // namespace sl
