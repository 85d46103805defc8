#include "temporal/pairwise_store.hh"

#include <algorithm>
#include <bit>

#include "common/hash.hh"

namespace sl
{

PairwiseStore::PairwiseStore(const PairwiseStoreParams& params)
    : params_(params), ways_(params.maxWays), stats_("pairwise_store")
{
    // Powers of two turn the per-access modulo chain into masks over a
    // single hash; every LLC geometry SystemConfig accepts is one.
    SL_REQUIRE(std::has_single_bit(params_.sets), "pairwise_store",
               "set count must be a power of two, got " << params_.sets);
    SL_REQUIRE(params_.maxWays > 0, "pairwise_store",
               "store needs at least one way");
    SL_REQUIRE(params_.entriesPerBlock > 0, "pairwise_store",
               "store needs at least one entry per block");

    setMask_ = params_.sets - 1;
    if (params_.sampledSets == 0) {
        // Nothing sampled: (set & 0) == 1 is never true.
        sampledMask_ = 0;
        sampledMatch_ = 1;
    } else if (params_.sampledSets >= params_.sets) {
        // Everything sampled: (set & 0) == 0 is always true.
        params_.sampledSets = params_.sets;
        sampledMask_ = 0;
        sampledMatch_ = 0;
    } else {
        SL_REQUIRE(std::has_single_bit(params_.sampledSets),
                   "pairwise_store",
                   "sampled-set count must be a power of two, got "
                       << params_.sampledSets);
        sampledMask_ = params_.sets / params_.sampledSets - 1;
        sampledMatch_ = 0;
    }

    slots_.resize(static_cast<std::size_t>(params_.sets) *
                  params_.maxWays * params_.entriesPerBlock);
    if (params_.utilityRepl)
        reusePred_.assign(1024, 0);
}

std::uint32_t
PairwiseStore::setIndex(Addr trigger) const
{
    return static_cast<std::uint32_t>(mix64(trigger)) & setMask_;
}

std::uint64_t
PairwiseStore::takeSampledHits()
{
    const std::uint64_t n = sampledHitsEpoch_;
    sampledHitsEpoch_ = 0;
    return n;
}

unsigned
PairwiseStore::waysFor(std::uint32_t set) const
{
    // Sampled sets stay at full size so the partitioner can always
    // observe metadata utility, even with the partition sized to zero.
    return sampledSet(set) ? params_.maxWays : ways_;
}

unsigned
PairwiseStore::wayFromHash(std::uint64_t h, unsigned ways) const
{
    // Second-level index over the *currently allocated* ways: this is the
    // function that changes on resize and misplaces entries (Fig 5a).
    // Kept as a modulo -- the way count is rarely a power of two.
    return ways == 0 ? 0 : static_cast<unsigned>((h >> 32) % ways);
}

PairwiseStore::Entry*
PairwiseStore::findEntry(Addr trigger)
{
    return findEntry(trigger, mix64(trigger));
}

PairwiseStore::Entry*
PairwiseStore::findEntry(Addr trigger, std::uint64_t h)
{
    const std::uint32_t set = static_cast<std::uint32_t>(h) & setMask_;
    const unsigned ways = waysFor(set);
    if (ways == 0)
        return nullptr;
    Entry* blk = &slots_[blockBase(set, wayFromHash(h, ways))];
    for (unsigned i = 0; i < params_.entriesPerBlock; ++i) {
        Entry& e = blk[i];
        if (e.valid() && e.trigger == trigger)
            return &e;
    }
    return nullptr;
}

std::optional<Addr>
PairwiseStore::lookup(Addr trigger)
{
    // ONE hash per operation: set index, way index, sampled-set test,
    // and (for utilityRepl inserts) the reuse-predictor slot all derive
    // from this value.
    const std::uint64_t h = mix64(trigger);
    const std::uint32_t set = static_cast<std::uint32_t>(h) & setMask_;
    if (Entry* e = findEntry(trigger, h)) {
        ++hitsCtr_;
        if (sampledSet(set)) {
            ++sampledHitsCtr_;
            ++sampledHitsEpoch_;
        }
        e->meta = Entry::kValid; // RRPV -> 0
        Addr target = e->target;
        // Injected fault: the metadata read may return a flipped bit.
        // Only the returned copy is corrupted, as a transient read error
        // would leave the stored entry intact.
        if (faults_ && faults_->corruptMetadataTarget(target))
            ++corruptReadsCtr_;
        return target;
    }
    ++missesCtr_;
    return std::nullopt;
}

void
PairwiseStore::insert(Addr trigger, Addr target)
{
    const std::uint64_t h = mix64(trigger);
    const std::uint32_t set = static_cast<std::uint32_t>(h) & setMask_;
    const unsigned ways = waysFor(set);
    if (ways == 0)
        return;
    ++insertsCtr_;

    if (Entry* e = findEntry(trigger, h)) {
        if (params_.utilityRepl) {
            // TP-style utility: the *correlation* repeating is the signal,
            // not the trigger alone.
            auto& p = reusePred_[h & (reusePred_.size() - 1)];
            if (e->target == target)
                p = static_cast<std::int8_t>(std::min(8, p + 1));
            else
                p = static_cast<std::int8_t>(std::max(-8, p - 2));
        }
        e->target = target;
        e->meta = Entry::kValid; // RRPV -> 0
        return;
    }

    // Bimodal (BRRIP-style) insertion: most new entries arrive as
    // near-immediate eviction candidates; a protected minority persists,
    // which keeps a resident subset alive under cyclic miss streams.
    std::uint8_t insert_rrpv = (mix64(trigger ^ 0x5bd1) & 7) == 0 ? 2 : 3;
    if (params_.utilityRepl) {
        const auto pred = reusePred_[h & (reusePred_.size() - 1)];
        if (pred < 0)
            insert_rrpv = 3; // predicted useless: evict first
        else if (pred > 2)
            insert_rrpv = 1; // proven stable correlation: protect
    }

    Entry* blk = &slots_[blockBase(set, wayFromHash(h, ways))];
    const unsigned epb = params_.entriesPerBlock;
    // SRRIP victim selection among the block's slots.
    while (true) {
        for (unsigned i = 0; i < epb; ++i) {
            if (!blk[i].valid()) {
                blk[i].fill(trigger, target, insert_rrpv);
                ++liveEntries_;
                return;
            }
        }
        for (unsigned i = 0; i < epb; ++i) {
            if (blk[i].rrpv() >= 3) {
                ++evictionsCtr_;
                blk[i].fill(trigger, target, insert_rrpv);
                return;
            }
        }
        // All slots valid (checked above), so a bare increment ages the
        // RRPV bits without touching the valid bit.
        for (unsigned i = 0; i < epb; ++i)
            ++blk[i].meta;
    }
}

void
PairwiseStore::probeSampled(Addr trigger)
{
    const std::uint64_t h = mix64(trigger);
    const std::uint32_t set = static_cast<std::uint32_t>(h) & setMask_;
    if (!sampledSet(set))
        return;
    if (findEntry(trigger, h)) {
        ++sampledHitsCtr_;
        ++sampledHitsEpoch_;
    }
}

void
PairwiseStore::erase(Addr trigger)
{
    if (Entry* e = findEntry(trigger)) {
        e->meta = 3; // invalid, distant RRPV
        --liveEntries_;
    }
}

void
PairwiseStore::audit(Cycle now) const
{
    std::uint64_t live = 0;
    for (std::uint32_t s = 0; s < params_.sets; ++s) {
        for (unsigned w = 0; w < params_.maxWays; ++w) {
            const Entry* blk = &slots_[blockBase(s, w)];
            for (unsigned i = 0; i < params_.entriesPerBlock; ++i) {
                const Entry& e = blk[i];
                if (!e.valid())
                    continue;
                ++live;
                SL_CHECK_AT(setIndex(e.trigger) == s, "pairwise_store",
                            now,
                            "entry for trigger 0x"
                                << std::hex << e.trigger << std::dec
                                << " misplaced in set " << s);
                SL_CHECK_AT(w < waysFor(s), "pairwise_store", now,
                            "live entry in deallocated way " << w
                                << " of set " << s);
                SL_CHECK_AT(e.rrpv() <= 3, "pairwise_store", now,
                            "RRPV " << unsigned(e.rrpv())
                                    << " out of range in set " << s);
            }
        }
    }
    SL_CHECK_AT(live == liveEntries_, "pairwise_store", now,
                "live-entry counter " << liveEntries_ << " disagrees with "
                                      << live << " valid slots");
}

std::uint64_t
PairwiseStore::resize(unsigned ways)
{
    SL_REQUIRE(ways <= params_.maxWays, "pairwise_store",
               "resize to " << ways << " ways exceeds the configured max "
                            << params_.maxWays);
    if (ways == ways_)
        return 0;

    const unsigned old_ways = ways_;
    ways_ = ways;

    // Rearrangement (sampled sets are exempt -- they never re-index).
    // Every entry whose way index changed under the new function must
    // move through the LLC; with ways == 0 everything is discarded.
    std::vector<Entry> moved;
    for (std::uint32_t s = 0; s < params_.sets; ++s) {
        if (sampledSet(s))
            continue;
        for (unsigned w = 0; w < old_ways; ++w) {
            Entry* blk = &slots_[blockBase(s, w)];
            for (unsigned i = 0; i < params_.entriesPerBlock; ++i) {
                Entry& e = blk[i];
                if (!e.valid())
                    continue;
                if (ways == 0) {
                    e.meta = 3;
                    --liveEntries_;
                    continue;
                }
                if (wayFromHash(mix64(e.trigger), ways) != w ||
                    w >= ways) {
                    moved.push_back(e);
                    e.meta = 3;
                    --liveEntries_;
                }
            }
        }
    }
    for (const auto& e : moved)
        insert(e.trigger, e.target);
    stats_.counter("rearranged_entries") += moved.size();

    // Each moved entry implies reading its old block and writing its new
    // one; entries within a block batch, so charge ~entries/epb blocks,
    // times two for the read+write.
    return 2 * ((moved.size() + params_.entriesPerBlock - 1) /
                params_.entriesPerBlock);
}

} // namespace sl
