#include "core/stream_store.hh"

#include <algorithm>
#include <bit>

#include "common/hash.hh"

namespace sl
{

namespace
{

constexpr bool
powerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

StreamStore::StreamStore(const StreamStoreParams& params)
    : params_(params), epb_(streamEntriesPerBlock(params.streamLength)),
      ways_(params.ways),
      slots_(static_cast<std::size_t>(params.sets) * params.ways *
             streamEntriesPerBlock(params.streamLength)),
      occ_(static_cast<std::size_t>(params.sets) * params.ways, 0),
      stats_("stream_store")
{
    SL_REQUIRE(params_.streamLength > 0 &&
                   params_.streamLength <= kMaxStreamLength,
               "stream_store", "stream length must be in [1, "
                                   << kMaxStreamLength << "], got "
                                   << params_.streamLength);
    SL_REQUIRE(epb_ > 0, "stream_store",
               "stream length " << params_.streamLength
                                << " leaves no entries per block");
    SL_REQUIRE(params_.ways > 0, "stream_store",
               "store needs at least one metadata way");
    SL_REQUIRE(powerOfTwo(params_.sets), "stream_store",
               "set count must be a power of two, got " << params_.sets);
    SL_REQUIRE(powerOfTwo(params_.sampledSets) &&
                   params_.sets >= params_.sampledSets,
               "stream_store",
               "sampled sets must be a power of two no larger than the "
               "set count, got "
                   << params_.sampledSets << " of " << params_.sets);
    SL_REQUIRE(params_.partialTagBits > 0 && params_.partialTagBits <= 16,
               "stream_store", "partial tags are 1..16 bits, got "
                                   << params_.partialTagBits);
    SL_REQUIRE(epb_ <= 16, "stream_store",
               "occupancy words hold at most 16 slots per way");
    setMask_ = params_.sets - 1;
    sampledMask_ = params_.sets / params_.sampledSets - 1;
    fullMask_ = static_cast<std::uint16_t>((1u << epb_) - 1);
    if (params_.repl == MetaRepl::TpMockingjay)
        tpmj_ = std::make_unique<TpMockingjay>(params_.sets);
}

StreamStore::Ref
StreamStore::refOf(Addr trigger) const
{
    const std::uint64_t h = mix64(trigger);
    std::uint32_t set;
    if (!params_.skewedIndex) {
        set = static_cast<std::uint32_t>(h) & setMask_;
    } else {
        // Skewed indexing (§V-D6): bias triggers toward sets that remain
        // allocated at small partition sizes. 40% of triggers map onto
        // multiples of 8, 30% onto multiples of 4, 20% onto multiples of
        // 2, and 10% anywhere.
        const unsigned r = static_cast<unsigned>(h % 100);
        const std::uint64_t h2 = h / 100;
        unsigned align;
        if (r < 40)
            align = 8;
        else if (r < 70)
            align = 4;
        else if (r < 90)
            align = 2;
        else
            align = 1;
        set = static_cast<std::uint32_t>((h2 % (params_.sets / align)) *
                                         align);
    }
    return Ref{set, partialTagFromHash(h, params_.partialTagBits), h};
}

std::uint16_t&
StreamStore::occWord(std::uint32_t set, unsigned way)
{
    return occ_[static_cast<std::size_t>(set) * params_.ways + way];
}

void
StreamStore::markSlot(std::uint32_t set, unsigned way, unsigned idx,
                      bool on)
{
    std::uint16_t& w = occWord(set, way);
    if (on)
        w = static_cast<std::uint16_t>(w | (1u << idx));
    else
        w = static_cast<std::uint16_t>(w & ~(1u << idx));
}

void
StreamStore::setDenominator(unsigned set_den)
{
    setDen_ = set_den;
    denPow2_ = powerOfTwo(setDen_);
    denMask_ = setDen_ - 1;
}

std::uint64_t
StreamStore::setAllocation(unsigned set_den, unsigned ways)
{
    setDenominator(set_den);
    if (ways > 0 && ways <= params_.ways)
        ways_ = ways;

    // Filtered indexing: entries in now-deallocated sets (or ways) die.
    std::uint64_t dropped = 0;
    for (std::uint32_t s = 0; s < params_.sets; ++s) {
        const bool live_set = allocated(s);
        for (unsigned w = 0; w < params_.ways; ++w) {
            if (live_set && w < ways_)
                continue;
            dropped += static_cast<unsigned>(std::popcount(occWord(s, w)));
            occWord(s, w) = 0;
        }
    }
    liveEntries_ -= dropped;
    stats_.counter("allocation_drops") += dropped;
    return dropped;
}

StreamStore::Slot*
StreamStore::slotArray(std::uint32_t set, unsigned way)
{
    return &slots_[(static_cast<std::size_t>(set) * params_.ways + way) *
                   epb_];
}

StreamStore::Slot*
StreamStore::findTrigger(std::uint32_t set, Addr trigger,
                         std::uint16_t ptag)
{
    // The partial tag is a pure function of the stored trigger, so
    // filtering on it first can never skip a true match; it turns the
    // common miss case into a byte compare per slot and skips empty
    // ways outright via the occupancy words.
    for (unsigned w = 0; w < ways_; ++w) {
        const std::uint16_t occ = occWord(set, w);
        if (occ == 0)
            continue;
        Slot* arr = slotArray(set, w);
        for (unsigned i = 0; i < epb_; ++i) {
            if (arr[i].ptag == ptag && ((occ >> i) & 1u) &&
                arr[i].entry.trigger == trigger)
                return &arr[i];
        }
    }
    return nullptr;
}

void
StreamStore::ageSet(std::uint32_t set)
{
    if (tpmj_ && tpmj_->tickSet(set)) {
        for (unsigned w = 0; w < ways_; ++w) {
            const std::uint16_t occ = occWord(set, w);
            if (occ == 0)
                continue;
            Slot* arr = slotArray(set, w);
            for (unsigned i = 0; i < epb_; ++i) {
                if (((occ >> i) & 1u) && arr[i].etr > -TpMockingjay::kMaxEtr)
                    --arr[i].etr;
            }
        }
    }
}

std::optional<StreamEntry>
StreamStore::lookupAt(const Ref& ref, Addr trigger)
{
    const std::uint32_t set = ref.set;
    if (!allocated(set)) {
        ++filteredLookupsCtr_;
        ++missesCtr_;
        return std::nullopt;
    }
    ageSet(set);
    if (Slot* s = findTrigger(set, trigger, ref.ptag)) {
        ++hitsCtr_;
        if (sampledSet(set))
            ++sampledHitsCtr_;
        // Promotion: re-predict the remaining lifetime.
        if (tpmj_)
            s->etr = static_cast<std::int8_t>(tpmj_->predict(s->pc));
        s->rrpv = 0;
        StreamEntry e = s->entry;
        // Injected fault: the metadata read may return a flipped bit in
        // one target. Only the *returned copy* is corrupted — the stored
        // entry stays intact, as a transient read error would leave it.
        if (faults_ && e.length > 0 &&
            faults_->corruptMetadataTarget(e.targets[0]))
            ++corruptReadsCtr_;
        return e;
    }
    ++missesCtr_;
    return std::nullopt;
}

StreamStore::Slot*
StreamStore::chooseVictim(const Ref& ref)
{
    const std::uint32_t set = ref.set;
    // Partial-tag aliasing constraint (§V-D5): if some way already holds
    // an entry with this partial tag, the new entry must land in that way
    // so a metadata access needs only one LLC read.
    unsigned way_lo = 0, way_hi = ways_;
    if (params_.tagged) {
        for (unsigned w = 0; w < ways_; ++w) {
            const std::uint16_t occ = occWord(set, w);
            if (occ == 0)
                continue;
            Slot* arr = slotArray(set, w);
            for (unsigned i = 0; i < epb_; ++i) {
                if (((occ >> i) & 1u) && arr[i].ptag == ref.ptag) {
                    way_lo = w;
                    way_hi = w + 1;
                    ++aliasConstrainedCtr_;
                    goto constrained;
                }
            }
        }
      constrained:;
    } else {
        // Untagged: a second-level hash pins the trigger to one way
        // (the low-associativity failure mode of Table I).
        const unsigned w =
            static_cast<unsigned>((ref.hash >> 32) % ways_);
        way_lo = w;
        way_hi = w + 1;
    }

    // A free slot wins outright; the occupancy word finds the first one
    // (matching the slot-order scan) without touching the slots.
    for (unsigned w = way_lo; w < way_hi; ++w) {
        const std::uint16_t occ = occWord(set, w);
        if (occ != fullMask_) {
            const unsigned idx = static_cast<unsigned>(
                std::countr_zero(static_cast<std::uint16_t>(~occ &
                                                            fullMask_)));
            return slotArray(set, w) + idx;
        }
    }

    // Every candidate slot is occupied: pick the policy's victim.
    Slot* victim = nullptr;
    for (unsigned w = way_lo; w < way_hi; ++w) {
        Slot* arr = slotArray(set, w);
        for (unsigned i = 0; i < epb_; ++i) {
            Slot& s = arr[i];
            if (!victim) {
                victim = &s;
                continue;
            }
            if (params_.repl == MetaRepl::TpMockingjay) {
                // Mockingjay victimises the largest |ETR|: far-future
                // lines AND overdue (negative) lines are both dead;
                // overdue wins ties.
                auto score = [](const Slot& x) {
                    const int a = x.etr < 0 ? -x.etr : x.etr;
                    return 2 * a + (x.etr < 0 ? 1 : 0);
                };
                if (score(s) > score(*victim))
                    victim = &s;
            } else {
                if (s.rrpv > victim->rrpv)
                    victim = &s;
            }
        }
    }
    return victim;
}

InsertOutcome
StreamStore::insert(const StreamEntry& e, PC pc)
{
    SL_CHECK(e.valid() && e.length <= params_.streamLength,
             "stream_store", "insert of entry with length "
                                 << unsigned{e.length}
                                 << " outside [1, "
                                 << params_.streamLength << "]");
    const Ref ref = refOf(e.trigger);
    const std::uint32_t set = ref.set;
    if (!allocated(set)) {
        ++filteredInsertsCtr_;
        return InsertOutcome::Filtered;
    }
    ageSet(set);

    if (Slot* s = findTrigger(set, e.trigger, ref.ptag)) {
        s->entry = e;
        s->pc = pc;
        if (tpmj_)
            s->etr = static_cast<std::int8_t>(tpmj_->predict(pc));
        s->rrpv = 0;
        ++updatesCtr_;
        return InsertOutcome::Updated;
    }

    Slot* victim = chooseVictim(ref);
    SL_CHECK(victim != nullptr, "stream_store",
             "no victim candidate in set " << set
                                           << " (broken way bounds)");
    // Recover (way, slot) from the victim's position to read and keep
    // its occupancy bit.
    const std::size_t flat = static_cast<std::size_t>(victim -
                                                      slots_.data());
    const unsigned way = static_cast<unsigned>(flat / epb_ % params_.ways);
    const unsigned idx = static_cast<unsigned>(flat % epb_);
    const bool occupied = (occWord(set, way) >> idx) & 1u;
    if (occupied && tpmj_) {
        // Mockingjay bypass: if the incoming entry is predicted to be
        // reused later than (or as late as) the chosen victim, storing
        // it can only displace something more valuable.
        auto score = [](int etr) {
            const int a = etr < 0 ? -etr : etr;
            return 2 * a + (etr < 0 ? 1 : 0);
        };
        const int victim_score = score(victim->etr);
        const int incoming_score = score(tpmj_->predict(pc));
        if (incoming_score >= victim_score) {
            ++bypassedCtr_;
            return InsertOutcome::Bypassed;
        }
    }
    if (occupied) {
        ++evictionsCtr_;
        --liveEntries_;
    }
    victim->entry = e;
    victim->ptag = ref.ptag;
    victim->pc = pc;
    victim->rrpv = 2;
    victim->etr = tpmj_
                      ? static_cast<std::int8_t>(tpmj_->predict(pc))
                      : 0;
    ++liveEntries_;
    ++insertsCtr_;
    markSlot(set, way, idx, true);
    return InsertOutcome::Stored;
}

void
StreamStore::erase(Addr trigger)
{
    const Ref ref = refOf(trigger);
    if (!allocated(ref.set))
        return;
    if (Slot* s = findTrigger(ref.set, trigger, ref.ptag)) {
        --liveEntries_;
        const std::size_t flat = static_cast<std::size_t>(s -
                                                          slots_.data());
        markSlot(ref.set,
                 static_cast<unsigned>(flat / epb_ % params_.ways),
                 static_cast<unsigned>(flat % epb_), false);
    }
}

void
StreamStore::sampleCorrelation(Addr trigger, Addr first_target, PC pc)
{
    if (tpmj_)
        tpmj_->sample(indexOf(trigger), trigger, first_target, pc);
}

void
StreamStore::audit(Cycle now) const
{
    std::uint64_t live = 0;
    for (std::uint32_t set = 0; set < params_.sets; ++set) {
        for (unsigned w = 0; w < params_.ways; ++w) {
            const std::size_t base =
                (static_cast<std::size_t>(set) * params_.ways + w) * epb_;
            const std::uint16_t occ =
                occ_[static_cast<std::size_t>(set) * params_.ways + w];
            for (unsigned i = 0; i < epb_; ++i) {
                if (!((occ >> i) & 1u))
                    continue;
                const Slot& s = slots_[base + i];
                ++live;
                SL_CHECK_AT(allocated(set) && w < ways_, "stream_store",
                            now,
                            "live entry in deallocated set " << set
                                                             << " way "
                                                             << w);
                SL_CHECK_AT(indexOf(s.entry.trigger) == set,
                            "stream_store", now,
                            "entry for trigger 0x"
                                << std::hex << s.entry.trigger << std::dec
                                << " misplaced in set " << set);
                SL_CHECK_AT(s.ptag ==
                                partialTriggerTag(s.entry.trigger,
                                                  params_.partialTagBits),
                            "stream_store", now,
                            "stored partial tag does not match trigger 0x"
                                << std::hex << s.entry.trigger << std::dec
                                << " in set " << set);
                SL_CHECK_AT(s.entry.length > 0 &&
                                s.entry.length <= params_.streamLength,
                            "stream_store", now,
                            "entry with out-of-bounds stream length "
                                << unsigned{s.entry.length});
            }
        }
    }
    SL_CHECK_AT(live == liveEntries_, "stream_store", now,
                "live-entry counter " << liveEntries_ << " disagrees with "
                                      << live << " occupied slots");
}

std::uint64_t
StreamStore::correlations() const
{
    std::uint64_t n = 0;
    for (std::size_t word = 0; word < occ_.size(); ++word) {
        for (unsigned i = 0; i < epb_; ++i) {
            if ((occ_[word] >> i) & 1u)
                n += slots_[word * epb_ + i].entry.length;
        }
    }
    return n;
}

std::uint64_t
StreamStore::capacity() const
{
    // |multiples of setDen| + |sampled sets| - |overlap| (both strides are
    // powers of two, so the overlap stride is just the larger one).
    const std::uint32_t samp_stride = params_.sets / params_.sampledSets;
    std::uint64_t alloc;
    if (setDen_ == 0) {
        alloc = params_.sampledSets;
    } else {
        const std::uint32_t lcm = std::max<std::uint32_t>(setDen_,
                                                          samp_stride);
        alloc = params_.sets / setDen_ + params_.sampledSets -
                params_.sets / lcm;
    }
    return alloc * ways_ * epb_ * params_.streamLength;
}

} // namespace sl
