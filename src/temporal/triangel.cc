#include "temporal/triangel.hh"

#include <algorithm>

#include "common/hash.hh"
#include "prefetch/registry.hh"

namespace sl
{

TriangelPrefetcher::TriangelPrefetcher(const TriangelConfig& cfg,
                                       bool ideal)
    : Prefetcher(ideal ? "triangel_ideal" : "triangel"), cfg_(cfg),
      ideal_(ideal), tu_(kTuEntries), hs_(kHsEntries), scs_(kScsEntries),
      mrb_(kMrbEntries)
{
}

void
TriangelPrefetcher::attach(Cache* owner, Cache* llc, EventQueue* eq,
                           int core_id, unsigned total_cores)
{
    Prefetcher::attach(owner, llc, eq, core_id, total_cores);
    PairwiseStoreParams sp;
    sp.sets = metadataSets();
    sp.maxWays = cfg_.maxWays;
    sp.entriesPerBlock = 12; // uncompressed 31-bit targets
    sp.utilityRepl = cfg_.useTpMockingjay;
    store_.emplace(sp);
    store_->setFaultInjector(faults_);
    store_->resize(ideal_ ? cfg_.maxWays
                          : startingAllocation(cfg_.maxWays / 2));
    dataSampler_.emplace(std::min<std::uint32_t>(64, metadataSets()),
                         metadataSets(), llc_->ways());
}

TriangelPrefetcher::TuEntry&
TriangelPrefetcher::tuFor(PC pc)
{
    TuEntry& tu = tu_[mix64(pc) % tu_.size()];
    if (!tu.valid || tu.pc != pc) {
        tu = TuEntry{};
        tu.pc = pc;
        tu.valid = true;
    }
    return tu;
}

void
TriangelPrefetcher::adaptSampleRate()
{
    // Tune the global sampling rate so HS samples live long enough to see
    // their reuse: too many inserts per observed hit means samples are
    // being evicted before the stream comes around again -> sample less.
    windowEvents_ = 0;
    if (windowHsInserts_ > 4 * (windowHsHits_ + 1)) {
        if (sampleShift_ < 14)
            ++sampleShift_;
    } else if (windowHsHits_ > windowHsInserts_) {
        if (sampleShift_ > 2)
            --sampleShift_;
    }
    windowHsHits_ = 0;
    windowHsInserts_ = 0;
}

void
TriangelPrefetcher::trainConfidence(TuEntry& tu, Addr trigger, Addr target)
{
    ++tu.trainCount;
    if (++windowEvents_ >= 8192)
        adaptSampleRate();
    const bool sample =
        (mix64(trigger ^ tu.pc) & ((1ULL << sampleShift_) - 1)) == 0;

    // Check the HS for this trigger: a matching echo trains pattern
    // confidence; a mismatch gets a second chance (reordering leeway).
    // The HS index is reused for the sampled insert below.
    const std::size_t hs_idx = mix64(trigger) % hs_.size();
    HsEntry& h = hs_[hs_idx];
    if (h.valid && h.trigger == trigger && h.pc == tu.pc) {
        // Reuse observed before eviction.
        ++windowHsHits_;
        tu.reuseConf = std::min(15, tu.reuseConf + 4);
        if (h.target == target) {
            tu.patternConf = std::min(15, tu.patternConf + 3);
        } else {
            tu.patternConf = std::max(0, tu.patternConf - 2);
            // Mismatch: park in the SCS in case the target shows up late.
            HsEntry& s = scs_[mix64(h.target) % scs_.size()];
            s = h;
        }
        h.valid = false;
    }

    // SCS: if some parked correlation predicted this target, the pattern
    // held after reordering.
    HsEntry& s = scs_[mix64(target) % scs_.size()];
    if (s.valid && s.target == target && s.pc == tu.pc) {
        // Reordered match: the pattern held after all.
        tu.patternConf = std::min(15, tu.patternConf + 3);
        s.valid = false;
    }

    if (sample) {
        ++windowHsInserts_;
        HsEntry& slot = hs_[hs_idx];
        if (slot.valid) {
            // Evicted without being reused: reuse confidence decays.
            TuEntry& victim_tu = tuFor(slot.pc);
            victim_tu.reuseConf = std::max(0, victim_tu.reuseConf - 1);
        }
        slot = HsEntry{.valid = true, .pc = tu.pc, .trigger = trigger,
                       .target = target};
    }

    // Slow decay of pattern confidence so stale confidence unlearns.
    if (tu.trainCount % 4096 == 0)
        tu.patternConf = std::max(0, tu.patternConf - 1);
}

std::optional<Addr>
TriangelPrefetcher::mrbLookup(Addr trigger)
{
    for (auto& e : mrb_) {
        if (e.valid && e.trigger == trigger) {
            e.lru = ++mrbTick_;
            return e.target;
        }
    }
    return std::nullopt;
}

void
TriangelPrefetcher::mrbInsert(Addr trigger, Addr target)
{
    MrbEntry* victim = &mrb_[0];
    for (auto& e : mrb_) {
        if (e.valid && e.trigger == trigger) {
            e.target = target;
            e.lru = ++mrbTick_;
            return;
        }
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (e.lru < victim->lru)
            victim = &e;
    }
    *victim = MrbEntry{.valid = true, .trigger = trigger, .target = target,
                       .lru = ++mrbTick_};
}

unsigned
TriangelPrefetcher::degreeFor(const TuEntry& tu) const
{
    if (tu.patternConf >= 12)
        return cfg_.maxDegree;
    if (tu.patternConf >= 10)
        return std::min(cfg_.maxDegree, 2u);
    return tu.patternConf >= 8 ? 1 : 0;
}

void
TriangelPrefetcher::onAccess(const AccessInfo& info)
{
    if (info.hit && !info.prefetchHit)
        return;
    if (info.prefetchHit)
        ++usefulFeedbackCtr_;

    const Addr block = blockNumber(info.addr);
    ++trainEventsCtr_;
    TuEntry& tu = tuFor(info.pc);

    if (!ideal_) {
        const auto set = static_cast<std::uint32_t>(
            mix64(block) % metadataSets());
        dataSampler_->access(set, block);
        samplePressure(); // no-op single-core (null probe)
        ++accessesSinceResize_;
        if (accessesSinceResize_ >= cfg_.resizeInterval) {
            maybeResize(info.cycle);
        } else if (const unsigned ways = pressureBetweenEpochs(
                       currentWays(), cfg_.maxWays);
                   ways != currentWays()) {
            resizeTo(ways, info.cycle);
            // A released store must also stop the MRB from chaining
            // prefetches off stale correlations it cached before.
            if (ways == 0)
                for (auto& e : mrb_)
                    e.valid = false;
        }
    }

    // ---- training: correlate with last (or second-last under lookahead)
    // A released store holds nothing but the sampled measurement sets:
    // it bills no LLC metadata traffic and issues nothing (see
    // Prefetcher::released).
    const bool off_llc = released(currentWays());

    const Addr trigger = tu.lookahead ? tu.secondLast : tu.last;
    if (trigger != 0 && trigger != block) {
        trainConfidence(tu, trigger, block);
        // Accuracy-based metadata filtering: only confident PCs store.
        if (tu.reuseConf >= 8) {
            // MRB write-combining: skip the LLC write when the MRB
            // already holds this exact correlation.
            const auto cached = mrbLookup(trigger);
            if (!cached || *cached != block) {
                store_->insert(trigger, block);
                if (!ideal_ && !off_llc)
                    llc_->metadataAccess(true, info.cycle);
                mrbInsert(trigger, block);
            } else {
                ++mrbWriteSkipsCtr_;
            }
        } else {
            ++filteredInsertsCtr_;
        }
    }
    tu.secondLast = tu.last;
    tu.last = block;

    // ---- prefetching: chase the chain up to the PC's degree
    const unsigned degree = degreeFor(tu);
    // Keep the utility signal alive for confidence-blocked PCs -- but
    // only single-core. On a shared LLC this probe overclaims: it
    // credits capacity for correlations the degree gate will never turn
    // into prefetches, and dueling then holds ways whose realized value
    // is a fraction of the sampled score while co-runners pay full
    // price for the lost capacity.
    if (degree == 0 && !ideal_ && pressure_ == nullptr)
        store_->probeSampled(block);
    Addr cur = block;
    Cycle t = info.cycle;
    for (unsigned d = 0; d < degree; ++d) {
        std::optional<Addr> target = mrbLookup(cur);
        if (target) {
            ++mrbHitsCtr_;
        } else {
            target = store_->lookup(cur);
            if (!ideal_ && !off_llc)
                t = llc_->metadataAccess(false, t);
            else
                t = t + 20; // dedicated-store latency
            if (target)
                mrbInsert(cur, *target);
        }
        if (!target)
            break;
        // A released store still chases the chain through its sampled
        // shadow sets (the dueling signal needs the hits).
        if (!off_llc)
            prefetch(*target << kBlockShift, info.pc, t);
        cur = *target;
    }
}

void
TriangelPrefetcher::maybeResize(Cycle now)
{
    accessesSinceResize_ = 0;

    // Set dueling over 9 partition sizes: maximise combined data +
    // trigger hits, each hit weighted equally (§III-B; contrast §IV-D2).
    // Trigger hits are measured in the always-full sampled sets and
    // scale with capacity, which is how a scan-resistant store behaves.
    const unsigned llc_ways = llc_->ways();
    const double sampled_hits =
        static_cast<double>(store_->takeSampledHits());
    // On a shared LLC the dueling comparison is biased: the sampler sees
    // only *this* core's data hits, but a way reserved for metadata is
    // carved out of physical sets every co-runner's data stream maps
    // into — capacity theft the queue-depth pressure probe cannot see
    // when the victims stay latency-bound rather than bandwidth-bound,
    // and the victims' hit density in those ways is unobservable from
    // here. Weight the data side by 2x the core count as a conservative
    // opportunity-cost bound: the store then grows only when sampled
    // utility clearly dominates any plausible data use of the capacity
    // (deep/shallow ~ 0 — the LLC-thrashing mcf-style traces where
    // temporal prefetching actually pays at multi-core). Single-core
    // systems have a null probe and keep the paper's local score.
    const double data_w =
        pressure_ != nullptr ? 2.0 * static_cast<double>(totalCores_)
                             : 1.0;
    double best_score = -1.0;
    double score_off = 0.0;
    unsigned best_ways = 0;
    for (unsigned w = 0; w <= cfg_.maxWays; ++w) {
        const double score =
            data_w *
                static_cast<double>(dataSampler_->hitsWithin(llc_ways - w)) +
            sampled_hits * w / cfg_.maxWays;
        if (w == 0)
            score_off = score;
        if (score > best_score) {
            best_score = score;
            best_ways = w;
        }
    }
    // Shared LLC: a statistical tie between "grow" and "all data" must
    // not claim capacity — growth has to clearly dominate (ties go to
    // the co-runners' demand streams).
    if (pressure_ != nullptr && best_ways > 0 &&
        best_score <= 1.1 * score_off)
        best_ways = 0;
    dataSampler_->reset();

    // The shared-LLC release policy (prefetcher.hh) has the last word.
    resizeTo(pressureAtEpoch(best_ways, currentWays()), now);
}

void
TriangelPrefetcher::resizeTo(unsigned ways, Cycle now)
{
    if (ways == currentWays())
        return;
    ++stats_.counter("resizes");
    const bool growing = ways > currentWays();
    // The expensive part: misplaced entries shuffle through the LLC.
    const std::uint64_t moved = store_->resize(ways);
    stats_.counter("shuffle_blocks") += moved;
    llc_->metadataBulkTraffic(moved, now);
    if (growing) {
        for (std::uint32_t s = 0; s < metadataSets(); ++s)
            llc_->reclaimReservedWays(physicalSet(s), now);
    }
}

void
registerTriangelPrefetchers(PrefetcherRegistry& reg)
{
    reg.add("triangel", PrefetcherRegistry::L2,
            [](const PrefetcherTuning& t) -> PrefetcherFactory {
                const TriangelConfig cfg =
                    t.triangel ? *t.triangel : TriangelConfig{};
                return [cfg](int) {
                    return std::make_unique<TriangelPrefetcher>(cfg);
                };
            });
    // The only way to select the ideal mode: dedicated full-size store,
    // no LLC metadata.
    reg.add("triangel_ideal", PrefetcherRegistry::L2,
            [](const PrefetcherTuning& t) -> PrefetcherFactory {
                const TriangelConfig cfg =
                    t.triangel ? *t.triangel : TriangelConfig{};
                return [cfg](int) {
                    return std::make_unique<TriangelPrefetcher>(
                        cfg, /*ideal=*/true);
                };
            });
}

} // namespace sl
