#include "temporal/triage.hh"

#include <algorithm>

#include "common/hash.hh"
#include "prefetch/registry.hh"

namespace sl
{

TriagePrefetcher::TriagePrefetcher(const TriageConfig& cfg, bool unlimited)
    : Prefetcher(unlimited ? "triage_ideal" : "triage"), cfg_(cfg),
      unlimited_(unlimited), tu_(kTuEntries)
{
}

void
TriagePrefetcher::attach(Cache* owner, Cache* llc, EventQueue* eq,
                         int core_id, unsigned total_cores)
{
    Prefetcher::attach(owner, llc, eq, core_id, total_cores);
    PairwiseStoreParams sp;
    sp.sets = metadataSets();
    sp.maxWays = kMaxWays;
    sp.entriesPerBlock = 16; // LUT-compressed targets
    store_.emplace(sp);
    store_->setFaultInjector(faults_);
    store_->resize(kMaxWays / 2);
    dataSampler_.emplace(std::min<std::uint32_t>(64, metadataSets()),
                         metadataSets(), llc_->ways());
}

std::uint64_t
TriagePrefetcher::storedCorrelations() const
{
    return unlimited_ ? unlimitedStore_.size() : store_->size();
}

void
TriagePrefetcher::onAccess(const AccessInfo& info)
{
    // Train on L2 misses and on first demand use of a prefetched block.
    if (info.hit && !info.prefetchHit)
        return;

    const Addr block = blockNumber(info.addr);
    ++trainEventsCtr_;

    if (!unlimited_) {
        // Feed the partition-sizing samplers: data reuse (LLC stack
        // depth) and trigger reuse (metadata stack depth).
        const auto set = static_cast<std::uint32_t>(
            mix64(block) % metadataSets());
        dataSampler_->access(set, block);
        ++accessesSinceResize_;
        if (accessesSinceResize_ >= cfg_.resizeInterval)
            maybeResize(info.cycle);
    }

    train(block, info.pc, info.cycle);
    issueChain(block, info.pc, info.cycle);
}

void
TriagePrefetcher::train(Addr block, PC pc, Cycle now)
{
    TuEntry& tu = tu_[mix64(pc) % tu_.size()];
    if (tu.valid && tu.pc == pc && tu.lastBlock != block) {
        const Addr trigger = tu.lastBlock;
        if (unlimited_) {
            unlimitedStore_[trigger] = block;
        } else {
            // Insert with LUT compression: record the target's region.
            lut_.regions[lut_.index(block >> 11)] = block >> 11;
            store_->insert(trigger, block);
            llc_->metadataAccess(true, now);
        }
    }
    if (!tu.valid || tu.pc != pc) {
        tu = TuEntry{};
        tu.pc = pc;
        tu.valid = true;
    }
    tu.lastBlock = block;
}

void
TriagePrefetcher::issueChain(Addr block, PC pc, Cycle now)
{
    Addr cur = block;
    Cycle t = now;
    for (unsigned d = 0; d < kDegree; ++d) {
        std::optional<Addr> target;
        if (unlimited_) {
            auto it = unlimitedStore_.find(cur);
            if (it != unlimitedStore_.end())
                target = it->second;
        } else {
            target = store_->lookup(cur);
            // Each hop in the pairwise chain costs an LLC metadata read.
            t = llc_->metadataAccess(false, t);
            if (target) {
                // Decompress through the LUT; stale regions reconstruct a
                // wrong address (Triage's accuracy loss).
                const std::uint64_t region = *target >> 11;
                const std::uint64_t lut_region =
                    lut_.regions[lut_.index(region)];
                if (lut_region != region) {
                    ++lutMisdecompressCtr_;
                    target = (lut_region << 11) | (*target & 0x7ff);
                }
            }
        }
        if (!target)
            break;
        ++chainPrefetchesCtr_;
        prefetch(*target << kBlockShift, pc, t);
        cur = *target;
    }
}

void
TriagePrefetcher::maybeResize(Cycle now)
{
    accessesSinceResize_ = 0;

    // Hawkeye-style sizing: pick the way count that maximises combined
    // data + trigger hits (trigger hits measured in always-full sampled
    // sets and scaled with capacity).
    const unsigned llc_ways = llc_->ways();
    const double sampled_hits =
        static_cast<double>(store_->takeSampledHits());
    double best_score = -1.0;
    unsigned best_ways = 0;
    for (unsigned w = 0; w <= kMaxWays; ++w) {
        const double score =
            static_cast<double>(dataSampler_->hitsWithin(llc_ways - w)) +
            sampled_hits * w / kMaxWays;
        if (score > best_score) {
            best_score = score;
            best_ways = w;
        }
    }
    dataSampler_->reset();

    if (best_ways == store_->ways())
        return;

    ++stats_.counter("resizes");
    const bool growing = best_ways > store_->ways();
    const std::uint64_t moved = store_->resize(best_ways);
    stats_.counter("shuffle_blocks") += moved;
    llc_->metadataBulkTraffic(moved, now);
    if (growing) {
        // Newly reserved ways must evict resident data.
        for (std::uint32_t s = 0; s < metadataSets(); ++s)
            llc_->reclaimReservedWays(physicalSet(s), now);
    }
}

void
registerTriagePrefetchers(PrefetcherRegistry& reg)
{
    reg.add("triage", PrefetcherRegistry::L2,
            [](const PrefetcherTuning&) -> PrefetcherFactory {
                return [](int) { return std::make_unique<TriagePrefetcher>(); };
            });
    // The idealised variant is the same class with unbounded zero-cost
    // metadata; this name is the only way to select it.
    reg.add("triage_ideal", PrefetcherRegistry::L2,
            [](const PrefetcherTuning&) -> PrefetcherFactory {
                return [](int) {
                    return std::make_unique<TriagePrefetcher>(
                        TriageConfig{}, /*unlimited=*/true);
                };
            });
}

} // namespace sl
