#include "prefetch/bingo.hh"

#include "common/hash.hh"

namespace sl
{

BingoPrefetcher::BingoPrefetcher(unsigned history_entries)
    : Prefetcher("bingo"), history_(history_entries)
{
}

void
BingoPrefetcher::retireRegion(std::uint64_t region, const LiveRegion& live)
{
    (void)region;
    if (live.accesses < 2)
        return;
    HistEntry& h = history_[live.event % history_.size()];
    h.event = live.event;
    h.footprint = live.footprint;
    h.valid = true;
}

void
BingoPrefetcher::onAccess(const AccessInfo& info)
{
    const std::uint64_t region = info.addr >> kRegionShift;
    const unsigned offset = static_cast<unsigned>(
        blockNumber(info.addr) & (kBlocksPerRegion - 1));
    ++accessCount_;

    auto it = live_.find(region);
    if (it == live_.end()) {
        // New region: look up the long event (PC + offset) and replay.
        const std::uint64_t event =
            mix64((info.pc << 8) ^ offset);
        const HistEntry& h = history_[event % history_.size()];
        if (h.valid && h.event == event) {
            const Addr region_base = region << kRegionShift;
            for (unsigned b = 0; b < kBlocksPerRegion; ++b) {
                if (b != offset && (h.footprint & (1u << b))) {
                    prefetch(region_base +
                                 (static_cast<Addr>(b) << kBlockShift),
                             info.pc, info.cycle);
                }
            }
        }
        LiveRegion live;
        live.event = event;
        live.footprint = 1u << offset;
        live.accesses = 1;
        live.lastTouch = accessCount_;
        live_.emplace(region, live);
    } else {
        it->second.footprint |= 1u << offset;
        ++it->second.accesses;
        it->second.lastTouch = accessCount_;
    }

    // Bound the live table: retire the least-recently-touched region
    // into the footprint history.
    if (live_.size() > 16) {
        auto oldest = live_.begin();
        for (auto i = live_.begin(); i != live_.end(); ++i) {
            if (i->second.lastTouch < oldest->second.lastTouch)
                oldest = i;
        }
        retireRegion(oldest->first, oldest->second);
        live_.erase(oldest);
    }
}

} // namespace sl
