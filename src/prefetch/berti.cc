#include "prefetch/berti.hh"

#include <algorithm>

#include "common/hash.hh"

namespace sl
{

BertiPrefetcher::BertiPrefetcher(unsigned entries)
    : Prefetcher("berti"), table_(entries)
{
}

void
BertiPrefetcher::onAccess(const AccessInfo& info)
{
    const Addr block = blockNumber(info.addr);
    Entry& e = table_[mix64(info.pc) % table_.size()];

    if (!e.valid || e.pc != info.pc) {
        e = Entry{};
        e.pc = info.pc;
        e.valid = true;
    }

    // Score candidate deltas against the history: a delta "hits" when the
    // current block equals an earlier block + delta and enough cycles have
    // passed that a prefetch launched then would have been timely.
    for (std::size_t h = 0; h < e.history.size(); ++h) {
        const auto& [old_block, old_cycle] = e.history.at(h);
        const std::int64_t delta = static_cast<std::int64_t>(block) -
                                   static_cast<std::int64_t>(old_block);
        if (delta == 0 || delta > 64 || delta < -64)
            continue;
        const bool timely = info.cycle >= old_cycle + kLeadCycles;
        // Find or allocate a score slot for this delta.
        DeltaScore* slot = nullptr;
        for (auto& d : e.deltas) {
            if (d.tries > 0 && d.delta == delta) {
                slot = &d;
                break;
            }
        }
        if (!slot) {
            slot = &*std::min_element(
                std::begin(e.deltas), std::end(e.deltas),
                [](const DeltaScore& a, const DeltaScore& b) {
                    return a.hits < b.hits;
                });
            if (slot->hits > 2)
                continue; // keep established deltas
            *slot = DeltaScore{delta, 0, 0};
        }
        ++slot->tries;
        if (timely)
            ++slot->hits;
    }

    e.history.pushEvict({block, info.cycle});
    ++e.accesses;

    // Issue with the best deltas (Berti's high-accuracy regime: require
    // at least ~65% timely recurrence).
    for (const auto& d : e.deltas) {
        if (d.tries < 4)
            continue;
        if (d.hits * 100 < d.tries * 65)
            continue;
        const auto target =
            static_cast<std::int64_t>(block) + d.delta;
        if (target <= 0)
            continue;
        prefetch(static_cast<Addr>(target) << kBlockShift, info.pc,
                 info.cycle);
    }

    // Periodically age the scores so phase changes unlearn stale deltas.
    if (e.accesses % 512 == 0) {
        for (auto& d : e.deltas) {
            d.hits /= 2;
            d.tries /= 2;
        }
    }
}

} // namespace sl
