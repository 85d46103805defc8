/**
 * @file
 * Contention-aware prefetch demotion for the shared memory system.
 *
 * Multi-core sharing turns prefetch bandwidth from free into contended:
 * once the DRAM channels saturate, every speculative read delays a
 * demand miss from some core, and both temporal prefetchers lose to the
 * no-prefetch baseline (the Fig 10a sign problem). MemPressure is the
 * machine's answer: a cheap congestion probe over the two shared
 * structures that actually back up under load — the per-channel DRAM
 * read queues and the shared-LLC MSHR pool — consulted by every cache's
 * issuePrefetch path through the PressureSignal interface (cache.hh).
 *
 * Three levels, thresholds scaled to the machine:
 *
 *  - 0 (calm):      admit everything.
 *  - 1 (elevated):  admit every other prefetch (deterministic parity
 *                   coin — effective degree halves, no RNG involved).
 *  - 2 (saturated): drop every prefetch.
 *
 * Temporal prefetchers additionally sample the level on their training
 * paths and fold the epoch mean into metadata partition sizing
 * (release-under-pressure with hysteresis; see prefetcher.hh).
 *
 * Only constructed for multi-core systems; single-core caches keep a
 * null PressureSignal and their digests stay bit-identical.
 */

#ifndef SL_SIM_MEM_PRESSURE_HH
#define SL_SIM_MEM_PRESSURE_HH

#include <cstdint>

#include "cache/cache.hh"
#include "common/serializer.hh"
#include "common/stats.hh"
#include "dram/dram.hh"

namespace sl
{

class MemPressure : public PressureSignal
{
  public:
    /** Queued DRAM reads per channel at/above which pressure is
     *  elevated / saturated (fit to the Table II machine). */
    static constexpr unsigned kReadQElevated = 2;
    static constexpr unsigned kReadQSaturated = 6;

    /** LLC MSHR occupancy (percent) at/above which pressure is elevated
     *  / saturated. Each LLC miss holds one of its core's L2 MSHRs, so
     *  occupancy never exceeds l2Mshrs / llcMshrsPerCore (50% on the
     *  default machine): the saturated term cannot fire there, and the
     *  elevated one only once every L2 table is full. */
    static constexpr unsigned kMshrPctElevated = 50;
    static constexpr unsigned kMshrPctSaturated = 75;

    MemPressure(const Dram& dram, const Cache& llc)
        : dram_(dram), llc_(llc), stats_("mem_pressure")
    {
    }

    /** Current congestion level: 0 calm, 1 elevated, 2 saturated. */
    unsigned
    level() const override
    {
        const std::size_t perChannel =
            dram_.queuedReads() / dram_.channels();
        const std::size_t mshrPct =
            llc_.mshrCount() * 100 / llc_.mshrLimit();
        if (perChannel >= kReadQSaturated || mshrPct >= kMshrPctSaturated)
            return 2;
        if (perChannel >= kReadQElevated || mshrPct >= kMshrPctElevated)
            return 1;
        return 0;
    }

    bool
    admitPrefetch(Cycle) override
    {
        switch (level()) {
        case 0:
            ++admittedCtr_;
            return true;
        case 1:
            // Down-degree: a deterministic parity coin admits every
            // other prefetch, halving speculative bandwidth without
            // cutting it off (the adaptive-filtering middle ground).
            if ((coin_++ & 1) == 0) {
                ++admittedCtr_;
                return true;
            }
            ++droppedElevatedCtr_;
            return false;
        default:
            ++droppedSaturatedCtr_;
            return false;
        }
    }

    StatGroup& stats() { return stats_; }
    const StatGroup& stats() const { return stats_; }

    /** Snapshot the parity coin and counters (the probe inputs live in
     *  Dram/Cache state and need nothing here). */
    void
    serializeState(Serializer& s)
    {
        s.marker(0x4d505253, "mem_pressure");
        s.io(coin_);
        stats_.serializeState(s);
    }

  private:
    const Dram& dram_;
    const Cache& llc_;
    std::uint64_t coin_ = 0;
    StatGroup stats_;
    HotCounter admittedCtr_{stats_, "admitted"};
    HotCounter droppedElevatedCtr_{stats_, "dropped_elevated"};
    HotCounter droppedSaturatedCtr_{stats_, "dropped_saturated"};
};

} // namespace sl

#endif // SL_SIM_MEM_PRESSURE_HH
