/**
 * @file
 * Standalone layer replays: time one layer's public entry points on a
 * freshly built instance, fed from a workload's own trace records, with
 * no other layer in the loop. They split the host time a full run lumps
 * together (core, cache, event queue, DRAM) into per-operation costs.
 */

#ifndef SL_PERFBENCH_REPLAY_HH
#define SL_PERFBENCH_REPLAY_HH

#include <cstdint>
#include <vector>

#include "trace/trace.hh"

namespace perfbench
{

/** Host cost of one replayed layer: nanoseconds per operation over
 *  @c ops operations (summed across the passes the time floor took). */
struct ReplayCost
{
    double nsPerOp = 0;
    std::uint64_t ops = 0;
};

/** EventQueue::schedule + runUntil, one event per record; ns/event. */
ReplayCost replayEventQueue(const std::vector<sl::TraceRecord>& recs,
                            double min_seconds);

/** Cache::access on an L2-geometry cache over a fixed-latency next
 *  level, every record presented as a demand load, MSHR retries
 *  included; ns per access. */
ReplayCost replayCache(const std::vector<sl::TraceRecord>& recs,
                       double min_seconds);

/** Dram::access plus the scheduled-mode channel ticks it arms
 *  (requestors = 4, the 4-core geometry); ns per access. */
ReplayCost replayDram(const std::vector<sl::TraceRecord>& recs,
                      double min_seconds);

/** StreamStore lookup on every block plus a stream insert every fourth;
 *  ns per store operation. */
ReplayCost replayStreamStore(const std::vector<sl::TraceRecord>& recs,
                             double min_seconds);

/** PairwiseStore lookup + insert of each successive block pair; ns per
 *  store operation. */
ReplayCost replayPairwiseStore(const std::vector<sl::TraceRecord>& recs,
                               double min_seconds);

} // namespace perfbench

#endif // SL_PERFBENCH_REPLAY_HH
