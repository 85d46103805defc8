/**
 * @file
 * Standalone layer replays (see replay.hh). Each pass builds a fresh
 * instance, so every pass does identical work; construction is outside
 * the timed loop and queues are drained inside it.
 */

#include "replay.hh"

#include <algorithm>
#include <chrono>

#include "cache/cache.hh"
#include "common/event.hh"
#include "core/stream_store.hh"
#include "dram/dram.hh"
#include "temporal/pairwise_store.hh"

namespace perfbench
{

namespace
{

using namespace sl;
using Clock = std::chrono::steady_clock;

/** Next-level latency behind the replayed cache: roughly an LLC miss
 *  served by DRAM, so MSHRs fill the way they do in a full run. */
constexpr Cycle kNextLevelLatency = 100;

/** Cycles between issues while the in-flight window has room. */
constexpr Cycle kIssueGap = 2;

/** Reads each replay keeps in flight. An open-loop feed outruns the
 *  layer (misses park and poll in the cache; trace addresses crowd a few
 *  DRAM banks) and its queues grow without bound. Like a core's ROB in
 *  a full run, the window closes the loop. The cache window exceeds its
 *  32 MSHRs, so miss-heavy traces still reach MSHR retries, as a storm
 *  does; the DRAM window is one core's LLC MSHR quota. */
constexpr std::uint64_t kCacheWindow = 48;
constexpr std::uint64_t kDramWindow = 64;

/** Folds replay results so the optimizer cannot drop the timed calls. */
volatile std::uint64_t g_sink = 0;

struct Pass
{
    double seconds = 0;
    std::uint64_t ops = 0;
};

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Run @p pass until the timed seconds reach @p min_seconds (at least
 *  once) and average over every operation. */
template <typename F>
ReplayCost
repeatUntil(double min_seconds, F pass)
{
    double seconds = 0;
    std::uint64_t ops = 0;
    do {
        const Pass p = pass();
        seconds += p.seconds;
        ops += p.ops;
    } while (seconds < min_seconds);
    ReplayCost c;
    c.ops = ops;
    c.nsPerOp = ops == 0 ? 0 : 1e9 * seconds / static_cast<double>(ops);
    return c;
}

void
drain(EventQueue& eq)
{
    while (!eq.empty())
        eq.runUntil(eq.nextCycle());
}

class CountingClient : public RequestClient
{
  public:
    void requestDone(const MemRequest&, Cycle) override { ++done; }

    std::uint64_t done = 0;
};

/** Terminal level answering every read after a fixed latency. */
class FixedLatencyMem : public MemLevel
{
  public:
    FixedLatencyMem(EventQueue& eq, Cycle latency)
        : eq_(eq), latency_(latency)
    {
    }

    void
    access(MemRequest* req, Cycle now) override
    {
        if (!req->client) {
            disposeRequest(req);
            return;
        }
        eq_.schedule(now + latency_, [req](Cycle done) {
            req->client->requestDone(*req, done);
            disposeRequest(req);
        });
    }

  private:
    EventQueue& eq_;
    Cycle latency_;
};

/** Advance simulated time until fewer than @p window reads are in
 *  flight. */
void
waitForWindow(EventQueue& eq, Cycle& now, std::uint64_t issued,
              const std::uint64_t& done, std::uint64_t window)
{
    while (issued - done >= window && !eq.empty()) {
        now = std::max(now + 1, eq.nextCycle());
        eq.runUntil(now);
    }
}

} // namespace

ReplayCost
replayEventQueue(const std::vector<TraceRecord>& recs, double min_seconds)
{
    return repeatUntil(min_seconds, [&] {
        EventQueue eq;
        std::uint64_t fired = 0;
        std::uint64_t* ctr = &fired;
        const auto t0 = Clock::now();
        Cycle now = 0;
        for (std::size_t i = 0; i < recs.size(); ++i) {
            // Delays of 1..256 cycles taken from the address spread the
            // events over the calendar window the way cache and DRAM
            // latencies do.
            const Cycle delay = 1 + (blockNumber(recs[i].addr) & 255);
            eq.schedule(now + delay, [ctr](Cycle) { ++*ctr; });
            if ((i & 15) == 15) {
                now += 4;
                eq.runUntil(now);
            }
        }
        drain(eq);
        Pass p{since(t0), fired};
        g_sink = g_sink + fired;
        return p;
    });
}

ReplayCost
replayCache(const std::vector<TraceRecord>& recs, double min_seconds)
{
    return repeatUntil(min_seconds, [&] {
        EventQueue eq;
        RequestPool pool;
        CountingClient client;
        FixedLatencyMem mem(eq, kNextLevelLatency);
        CacheParams params;
        params.name = "replay_cache";
        params.sizeBytes = 64 * 1024;
        params.ways = 8;
        params.latency = 10;
        params.mshrs = 32;
        params.ports = 1;
        Cache cache(params, eq, &mem, &pool);

        const auto t0 = Clock::now();
        Cycle now = 0;
        std::uint64_t issued = 0;
        for (const TraceRecord& r : recs) {
            waitForWindow(eq, now, issued, client.done, kCacheWindow);
            // Every record is presented as a load, so each one completes
            // and the window bounds the parked (polling) requests.
            MemRequest* req = pool.acquire();
            req->addr = blockAlign(r.addr);
            req->pc = r.pc;
            req->kind = ReqKind::DemandLoad;
            req->client = &client;
            req->directRespond = true;
            cache.access(req, now);
            ++issued;
            now += kIssueGap;
            eq.runUntil(now);
        }
        drain(eq);
        Pass p{since(t0), recs.size()};
        g_sink = g_sink + client.done;
        return p;
    });
}

ReplayCost
replayDram(const std::vector<TraceRecord>& recs, double min_seconds)
{
    return repeatUntil(min_seconds, [&] {
        EventQueue eq;
        RequestPool pool;
        CountingClient client;
        DramParams params;
        params.channels = 2;
        params.ranksPerChannel = 2;
        params.requestors = 4;
        params.validate();
        Dram dram(params, eq);

        const auto t0 = Clock::now();
        Cycle now = 0;
        std::uint64_t reads = 0;
        for (std::size_t i = 0; i < recs.size(); ++i) {
            waitForWindow(eq, now, reads, client.done, kDramWindow);
            const TraceRecord& r = recs[i];
            MemRequest* req = pool.acquire();
            req->addr = blockAlign(r.addr);
            req->coreId = static_cast<int>(i & 3);
            if (r.type == AccessType::Load) {
                req->kind = ReqKind::DemandLoad;
                req->client = &client;
                ++reads;
            } else {
                req->kind = ReqKind::Writeback;
            }
            dram.access(req, now);
            now += kIssueGap;
            eq.runUntil(now);
        }
        drain(eq);
        Pass p{since(t0), recs.size()};
        g_sink = g_sink + client.done;
        return p;
    });
}

ReplayCost
replayStreamStore(const std::vector<TraceRecord>& recs, double min_seconds)
{
    return repeatUntil(min_seconds, [&] {
        StreamStoreParams params;
        StreamStore store(params);
        store.setAllocation(1, params.ways); // every set, every way
        const unsigned len = params.streamLength;

        const auto t0 = Clock::now();
        std::uint64_t ops = 0;
        std::uint64_t hits = 0;
        for (std::size_t i = 0; i + len < recs.size(); ++i) {
            const Addr trigger = blockNumber(recs[i].addr);
            hits += store.lookup(trigger).has_value();
            ++ops;
            if ((i & 3) == 0) {
                StreamEntry e;
                e.trigger = trigger;
                for (unsigned k = 0; k < len; ++k)
                    e.targets[k] = blockNumber(recs[i + 1 + k].addr);
                e.length = static_cast<std::uint8_t>(len);
                store.insert(e, recs[i].pc);
                ++ops;
            }
        }
        Pass p{since(t0), ops};
        g_sink = g_sink + hits;
        return p;
    });
}

ReplayCost
replayPairwiseStore(const std::vector<TraceRecord>& recs,
                    double min_seconds)
{
    return repeatUntil(min_seconds, [&] {
        PairwiseStore store{PairwiseStoreParams{}};

        const auto t0 = Clock::now();
        std::uint64_t ops = 0;
        std::uint64_t hits = 0;
        for (std::size_t i = 0; i + 1 < recs.size(); ++i) {
            const Addr trigger = blockNumber(recs[i].addr);
            hits += store.lookup(trigger).has_value();
            store.insert(trigger, blockNumber(recs[i + 1].addr));
            ops += 2;
        }
        Pass p{since(t0), ops};
        g_sink = g_sink + hits;
        return p;
    });
}

} // namespace perfbench
