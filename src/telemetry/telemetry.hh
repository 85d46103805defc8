/**
 * @file
 * Always-compiled, off-by-default observability subsystem.
 *
 * Three pillars (DESIGN.md §10):
 *
 *  1. IntervalSampler — every intervalCycles cycles the run loop snapshots
 *     the cumulative counters of every component (through one callback the
 *     System installs) and stores the *delta* against the previous
 *     snapshot into a pre-reserved ring of IntervalRecords: per-interval
 *     IPC, L1D/L2/LLC MPKI, prefetch issued/useful/late, DRAM read/write
 *     bandwidth and row-hit rate, plus MSHR and event-queue occupancy
 *     high-water marks observed since the previous sample.
 *
 *  2. Log2-bucket latency histograms (histogram.hh) fed from cheap probes
 *     in Core (load-to-use), Dram (access latency), and Cache
 *     (prefetch-fill-to-demand distance).
 *
 *  3. Exporters — JSONL and CSV interval dumps plus a Chrome trace-event
 *     JSON (Perfetto-loadable) that renders intervals as counter tracks
 *     and watchdog/fault-injector incidents as instant events.
 *
 * Cost model: components hold a raw `Telemetry*` that is null when
 * telemetry is disabled, so every probe folds to one pointer test on the
 * disabled fast path. No gate bounds that cost; what is pinned is that
 * telemetry never changes simulated behaviour, only observes it
 * (test_telemetry.cc pins stat digests bit-identical with telemetry on
 * and off). Enabled-mode cost is dominated by the per-cycle occupancy
 * probe.
 */

#ifndef SL_TELEMETRY_TELEMETRY_HH
#define SL_TELEMETRY_TELEMETRY_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/types.hh"
#include "telemetry/histogram.hh"

namespace sl
{

/** Telemetry knobs; part of SystemConfig (validated with it). */
struct TelemetryConfig
{
    /** Master switch; false keeps every probe to a null-pointer test. */
    bool enabled = false;

    /** Cycles between interval samples. */
    Cycle intervalCycles = 100'000;

    std::string jsonlPath; //!< per-interval JSONL dump ("" = don't write)
    std::string csvPath;   //!< per-interval CSV dump ("" = don't write)
    std::string tracePath; //!< Chrome trace-event JSON ("" = don't write)

    /** True when any exporter output file is configured. */
    bool
    wantsFiles() const
    {
        return !jsonlPath.empty() || !csvPath.empty() ||
               !tracePath.empty();
    }

    /** Reject self-defeating knob values; throws SimError. */
    void
    validate() const
    {
        SL_REQUIRE(!enabled || intervalCycles > 0, "telemetry_config",
                   "intervalCycles must be nonzero when telemetry is "
                   "enabled");
    }
};

/**
 * Cumulative component counters at one sample point. The System installs
 * a source callback that fills this from its cores/caches/DRAM; the
 * sampler differences consecutive snapshots into IntervalRecords, so the
 * schema here is "totals since construction", never deltas.
 */
struct CounterSnapshot
{
    std::uint64_t retired = 0;      //!< instructions retired, all cores
    std::uint64_t l1dAccesses = 0;  //!< L1D demand accesses, all cores
    std::uint64_t l1dMisses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t pfIssued = 0;     //!< L2 prefetches sent downstream
    std::uint64_t pfUseful = 0;
    std::uint64_t pfLate = 0;
    /** Prefetches shed by the MemPressure signal before issue (always
     *  zero on single-core systems, which attach no pressure probe). */
    std::uint64_t pfDropped = 0;
    std::uint64_t mshrRetries = 0;  //!< MSHR-full retries, every cache
    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;
    std::uint64_t dramBytes = 0;
    std::uint64_t dramRowHits = 0;
};

/** One sampled interval: counter deltas plus occupancy high-waters. */
struct IntervalRecord
{
    std::uint64_t index = 0;   //!< 0-based position in the full series
    Cycle startCycle = 0;
    Cycle endCycle = 0;        //!< exclusive; == next record's startCycle

    CounterSnapshot delta;     //!< counters accumulated in this interval

    /** Peak MSHR occupancy (max over every cache) seen this interval. */
    std::size_t mshrHighWater = 0;
    /** Peak event-queue population seen this interval. */
    std::size_t eventQueueHighWater = 0;

    Cycle cycles() const { return endCycle - startCycle; }

    double
    ipc() const
    {
        return cycles() == 0 ? 0.0
                             : static_cast<double>(delta.retired) /
                                   static_cast<double>(cycles());
    }

    /** Misses per kilo-instruction within the interval. */
    double
    mpki(std::uint64_t misses) const
    {
        return delta.retired == 0
                   ? 0.0
                   : 1000.0 * static_cast<double>(misses) /
                         static_cast<double>(delta.retired);
    }

    double l1dMpki() const { return mpki(delta.l1dMisses); }
    double l2Mpki() const { return mpki(delta.l2Misses); }
    double llcMpki() const { return mpki(delta.llcMisses); }

    /** Useful fraction of prefetches issued this interval. */
    double
    accuracy() const
    {
        return delta.pfIssued == 0
                   ? 0.0
                   : static_cast<double>(delta.pfUseful) /
                         static_cast<double>(delta.pfIssued);
    }

    /** Covered fraction of would-be L2 misses this interval. */
    double
    coverage() const
    {
        const std::uint64_t den = delta.pfUseful + delta.l2Misses;
        return den == 0 ? 0.0
                        : static_cast<double>(delta.pfUseful) /
                              static_cast<double>(den);
    }

    /** DRAM bandwidth in bytes per kilocycle (read + write traffic). */
    double
    dramBytesPerKCycle() const
    {
        return cycles() == 0 ? 0.0
                             : 1000.0 * static_cast<double>(delta.dramBytes) /
                                   static_cast<double>(cycles());
    }

    double
    dramRowHitRate() const
    {
        const std::uint64_t den = delta.dramReads + delta.dramWrites;
        return den == 0 ? 0.0
                        : static_cast<double>(delta.dramRowHits) /
                              static_cast<double>(den);
    }
};

/** An instant event worth a mark on the trace timeline. */
struct Incident
{
    Cycle cycle = 0;
    std::string kind;   //!< e.g. "watchdog_probe", "dram_delay"
    std::string detail;
};

/**
 * Differences a stream of cumulative CounterSnapshots into the interval
 * ring. Decoupled from System through the source callback so the delta
 * math is unit-testable against hand-scripted snapshots.
 */
class IntervalSampler
{
  public:
    using Source = std::function<void(CounterSnapshot&)>;

    IntervalSampler(Cycle interval, std::size_t capacity)
        : interval_(interval), capacity_(capacity), nextSample_(interval)
    {
        ring_.reserve(capacity_);
    }

    void setSource(Source src) { source_ = std::move(src); }

    /** True when the run loop has reached the next sample point. */
    bool due(Cycle now) const { return now >= nextSample_; }

    /**
     * Fold an occupancy observation into the current interval's
     * high-water marks. Called every cycle when telemetry is enabled.
     */
    void
    noteOccupancy(std::size_t mshr, std::size_t event_queue)
    {
        if (mshr > mshrHigh_)
            mshrHigh_ = mshr;
        if (event_queue > evqHigh_)
            evqHigh_ = event_queue;
    }

    /**
     * Close the interval ending at @p now: snapshot the source, store the
     * delta, and arm the next sample point. Safe to call at an arbitrary
     * cycle (the run loop fast-forwards over idle stretches), so records
     * carry their real [startCycle, endCycle) bounds.
     */
    void
    sample(Cycle now)
    {
        CounterSnapshot cur;
        if (source_)
            source_(cur);

        IntervalRecord rec;
        rec.index = sampled_;
        rec.startCycle = lastCycle_;
        rec.endCycle = now;
        rec.delta = diff(cur, prev_);
        rec.mshrHighWater = mshrHigh_;
        rec.eventQueueHighWater = evqHigh_;
        push(rec);

        prev_ = cur;
        lastCycle_ = now;
        mshrHigh_ = 0;
        evqHigh_ = 0;
        ++sampled_;
        nextSample_ += interval_;
        if (nextSample_ <= now)
            nextSample_ =
                now + interval_; // re-arm after an idle fast-forward
    }

    /** Capture the trailing partial interval (end of run). */
    void
    finalize(Cycle now)
    {
        if (now > lastCycle_)
            sample(now);
    }

    /** Records still in the ring, oldest first. */
    std::vector<IntervalRecord>
    intervals() const
    {
        std::vector<IntervalRecord> out;
        out.reserve(ring_.size());
        for (std::size_t i = 0; i < ring_.size(); ++i)
            out.push_back(
                ring_[(head_ + i) % ring_.size()]);
        return out;
    }

    /** Intervals ever sampled (== intervals().size() until the ring
     *  wraps). */
    std::uint64_t sampledIntervals() const { return sampled_; }

    /** Records lost to ring wrap-around. */
    std::uint64_t
    droppedIntervals() const
    {
        return sampled_ - ring_.size();
    }

    Cycle intervalCycles() const { return interval_; }

    /** Snapshot the ring, previous counter totals, and arm state. The
     *  source callback is reinstalled by the owning System. */
    void
    serializeState(Serializer& s)
    {
        s.marker(0x49535650, "interval_sampler");
        s.io(nextSample_);
        s.io(lastCycle_);
        static_assert(std::is_trivially_copyable_v<CounterSnapshot> &&
                      std::is_trivially_copyable_v<IntervalRecord>);
        s.io(prev_);
        s.io(ring_);
        SL_CHECK(ring_.size() <= capacity_, "interval_sampler",
                 "snapshot ring holds " << ring_.size()
                 << " records but this sampler caps at " << capacity_);
        s.io(head_);
        s.io(sampled_);
        s.io(mshrHigh_);
        s.io(evqHigh_);
    }

  private:
    static CounterSnapshot
    diff(const CounterSnapshot& a, const CounterSnapshot& b)
    {
        CounterSnapshot d;
        d.retired = a.retired - b.retired;
        d.l1dAccesses = a.l1dAccesses - b.l1dAccesses;
        d.l1dMisses = a.l1dMisses - b.l1dMisses;
        d.l2Misses = a.l2Misses - b.l2Misses;
        d.llcMisses = a.llcMisses - b.llcMisses;
        d.pfIssued = a.pfIssued - b.pfIssued;
        d.pfUseful = a.pfUseful - b.pfUseful;
        d.pfLate = a.pfLate - b.pfLate;
        d.pfDropped = a.pfDropped - b.pfDropped;
        d.mshrRetries = a.mshrRetries - b.mshrRetries;
        d.dramReads = a.dramReads - b.dramReads;
        d.dramWrites = a.dramWrites - b.dramWrites;
        d.dramBytes = a.dramBytes - b.dramBytes;
        d.dramRowHits = a.dramRowHits - b.dramRowHits;
        return d;
    }

    void
    push(const IntervalRecord& rec)
    {
        if (ring_.size() < capacity_) {
            ring_.push_back(rec);
            return;
        }
        ring_[head_] = rec; // overwrite the oldest record
        head_ = (head_ + 1) % ring_.size();
    }

    Cycle interval_;
    std::size_t capacity_;
    Cycle nextSample_;
    Cycle lastCycle_ = 0;
    Source source_;
    CounterSnapshot prev_;
    std::vector<IntervalRecord> ring_;
    std::size_t head_ = 0;
    std::uint64_t sampled_ = 0;
    std::size_t mshrHigh_ = 0;
    std::size_t evqHigh_ = 0;
};

/** A histogram flattened into plain data for results/export. */
struct HistogramData
{
    std::string name;
    std::vector<std::uint64_t> counts; //!< per log2 bucket
    std::uint64_t samples = 0;
    std::uint64_t sum = 0;
    std::uint64_t maxValue = 0;
    std::uint64_t p50 = 0, p95 = 0, p99 = 0;
};

/**
 * Everything a run's telemetry produced, as plain copyable data:
 * RunResult carries this (shared_ptr) after the System is gone, and the
 * exporters below consume it, so they are testable without a simulation.
 */
struct TelemetryData
{
    Cycle intervalCycles = 0;
    std::uint64_t droppedIntervals = 0;
    std::vector<IntervalRecord> intervals;
    std::vector<Incident> incidents;
    std::vector<HistogramData> histograms;
};

/**
 * Per-System telemetry hub. Components keep a raw pointer (null when
 * disabled) and call the inline probes below; the System's run loop
 * drives the sampler. Construction implies enabled.
 */
class Telemetry
{
  public:
    /** Latency histograms: 32 log2 buckets cover 0..2^30+ cycles. */
    using LatencyHistogram = Histogram<32>;

    /**
     * Interval-ring capacity. The ring is reserved up front so sampling
     * never allocates; once full, the oldest record is overwritten and
     * droppedIntervals() counts the loss (exporters surface it too — a
     * truncated time-series must not read as a complete one).
     */
    static constexpr std::size_t kMaxIntervals = 4096;

    explicit Telemetry(const TelemetryConfig& cfg)
        : sampler(cfg.intervalCycles, kMaxIntervals), cfg_(cfg)
    {
        cfg_.validate();
        incidents_.reserve(64);
    }

    Telemetry(const Telemetry&) = delete;
    Telemetry& operator=(const Telemetry&) = delete;

    IntervalSampler sampler;

    LatencyHistogram loadToUse;    //!< Core: dispatch -> data return
    LatencyHistogram dramLatency;  //!< Dram: arrival -> response
    LatencyHistogram fillToDemand; //!< Cache: prefetch fill -> first use

    /** Record an instant event (watchdog probe, injected fault). */
    void
    incident(const char* kind, Cycle cycle, std::string detail)
    {
        incidents_.push_back({cycle, kind, std::move(detail)});
    }

    /** Flatten sampler + histograms + incidents into plain data. */
    TelemetryData data() const;

    /**
     * Write the configured output files (no-op for empty paths); throws
     * SimError when a path cannot be opened.
     */
    void writeOutputs() const;

    /** Snapshot the sampler, histograms, and incident log. */
    void
    serializeState(Serializer& s)
    {
        s.marker(0x54454c45, "telemetry");
        sampler.serializeState(s);
        loadToUse.serializeState(s);
        dramLatency.serializeState(s);
        fillToDemand.serializeState(s);
        std::uint64_t n = incidents_.size();
        s.io(n);
        if (s.loading()) {
            incidents_.clear();
            incidents_.reserve(n);
        }
        for (std::uint64_t i = 0; i < n; ++i) {
            if (s.loading())
                incidents_.emplace_back();
            Incident& inc = incidents_[i];
            s.io(inc.cycle);
            s.io(inc.kind);
            s.io(inc.detail);
        }
    }

  private:
    TelemetryConfig cfg_;
    std::vector<Incident> incidents_;
};

// ---------- exporters (pure functions over TelemetryData) ----------

/** One JSON object per interval, newline-separated. */
std::string telemetryJsonl(const TelemetryData& d);

/** Header line plus one CSV row per interval. */
std::string telemetryCsv(const TelemetryData& d);

/**
 * Chrome trace-event JSON (a single event array, loadable in Perfetto or
 * chrome://tracing): counter tracks per interval metric, instant events
 * per incident, metadata events naming the process. ts is microseconds
 * with 1 us == 1 kilocycle, so the timeline reads directly in kcycles.
 */
std::string chromeTraceJson(const TelemetryData& d);

/**
 * Derive the per-job variant of an output path: "out.jsonl" with job 3
 * becomes "out.job3.jsonl" (suffix appended when there is no extension).
 * BatchRunner applies this so parallel jobs never share a file.
 */
std::string perJobPath(const std::string& path, std::size_t job);

} // namespace sl

#endif // SL_TELEMETRY_TELEMETRY_HH
