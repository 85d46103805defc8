#include "telemetry/telemetry.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/json.hh"

namespace sl
{

namespace
{

/** Trace-event timestamp: microseconds, 1 us == 1 kilocycle. */
double
ts(Cycle c)
{
    return static_cast<double>(c) / 1000.0;
}

void
appendIntervalFields(std::ostringstream& os, const IntervalRecord& r,
                     const char* sep, bool quote_keys)
{
    const auto field = [&](const char* key, const std::string& value,
                           bool first = false) {
        if (!first)
            os << sep;
        if (quote_keys)
            os << '"' << key << "\":";
        os << value;
    };
    field("interval", std::to_string(r.index), true);
    field("start_cycle", std::to_string(r.startCycle));
    field("end_cycle", std::to_string(r.endCycle));
    field("cycles", std::to_string(r.cycles()));
    field("retired", std::to_string(r.delta.retired));
    field("ipc", jsonNumber(r.ipc()));
    field("l1d_accesses", std::to_string(r.delta.l1dAccesses));
    field("l1d_misses", std::to_string(r.delta.l1dMisses));
    field("l1d_mpki", jsonNumber(r.l1dMpki()));
    field("l2_misses", std::to_string(r.delta.l2Misses));
    field("l2_mpki", jsonNumber(r.l2Mpki()));
    field("llc_misses", std::to_string(r.delta.llcMisses));
    field("llc_mpki", jsonNumber(r.llcMpki()));
    field("pf_issued", std::to_string(r.delta.pfIssued));
    field("pf_useful", std::to_string(r.delta.pfUseful));
    field("pf_late", std::to_string(r.delta.pfLate));
    field("pf_dropped", std::to_string(r.delta.pfDropped));
    field("pf_accuracy", jsonNumber(r.accuracy()));
    field("pf_coverage", jsonNumber(r.coverage()));
    field("dram_reads", std::to_string(r.delta.dramReads));
    field("dram_writes", std::to_string(r.delta.dramWrites));
    field("dram_bytes", std::to_string(r.delta.dramBytes));
    field("dram_row_hit_rate", jsonNumber(r.dramRowHitRate()));
    field("dram_bytes_per_kcycle", jsonNumber(r.dramBytesPerKCycle()));
    field("mshr_retries", std::to_string(r.delta.mshrRetries));
    field("mshr_high_water", std::to_string(r.mshrHighWater));
    field("evq_high_water", std::to_string(r.eventQueueHighWater));
}

constexpr const char* kCsvHeader =
    "interval,start_cycle,end_cycle,cycles,retired,ipc,l1d_accesses,"
    "l1d_misses,l1d_mpki,l2_misses,l2_mpki,llc_misses,llc_mpki,"
    "pf_issued,pf_useful,pf_late,pf_dropped,pf_accuracy,pf_coverage,"
    "dram_reads,"
    "dram_writes,dram_bytes,dram_row_hit_rate,dram_bytes_per_kcycle,"
    "mshr_retries,mshr_high_water,evq_high_water";

} // namespace

TelemetryData
Telemetry::data() const
{
    TelemetryData d;
    d.intervalCycles = sampler.intervalCycles();
    d.droppedIntervals = sampler.droppedIntervals();
    d.intervals = sampler.intervals();
    d.incidents = incidents_;

    const auto flatten = [](const char* name,
                            const LatencyHistogram& h) {
        HistogramData out;
        out.name = name;
        out.counts.reserve(LatencyHistogram::kBuckets);
        for (unsigned b = 0; b < LatencyHistogram::kBuckets; ++b)
            out.counts.push_back(h.count(b));
        out.samples = h.samples();
        out.sum = h.sum();
        out.maxValue = h.maxValue();
        out.p50 = h.percentile(0.50);
        out.p95 = h.percentile(0.95);
        out.p99 = h.percentile(0.99);
        return out;
    };
    d.histograms.push_back(flatten("load_to_use_cycles", loadToUse));
    d.histograms.push_back(flatten("dram_latency_cycles", dramLatency));
    d.histograms.push_back(
        flatten("prefetch_fill_to_demand_cycles", fillToDemand));
    return d;
}

std::string
telemetryJsonl(const TelemetryData& d)
{
    std::ostringstream os;
    for (const IntervalRecord& r : d.intervals) {
        std::ostringstream line;
        line << '{';
        appendIntervalFields(line, r, ",", /*quote_keys=*/true);
        line << '}';
        os << line.str() << '\n';
    }
    return os.str();
}

std::string
telemetryCsv(const TelemetryData& d)
{
    std::ostringstream os;
    os << kCsvHeader << '\n';
    for (const IntervalRecord& r : d.intervals) {
        std::ostringstream line;
        appendIntervalFields(line, r, ",", /*quote_keys=*/false);
        os << line.str() << '\n';
    }
    return os.str();
}

std::string
chromeTraceJson(const TelemetryData& d)
{
    // Build (ts, event) pairs, then stable-sort so the whole array is
    // monotone in ts — Perfetto tolerates disorder, but a sorted stream
    // is simpler to validate and diff.
    std::vector<std::pair<double, std::string>> events;
    events.reserve(6 * d.intervals.size() + d.incidents.size() + 2);

    const auto counter = [&](double t, const char* name,
                             const std::string& args) {
        events.emplace_back(
            t, std::string("{\"name\":\"") + name +
                   "\",\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":" +
                   jsonNumber(t) + ",\"args\":{" + args + "}}");
    };

    for (const IntervalRecord& r : d.intervals) {
        const double t = ts(r.startCycle);
        counter(t, "ipc", "\"ipc\":" + jsonNumber(r.ipc()));
        counter(t, "mpki",
                "\"l1d\":" + jsonNumber(r.l1dMpki()) +
                    ",\"l2\":" + jsonNumber(r.l2Mpki()) +
                    ",\"llc\":" + jsonNumber(r.llcMpki()));
        counter(t, "prefetch",
                "\"issued\":" + std::to_string(r.delta.pfIssued) +
                    ",\"useful\":" + std::to_string(r.delta.pfUseful) +
                    ",\"late\":" + std::to_string(r.delta.pfLate) +
                    ",\"dropped\":" +
                    std::to_string(r.delta.pfDropped));
        counter(t, "dram_bytes_per_kcycle",
                "\"bandwidth\":" + jsonNumber(r.dramBytesPerKCycle()));
        counter(t, "dram_row_hit_rate",
                "\"rate\":" + jsonNumber(r.dramRowHitRate()));
        counter(t, "occupancy_high_water",
                "\"mshr\":" + std::to_string(r.mshrHighWater) +
                    ",\"event_queue\":" +
                    std::to_string(r.eventQueueHighWater));
    }

    for (const Incident& inc : d.incidents) {
        const double t = ts(inc.cycle);
        events.emplace_back(
            t, "{\"name\":\"" + jsonEscape(inc.kind) +
                   "\",\"ph\":\"i\",\"s\":\"g\",\"pid\":0,\"tid\":0,"
                   "\"ts\":" +
                   jsonNumber(t) + ",\"args\":{\"detail\":\"" +
                   jsonEscape(inc.detail) + "\"}}");
    }

    std::stable_sort(events.begin(), events.end(),
                     [](const auto& a, const auto& b) {
                         return a.first < b.first;
                     });

    std::ostringstream os;
    os << "[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
          "\"ts\":0,\"args\":{\"name\":\"streamline-sim\"}}";
    os << ",{\"name\":\"telemetry_meta\",\"ph\":\"M\",\"pid\":0,"
          "\"tid\":0,\"ts\":0,\"args\":{\"interval_cycles\":"
       << d.intervalCycles
       << ",\"dropped_intervals\":" << d.droppedIntervals << "}}";
    for (const auto& [t, e] : events)
        os << ",\n" << e;
    os << "]\n";
    return os.str();
}

void
Telemetry::writeOutputs() const
{
    if (!cfg_.wantsFiles())
        return;
    const TelemetryData d = data();
    const auto write = [](const std::string& path,
                          const std::string& body) {
        if (path.empty())
            return;
        std::ofstream out(path);
        SL_REQUIRE(out.good(), "telemetry",
                   "cannot open telemetry output file '" << path << "'");
        out << body;
    };
    write(cfg_.jsonlPath, telemetryJsonl(d));
    write(cfg_.csvPath, telemetryCsv(d));
    write(cfg_.tracePath, chromeTraceJson(d));
}

std::string
perJobPath(const std::string& path, std::size_t job)
{
    if (path.empty())
        return path;
    const std::size_t slash = path.find_last_of('/');
    const std::size_t dot = path.find_last_of('.');
    const std::string tag = ".job" + std::to_string(job);
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash))
        return path + tag;
    return path.substr(0, dot) + tag + path.substr(dot);
}

} // namespace sl
