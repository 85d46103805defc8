/**
 * @file
 * Shared helpers for the figure/table reproduction benches.
 *
 * Every bench submits its simulation jobs through a BatchRunner
 * (sim/batch.hh), so sweeps parallelise across SL_JOBS worker threads
 * with results bit-identical to serial execution. Each process also
 * accumulates every job it ran into a JSON document printed at exit
 * between ==JSON== / ==END-JSON== marker lines, so scripts get
 * machine-readable metrics next to the human tables.
 *
 * SL_BENCH_SCALE and SL_MIX_COUNT override the laptop-scale defaults.
 */

#ifndef SL_BENCH_BENCH_UTIL_HH
#define SL_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "sim/batch.hh"
#include "sim/runner.hh"
#include "trace/mix.hh"

namespace sl
{
namespace bench
{

/** Trace scale for benches (env SL_BENCH_SCALE, default 0.25). */
inline double
benchScale()
{
    if (const char* env = std::getenv("SL_BENCH_SCALE"))
        return std::max(0.02, std::atof(env));
    return 0.25;
}

/** The full memory-intensive workload list (all 20). */
inline std::vector<std::string>
allWorkloads()
{
    return workloadNames();
}

/**
 * A representative subset used by the parameter-sweep benches, chosen to
 * cover pointer chasing, hash walks, sparse algebra, and graph kernels.
 */
inline std::vector<std::string>
sweepWorkloads()
{
    return {"spec06_mcf", "spec06_xalancbmk", "spec06_soplex",
            "gap_bfs", "gap_cc", "gap_tc"};
}

/**
 * Per-process JSON report. Every runBatch() call records its jobs here;
 * at process exit the whole document prints between ==JSON== and
 * ==END-JSON== lines. Benches that compute derived values (summary
 * rows, offline-model tables) attach them via note().
 */
class JsonReport
{
  public:
    static JsonReport&
    instance()
    {
        static JsonReport report;
        // Registered AFTER report's destructor so the exit hook runs
        // while the object is still alive (atexit/dtor LIFO order).
        static const int hook =
            (std::atexit([] { instance().emit(); }), 0);
        (void)hook;
        return report;
    }

    void
    setBench(std::string name)
    {
        std::lock_guard<std::mutex> lock(mu_);
        bench_ = std::move(name);
    }

    void
    record(const std::vector<ExperimentSpec>& specs,
           const std::vector<JobResult>& results)
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (std::size_t i = 0; i < results.size(); ++i)
            jobs_.push_back(toJson(specs[i], results[i]));
    }

    /** Attach one extra JSON *object* to the document's "notes" array. */
    void
    note(const std::string& json_object)
    {
        std::lock_guard<std::mutex> lock(mu_);
        notes_.push_back(json_object);
    }

  private:
    JsonReport()
        : start_(std::chrono::steady_clock::now()),
          threads_(defaultJobThreads())
    {
    }

    void
    emit()
    {
        std::lock_guard<std::mutex> lock(mu_);
        const double wall =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start_)
                .count();
        std::string doc = "{\"bench\":\"" + jsonEscape(bench_) + "\"";
        doc += ",\"threads\":" + std::to_string(threads_);
        doc += ",\"wall_seconds\":" + jsonNumber(wall);
        doc += ",\"jobs\":[";
        for (std::size_t i = 0; i < jobs_.size(); ++i)
            doc += (i ? "," : "") + jobs_[i];
        doc += "],\"notes\":[";
        for (std::size_t i = 0; i < notes_.size(); ++i)
            doc += (i ? "," : "") + notes_[i];
        doc += "]}";
        std::printf("==JSON==\n%s\n==END-JSON==\n", doc.c_str());
        std::fflush(stdout);
    }

    std::mutex mu_;
    std::string bench_ = "unnamed";
    std::vector<std::string> jobs_;
    std::vector<std::string> notes_;
    std::chrono::steady_clock::time_point start_;
    unsigned threads_;
};

/**
 * Telemetry knobs from the environment: SL_TELEMETRY=1 enables interval
 * sampling, SL_TELEMETRY_INTERVAL overrides the sample period (and
 * implies enablement), and SL_TELEMETRY_OUT=prefix additionally writes
 * prefix.jsonl / prefix.csv / prefix.trace.json (BatchRunner rewrites
 * the paths per job, so sweeps get one file set per job).
 */
inline TelemetryConfig
telemetryFromEnv()
{
    TelemetryConfig t;
    if (const char* env = std::getenv("SL_TELEMETRY"))
        t.enabled = std::atoi(env) != 0;
    if (const char* env = std::getenv("SL_TELEMETRY_INTERVAL")) {
        const long long v = std::atoll(env);
        if (v > 0) {
            t.intervalCycles = static_cast<Cycle>(v);
            t.enabled = true;
        }
    }
    if (const char* env = std::getenv("SL_TELEMETRY_OUT")) {
        if (const std::string prefix = env; !prefix.empty()) {
            t.jsonlPath = prefix + ".jsonl";
            t.csvPath = prefix + ".csv";
            t.tracePath = prefix + ".trace.json";
            t.enabled = true;
        }
    }
    return t;
}

/**
 * Run @p specs through the process-wide BatchRunner, record them in the
 * JSON report, and fail loudly on the first failed job (its repro
 * bundle is written first, matching runWorkloads's behaviour). Specs
 * without their own telemetry config inherit the SL_TELEMETRY* env
 * knobs, so any bench can be run instrumented without code changes.
 */
inline std::vector<JobResult>
runBatch(const std::vector<ExperimentSpec>& specs_in)
{
    static BatchRunner runner;
    static const TelemetryConfig env_tele = telemetryFromEnv();
    const std::vector<ExperimentSpec>* use = &specs_in;
    std::vector<ExperimentSpec> owned;
    if (env_tele.enabled) {
        owned = specs_in;
        for (auto& s : owned)
            if (!s.config.telemetry.enabled)
                s.config.telemetry = env_tele;
        use = &owned;
    }
    const std::vector<ExperimentSpec>& specs = *use;
    auto results = runner.run(specs);
    JsonReport::instance().record(specs, results);
    for (const auto& jr : results) {
        if (!jr.ok) {
            if (std::ofstream out(reproBundlePath()); out)
                out << jr.reproBundle;
            throw *jr.error;
        }
    }
    return results;
}

/** One single-core job per workload under the same config. */
inline std::vector<RunResult>
runAcross(const RunConfig& proto, const std::vector<std::string>& workloads,
          double scale, const std::string& label)
{
    std::vector<ExperimentSpec> specs;
    for (const auto& w : workloads) {
        RunConfig c = proto;
        c.cores = 1;
        c.traceScale = scale;
        specs.push_back({label + ":" + w, c, {w}});
    }
    const auto jobs = runBatch(specs);
    std::vector<RunResult> out;
    out.reserve(jobs.size());
    for (const auto& j : jobs)
        out.push_back(j.result);
    return out;
}

namespace detail
{

using BaselineKey = std::pair<std::string, double>;

inline std::mutex&
baselineMutex()
{
    static std::mutex mu;
    return mu;
}

inline std::map<BaselineKey, RunResult>&
baselineCache()
{
    static std::map<BaselineKey, RunResult> cache;
    return cache;
}

} // namespace detail

/**
 * Batch the not-yet-cached baseline runs (stride L1, no L2 prefetcher)
 * for @p workloads at @p scale through the worker pool. Call before a
 * sweep so the per-workload baseline() lookups below all hit.
 */
inline void
warmBaselines(const std::vector<std::string>& workloads, double scale)
{
    std::vector<std::string> missing;
    {
        std::lock_guard<std::mutex> lock(detail::baselineMutex());
        const auto& cache = detail::baselineCache();
        for (const auto& w : workloads) {
            if (cache.count({w, scale}))
                continue;
            if (std::find(missing.begin(), missing.end(), w) ==
                missing.end())
                missing.push_back(w);
        }
    }
    if (missing.empty())
        return;

    std::vector<ExperimentSpec> specs;
    for (const auto& w : missing) {
        RunConfig cfg;
        cfg.traceScale = scale;
        specs.push_back({"baseline:" + w, cfg, {w}});
    }
    const auto jobs = runBatch(specs);

    std::lock_guard<std::mutex> lock(detail::baselineMutex());
    for (std::size_t i = 0; i < missing.size(); ++i)
        detail::baselineCache().emplace(
            detail::BaselineKey{missing[i], scale}, jobs[i].result);
}

/**
 * Cached baseline run, keyed by workload AND scale so benches mixing
 * scales (e.g. Fig 10's capped multicore scale) don't cross-contaminate.
 * Thread-safe; map references stay valid because nothing ever erases.
 */
inline const RunResult&
baseline(const std::string& workload, double scale)
{
    {
        std::lock_guard<std::mutex> lock(detail::baselineMutex());
        const auto& cache = detail::baselineCache();
        if (auto it = cache.find({workload, scale}); it != cache.end())
            return it->second;
    }
    warmBaselines({workload}, scale);
    std::lock_guard<std::mutex> lock(detail::baselineMutex());
    return detail::baselineCache().at({workload, scale});
}

/** Geomean speedup of a config over the baseline across workloads. */
inline double
geomeanSpeedup(const std::vector<std::string>& workloads,
               const RunConfig& cfg, double scale)
{
    warmBaselines(workloads, scale);
    const auto runs = runAcross(
        cfg, workloads, scale, cfg.l1 + "+" + cfg.l2);
    std::vector<double> speedups;
    for (std::size_t i = 0; i < workloads.size(); ++i)
        speedups.push_back(runs[i].cores[0].ipc /
                           baseline(workloads[i], scale).cores[0].ipc);
    return geomean(speedups);
}

inline void
banner(const char* what)
{
    JsonReport::instance().setBench(what);
    std::printf("== %s ==\n", what);
    std::printf("   scale=%.2f (SL_BENCH_SCALE to override); shapes, not"
                " absolute numbers, are the reproduction target\n",
                benchScale());
    std::printf("   jobs run on %u threads (SL_JOBS to override)\n",
                defaultJobThreads());
}

} // namespace bench
} // namespace sl

#endif // SL_BENCH_BENCH_UTIL_HH
