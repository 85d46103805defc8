#include "sim/batch.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/hash.hh"

namespace sl
{

unsigned
defaultJobThreads()
{
    if (const char* env = std::getenv("SL_JOBS")) {
        const long v = std::atol(env);
        if (v >= 1)
            return static_cast<unsigned>(v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

BatchRunner::BatchRunner(unsigned threads, BatchOptions opts)
    : threads_(threads ? threads : defaultJobThreads()),
      opts_(std::move(opts))
{
}

std::string
jobDigest(const ExperimentSpec& spec)
{
    // The results version leads the key: a manifest journalled by a
    // build whose results differ must rerun its jobs, never splice its
    // stale results into this build's report.
    std::string key = "r" + std::to_string(kResultsVersion);
    key += '\0';
    key += spec.label;
    key += '\0';
    key += toJson(spec.config);
    key += tuningKey(spec.config);
    for (const auto& w : spec.workloads) {
        key += '\0';
        key += w;
    }
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0')
       << fnv1a(key.data(), key.size());
    return os.str();
}

namespace
{

/**
 * One attempt-limited job execution. The per-job timeout flows through
 * RunHooks: over-budget jobs snapshot themselves first (so a hung run is
 * resumable for postmortem), then fail with SimError("job_timeout") and
 * take the same retry/journal path as any other failure.
 */
JobResult
runOne(const ExperimentSpec& spec, const BatchOptions& opts,
       std::size_t job_index)
{
    JobResult jr;
    const auto t0 = std::chrono::steady_clock::now();

    RunHooks hooks = spec.hooks;
    if (opts.jobTimeoutSec > 0) {
        hooks.wallTimeoutSec = opts.jobTimeoutSec;
        hooks.timeoutSnapshotPath =
            (opts.snapshotDir.empty() ? std::string()
                                      : opts.snapshotDir + "/") +
            "sl_snapshot_hang_job" + std::to_string(job_index) + ".bin";
    }

    const unsigned attempts = 1 + opts.maxRetries;
    for (unsigned attempt = 0; attempt < attempts; ++attempt) {
        ++jr.attempts;
        try {
            jr.result =
                runWorkloadsRaw(spec.config, spec.workloads, hooks);
            jr.ok = true;
            jr.error.reset();
            jr.reproBundle.clear();
            break;
        } catch (const SimError& err) {
            jr.error = err;
            jr.reproBundle =
                formatReproBundle(spec.config, spec.workloads, err);
        } catch (const std::exception& e) {
            // Non-simulation failures (unknown workload, bad argument)
            // are wrapped so every failure travels the same path.
            SimError err("batch", kNoErrorCycle, e.what(),
                         std::string("[batch] ") + e.what());
            jr.error = err;
            jr.reproBundle =
                formatReproBundle(spec.config, spec.workloads, err);
        }
    }
    jr.wallSeconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    return jr;
}

/**
 * Parse a sweep manifest: digest -> (ok, journalled job JSON). The lines
 * are our own writer's output, so string surgery suffices -- "job" is
 * always the final field. Unparseable lines (a crash can truncate the
 * last line mid-write on some filesystems) are skipped; the job just
 * reruns. Later lines win, so a rerun of a failed job supersedes it.
 */
std::map<std::string, std::pair<bool, std::string>>
loadManifest(const std::string& path)
{
    std::map<std::string, std::pair<bool, std::string>> entries;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        const std::string digestKey = "{\"digest\":\"";
        const std::string okKey = "\",\"ok\":";
        const std::string jobKey = ",\"job\":";
        if (line.rfind(digestKey, 0) != 0 || line.empty() ||
            line.back() != '}')
            continue;
        const std::size_t dBegin = digestKey.size();
        const std::size_t dEnd = line.find(okKey, dBegin);
        if (dEnd == std::string::npos)
            continue;
        const std::size_t jBegin = line.find(jobKey, dEnd);
        if (jBegin == std::string::npos)
            continue;
        const std::string digest = line.substr(dBegin, dEnd - dBegin);
        const bool ok = line.compare(dEnd + okKey.size(), 4, "true") == 0;
        const std::size_t fragBegin = jBegin + jobKey.size();
        entries[digest] = {ok, line.substr(fragBegin, line.size() -
                                                          fragBegin - 1)};
    }
    return entries;
}

} // namespace

std::vector<JobResult>
BatchRunner::run(const std::vector<ExperimentSpec>& specs_in) const
{
    // Jobs that write telemetry files must not share a path: rewrite
    // every configured output to its per-job variant when more than one
    // job wants files. A single job keeps the caller's exact paths.
    const std::vector<ExperimentSpec>* specs_ptr = &specs_in;
    std::vector<ExperimentSpec> owned;
    const bool any_files = specs_in.size() > 1 &&
                           std::any_of(specs_in.begin(), specs_in.end(),
                                       [](const ExperimentSpec& s) {
                                           return s.config.telemetry
                                               .wantsFiles();
                                       });
    if (any_files) {
        owned = specs_in;
        for (std::size_t i = 0; i < owned.size(); ++i) {
            TelemetryConfig& t = owned[i].config.telemetry;
            if (!t.jsonlPath.empty())
                t.jsonlPath = perJobPath(t.jsonlPath, i);
            if (!t.csvPath.empty())
                t.csvPath = perJobPath(t.csvPath, i);
            if (!t.tracePath.empty())
                t.tracePath = perJobPath(t.tracePath, i);
        }
        specs_ptr = &owned;
    }
    const std::vector<ExperimentSpec>& specs = *specs_ptr;

    std::vector<JobResult> results(specs.size());
    if (specs.empty())
        return results;

    // Resumable sweeps: digests identify jobs across invocations; the
    // journal replays completed-ok jobs and reruns everything else.
    const bool journaled = !opts_.manifestPath.empty();
    std::vector<std::string> digests;
    std::map<std::string, std::pair<bool, std::string>> prior;
    std::ofstream manifest;
    std::mutex manifestMu;
    if (journaled) {
        digests.reserve(specs.size());
        for (const auto& sp : specs)
            digests.push_back(jobDigest(sp));
        prior = loadManifest(opts_.manifestPath);
        manifest.open(opts_.manifestPath, std::ios::app);
        SL_CHECK(manifest.good(), "batch",
                 "cannot open sweep manifest '" << opts_.manifestPath
                                                << "' for appending");
    }

    auto runJob = [&](std::size_t i) {
        if (journaled) {
            if (auto it = prior.find(digests[i]);
                it != prior.end() && it->second.first) {
                results[i].ok = true;
                results[i].cachedJson = it->second.second;
                return; // already journalled ok: skip, splice its JSON
            }
        }
        results[i] = runOne(specs[i], opts_, i);
        if (journaled) {
            // Flush after every line so a SIGKILL at any point leaves a
            // valid journal; the at-most-one-partial last line is
            // skipped by the loader and that job simply reruns.
            std::lock_guard<std::mutex> lock(manifestMu);
            manifest << "{\"digest\":\"" << digests[i]
                     << "\",\"ok\":" << (results[i].ok ? "true" : "false")
                     << ",\"job\":" << toJson(specs[i], results[i])
                     << "}\n";
            manifest.flush();
        }
    };

    const std::size_t workers =
        std::min<std::size_t>(threads_, specs.size());
    if (workers <= 1) {
        for (std::size_t i = 0; i < specs.size(); ++i)
            runJob(i);
        return results;
    }

    // Work-stealing by atomic ticket: results land at their submission
    // index, so the output order never depends on thread interleaving.
    std::atomic<std::size_t> next{0};
    auto worker = [&specs, &runJob, &next] {
        for (std::size_t i = next.fetch_add(1); i < specs.size();
             i = next.fetch_add(1))
            runJob(i);
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t t = 0; t < workers; ++t)
        pool.emplace_back(worker);
    for (auto& th : pool)
        th.join();
    return results;
}

std::string
toJson(const RunConfig& cfg)
{
    std::ostringstream os;
    os << "{\"l1\":\"" << jsonEscape(cfg.l1) << "\""
       << ",\"l2\":\"" << jsonEscape(cfg.l2) << "\""
       << ",\"cores\":" << cfg.cores
       << ",\"dram_mts\":" << cfg.dramMTs
       << ",\"trace_scale\":" << jsonNumber(cfg.traceScale)
       << ",\"seed\":" << cfg.seed << "}";
    return os.str();
}

std::string
tuningKey(const RunConfig& cfg)
{
    std::ostringstream os;
    const auto put = [&os](const char* name, auto... v) {
        os << name << ':';
        ((os << ' ' << v), ...);
        os << ';';
    };
    const StreamlineConfig& s = cfg.streamline;
    put("streamline", s.streamLength, s.bufferEntries, s.tuEntries,
        s.maxDegree, s.enableBuffer, s.enableAlignment,
        s.taggedSetPartition, s.useTpMockingjay, s.degreeControl,
        s.realignment, s.skewedIndexing, s.triangelPartitioner,
        s.fixedDen, s.fixedWays, s.ideal, s.metaWaysPerSet,
        s.partialTagBits, s.degreeEpoch);
    const TriangelConfig& t = cfg.triangel;
    put(" triangel", t.maxDegree, t.tuEntries, t.maxWays,
        t.resizeInterval, t.mrbEntries, t.hsEntries, t.scsEntries,
        t.ideal, t.useTpMockingjay);
    const TriageConfig& g = cfg.triage;
    put(" triage", g.degree, g.tuEntries, g.maxWays, g.resizeInterval,
        g.unlimited);
    return os.str();
}

std::string
toJson(const ExperimentSpec& spec, const JobResult& jr)
{
    // Manifest-resumed jobs replay their journalled fragment verbatim,
    // so a resumed sweep's ==JSON== is indistinguishable from the
    // uninterrupted run's.
    if (!jr.cachedJson.empty())
        return jr.cachedJson;
    std::ostringstream os;
    os << "{\"label\":\"" << jsonEscape(spec.label) << "\""
       << ",\"config\":" << toJson(spec.config)
       << ",\"ok\":" << (jr.ok ? "true" : "false")
       << ",\"wall_seconds\":" << jsonNumber(jr.wallSeconds);
    if (!jr.ok && jr.error) {
        os << ",\"error\":{\"component\":\""
           << jsonEscape(jr.error->component()) << "\",\"what\":\""
           << jsonEscape(jr.error->what()) << "\"}";
    }
    if (jr.ok) {
        os << ",\"workloads\":[";
        for (std::size_t c = 0; c < jr.result.cores.size(); ++c) {
            const CoreResult& cr = jr.result.cores[c];
            os << (c ? "," : "") << "{\"workload\":\""
               << jsonEscape(cr.workload) << "\""
               << ",\"ipc\":" << jsonNumber(cr.ipc)
               << ",\"coverage\":" << jsonNumber(cr.coverage())
               << ",\"accuracy\":" << jsonNumber(cr.accuracy());
            // Raw interval extents and fenced L2 counters, emitted only
            // for stat-fenced (sampled-interval) jobs so every existing
            // bench's JSON stays byte-identical.
            if (spec.hooks.statFence)
                os << ",\"eval_instructions\":" << cr.evalInstructions
                   << ",\"eval_cycles\":" << cr.evalCycles
                   << ",\"l2_demand_misses\":" << cr.l2DemandMisses
                   << ",\"l2_pf_useful\":" << cr.l2PrefetchUseful
                   << ",\"l2_pf_issued\":" << cr.l2PrefetchIssued;
            os << "}";
        }
        os << "]"
           << ",\"metadata_traffic\":" << jr.result.metadataTraffic()
           << ",\"dram_bytes\":" << jr.result.dramBytes
           << ",\"stored_correlations\":"
           << jr.result.storedCorrelations;
    }
    os << "}";
    return os.str();
}

std::string
batchJson(const std::string& bench,
          const std::vector<ExperimentSpec>& specs,
          const std::vector<JobResult>& results, unsigned threads,
          double wall_seconds)
{
    std::ostringstream os;
    os << "{\"bench\":\"" << jsonEscape(bench) << "\""
       << ",\"threads\":" << threads
       << ",\"wall_seconds\":" << jsonNumber(wall_seconds)
       << ",\"jobs\":[";
    for (std::size_t i = 0; i < results.size(); ++i)
        os << (i ? "," : "") << toJson(specs[i], results[i]);
    os << "]}";
    return os.str();
}

} // namespace sl
