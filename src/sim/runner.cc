#include "sim/runner.hh"

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>

#include "common/error.hh"
#include "prefetch/berti.hh"
#include "prefetch/bingo.hh"
#include "prefetch/ipcp.hh"
#include "prefetch/spp.hh"
#include "prefetch/stride.hh"
#include "sample/sampled.hh"
#include "sim/batch.hh"
#include "sim/snapshot.hh"
#include "temporal/triage.hh"
#include "trace/mix.hh"

namespace sl
{

namespace
{

/** A design built with its default parameters: it reads no tuning. */
template <typename P>
std::unique_ptr<Prefetcher>
byDefault(const RunConfig&)
{
    return std::make_unique<P>();
}

/** Append " <name>" for every design that can attach at the L1D
 *  (@p l1) or the L2, in table order. */
void
listPrefetchers(std::ostream& os, bool l1)
{
    for (const auto& d : prefetcherDesigns())
        if (d.l1 || !l1)
            os << " " << d.name;
}

/** findPrefetcher, or a SimError naming what that level accepts. */
const PrefetcherDesign&
requirePrefetcher(const std::string& name, bool l1)
{
    if (const PrefetcherDesign* d = findPrefetcher(name, l1))
        return *d;
    const char* where = l1 ? "L1" : "L2";
    std::ostringstream msg;
    if (findPrefetcher(name, false))
        msg << "prefetcher '" << name << "' cannot attach at " << where;
    else
        msg << "unknown prefetcher '" << name << "'";
    msg << "; " << where << " names:";
    listPrefetchers(msg, l1);
    throw SimError("prefetcher_registry", kNoErrorCycle, msg.str(),
                   "[prefetcher_registry] " + msg.str());
}

/** The per-core factory for @p name; it holds its own copy of @p cfg. */
PrefetcherFactory
factoryFor(const std::string& name, bool l1, const RunConfig& cfg)
{
    const auto make = requirePrefetcher(name, l1).make;
    if (!make)
        return {};
    return [make, cfg] { return make(cfg); };
}

/**
 * SL_DUMP_STATS=1: print every component's complete counter map after a
 * run, in deterministic (construction, then key-sorted) order. The dump
 * is a perf-refactor safety net -- two builds claiming bit-identical
 * behaviour must produce byte-identical dumps -- and a debugging aid.
 */
void
dumpSystemStats(System& sys, std::ostream& os)
{
    auto group = [&](const StatGroup& g) {
        for (const auto& [k, v] : g.counters())
            os << g.name() << "." << k << " = " << v.value() << "\n";
    };
    os << "==STATS==\n";
    for (unsigned c = 0; c < sys.cores(); ++c)
        group(sys.core(c).stats());
    for (unsigned c = 0; c < sys.cores(); ++c)
        group(sys.l1d(c).stats());
    for (unsigned c = 0; c < sys.cores(); ++c)
        group(sys.l2(c).stats());
    group(sys.llc().stats());
    group(sys.dram().stats());
    for (unsigned c = 0; c < sys.cores(); ++c) {
        if (Prefetcher* pf = sys.l1dPrefetcher(c))
            group(pf->stats());
        if (Prefetcher* pf = sys.l2Prefetcher(c)) {
            group(pf->stats());
            if (const StatGroup* store = pf->metadataStoreStats())
                group(*store);
        }
    }
    if (MemPressure* mp = sys.memPressure())
        group(mp->stats());
    os << "==ENDSTATS==\n";
}

} // namespace

const std::vector<PrefetcherDesign>&
prefetcherDesigns()
{
    using Built = std::unique_ptr<Prefetcher>;
    static const std::vector<PrefetcherDesign> designs = {
        // "none" is a real row so validation accepts it and the listing
        // shows it; it builds nothing.
        {"none", true, nullptr},
        // Degree 3 at either level (the paper's L1D baseline prefetcher).
        {"stride", true, byDefault<StridePrefetcher>},
        {"berti", true, byDefault<BertiPrefetcher>},
        {"ipcp", true, byDefault<IpcpPrefetcher>},
        {"bingo", true, byDefault<BingoPrefetcher>},
        {"spp_ppf", true, byDefault<SppPrefetcher>},
        {"streamline", false,
         [](const RunConfig& c) -> Built {
             return std::make_unique<StreamlinePrefetcher>(c.streamline);
         }},
        {"triage", false, byDefault<TriagePrefetcher>},
        // The ideal variants are the same classes with unbounded
        // zero-cost metadata (Triage) or a dedicated full-size store and
        // no LLC metadata (Triangel); these names are the only way to
        // select them.
        {"triage_ideal", false,
         [](const RunConfig&) -> Built {
             return std::make_unique<TriagePrefetcher>(TriageConfig{},
                                                       /*unlimited=*/true);
         }},
        {"triangel", false,
         [](const RunConfig& c) -> Built {
             return std::make_unique<TriangelPrefetcher>(c.triangel);
         }},
        {"triangel_ideal", false,
         [](const RunConfig& c) -> Built {
             return std::make_unique<TriangelPrefetcher>(c.triangel,
                                                         /*ideal=*/true);
         }},
    };
    return designs;
}

const PrefetcherDesign*
findPrefetcher(const std::string& name, bool l1)
{
    for (const auto& d : prefetcherDesigns())
        if (d.name == name)
            return d.l1 || !l1 ? &d : nullptr;
    return nullptr;
}

SystemConfig
systemConfigFor(const RunConfig& cfg)
{
    SystemConfig sc;
    sc.cores = cfg.cores;
    sc.dramMTs = cfg.dramMTs;
    sc.l1dPrefetcher = factoryFor(cfg.l1, true, cfg);
    sc.l2Prefetcher = factoryFor(cfg.l2, false, cfg);
    sc.faults = cfg.faults;
    sc.hardening = cfg.hardening;
    sc.telemetry = cfg.telemetry;
    return sc;
}

void
RunConfig::validate() const
{
    SL_REQUIRE(cores >= 1, "run_config", "need at least one core");
    // Scale > 10 synthesizes traces an order of magnitude past the
    // paper's footprint -- almost certainly a units mistake.
    SL_REQUIRE(traceScale <= 10.0, "run_config",
               "traceScale " << traceScale
                             << " is implausibly large (1.0 = paper "
                                "footprint; <= 0 selects the default)");
    faults.validate();
    hardening.validate();
    telemetry.validate();
    requirePrefetcher(l1, true);
    requirePrefetcher(l2, false);
}

std::string
formatReproBundle(const RunConfig& cfg,
                  const std::vector<std::string>& workloads,
                  const SimError& err)
{
    std::ostringstream os;
    os << "# Streamline repro bundle\n";
    os << "# Re-run with these exact values to replay the failure\n";
    os << "# bit-identically (all randomness is seeded).\n";
    os << "seed = " << cfg.seed << "\n";
    os << "cores = " << cfg.cores << "\n";
    os << "workloads =";
    for (const auto& w : workloads)
        os << " " << w;
    os << "\n";
    os << "trace_scale = " << cfg.traceScale << " (resolved "
       << (cfg.traceScale > 0 ? cfg.traceScale : defaultTraceScale())
       << ")\n";
    os << "l1_prefetcher = " << cfg.l1 << "\n";
    os << "l2_prefetcher = " << cfg.l2 << "\n";
    os << "tuning = " << tuningKey(cfg) << "\n";
    os << "dram_mts = " << cfg.dramMTs << "\n";
    os << "fault.seed = " << cfg.faults.seed << "\n";
    os << "fault.metadata_bit_flip_rate = "
       << cfg.faults.metadataBitFlipRate << "\n";
    os << "fault.drop_prefetch_fill_rate = "
       << cfg.faults.dropPrefetchFillRate << "\n";
    os << "fault.dram_delay_rate = " << cfg.faults.dramDelayRate << "\n";
    os << "fault.dram_delay_cycles = " << cfg.faults.dramDelayCycles
       << "\n";
    os << "fault.lose_request_rate = " << cfg.faults.loseRequestRate
       << "\n";
    os << "fault.snapshot_corrupt_rate = "
       << cfg.faults.snapshotCorruptRate << "\n";
    os << "hardening.audit_interval = " << cfg.hardening.auditInterval
       << "\n";
    os << "hardening.watchdog_window = " << cfg.hardening.watchdogWindow
       << "\n";
    os << "error.component = " << err.component() << "\n";
    if (err.cycle() != kNoErrorCycle)
        os << "error.cycle = " << err.cycle() << "\n";
    os << "error.what = " << err.what() << "\n";
    return os.str();
}

std::string
reproBundlePath()
{
    if (const char* p = std::getenv("SL_REPRO_PATH"))
        return p;
    return "sl_repro_bundle.txt";
}

void
writeReproBundle(const std::string& bundle)
{
    if (std::ofstream out(reproBundlePath()); out)
        out << bundle;
}

std::string
snapshotDigest(const RunConfig& cfg,
               const std::vector<std::string>& workloads)
{
    std::ostringstream os;
    os << toJson(cfg) << ' ' << tuningKey(cfg) << " workloads:";
    for (const auto& w : workloads)
        os << ' ' << w;
    return os.str();
}

RunResult
runWorkloadsRaw(const RunConfig& cfg,
                const std::vector<std::string>& workloads)
{
    return runWorkloadsRaw(cfg, workloads, RunHooks{});
}

RunResult
runWorkloadsRaw(const RunConfig& cfg,
                const std::vector<std::string>& workloads,
                const RunHooks& hooks)
{
    cfg.validate();
    SL_REQUIRE(workloads.size() == cfg.cores, "run_config",
               "need one workload per core, got " << workloads.size()
                                                  << " for " << cfg.cores
                                                  << " cores");

    std::vector<TracePtr> traces;
    traces.reserve(cfg.cores);
    for (const auto& w : workloads)
        traces.push_back(getTrace(w, cfg.traceScale, cfg.seed));

    System sys(systemConfigFor(cfg), traces);

    // Orchestration hooks (see RunHooks): all three share one config
    // digest, computed over what the run IS, not what the hooks do.
    const bool hooked = !hooks.restorePath.empty() ||
                        (hooks.snapshotAt != kNoCycle &&
                         !hooks.snapshotPath.empty()) ||
                        hooks.wallTimeoutSec > 0;
    if (hooked) {
        const std::string digest = snapshotDigest(cfg, workloads);
        if (!hooks.restorePath.empty())
            readSnapshotFile(hooks.restorePath, digest, sys);
        if (hooks.snapshotAt != kNoCycle && !hooks.snapshotPath.empty())
            sys.scheduleSnapshot(
                hooks.snapshotAt,
                [path = hooks.snapshotPath, digest](System& s,
                                                    Cycle now) {
                    writeSnapshotFile(path, digest, s, now);
                });
        if (hooks.wallTimeoutSec > 0) {
            System::RunHook onTimeout;
            if (!hooks.timeoutSnapshotPath.empty())
                onTimeout = [path = hooks.timeoutSnapshotPath,
                             digest](System& s, Cycle now) {
                    writeSnapshotFile(path, digest, s, now);
                };
            sys.setWallClockDeadline(hooks.wallTimeoutSec,
                                     std::move(onTimeout));
        }
    }

    // Sampled-interval orchestration: narrow the measurement window and
    // fence the L2 counters at warmup end so the reported
    // misses/useful/issued cover only the measured interval. Applied
    // after any restore above — the targets are relative to the restored
    // cursor, and they are deliberately absent from the snapshot itself.
    std::vector<std::array<std::uint64_t, 3>> fence(cfg.cores);
    if (hooks.measureWarmupRecords != 0 || hooks.measureEvalRecords != 0)
        for (unsigned c = 0; c < cfg.cores; ++c)
            sys.core(c).setMeasureWindow(hooks.measureWarmupRecords,
                                         hooks.measureEvalRecords);
    if (hooks.statFence) {
        for (unsigned c = 0; c < cfg.cores; ++c) {
            Cache& l2c = sys.l2(c);
            auto* slot = &fence[c];
            sys.core(c).setWarmupCallback([&l2c, slot](Cycle) {
                (*slot)[0] = l2c.stats().get("demand_misses");
                (*slot)[1] = l2c.stats().get("prefetch_useful");
                (*slot)[2] = l2c.stats().get("prefetch_issued");
            });
        }
    }

    sys.run();

    RunResult res;
    for (unsigned c = 0; c < cfg.cores; ++c) {
        CoreResult cr;
        cr.workload = workloads[c];
        cr.ipc = sys.core(c).ipc();
        cr.evalInstructions = sys.core(c).evalInstructions();
        cr.evalCycles = sys.core(c).evalCycles();
        const auto& l2 = sys.l2(c).stats();
        cr.l2DemandMisses = l2.get("demand_misses") - fence[c][0];
        cr.l2PrefetchUseful = l2.get("prefetch_useful") - fence[c][1];
        cr.l2PrefetchIssued = l2.get("prefetch_issued") - fence[c][2];
        res.cores.push_back(cr);

        std::map<std::string, std::uint64_t> snap;
        if (Prefetcher* pf = sys.l2Prefetcher(c)) {
            for (const auto& [k, v] : pf->stats().counters())
                snap[k] = v.value();
        }
        res.l2PfStats.push_back(std::move(snap));
    }

    const auto& llc = sys.llc().stats();
    res.llcMetaReads = llc.get("metadata_reads");
    res.llcMetaWrites = llc.get("metadata_writes");
    res.llcShuffleBlocks = llc.get("metadata_shuffle_blocks");

    const auto& dram = sys.dram().stats();
    res.dramReads = dram.get("reads");
    res.dramWrites = dram.get("writes");
    res.dramBytes = dram.get("bytes");

    // Shared-memory-system contention counters. All of these read zero on
    // single-core runs (scheduler/arbiter/pressure gated off), so probing
    // them unconditionally costs nothing there.
    for (unsigned c = 0; c < cfg.cores; ++c) {
        res.pfDroppedPressure +=
            sys.l1d(c).stats().get("prefetch_dropped_pressure");
        res.pfDroppedPressure +=
            sys.l2(c).stats().get("prefetch_dropped_pressure");
    }
    res.dramReadQueueWait = dram.get("read_q_wait_cycles");
    res.dramDemandReads = dram.get("sched_demand_reads");
    res.dramPrefetchReads = dram.get("sched_prefetch_reads");
    if (cfg.cores > 1) {
        res.dramCoreBytes.resize(cfg.cores, 0);
        for (unsigned c = 0; c < cfg.cores; ++c)
            res.dramCoreBytes[c] =
                dram.get("core" + std::to_string(c) + "_bytes");
    }

    // Probe counters come through the Prefetcher interface now, so the
    // runner needs no knowledge of which class is attached.
    if (Prefetcher* pf = sys.l2Prefetcher(0)) {
        if (const StatGroup* store = pf->metadataStoreStats()) {
            for (const auto& [k, v] : store->counters())
                res.storeStats[k] = v.value();
        }
        res.storedCorrelations = pf->storedCorrelations();
    }

    if (Telemetry* t = sys.telemetry()) {
        t->writeOutputs();
        res.telemetry = std::make_shared<const TelemetryData>(t->data());
    }

    if (const char* dump = std::getenv("SL_DUMP_STATS");
        dump && dump[0] == '1')
        dumpSystemStats(sys, std::cout);

    return res;
}

RunResult
runWorkloads(const RunConfig& cfg,
             const std::vector<std::string>& workloads)
{
    try {
        return runWorkloadsRaw(cfg, workloads);
    } catch (const SimError& err) {
        // Serialize everything needed to replay the failure, then let
        // the error propagate to the caller.
        writeReproBundle(formatReproBundle(cfg, workloads, err));
        throw;
    }
}

RunResult
runWorkload(const RunConfig& cfg, const std::string& workload)
{
    RunConfig c1 = cfg;
    c1.cores = 1;
    return runWorkloads(c1, {workload});
}

std::vector<std::string>
irregularSubset(double scale)
{
    if (scale <= 0)
        scale = defaultTraceScale();

    static std::mutex mu;
    static std::map<double, std::vector<std::string>> cache;
    {
        std::lock_guard<std::mutex> lock(mu);
        if (auto it = cache.find(scale); it != cache.end())
            return it->second;
    }

    // Two jobs per workload (baseline + idealised Triage), batched so
    // the subset probe parallelises like any other sweep.
    const std::vector<std::string> names = workloadNames();
    RunConfig base;
    base.traceScale = scale;
    RunConfig ideal = base;
    ideal.l2 = "triage_ideal";

    std::vector<ExperimentSpec> specs;
    for (const auto& w : names) {
        specs.push_back({"base:" + w, base, {w}});
        specs.push_back({"ideal:" + w, ideal, {w}});
    }
    const std::vector<JobResult> jobs = BatchRunner().run(specs);

    std::vector<std::string> subset;
    for (std::size_t i = 0; i < names.size(); ++i) {
        for (const JobResult* j : {&jobs[2 * i], &jobs[2 * i + 1]}) {
            if (!j->ok) {
                writeReproBundle(j->reproBundle);
                throw *j->error;
            }
        }
        const double ipc_base = jobs[2 * i].result.cores[0].ipc;
        const double ipc_ideal = jobs[2 * i + 1].result.cores[0].ipc;
        if (ipc_ideal >= 1.05 * ipc_base)
            subset.push_back(names[i]);
    }

    std::lock_guard<std::mutex> lock(mu);
    cache[scale] = subset;
    return subset;
}

namespace
{

void
printUsage(std::ostream& os)
{
    os << "usage: sl_run [options] WORKLOAD [WORKLOAD...]\n"
          "\n"
          "Runs each workload on its own core (one workload is\n"
          "replicated across --cores cores).\n"
          "\n"
          "options:\n"
          "  --l1 NAME               L1D prefetcher (default stride)\n"
          "  --l2 NAME               L2 prefetcher (default none)\n"
          "  --cores N               core count (default: one per "
          "workload)\n"
          "  --mix A,B,...           comma-separated multi-core mix "
          "(one workload per core)\n"
          "  --scale F               trace scale (default "
          "$SL_TRACE_SCALE or 1.0)\n"
          "  --seed N                trace synthesis seed (default 1)\n"
          "  --dram-mts N            DRAM transfer rate (default 3200)\n"
          "  --telemetry             enable interval sampling and "
          "histograms\n"
          "  --telemetry-interval N  cycles per interval (default "
          "100000; implies --telemetry)\n"
          "  --telemetry-out PREFIX  write PREFIX.jsonl and PREFIX.csv "
          "(implies --telemetry)\n"
          "  --trace-out PATH        write Chrome trace-event JSON "
          "(implies --telemetry)\n"
          "snapshots (DESIGN.md §11):\n"
          "  --snapshot-at CYCLE     save a snapshot when the run "
          "reaches CYCLE\n"
          "  --snapshot-out PATH     snapshot file (default "
          "sl_snapshot_WORKLOAD.bin)\n"
          "  --restore-snapshot PATH restore from PATH before running\n"
          "sweeps (resumable):\n"
          "  --sweep                 run each workload as its own "
          "single-core batch job\n"
          "  --manifest PATH         JSONL job journal; re-invoking with "
          "the same manifest\n"
          "                          skips finished jobs (implies "
          "--sweep)\n"
          "  --job-timeout SEC       per-job wall-clock budget; hung "
          "jobs snapshot then fail\n"
          "  --retries N             retry failed sweep jobs up to N "
          "times (implies --sweep)\n"
          "sampled runs (DESIGN.md §14):\n"
          "  --sample                profile, cluster, checkpoint, and "
          "simulate K\n"
          "                          representative intervals instead of "
          "the full trace\n"
          "  --sample-intervals N    profile granularity (default 96; "
          "implies --sample)\n"
          "  --sample-k K            detailed-interval budget, stratified "
          "across clusters\n"
          "                          (default 24; implies --sample)\n"
          "  --sample-warmup R       detailed warmup records per interval "
          "(default: a\n"
          "                          quarter interval; implies --sample)\n"
          "  --sample-dir PATH       checkpoint directory (default "
          "$SL_SAMPLE_DIR or .)\n"
          "  --sample-report         print the interval selection as "
          "one-line JSON and exit\n"
          "                          (no checkpoints, no detailed runs)\n"
          "                          --manifest/--job-timeout apply to "
          "the interval batch\n"
          "fault injection:\n"
          "  --fault-campaign        sweep the fault grid (bit flips, "
          "dropped fills, DRAM\n"
          "                          delays, lost requests, snapshot "
          "corruption) and report\n"
          "  --fault-lose-request R  drop downstream misses at rate R "
          "(wedges the run;\n"
          "                          pair with --job-timeout or a "
          "watchdog)\n"
          "  --list-prefetchers      print each level's prefetcher names "
          "and exit\n"
          "  --help                  this text\n";
}

/** First line of a (possibly multi-line) error message. */
std::string
firstLine(const std::string& s)
{
    const std::size_t nl = s.find('\n');
    return nl == std::string::npos ? s : s.substr(0, nl) + " [...]";
}

void
printNames(std::ostream& os, const char* level, bool l1)
{
    os << level << ":";
    listPrefetchers(os, l1);
    os << "\n";
}

/**
 * --sweep: one single-core batch job per workload, optionally journalled
 * to a manifest so an interrupted sweep resumes where it stopped.
 * Prints per-job lines plus the ==JSON== document every bench emits.
 */
int
runSweep(const RunConfig& cfg, const std::vector<std::string>& workloads,
         const BatchOptions& opts)
{
    std::vector<ExperimentSpec> specs;
    for (const auto& w : workloads) {
        RunConfig c = cfg;
        c.cores = 1;
        specs.push_back({w, c, {w}});
    }

    BatchRunner runner(0, opts);
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<JobResult> jobs = runner.run(specs);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

    bool all_ok = true;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const JobResult& j = jobs[i];
        std::cout << "job " << specs[i].label << ": ";
        if (j.ok && j.attempts == 0) {
            std::cout << "ok (from manifest)\n";
        } else if (j.ok) {
            std::cout << "ok ipc=" << j.result.meanIpc();
            if (j.attempts > 1)
                std::cout << " (attempt " << j.attempts << ")";
            std::cout << "\n";
        } else {
            all_ok = false;
            std::cout << "FAILED [" << j.error->component() << "] after "
                      << j.attempts << " attempt(s): "
                      << firstLine(j.error->what()) << "\n";
        }
    }
    std::cout << "==JSON==\n"
              << batchJson("sweep", specs, jobs, runner.threads(), wall)
              << "\n==END-JSON==\n";
    return all_ok ? 0 : 1;
}

/**
 * --fault-campaign: run the workloads under every FaultConfig kind plus
 * a clean baseline, then probe snapshot-byte corruption end to end
 * (save a deliberately corrupted snapshot, assert the restore-side CRC
 * check rejects it). Graceful kinds must complete; lose_request may
 * legitimately trip the watchdog -- what matters is that the failure is
 * a *caught* SimError with a repro bundle, never a hang or a crash.
 */
int
runFaultCampaign(const RunConfig& base,
                 const std::vector<std::string>& workloads)
{
    std::vector<ExperimentSpec> specs;
    const auto add = [&](const char* name, const RunConfig& c) {
        specs.push_back({name, c, workloads});
    };
    add("none", base);
    {
        RunConfig c = base;
        c.faults.metadataBitFlipRate = 1e-3;
        add("metadata_bit_flip", c);
    }
    {
        RunConfig c = base;
        c.faults.dropPrefetchFillRate = 1e-3;
        add("drop_prefetch_fill", c);
    }
    {
        RunConfig c = base;
        c.faults.dramDelayRate = 1e-3;
        c.faults.dramDelayCycles = 200;
        add("dram_delay", c);
    }
    {
        // A lost request wedges its core; a tight watchdog window turns
        // the wedge into a caught, journalable SimError quickly.
        RunConfig c = base;
        c.faults.loseRequestRate = 1e-4;
        c.hardening.watchdogWindow = 100'000;
        add("lose_request", c);
    }

    BatchRunner runner;
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<JobResult> jobs = runner.run(specs);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

    bool pass = true;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const JobResult& j = jobs[i];
        const bool must_complete = specs[i].label != "lose_request";
        std::cout << "fault " << specs[i].label << ": ";
        if (j.ok) {
            std::cout << "completed ipc=" << j.result.meanIpc()
                      << " coverage=" << j.result.meanCoverage() << "\n";
        } else {
            std::cout << "caught [" << j.error->component()
                      << "]: " << firstLine(j.error->what()) << "\n";
            if (must_complete)
                pass = false;
        }
    }

    // Snapshot corruption: rate 1.0 flips a payload byte after the CRC
    // is computed; the restore must reject the file with a diagnosable
    // SimError, never load garbage state.
    RunConfig sc = base;
    sc.faults.snapshotCorruptRate = 1.0;
    const std::string snapPath = "sl_snapshot_campaign.bin";
    bool caught = false;
    std::string verdict = "restore unexpectedly succeeded";
    try {
        RunHooks save;
        save.snapshotAt = 5'000;
        save.snapshotPath = snapPath;
        runWorkloadsRaw(sc, workloads, save);
        RunHooks load;
        load.restorePath = snapPath;
        runWorkloadsRaw(sc, workloads, load);
    } catch (const SimError& err) {
        caught = true;
        verdict = "caught [" + err.component() +
                  "]: " + firstLine(err.what());
    }
    std::remove(snapPath.c_str());
    std::cout << "fault snapshot_corrupt: " << verdict << "\n";
    if (!caught)
        pass = false;

    std::cout << "==JSON==\n"
              << batchJson("fault_campaign", specs, jobs,
                           runner.threads(), wall)
              << "\n==END-JSON==\n";
    std::cout << (pass ? "campaign PASS" : "campaign FAIL") << "\n";
    return pass ? 0 : 1;
}

/** True when the prefetcher selection is known; complains otherwise. */
bool
checkPrefetcher(const std::string& name, bool l1, const char* flag)
{
    if (findPrefetcher(name, l1))
        return true;
    std::cerr << "sl_run: unknown " << flag << " prefetcher '" << name
              << "'; available:\n";
    printNames(std::cerr, "  l1", true);
    printNames(std::cerr, "  l2", false);
    return false;
}

} // namespace

int
runnerMain(int argc, char** argv)
{
    RunConfig cfg;
    std::vector<std::string> workloads;
    unsigned cores = 0; // 0 = one per workload
    bool telemetry = false;
    std::string telemetry_out;
    RunHooks hooks;
    BatchOptions batch_opts;
    bool sweep = false;
    bool fault_campaign = false;
    bool sample = false;
    bool sample_report = false;
    SampleOptions sample_opts;

    // Flags taking a value read it from the next argv slot.
    auto value = [&](int& i, const char* flag) -> const char* {
        if (i + 1 >= argc) {
            std::cerr << "sl_run: " << flag << " needs a value\n";
            return nullptr;
        }
        return argv[++i];
    };
    // Numeric flags take their whole value, with no sign, or fail.
    auto number = [&](int& i, const char* flag, auto& out) {
        const char* v = value(i, flag);
        if (!v)
            return false;
        const char* end = v + std::strlen(v);
        const auto [p, ec] = std::from_chars(v, end, out);
        if (*v != '-' && ec == std::errc() && p == end)
            return true;
        std::cerr << "sl_run: " << flag << " needs a number, got '" << v
                  << "'\n";
        return false;
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char* v = nullptr;
        if (arg == "--help" || arg == "-h") {
            printUsage(std::cout);
            return 0;
        } else if (arg == "--list-prefetchers") {
            printNames(std::cout, "l1", true);
            printNames(std::cout, "l2", false);
            return 0;
        } else if (arg == "--l1") {
            if (!(v = value(i, "--l1")))
                return 2;
            cfg.l1 = v;
        } else if (arg == "--l2") {
            if (!(v = value(i, "--l2")))
                return 2;
            cfg.l2 = v;
        } else if (arg == "--cores") {
            if (!number(i, "--cores", cores))
                return 2;
        } else if (arg == "--mix") {
            if (!(v = value(i, "--mix")))
                return 2;
            // Comma-separated multi-core mix, one workload per core
            // (same shape trace/mix.hh generates). Names land in the
            // ordinary workload list, so the unknown-workload check
            // below vets them and prints the known names on a typo.
            Mix mix;
            std::stringstream ss(v);
            for (std::string w; std::getline(ss, w, ',');)
                if (!w.empty())
                    mix.push_back(w);
            if (mix.empty()) {
                std::cerr << "sl_run: --mix needs at least one "
                             "workload name\n";
                return 2;
            }
            workloads.insert(workloads.end(), mix.begin(), mix.end());
        } else if (arg == "--scale") {
            if (!number(i, "--scale", cfg.traceScale))
                return 2;
        } else if (arg == "--seed") {
            if (!number(i, "--seed", cfg.seed))
                return 2;
        } else if (arg == "--dram-mts") {
            if (!number(i, "--dram-mts", cfg.dramMTs))
                return 2;
        } else if (arg == "--telemetry") {
            telemetry = true;
        } else if (arg == "--telemetry-interval") {
            if (!number(i, "--telemetry-interval",
                        cfg.telemetry.intervalCycles))
                return 2;
            telemetry = true;
        } else if (arg == "--telemetry-out") {
            if (!(v = value(i, "--telemetry-out")))
                return 2;
            telemetry = true;
            telemetry_out = v;
        } else if (arg == "--trace-out") {
            if (!(v = value(i, "--trace-out")))
                return 2;
            telemetry = true;
            cfg.telemetry.tracePath = v;
        } else if (arg == "--snapshot-at") {
            if (!number(i, "--snapshot-at", hooks.snapshotAt))
                return 2;
        } else if (arg == "--snapshot-out") {
            if (!(v = value(i, "--snapshot-out")))
                return 2;
            hooks.snapshotPath = v;
        } else if (arg == "--restore-snapshot") {
            if (!(v = value(i, "--restore-snapshot")))
                return 2;
            hooks.restorePath = v;
        } else if (arg == "--sweep") {
            sweep = true;
        } else if (arg == "--manifest") {
            if (!(v = value(i, "--manifest")))
                return 2;
            sweep = true;
            batch_opts.manifestPath = v;
        } else if (arg == "--job-timeout") {
            if (!number(i, "--job-timeout", batch_opts.jobTimeoutSec))
                return 2;
            hooks.wallTimeoutSec = batch_opts.jobTimeoutSec;
        } else if (arg == "--retries") {
            if (!number(i, "--retries", batch_opts.maxRetries))
                return 2;
            sweep = true;
        } else if (arg == "--sample") {
            sample = true;
        } else if (arg == "--sample-report") {
            sample_report = true;
        } else if (arg == "--sample-intervals") {
            if (!number(i, "--sample-intervals", sample_opts.intervals))
                return 2;
            sample = true;
        } else if (arg == "--sample-k") {
            if (!number(i, "--sample-k", sample_opts.k))
                return 2;
            sample = true;
        } else if (arg == "--sample-warmup") {
            if (!number(i, "--sample-warmup", sample_opts.warmupRecords))
                return 2;
            sample = true;
        } else if (arg == "--sample-dir") {
            if (!(v = value(i, "--sample-dir")))
                return 2;
            sample = true;
            sample_opts.checkpointDir = v;
        } else if (arg == "--fault-campaign") {
            fault_campaign = true;
        } else if (arg == "--fault-lose-request") {
            if (!number(i, "--fault-lose-request", cfg.faults.loseRequestRate))
                return 2;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "sl_run: unknown option '" << arg << "'\n";
            printUsage(std::cerr);
            return 2;
        } else {
            workloads.push_back(arg);
        }
    }

    if (workloads.empty()) {
        std::cerr << "sl_run: no workloads given; known workloads:\n ";
        for (const auto& w : workloadNames())
            std::cerr << " " << w;
        std::cerr << "\n";
        printUsage(std::cerr);
        return 2;
    }

    // Friendly up-front name checks: print the known names instead of
    // an exception trace (getTrace throws std::invalid_argument for
    // unknown workloads, which would otherwise escape main).
    if (!checkPrefetcher(cfg.l1, true, "--l1") ||
        !checkPrefetcher(cfg.l2, false, "--l2"))
        return 2;
    const std::vector<std::string> known = workloadNames();
    for (const auto& w : workloads) {
        if (std::find(known.begin(), known.end(), w) == known.end()) {
            std::cerr << "sl_run: unknown workload '" << w
                      << "'; known workloads:\n ";
            for (const auto& k : known)
                std::cerr << " " << k;
            std::cerr << "\n";
            return 2;
        }
    }

    cfg.telemetry.enabled = telemetry;
    if (!telemetry_out.empty()) {
        cfg.telemetry.jsonlPath = telemetry_out + ".jsonl";
        cfg.telemetry.csvPath = telemetry_out + ".csv";
    }

    if (cores == 0)
        cores = static_cast<unsigned>(workloads.size());
    if (workloads.size() == 1 && cores > 1)
        workloads.resize(cores, workloads.front());
    cfg.cores = cores;

    // Every failure below -- SimError from the run, a bad output path,
    // a rejected snapshot -- exits nonzero with a one-line diagnostic;
    // SimErrors additionally leave a repro bundle behind.
    try {
        if (sample || sample_report) {
            // Sampled runs are per-workload and single-core; --manifest
            // and --job-timeout feed the interval batch instead of
            // implying a plain sweep.
            RunConfig c = cfg;
            c.cores = 1;
            sample_opts.manifestPath = batch_opts.manifestPath;
            sample_opts.jobTimeoutSec = batch_opts.jobTimeoutSec;
            for (const auto& w : workloads) {
                if (sample_report) {
                    std::cout << sampleReportJson(c, w, sample_opts)
                              << "\n";
                    continue;
                }
                const SampledReport rep = runSampled(c, w, sample_opts);
                const double frac =
                    rep.totalEvalInstructions > 0
                        ? static_cast<double>(rep.sampledInstructions) /
                              static_cast<double>(
                                  rep.totalEvalInstructions)
                        : 0;
                std::cout << "sampled " << w
                          << ": ipc=" << rep.ipcEstimate << " +/-"
                          << rep.ipcCi95 << " mpki=" << rep.mpki
                          << " coverage=" << rep.coverage
                          << " (k=" << rep.intervals.size()
                          << ", n_eff=" << rep.neff << ", detailed "
                          << 100.0 * frac << "% of eval)\n";
                std::cout << "==JSON==\n"
                          << rep.fullJson << "\n==END-JSON==\n";
            }
            return 0;
        }
        if (fault_campaign)
            return runFaultCampaign(cfg, workloads);
        if (sweep)
            return runSweep(cfg, workloads, batch_opts);

        if (hooks.snapshotAt != kNoCycle && hooks.snapshotPath.empty())
            hooks.snapshotPath =
                "sl_snapshot_" + workloads.front() + ".bin";

        RunResult res;
        try {
            res = runWorkloadsRaw(cfg, workloads, hooks);
        } catch (const SimError& err) {
            writeReproBundle(formatReproBundle(cfg, workloads, err));
            throw;
        }
        for (std::size_t c = 0; c < res.cores.size(); ++c) {
            const CoreResult& cr = res.cores[c];
            std::cout << "core " << c << ": " << cr.workload
                      << " ipc=" << cr.ipc
                      << " coverage=" << cr.coverage()
                      << " accuracy=" << cr.accuracy() << "\n";
        }
        if (cfg.cores > 1) {
            std::cout << "shared-memory: pf_dropped="
                      << res.pfDroppedPressure
                      << " read_q_wait=" << res.dramReadQueueWait
                      << " demand_reads=" << res.dramDemandReads
                      << " prefetch_reads=" << res.dramPrefetchReads;
            for (std::size_t c = 0; c < res.dramCoreBytes.size(); ++c)
                std::cout << (c ? "/" : " core_bytes=")
                          << res.dramCoreBytes[c];
            std::cout << "\n";
        }
        if (res.telemetry) {
            const TelemetryData& t = *res.telemetry;
            std::cout << "telemetry: intervals=" << t.intervals.size()
                      << " dropped=" << t.droppedIntervals
                      << " incidents=" << t.incidents.size() << "\n";
            for (const auto& h : t.histograms)
                std::cout << "  " << h.name << ": samples=" << h.samples
                          << " p50=" << h.p50 << " p95=" << h.p95
                          << " p99=" << h.p99 << " max=" << h.maxValue
                          << "\n";
        }
    } catch (const SimError& err) {
        std::cerr << "sl_run: error [" << err.component()
                  << "]: " << firstLine(err.what())
                  << " (repro bundle: " << reproBundlePath() << ")\n";
        return 1;
    } catch (const std::exception& e) {
        std::cerr << "sl_run: error: " << firstLine(e.what()) << "\n";
        return 1;
    }
    return 0;
}

double
speedupOver(const std::vector<double>& baseline_ipc,
            const std::vector<double>& variant_ipc)
{
    SL_REQUIRE(baseline_ipc.size() == variant_ipc.size(), "run_config",
               "speedupOver needs matched series, got "
                   << baseline_ipc.size() << " baseline vs "
                   << variant_ipc.size() << " variant");
    std::vector<double> speedups;
    for (std::size_t i = 0; i < baseline_ipc.size(); ++i)
        speedups.push_back(variant_ipc[i] / baseline_ipc[i]);
    return geomean(speedups);
}

} // namespace sl
