/**
 * @file
 * Experiment runner: builds a System for a named prefetcher configuration,
 * drives workloads through it, and extracts the paper's metrics (IPC,
 * speedup, prefetch coverage/accuracy, metadata traffic).
 */

#ifndef SL_SIM_RUNNER_HH
#define SL_SIM_RUNNER_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/streamline.hh"
#include "sim/system.hh"
#include "temporal/triage.hh"
#include "temporal/triangel.hh"
#include "trace/workloads.hh"

namespace sl
{

/** Everything needed to reproduce one run. */
struct RunConfig
{
    unsigned cores = 1;
    std::string l1 = "stride";   //!< L1D prefetcher registry name
    std::string l2 = "none";     //!< L2 prefetcher registry name
    StreamlineConfig streamline; //!< used by the "streamline" factory
    TriangelConfig triangel;     //!< used by the "triangel*" factories
    TriageConfig triage;         //!< used by the "triage*" factories
    unsigned dramMTs = 3200;
    double traceScale = -1.0;    //!< <=0: SL_TRACE_SCALE default
    std::uint64_t seed = 1;
    FaultConfig faults;          //!< deterministic fault injection (off)
    HardeningConfig hardening;   //!< auditor / watchdog knobs
    TelemetryConfig telemetry;   //!< observability (off by default)

    /**
     * Reject unrunnable configurations; throws SimError. Unknown
     * prefetcher names fail here with the list of registered names.
     */
    void validate() const;
};

/** Per-core outcome. */
struct CoreResult
{
    std::string workload;
    double ipc = 0;
    /** Raw measurement-window extent (instr / cycles); the sampled
     *  reassembly weights per-interval IPCs by these. */
    std::uint64_t evalInstructions = 0;
    std::uint64_t evalCycles = 0;
    std::uint64_t l2DemandMisses = 0;
    std::uint64_t l2PrefetchUseful = 0;
    std::uint64_t l2PrefetchIssued = 0;

    /** Covered fraction of would-be L2 misses. */
    double
    coverage() const
    {
        return ratio(l2PrefetchUseful, l2PrefetchUseful + l2DemandMisses);
    }

    /** Useful fraction of issued prefetches. */
    double
    accuracy() const
    {
        return ratio(l2PrefetchUseful, l2PrefetchIssued);
    }
};

/** Whole-run outcome. */
struct RunResult
{
    std::vector<CoreResult> cores;

    std::uint64_t llcMetaReads = 0;
    std::uint64_t llcMetaWrites = 0;
    std::uint64_t llcShuffleBlocks = 0;
    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;
    std::uint64_t dramBytes = 0;

    // Shared-memory-system contention metrics (all zero on single-core
    // runs, whose DRAM scheduler / LLC arbiter / pressure probe are off).
    /** Prefetches shed by MemPressure before issue (every cache). */
    std::uint64_t pfDroppedPressure = 0;
    /** Cycles read requests spent queued in the DRAM scheduler. */
    std::uint64_t dramReadQueueWait = 0;
    /** DRAM reads serviced under demand / prefetch class priority. */
    std::uint64_t dramDemandReads = 0;
    std::uint64_t dramPrefetchReads = 0;
    /** Bytes DRAM served per core ("core<i>_bytes", scheduled mode). */
    std::vector<std::uint64_t> dramCoreBytes;

    /** Stat snapshots for deeper probes (per core). */
    std::vector<std::map<std::string, std::uint64_t>> l2PfStats;
    /** Streamline store stats for core 0 (empty otherwise). */
    std::map<std::string, std::uint64_t> storeStats;
    /** Stored correlations at end of run, core 0. */
    std::uint64_t storedCorrelations = 0;

    /** Telemetry flattened at end of run; null when telemetry was off.
     *  shared_ptr keeps RunResult cheaply copyable (BatchRunner moves
     *  results through its job table). */
    std::shared_ptr<const TelemetryData> telemetry;

    /** Total metadata traffic in LLC accesses (reads+writes+shuffle). */
    std::uint64_t
    metadataTraffic() const
    {
        return llcMetaReads + llcMetaWrites + 2 * llcShuffleBlocks;
    }

    double
    meanIpc() const
    {
        std::vector<double> v;
        for (const auto& c : cores)
            v.push_back(c.ipc);
        return geomean(v);
    }

    double
    meanCoverage() const
    {
        double s = 0;
        for (const auto& c : cores)
            s += c.coverage();
        return cores.empty() ? 0 : s / cores.size();
    }
};

/**
 * Run @p workloads (one per core) under @p cfg. If the System raises
 * SimError (auditor, watchdog, deadlock, invariant check), a repro
 * bundle is written next to the working directory (or to $SL_REPRO_PATH)
 * before the error is rethrown.
 */
RunResult runWorkloads(const RunConfig& cfg,
                       const std::vector<std::string>& workloads);

/**
 * Like runWorkloads but never writes repro bundles: SimError propagates
 * without touching the bundle file. This is what BatchRunner calls from
 * worker threads, where concurrent failing jobs would race on the bundle
 * file; the batch layer captures formatReproBundle() per job instead.
 * (Telemetry output files, when cfg.telemetry configures them, ARE
 * written here on success — BatchRunner rewrites the paths per job so
 * parallel jobs never share one.)
 */
RunResult runWorkloadsRaw(const RunConfig& cfg,
                          const std::vector<std::string>& workloads);

/**
 * Per-invocation orchestration for one run. Deliberately NOT part of
 * RunConfig: the snapshot config digest is computed over the RunConfig
 * (+ workloads), and where a run saves/restores snapshots must not
 * change what run it is — a restore invocation with different hook
 * values must still match the save invocation's digest.
 */
struct RunHooks
{
    /** Save a snapshot to snapshotPath at this cycle (kNoCycle = off). */
    Cycle snapshotAt = kNoCycle;
    std::string snapshotPath;
    /** Restore from this snapshot before running ("" = fresh run). */
    std::string restorePath;
    /** Abort with SimError("job_timeout") after this much wall clock
     *  (0 = unlimited); timeoutSnapshotPath, when set, captures the hung
     *  run's state first so it can be resumed for postmortem. */
    double wallTimeoutSec = 0;
    std::string timeoutSnapshotPath;
    /**
     * Sampled-interval measurement window (DESIGN.md §14), in records
     * retired per core; 0 = the trace's own defaults. Applied after any
     * snapshot restore, so a checkpoint taken before the window serves
     * any interval cut from it — which is exactly why these live in
     * RunHooks and not RunConfig: they must not perturb the snapshot
     * config digest.
     */
    std::uint64_t measureWarmupRecords = 0;
    std::uint64_t measureEvalRecords = 0;
    /** Fence L2 stats at warmup end: CoreResult misses/useful/issued
     *  report measurement-window deltas instead of run totals, and the
     *  batch JSON gains eval_instructions/eval_cycles/l2_* fields. */
    bool statFence = false;
};

/** runWorkloadsRaw with snapshot/timeout orchestration attached. */
RunResult runWorkloadsRaw(const RunConfig& cfg,
                          const std::vector<std::string>& workloads,
                          const RunHooks& hooks);

/**
 * The SystemConfig runWorkloadsRaw builds for @p cfg, exposed so other
 * drivers (the sampled checkpoint generator) construct bit-identical
 * Systems. @p cfg must outlive the System: the prefetcher factories
 * capture PrefetcherTuning pointers into it.
 */
SystemConfig systemConfigFor(const RunConfig& cfg);

/**
 * The config-identity string stored in snapshot files: toJson(cfg), the
 * prefetcher tuning (tuningKey) and the workload list. Save and restore
 * invocations must agree on it (same prefetchers and tuning, geometry,
 * scale, seed, workloads) or the restore is
 * rejected — restoring into a differently-built System would reinterpret
 * the payload as garbage.
 */
std::string snapshotDigest(const RunConfig& cfg,
                           const std::vector<std::string>& workloads);

/**
 * The text serialized on a tripped run: everything needed to replay it
 * bit-identically (seed, workloads, trace scale, prefetcher selection,
 * fault config) plus the error's component/cycle/diagnostics. Exposed
 * separately so tests can assert on the content without filesystem I/O.
 */
std::string formatReproBundle(const RunConfig& cfg,
                              const std::vector<std::string>& workloads,
                              const SimError& err);

/** Where runWorkloads writes the bundle ($SL_REPRO_PATH or default). */
std::string reproBundlePath();

/** Single-core convenience wrapper. */
RunResult runWorkload(const RunConfig& cfg, const std::string& workload);

/**
 * The paper's irregular subset (§V-A3): workloads with >= 5% speedup
 * headroom under an idealised Triage with unlimited metadata. Memoised
 * per trace scale.
 */
std::vector<std::string> irregularSubset(double scale = -1.0);

/** Geomean speedup of @p variant over @p baseline, matched by workload. */
double speedupOver(const std::vector<double>& baseline_ipc,
                   const std::vector<double>& variant_ipc);

/**
 * Command-line front end behind the `sl_run` binary: parses prefetcher /
 * geometry / telemetry flags, runs the workloads, and prints per-core
 * results plus a telemetry summary. Returns a process exit code (0 ok,
 * 2 usage error). Exposed as a function so tests can drive it.
 */
int runnerMain(int argc, char** argv);

} // namespace sl

#endif // SL_SIM_RUNNER_HH
