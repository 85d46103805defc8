/**
 * @file
 * The sampled runner: profile -> cluster -> checkpoint -> simulate the
 * representatives in detail -> reassemble (DESIGN.md §14).
 *
 * A sampled run replaces one long detailed simulation with K short
 * detailed intervals chosen by k-means over single-pass trace features,
 * each restored from a functional-warmup checkpoint and fanned through
 * BatchRunner (manifest-resumable). The weighted reassembly reports
 * IPC/MPKI/coverage/accuracy with confidence intervals in the same
 * ==JSON== shape the benches emit.
 */

#ifndef SL_SAMPLE_SAMPLED_HH
#define SL_SAMPLE_SAMPLED_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/batch.hh"

namespace sl
{

/** Knobs for one sampled run. */
struct SampleOptions
{
    std::size_t intervals = 96; //!< profile granularity (N)
    /**
     * Detailed-interval budget (clamped to N). Three quarters become
     * k-means clusters; the rest fund extra picks in the biggest
     * clusters (stratified allocation), so one medoid's idiosyncrasy
     * never carries a large cluster's whole weight.
     */
    std::size_t k = 24;
    /**
     * Detailed warmup records simulated before each interval's
     * measurement window opens (checkpoint = start - warmup). 0 picks
     * interval_length / 4, clamped to at least 1 record so the
     * checkpoint always lands strictly before the window.
     */
    std::uint64_t warmupRecords = 0;
    /** Checkpoint directory; "" = $SL_SAMPLE_DIR, else ".". */
    std::string checkpointDir;
    /** BatchRunner sweep manifest ("" disables resume). */
    std::string manifestPath;
    unsigned threads = 0;     //!< 0 = defaultJobThreads()
    double jobTimeoutSec = 0; //!< per-interval wall budget (0 = off)
};

/** One simulated representative interval. */
struct SampledInterval
{
    std::size_t interval = 0;         //!< index into the N profile intervals
    std::size_t checkpointRecord = 0; //!< snapshot boundary (C)
    std::size_t startRecord = 0;      //!< measurement window open (S)
    std::size_t endRecord = 0;        //!< measurement window close (E)
    double weight = 0;                //!< cluster fraction of eval intervals
    std::size_t clusterSize = 0;
    double ipc = 0;
    std::uint64_t instructions = 0; //!< retired inside [S, E)
    std::uint64_t cycles = 0;
    std::uint64_t misses = 0; //!< L2 demand misses inside the window
    std::uint64_t useful = 0; //!< L2 useful prefetches inside the window
    std::uint64_t issued = 0; //!< L2 issued prefetches inside the window
};

/** Reassembled estimate for one workload. */
struct SampledReport
{
    std::string workload;
    /** Ratio estimator: sum(w * instr) / sum(w * cycles). */
    double ipcEstimate = 0;
    double ipcMean = 0; //!< weighted mean of per-interval IPCs
    double ipcStddev = 0;
    double ipcCi95 = 0;
    double neff = 0;
    double mpki = 0;
    double coverage = 0;
    double accuracy = 0;
    std::uint64_t sampledInstructions = 0;
    std::uint64_t totalEvalInstructions = 0;
    std::vector<SampledInterval> intervals;
    /**
     * The run's deterministic JSON object (no wall-clock or attempt
     * fields): a pure function of (config, workload, options), so a
     * killed-and-resumed sweep byte-matches an uninterrupted one. This
     * is what the resume test and the ==JSON== "sampled" key carry.
     */
    std::string deterministicJson;
    /**
     * The bench-style document: {"bench":"sampled", "threads",
     * "wall_seconds", "jobs":[...], "sampled":<deterministicJson>}.
     * Carries the usual per-job wall/attempt fields, so NOT
     * byte-stable across resumes — compare deterministicJson for that.
     */
    std::string fullJson;
};

/**
 * Run @p workload sampled under @p cfg (single-core, faults off).
 * Profiles the trace, clusters, ensures checkpoints, runs the K detailed
 * intervals through BatchRunner, and reassembles. Throws SimError when
 * any interval job fails (after BatchOptions-level retries).
 */
SampledReport runSampled(const RunConfig& cfg,
                         const std::string& workload,
                         const SampleOptions& opts);

/**
 * Profile + cluster only (`sl_run --sample-report`): one-line JSON with
 * the chosen intervals, weights, and cluster sizes. No checkpoints are
 * written and no detailed simulation runs.
 */
std::string sampleReportJson(const RunConfig& cfg,
                             const std::string& workload,
                             const SampleOptions& opts);

} // namespace sl

#endif // SL_SAMPLE_SAMPLED_HH
