/**
 * @file
 * The experiment layer: declarative job lists over the runner.
 *
 * An ExperimentSpec names one (RunConfig, workloads) job; BatchRunner
 * executes a list of them across a thread pool and returns results in
 * submission order, bit-identical to serial execution (each job owns an
 * independent seeded System and traces are immutable once synthesized,
 * so scheduling order cannot leak into metrics — see DESIGN.md §7).
 * Failed jobs carry their SimError and repro-bundle text instead of
 * killing sibling jobs or racing on the bundle file.
 *
 * The batch JSON emitted by the benches (==JSON== ... ==END-JSON==) is
 * produced here too, so every bench serializes identically.
 */

#ifndef SL_SIM_BATCH_HH
#define SL_SIM_BATCH_HH

#include <optional>
#include <string>
#include <vector>

#include "common/json.hh"
#include "sim/runner.hh"

namespace sl
{

/** One batch job: a configuration applied to one workload set. */
struct ExperimentSpec
{
    std::string label;                  //!< carried into tables/JSON
    RunConfig config;
    std::vector<std::string> workloads; //!< one per config.cores
    /**
     * Per-job orchestration (snapshot restore, measurement window, stat
     * fence) — how the sampled runner drives each interval through the
     * batch layer. NOT part of jobDigest(): hooks describe how a job
     * runs, not what it is, and the sampled runner encodes the interval
     * identity (record range) in the label instead. A BatchOptions
     * jobTimeoutSec overrides the hook's wallTimeoutSec.
     */
    RunHooks hooks{};
};

/** Outcome of one job. */
struct JobResult
{
    RunResult result;              //!< meaningful only when ok
    bool ok = false;
    std::optional<SimError> error; //!< set when !ok
    std::string reproBundle;       //!< formatReproBundle() text when !ok
    double wallSeconds = 0;
    unsigned attempts = 0;         //!< run attempts (0: served from manifest)
    /**
     * Manifest-resumed jobs carry the journalled toJson(spec, jr)
     * fragment verbatim (the RunResult itself is not journalled);
     * toJson() splices it back so a resumed sweep's ==JSON== matches the
     * uninterrupted one. Empty for jobs that actually ran.
     */
    std::string cachedJson;
};

/** Worker count: $SL_JOBS if >= 1, else hardware_concurrency (min 1). */
unsigned defaultJobThreads();

/** Robustness knobs for long sweeps; all off by default. */
struct BatchOptions
{
    /**
     * JSONL journal of finished jobs ("" disables). One line per
     * completed job: {"digest":..., "ok":..., "job":...}. Re-running a
     * sweep against the same manifest skips jobs already journalled ok
     * (their JSON is replayed from the journal) and reruns failed or
     * killed ones; a job interrupted mid-run (SIGKILL) has no line and
     * simply reruns. Appends are flushed after every job, so the file is
     * valid after a crash at any point.
     */
    std::string manifestPath;
    /**
     * Per-job wall-clock budget in seconds (0 = unlimited). A job over
     * budget first snapshots itself (sl_snapshot_hang_job<i>.bin in the
     * working directory) and then fails with SimError("job_timeout") --
     * it is journalled as failed, not wedged forever.
     */
    double jobTimeoutSec = 0;
    unsigned maxRetries = 0;   //!< extra attempts for a failed job
};

/**
 * Executes ExperimentSpecs on `threads` workers (0 = defaultJobThreads).
 * run() never throws for per-job failures; inspect JobResult::ok.
 */
class BatchRunner
{
  public:
    explicit BatchRunner(unsigned threads = 0, BatchOptions opts = {});

    unsigned threads() const { return threads_; }

    std::vector<JobResult> run(const std::vector<ExperimentSpec>& specs)
        const;

  private:
    unsigned threads_;
    BatchOptions opts_;
};

/**
 * Version of what the simulator computes. Bump it in any change that
 * moves simulated results -- every re-pin of the golden set
 * (tests/golden_runs.hh) is one -- so that sweep manifests journalled
 * by older builds rerun instead of resuming. Snapshot layout has its
 * own version (kSnapshotVersion). Manifests written before this
 * constant existed carry no version and never match.
 *   1: one stall scheduler (wake-on-free, evented cache-to-cache hops).
 */
constexpr std::uint32_t kResultsVersion = 1;

/**
 * Stable identity of one job for the sweep manifest: a 64-bit FNV-1a
 * over kResultsVersion, the label, the config JSON, the prefetcher
 * tuning (tuningKey), and the workload list, rendered as hex. Collisions across a sweep's handful of jobs
 * are not a realistic concern; a digest only needs to tell jobs of one
 * sweep apart.
 */
std::string jobDigest(const ExperimentSpec& spec);

/** A RunConfig as a JSON object. */
std::string toJson(const RunConfig& cfg);

/**
 * The prefetcher tuning structs (RunConfig::streamline and triangel) as
 * text. toJson(RunConfig) leaves them out, so bench
 * `==JSON==` blocks do not change with them; the identity digests
 * (jobDigest, snapshotDigest and the checkpoint names built on it) must
 * include them, or a differently tuned run would resume another's
 * manifest entry or restore another's snapshot.
 */
std::string tuningKey(const RunConfig& cfg);

/** One (spec, result) pair as a JSON object. */
std::string toJson(const ExperimentSpec& spec, const JobResult& jr);

/**
 * A whole batch as one JSON document:
 * {"bench", "threads", "wall_seconds", "jobs": [...]}.
 * Benches print this between ==JSON== / ==END-JSON== marker lines so
 * scripts can slice it out of the human-readable output.
 */
std::string batchJson(const std::string& bench,
                      const std::vector<ExperimentSpec>& specs,
                      const std::vector<JobResult>& results,
                      unsigned threads, double wall_seconds);

} // namespace sl

#endif // SL_SIM_BATCH_HH
