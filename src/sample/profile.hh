/**
 * @file
 * Interval profiler for sampled simulation (DESIGN.md §14).
 *
 * Walks a trace once and cuts its evaluation region (post-warmup) into N
 * equal-record intervals, emitting a normalized feature vector per
 * interval: PC-signature and access-region histograms, a signed-log2
 * block-stride mix, and load/store/dependence/bubble scalars. The
 * vectors feed the k-means clusterer (kmeans.hh) that picks the
 * representative intervals a sampled run simulates in detail.
 *
 * The walk is strictly single-threaded and seeded by nothing but the
 * trace contents, so profiles are bit-identical across runs and SL_JOBS
 * settings — the determinism the sampled report's byte-compare tests
 * rely on.
 */

#ifndef SL_SAMPLE_PROFILE_HH
#define SL_SAMPLE_PROFILE_HH

#include <cstdint>
#include <vector>

#include "trace/trace.hh"

namespace sl
{

/** One profiled interval: a record range plus its feature vector. */
struct IntervalProfile
{
    std::size_t firstRecord = 0; //!< inclusive
    std::size_t endRecord = 0;   //!< exclusive
    /** Dynamic instructions in [firstRecord, endRecord): memory ops plus
     *  their bubbles. */
    std::uint64_t instructions = 0;
    /** Dynamic instructions in [0, firstRecord) — what a core fast-
     *  forwarded to firstRecord has already "retired". */
    std::uint64_t startInstructions = 0;
    /** Normalized features (kProfileDims entries, each in [0, 1]). */
    std::vector<double> features;
};

/** Whole-trace profile: the interval list plus the warmup split. */
struct TraceProfile
{
    std::size_t warmupRecords = 0;        //!< trace's own warmup region
    std::uint64_t warmupInstructions = 0; //!< instructions in it
    std::uint64_t totalInstructions = 0;  //!< whole trace
    std::vector<IntervalProfile> intervals;
};

/** Feature layout: 32 PC buckets, 32 region (64KB) buckets, 16 signed
 *  log2 stride buckets, 7 scalars (load/store/dependent fractions, mean
 *  bubble weight, two cache-proxy miss fractions, and a trace-position
 *  term). */
constexpr std::size_t kProfilePcBuckets = 32;
constexpr std::size_t kProfileRegionBuckets = 32;
constexpr std::size_t kProfileStrideBuckets = 16;
constexpr std::size_t kProfileScalars = 7;
/**
 * The two cache-proxy miss fractions (a 32KB and a 256KB LRU tag model
 * walked alongside the trace) are scaled by this weight before they
 * enter the feature vector. Memory-boundness is the strongest IPC
 * predictor an interval has, and without the boost those two scalars
 * would be drowned by the 80 histogram dimensions under the Euclidean
 * metric k-means uses.
 */
constexpr double kProfileMissWeight = 4.0;
/**
 * Weight on the normalized trace-position scalar (interval index / N).
 * Temporal prefetchers learn cumulatively, so two intervals with
 * identical access mixes can run at very different speeds depending on
 * how much history the prefetcher has seen — a position term keeps
 * clusters position-local so a representative shares its members'
 * training state.
 */
constexpr double kProfilePositionWeight = 1.0;
constexpr std::size_t kProfileDims =
    kProfilePcBuckets + kProfileRegionBuckets + kProfileStrideBuckets +
    kProfileScalars;

/**
 * Profile @p trace into @p intervals equal-record intervals over its
 * evaluation region [warmupRecords, records.size()). The last interval
 * absorbs the remainder. Throws SimError when the evaluation region has
 * fewer records than intervals.
 */
TraceProfile profileTrace(const Trace& trace, std::size_t intervals);

} // namespace sl

#endif // SL_SAMPLE_PROFILE_HH
