/**
 * @file
 * Tests for the sampled-simulation subsystem (DESIGN.md §14): the
 * weighted reassembly math against hand-computed fixtures, profiler
 * partitioning and determinism, seeded k-means behaviour, checkpoint
 * reuse, and the end-to-end guarantees the acceptance criteria name —
 * bit-identical sampled reports across thread counts and across a
 * mid-sweep kill + resume.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/hash.hh"
#include "sample/checkpoint.hh"
#include "sample/kmeans.hh"
#include "sample/profile.hh"
#include "sample/reassemble.hh"
#include "sample/sampled.hh"
#include "sim/runner.hh"
#include "sim/snapshot.hh"
#include "trace/workloads.hh"

namespace sl
{
namespace
{

RunConfig
smallConfig(const char* l2 = "streamline")
{
    RunConfig cfg;
    cfg.l2 = l2;
    cfg.traceScale = 0.05;
    return cfg;
}

/** A scratch directory wiped on construction and destruction. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string& name) : dir_(name)
    {
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }
    ~ScratchDir() { std::filesystem::remove_all(dir_); }
    const std::string& path() const { return dir_; }

  private:
    std::string dir_;
};

std::size_t
countOccurrences(const std::string& hay, const std::string& needle)
{
    std::size_t n = 0;
    for (std::size_t at = hay.find(needle); at != std::string::npos;
         at = hay.find(needle, at + needle.size()))
        ++n;
    return n;
}

TEST(SamplingReassemble, MatchesHandComputedFixture)
{
    // x = {1, 2, 3}, w = {1, 1, 2}:
    //   mean   = (1 + 2 + 6) / 4            = 2.25
    //   var    = (1.5625 + .0625 + 2*.5625)/4 = 0.6875
    //   n_eff  = (1+1+2)^2 / (1+1+4)        = 16/6
    const WeightedStat s = weightedStat({1, 2, 3}, {1, 1, 2});
    EXPECT_DOUBLE_EQ(s.mean, 2.25);
    EXPECT_DOUBLE_EQ(s.stddev, std::sqrt(0.6875));
    EXPECT_DOUBLE_EQ(s.neff, 16.0 / 6.0);
    EXPECT_DOUBLE_EQ(s.ci95,
                     1.96 * std::sqrt(0.6875) / std::sqrt(16.0 / 6.0));
}

TEST(SamplingReassemble, EqualWeightsMatchUnweightedMoments)
{
    const WeightedStat s = weightedStat({2, 4, 6}, {1, 1, 1});
    EXPECT_DOUBLE_EQ(s.mean, 4.0);
    EXPECT_DOUBLE_EQ(s.stddev, std::sqrt(8.0 / 3.0));
    EXPECT_DOUBLE_EQ(s.neff, 3.0);
}

TEST(SamplingReassemble, SingleSampleReportsZeroCi)
{
    const WeightedStat s = weightedStat({5.0}, {2.0});
    EXPECT_DOUBLE_EQ(s.mean, 5.0);
    EXPECT_DOUBLE_EQ(s.stddev, 0.0);
    EXPECT_DOUBLE_EQ(s.neff, 1.0);
    EXPECT_DOUBLE_EQ(s.ci95, 0.0);
}

TEST(SamplingReassemble, RejectsDegenerateInput)
{
    EXPECT_THROW(weightedStat({}, {}), SimError);
    EXPECT_THROW(weightedStat({1, 2}, {1}), SimError);
    EXPECT_THROW(weightedStat({1, 2}, {0, 0}), SimError);
    EXPECT_THROW(weightedStat({1, 2}, {1, -1}), SimError);
}

TEST(SamplingProfile, PartitionsEvalRegionExactly)
{
    const TracePtr trace = getTrace("spec06_mcf", 0.05, 1);
    const std::size_t kIntervals = 8;
    const TraceProfile prof = profileTrace(*trace, kIntervals);

    ASSERT_EQ(prof.intervals.size(), kIntervals);
    EXPECT_EQ(prof.warmupRecords, trace->warmupRecords);
    EXPECT_EQ(prof.intervals.front().firstRecord, trace->warmupRecords);
    EXPECT_EQ(prof.intervals.back().endRecord, trace->records.size());

    std::uint64_t instr = 0;
    for (std::size_t i = 0; i < kIntervals; ++i) {
        const IntervalProfile& iv = prof.intervals[i];
        EXPECT_LT(iv.firstRecord, iv.endRecord);
        if (i) {
            EXPECT_EQ(iv.firstRecord, prof.intervals[i - 1].endRecord);
        }
        ASSERT_EQ(iv.features.size(), kProfileDims);
        // The trace-position term is the last feature by layout.
        EXPECT_DOUBLE_EQ(iv.features.back(),
                         kProfilePositionWeight *
                             static_cast<double>(i) / kIntervals);
        instr += iv.instructions;
    }
    EXPECT_EQ(prof.warmupInstructions + instr, prof.totalInstructions);
}

TEST(SamplingProfile, IsDeterministicAcrossCalls)
{
    const TracePtr a = getTrace("gap_bfs", 0.05, 1);
    const TracePtr b = getTrace("gap_bfs", 0.05, 1);
    const TraceProfile pa = profileTrace(*a, 12);
    const TraceProfile pb = profileTrace(*b, 12);
    ASSERT_EQ(pa.intervals.size(), pb.intervals.size());
    for (std::size_t i = 0; i < pa.intervals.size(); ++i) {
        EXPECT_EQ(pa.intervals[i].firstRecord,
                  pb.intervals[i].firstRecord);
        EXPECT_EQ(pa.intervals[i].startInstructions,
                  pb.intervals[i].startInstructions);
        // Bit-identical, not approximately equal: the clusterer (and
        // therefore the whole sampled report) depends on it.
        EXPECT_EQ(pa.intervals[i].features, pb.intervals[i].features);
    }
}

TEST(SamplingProfile, RejectsDegenerateRequests)
{
    const TracePtr trace = getTrace("spec06_mcf", 0.05, 1);
    EXPECT_THROW(profileTrace(*trace, 0), SimError);
    EXPECT_THROW(profileTrace(*trace, trace->records.size() + 1),
                 SimError);
}

TEST(SamplingKmeans, SeparatesDistinctBlobsDeterministically)
{
    // Two well-separated 2-D blobs of five points each.
    std::vector<std::vector<double>> points;
    for (int i = 0; i < 5; ++i)
        points.push_back({0.1 * i, 0.05 * i});
    for (int i = 0; i < 5; ++i)
        points.push_back({10.0 + 0.1 * i, 10.0 - 0.05 * i});

    const ClusterSelection sel = kmeansSelect(points, 2, 42);
    ASSERT_EQ(sel.representatives.size(), 2u);
    EXPECT_LT(sel.representatives[0], 5u);
    EXPECT_GE(sel.representatives[1], 5u);
    EXPECT_EQ(sel.clusterSizes, (std::vector<std::size_t>{5, 5}));
    EXPECT_DOUBLE_EQ(sel.weights[0], 0.5);
    EXPECT_DOUBLE_EQ(sel.weights[1], 0.5);
    ASSERT_EQ(sel.assignment.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(sel.assignment[i], i < 5 ? 0u : 1u) << "point " << i;

    const ClusterSelection again = kmeansSelect(points, 2, 42);
    EXPECT_EQ(sel.representatives, again.representatives);
    EXPECT_EQ(sel.assignment, again.assignment);
}

TEST(SamplingKmeans, ClampsKToPointCount)
{
    std::vector<std::vector<double>> points;
    for (int i = 0; i < 4; ++i)
        points.push_back({static_cast<double>(i)});
    const ClusterSelection sel = kmeansSelect(points, 16, 7);
    ASSERT_EQ(sel.representatives.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(sel.representatives[i], i);
        EXPECT_DOUBLE_EQ(sel.weights[i], 0.25);
        EXPECT_EQ(sel.clusterSizes[i], 1u);
    }
}

TEST(SamplingReport, HonorsBudgetAndNormalizesWeights)
{
    RunConfig cfg = smallConfig();
    SampleOptions opts;
    opts.intervals = 16;
    opts.k = 6;
    const std::string json =
        sampleReportJson(cfg, "spec06_mcf", opts);

    // Exactly k selected intervals, stratified over fewer clusters.
    EXPECT_EQ(countOccurrences(json, "\"interval\":"), opts.k);
    EXPECT_NE(json.find("\"bench\":\"sample_report\""),
              std::string::npos);
    EXPECT_NE(json.find("\"clusters\":"), std::string::npos);

    double weightSum = 0;
    for (std::size_t at = json.find("\"weight\":");
         at != std::string::npos;
         at = json.find("\"weight\":", at + 1))
        weightSum += std::stod(json.substr(at + 9));
    EXPECT_NEAR(weightSum, 1.0, 1e-9);

    // Pure function of (config, workload, options).
    EXPECT_EQ(json, sampleReportJson(cfg, "spec06_mcf", opts));
}

TEST(SamplingCheckpoint, SecondGenerationReusesFiles)
{
    ScratchDir dir("sl_test_sampling_ckpt_reuse");
    RunConfig cfg = smallConfig();
    const TracePtr trace = getTrace("spec06_mcf", cfg.traceScale,
                                    cfg.seed);
    const std::size_t n = trace->records.size();
    const std::vector<std::size_t> records{n / 3, n / 2};

    EXPECT_EQ(generateCheckpoints(cfg, "spec06_mcf", records,
                                  dir.path()),
              records.size());
    for (const std::size_t r : records)
        EXPECT_TRUE(std::filesystem::exists(
            checkpointPath(dir.path(), cfg, "spec06_mcf", r)));

    // Every boundary already on disk: the functional pass is skipped.
    EXPECT_EQ(generateCheckpoints(cfg, "spec06_mcf", records,
                                  dir.path()),
              0u);
}

TEST(SamplingCheckpoint, OlderFormatCheckpointsRegenerate)
{
    // A checkpoint directory filled by a build with the previous snapshot
    // format: same run identity, older header. Builds up to format v6
    // named files by the config digest alone, so the stale file sits
    // exactly where such a build would look.
    ScratchDir dir("sl_test_sampling_ckpt_format");
    RunConfig cfg = smallConfig();
    const TracePtr trace = getTrace("spec06_mcf", cfg.traceScale,
                                    cfg.seed);
    const std::size_t record = trace->records.size() / 2;
    ASSERT_EQ(generateCheckpoints(cfg, "spec06_mcf", {record}, dir.path()),
              1u);
    const std::string fresh =
        checkpointPath(dir.path(), cfg, "spec06_mcf", record);
    std::vector<char> bytes;
    {
        std::ifstream in(fresh, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    ASSERT_GT(bytes.size(), 12u);
    bytes[8] = static_cast<char>(kSnapshotVersion - 1); // u32 after magic
    const std::string digest = snapshotDigest(cfg, {"spec06_mcf"});
    std::ostringstream legacy;
    legacy << dir.path() << "/sl_ckpt_" << std::hex << std::setw(16)
           << std::setfill('0') << fnv1a(digest.data(), digest.size())
           << std::dec << "_r" << record << ".bin";
    std::filesystem::remove(fresh);
    std::ofstream(legacy.str(), std::ios::binary)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));

    // The stale file must not satisfy the warm path: the boundary is
    // generated again and restores.
    EXPECT_NE(fresh, legacy.str());
    EXPECT_EQ(generateCheckpoints(cfg, "spec06_mcf", {record}, dir.path()),
              1u);
    RunHooks hooks;
    hooks.restorePath = fresh;
    EXPECT_NO_THROW(runWorkloadsRaw(cfg, {"spec06_mcf"}, hooks));
}

TEST(SamplingRun, DeterministicAcrossThreadCounts)
{
    ScratchDir dir("sl_test_sampling_threads");
    RunConfig cfg = smallConfig();
    SampleOptions opts;
    opts.intervals = 12;
    opts.k = 6;
    opts.checkpointDir = dir.path();

    opts.threads = 1;
    const SampledReport one = runSampled(cfg, "spec06_mcf", opts);
    opts.threads = 3;
    const SampledReport three = runSampled(cfg, "spec06_mcf", opts);

    ASSERT_EQ(one.intervals.size(), opts.k);
    EXPECT_GT(one.ipcEstimate, 0.0);
    EXPECT_GT(one.neff, 1.0);
    EXPECT_EQ(one.deterministicJson, three.deterministicJson);
}

TEST(SamplingRun, ResumedSweepIsByteIdentical)
{
    ScratchDir dir("sl_test_sampling_resume");
    const std::string manifest = dir.path() + "/sweep.jsonl";
    RunConfig cfg = smallConfig("triangel");
    SampleOptions opts;
    opts.intervals = 12;
    opts.k = 6;
    opts.checkpointDir = dir.path();
    opts.manifestPath = manifest;
    opts.threads = 2;

    const SampledReport full = runSampled(cfg, "gap_bfs", opts);
    ASSERT_TRUE(std::filesystem::exists(manifest));

    // Simulate a mid-sweep kill: keep only the first half of the
    // journal, as if the process died between interval jobs.
    std::vector<std::string> lines;
    {
        std::ifstream in(manifest);
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
    }
    ASSERT_GT(lines.size(), 2u);
    {
        std::ofstream out(manifest, std::ios::trunc);
        for (std::size_t i = 0; i < lines.size() / 2; ++i)
            out << lines[i] << "\n";
    }

    const SampledReport resumed = runSampled(cfg, "gap_bfs", opts);
    EXPECT_EQ(full.deterministicJson, resumed.deterministicJson);

    // A third run served entirely from the journal matches too.
    const SampledReport cached = runSampled(cfg, "gap_bfs", opts);
    EXPECT_EQ(full.deterministicJson, cached.deterministicJson);
}

TEST(SamplingRun, TracksFullDetailedRunLoosely)
{
    // The ±3% fidelity gate lives in check.sh at paper scale; at the
    // tiny test scale just require the estimate to be in the right
    // neighborhood so gross estimator regressions fail fast.
    ScratchDir dir("sl_test_sampling_fidelity");
    RunConfig cfg = smallConfig();
    SampleOptions opts;
    opts.intervals = 12;
    opts.k = 6;
    opts.checkpointDir = dir.path();

    const SampledReport rep = runSampled(cfg, "gap_bfs", opts);
    const RunResult fullRun = runWorkload(cfg, "gap_bfs");
    const double fullIpc = fullRun.cores.at(0).ipc;
    ASSERT_GT(fullIpc, 0.0);
    EXPECT_LT(std::abs(rep.ipcEstimate - fullIpc) / fullIpc, 0.25);

    // The reassembled report reaches the bench JSON verbatim.
    EXPECT_NE(rep.fullJson.find(rep.deterministicJson),
              std::string::npos);
    EXPECT_EQ(rep.totalEvalInstructions > 0, true);
}

} // namespace
} // namespace sl
