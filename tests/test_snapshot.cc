/**
 * @file
 * Snapshot subsystem tests: the direction-switched Serializer, the
 * versioned CRC-guarded snapshot file format (round-trip bit-identity
 * and every rejection path), the sweep manifest (digests, resume
 * skip/rerun semantics, JSON splicing), and per-job wall-clock timeouts
 * with hang snapshots.
 *
 * File-based tests write under the current working directory with
 * test-unique names so parallel ctest shards never collide, and remove
 * their droppings on the way out.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hh"
#include "common/serializer.hh"
#include "sim/batch.hh"
#include "sim/runner.hh"
#include "sim/snapshot.hh"

namespace sl
{
namespace
{

// ---------- Serializer ----------

TEST(Serializer, ScalarStringVectorRoundTrip)
{
    Serializer save;
    std::uint64_t a = 0x1122334455667788ull;
    std::int32_t b = -7;
    bool c = true;
    double d = 3.25;
    std::string s = "snapshot";
    std::vector<std::uint16_t> v{1, 2, 3, 500};
    save.io(a);
    save.io(b);
    save.io(c);
    save.io(d);
    save.io(s);
    save.io(v);

    const auto bytes = save.takeBuffer();
    Serializer load(bytes.data(), bytes.size());
    std::uint64_t a2 = 0;
    std::int32_t b2 = 0;
    bool c2 = false;
    double d2 = 0;
    std::string s2;
    std::vector<std::uint16_t> v2;
    load.io(a2);
    load.io(b2);
    load.io(c2);
    load.io(d2);
    load.io(s2);
    load.io(v2);
    load.finish();

    EXPECT_EQ(a2, a);
    EXPECT_EQ(b2, b);
    EXPECT_EQ(c2, c);
    EXPECT_EQ(d2, d);
    EXPECT_EQ(s2, s);
    EXPECT_EQ(v2, v);
}

TEST(Serializer, TruncatedPayloadThrowsNotReads)
{
    Serializer save;
    std::uint64_t a = 42;
    save.io(a);
    auto bytes = save.takeBuffer();
    bytes.resize(bytes.size() - 1); // lop off the last byte

    Serializer load(bytes.data(), bytes.size());
    std::uint64_t a2 = 0;
    EXPECT_THROW(load.io(a2), SimError);
}

TEST(Serializer, OversizedStringLengthRejected)
{
    // A corrupted length prefix must not trigger a giant allocation or
    // an out-of-bounds copy.
    Serializer save;
    std::uint64_t huge = ~0ull;
    save.io(huge);
    const auto bytes = save.takeBuffer();

    Serializer load(bytes.data(), bytes.size());
    std::string s;
    EXPECT_THROW(load.io(s), SimError);
}

TEST(Serializer, MarkerMismatchNamesTheSection)
{
    Serializer save;
    save.marker(0xdeadbeef, "write-side");
    const auto bytes = save.takeBuffer();

    Serializer load(bytes.data(), bytes.size());
    try {
        load.marker(0xfeedface, "mshr_table");
        FAIL() << "mismatched marker accepted";
    } catch (const SimError& e) {
        EXPECT_EQ(e.component(), "serializer");
        EXPECT_NE(std::string(e.what()).find("mshr_table"),
                  std::string::npos);
    }
}

TEST(Serializer, FinishRejectsTrailingBytes)
{
    Serializer save;
    std::uint32_t a = 1, b = 2;
    save.io(a);
    save.io(b);
    const auto bytes = save.takeBuffer();

    Serializer load(bytes.data(), bytes.size());
    std::uint32_t a2 = 0;
    load.io(a2);
    EXPECT_EQ(load.remaining(), sizeof(std::uint32_t));
    EXPECT_THROW(load.finish(), SimError);
}

TEST(Serializer, Crc32MatchesIeeeCheckValue)
{
    // The canonical CRC-32 check value: crc("123456789") = 0xCBF43926.
    const char* msg = "123456789";
    EXPECT_EQ(crc32(msg, 9), 0xcbf43926u);
    // Seeded continuation equals one-shot over the concatenation.
    const std::uint32_t first = crc32(msg, 4);
    EXPECT_EQ(crc32(msg + 4, 5, first), crc32(msg, 9));
}

// ---------- snapshot files ----------

RunConfig
smallConfig(const char* l2 = "streamline")
{
    RunConfig cfg;
    cfg.l2 = l2;
    cfg.traceScale = 0.05;
    return cfg;
}

/** Fields that must round-trip exactly through save/restore. */
void
expectIdenticalResults(const RunResult& a, const RunResult& b)
{
    ASSERT_EQ(a.cores.size(), b.cores.size());
    for (std::size_t i = 0; i < a.cores.size(); ++i) {
        EXPECT_EQ(a.cores[i].ipc, b.cores[i].ipc);
        EXPECT_EQ(a.cores[i].l2DemandMisses, b.cores[i].l2DemandMisses);
        EXPECT_EQ(a.cores[i].l2PrefetchUseful, b.cores[i].l2PrefetchUseful);
        EXPECT_EQ(a.cores[i].l2PrefetchIssued, b.cores[i].l2PrefetchIssued);
    }
    EXPECT_EQ(a.metadataTraffic(), b.metadataTraffic());
    EXPECT_EQ(a.dramReads, b.dramReads);
    EXPECT_EQ(a.dramWrites, b.dramWrites);
    EXPECT_EQ(a.dramBytes, b.dramBytes);
    EXPECT_EQ(a.storedCorrelations, b.storedCorrelations);
    // Shared-memory-system counters (nonzero only on multi-core runs).
    EXPECT_EQ(a.pfDroppedPressure, b.pfDroppedPressure);
    EXPECT_EQ(a.dramReadQueueWait, b.dramReadQueueWait);
    EXPECT_EQ(a.dramDemandReads, b.dramDemandReads);
    EXPECT_EQ(a.dramPrefetchReads, b.dramPrefetchReads);
    EXPECT_EQ(a.dramCoreBytes, b.dramCoreBytes);
}

std::vector<char>
slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
spit(const std::string& path, const std::vector<char>& bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(SnapshotFile, SaveRestoreRoundTripIsBitIdentical)
{
    const std::string path = "sl_test_snapshot_roundtrip.bin";
    const RunConfig cfg = smallConfig();
    const std::vector<std::string> w{"spec06_mcf"};

    const RunResult plain = runWorkloadsRaw(cfg, w);

    RunHooks save;
    save.snapshotAt = 20'000;
    save.snapshotPath = path;
    const RunResult saved = runWorkloadsRaw(cfg, w, save);
    // Saving mid-run must not perturb the run that continues past it.
    expectIdenticalResults(plain, saved);

    RunHooks restore;
    restore.restorePath = path;
    const RunResult resumed = runWorkloadsRaw(cfg, w, restore);
    expectIdenticalResults(plain, resumed);
    std::remove(path.c_str());
}

/**
 * The shared-memory-system state added for multi-core runs — per-channel
 * DRAM read/write queues with mid-flight requests, the LLC's per-core
 * port lanes, core/class tags on queued entries, and the pressure
 * probe's parity coin — must all survive a snapshot taken while that
 * machinery is busy. A 2-core mix keeps every piece engaged (the DRAM
 * scheduler, LLC port lanes, and MemPressure only exist when cores > 1);
 * the save point lands mid-run so queues are realistically non-empty.
 */
TEST(SnapshotFile, MultiCoreSharedMemoryRoundTrip)
{
    const std::string path = "sl_test_snapshot_2core.bin";
    RunConfig cfg = smallConfig();
    cfg.cores = 2;
    const std::vector<std::string> w{"spec06_mcf", "gap_bfs"};

    const RunResult plain = runWorkloadsRaw(cfg, w);

    RunHooks save;
    save.snapshotAt = 50'000;
    save.snapshotPath = path;
    const RunResult saved = runWorkloadsRaw(cfg, w, save);
    expectIdenticalResults(plain, saved);

    RunHooks restore;
    restore.restorePath = path;
    const RunResult resumed = runWorkloadsRaw(cfg, w, restore);
    expectIdenticalResults(plain, resumed);

    // The run must actually have exercised the scheduled DRAM path, or
    // this round-trip proves nothing about the new state.
    EXPECT_GT(plain.dramDemandReads + plain.dramPrefetchReads, 0u);
    ASSERT_EQ(plain.dramCoreBytes.size(), 2u);
    EXPECT_GT(plain.dramCoreBytes[0] + plain.dramCoreBytes[1], 0u);
    std::remove(path.c_str());
}

/**
 * Two saves of the same 2-core run write the same bytes, even when the
 * second run's allocations reuse heap memory an earlier owner left
 * full of junk: every struct serialized as raw bytes spells out its
 * padding as zero-initialized fields.
 */
TEST(SnapshotFile, PayloadIsByteReproducibleOverReusedHeap)
{
    const std::string first = "sl_test_snapshot_bytes_a.bin";
    const std::string second = "sl_test_snapshot_bytes_b.bin";
    RunConfig cfg = smallConfig();
    cfg.cores = 2;
    const std::vector<std::string> w{"spec06_mcf", "gap_bfs"};
    RunHooks save;
    save.snapshotAt = 30'000;
    save.snapshotPath = first;
    runWorkloadsRaw(cfg, w, save);

    // Two channels of eight 16-byte banks: fill and free heap chunks of
    // the bank vector's size so the next run's vector is carved from
    // 0xA5 junk rather than from fresh zeroed pages.
    constexpr std::size_t kBankVectorBytes = 2 * 8 * 16;
    std::vector<void*> junk;
    for (int i = 0; i < 32; ++i) {
        void* p = std::malloc(kBankVectorBytes);
        std::memset(p, 0xA5, kBankVectorBytes);
        asm volatile("" : : "r"(p) : "memory"); // keep the fill
        junk.push_back(p);
    }
    for (void* p : junk)
        std::free(p);

    save.snapshotPath = second;
    runWorkloadsRaw(cfg, w, save);
    const std::vector<char> a = slurp(first), b = slurp(second);
    ASSERT_FALSE(a.empty());
    EXPECT_TRUE(a == b) << "snapshot payloads differ";
    std::remove(first.c_str());
    std::remove(second.c_str());
}

TEST(SnapshotFile, MissingFileThrows)
{
    RunHooks restore;
    restore.restorePath = "sl_test_snapshot_does_not_exist.bin";
    EXPECT_THROW(runWorkloadsRaw(smallConfig(), {"spec06_mcf"}, restore),
                 SimError);
}

class SnapshotRejection : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        RunHooks save;
        save.snapshotAt = 20'000;
        save.snapshotPath = path_;
        runWorkloadsRaw(smallConfig(), {"spec06_mcf"}, save);
    }

    void TearDown() override { std::remove(path_.c_str()); }

    /** Restore under the matching config and return the SimError text. */
    std::string
    restoreError(const RunConfig& cfg = smallConfig())
    {
        RunHooks restore;
        restore.restorePath = path_;
        try {
            runWorkloadsRaw(cfg, {"spec06_mcf"}, restore);
        } catch (const SimError& e) {
            EXPECT_EQ(e.component(), "snapshot");
            return e.what();
        }
        ADD_FAILURE() << "restore of a damaged snapshot succeeded";
        return {};
    }

    std::string path_ = std::string("sl_test_snapshot_reject_") +
                        ::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name() +
                        ".bin";
};

TEST_F(SnapshotRejection, CorruptedPayloadFailsCrc)
{
    auto bytes = slurp(path_);
    bytes.back() ^= 0x01; // one bit, last payload byte
    spit(path_, bytes);
    EXPECT_NE(restoreError().find("CRC"), std::string::npos);
}

TEST_F(SnapshotRejection, TruncatedFileRejected)
{
    auto bytes = slurp(path_);
    bytes.resize(bytes.size() / 2);
    spit(path_, bytes);
    EXPECT_NE(restoreError().find("truncated"), std::string::npos);
}

TEST_F(SnapshotRejection, VersionSkewRejected)
{
    // The previous format (its request records carry fields this build
    // no longer has) and a far-future one are both refused up front.
    const auto pristine = slurp(path_);
    for (const std::uint32_t v : {kSnapshotVersion - 1, 99u}) {
        auto bytes = pristine;
        bytes[8] = static_cast<std::uint8_t>(v); // version follows magic
        spit(path_, bytes);
        const std::string err = restoreError();
        EXPECT_NE(err.find("version skew"), std::string::npos) << v;
        EXPECT_NE(err.find("format v" + std::to_string(v)),
                  std::string::npos)
            << err;
    }
}

/** Snapshots written before wake-on-free became the only stall scheduler
 *  (format v4) do not restore, whichever scheduling mode wrote them: a
 *  polling save holds retry-poll events and generation-stamped request
 *  records, a wake-on-free save request records this format no longer
 *  reads. The polling default never marked its config digest, so a
 *  polling save's digest is exactly this run's and the version is all
 *  that stops it; a wake-on-free save's digest carried one more member,
 *  a scheduling-mode tag. Both must fail on the version -- the real
 *  cause -- and never restore or report a config mismatch. (The suite
 *  keeps the opt-in mode's old name, FastWake.) */
TEST(FastWakeSnapshot, ModeMismatchRejectedBothWays)
{
    const std::string path = "sl_test_snapshot_old_modes.bin";
    const RunConfig cfg = smallConfig();
    const std::vector<std::string> w{"spec06_mcf"};
    RunHooks save;
    save.snapshotAt = 20'000;
    save.snapshotPath = path;
    runWorkloadsRaw(cfg, w, save);

    // Header: 8-byte magic, u32 version, u32 payload CRC, u64 payload
    // bytes, u64 digest bytes; the digest text follows it.
    constexpr std::size_t kVersionAt = 8, kDigestBytesAt = 24;
    constexpr std::size_t kHeaderBytes = 32;
    std::vector<char> polling = slurp(path);
    std::uint64_t digestBytes = 0;
    std::memcpy(&digestBytes, polling.data() + kDigestBytesAt,
                sizeof(digestBytes));
    const std::string digest = snapshotDigest(cfg, w);
    ASSERT_EQ(std::string(polling.data() + kHeaderBytes, digestBytes),
              digest);
    const std::uint32_t previous = 4; // the last format with both modes
    std::memcpy(polling.data() + kVersionAt, &previous, sizeof(previous));

    // The wake-on-free save: the same file with a scheduling-mode member
    // closing the digest's config object. Its value does not matter here.
    std::vector<char> wakeOnFree = polling;
    const std::string member = ",\"sched_mode\":\"previous\"";
    const auto configEnd = wakeOnFree.begin() + kHeaderBytes +
                           static_cast<std::ptrdiff_t>(digest.rfind('}'));
    wakeOnFree.insert(configEnd, member.begin(), member.end());
    digestBytes += member.size();
    std::memcpy(wakeOnFree.data() + kDigestBytesAt, &digestBytes,
                sizeof(digestBytes));

    for (const auto& [mode, bytes] : {std::pair{"polling", &polling},
                                      std::pair{"wake-on-free", &wakeOnFree}}) {
        spit(path, *bytes);
        RunHooks restore;
        restore.restorePath = path;
        try {
            runWorkloadsRaw(cfg, w, restore);
            ADD_FAILURE() << mode << " save from format v" << previous
                          << " restored";
        } catch (const SimError& e) {
            EXPECT_EQ(e.component(), "snapshot") << mode;
            const std::string what = e.what();
            EXPECT_NE(what.find("version skew"), std::string::npos)
                << mode << ": " << what;
            EXPECT_EQ(what.find("configuration mismatch"), std::string::npos)
                << mode << ": " << what;
        }
    }
    std::remove(path.c_str());
}

TEST_F(SnapshotRejection, BadMagicRejected)
{
    auto bytes = slurp(path_);
    bytes[0] = 'X';
    spit(path_, bytes);
    EXPECT_NE(restoreError().find("not a"), std::string::npos);
}

TEST_F(SnapshotRejection, ConfigMismatchRejected)
{
    // The file itself is pristine; the restoring simulator is built
    // differently, so the config digest must veto the restore.
    EXPECT_NE(restoreError(smallConfig("triage")).find("config"),
              std::string::npos);
}

TEST_F(SnapshotRejection, PrefetcherTuningMismatchRejected)
{
    // Same prefetcher, different tuning: the prefetcher's tables would
    // restore without complaint into a run that then reports numbers
    // neither configuration produces, unless the digest covers tuning.
    RunConfig tuned = smallConfig();
    tuned.streamline.maxDegree = 1;
    EXPECT_NE(restoreError(tuned).find("configuration mismatch"),
              std::string::npos);
    tuned = smallConfig();
    tuned.streamline.useTpMockingjay = false;
    EXPECT_NE(restoreError(tuned).find("configuration mismatch"),
              std::string::npos);
}

/** smallConfig(@p l2) with one prefetcher-tuning field changed. */
std::vector<RunConfig>
tuningVariants(const char* l2 = "streamline")
{
    std::vector<RunConfig> v(3, smallConfig(l2));
    v[0].streamline.maxDegree = 1;
    v[1].triangel.useTpMockingjay = true;
    v[2].triage.degree = 2;
    return v;
}

TEST(SnapshotDigest, CoversConfigAndWorkloads)
{
    const RunConfig cfg = smallConfig();
    EXPECT_EQ(snapshotDigest(cfg, {"spec06_mcf"}),
              snapshotDigest(cfg, {"spec06_mcf"}));
    EXPECT_NE(snapshotDigest(cfg, {"spec06_mcf"}),
              snapshotDigest(cfg, {"gap_bfs"}));
    EXPECT_NE(snapshotDigest(smallConfig("streamline"), {"spec06_mcf"}),
              snapshotDigest(smallConfig("triage"), {"spec06_mcf"}));
    for (const RunConfig& tuned : tuningVariants())
        EXPECT_NE(snapshotDigest(cfg, {"spec06_mcf"}),
                  snapshotDigest(tuned, {"spec06_mcf"}));
}

// ---------- sweep manifest ----------

ExperimentSpec
spec(const std::string& label, const std::string& workload,
     const char* l2 = "streamline")
{
    ExperimentSpec s;
    s.label = label;
    s.config = smallConfig(l2);
    s.workloads = {workload};
    return s;
}

TEST(SweepManifest, JobDigestIsStableAndDiscriminating)
{
    const ExperimentSpec a = spec("a", "spec06_mcf");
    EXPECT_EQ(jobDigest(a), jobDigest(a));
    EXPECT_EQ(jobDigest(a).size(), 16u);
    EXPECT_NE(jobDigest(a), jobDigest(spec("b", "spec06_mcf")));
    EXPECT_NE(jobDigest(a), jobDigest(spec("a", "gap_bfs")));
    EXPECT_NE(jobDigest(a), jobDigest(spec("a", "spec06_mcf", "triage")));
    for (const RunConfig& tuned : tuningVariants()) {
        ExperimentSpec t = a;
        t.config = tuned;
        EXPECT_NE(jobDigest(a), jobDigest(t));
    }
}

TEST(SweepManifest, ResumeSkipsFinishedJobsAndReplaysJson)
{
    const std::string manifest = "sl_test_sweep_resume.manifest.jsonl";
    std::remove(manifest.c_str());
    BatchOptions opts;
    opts.manifestPath = manifest;
    const std::vector<ExperimentSpec> specs{spec("mcf", "spec06_mcf"),
                                            spec("bfs", "gap_bfs")};

    const auto first = BatchRunner(1, opts).run(specs);
    ASSERT_EQ(first.size(), 2u);
    EXPECT_TRUE(first[0].ok);
    EXPECT_TRUE(first[1].ok);
    EXPECT_GE(first[0].attempts, 1u);

    const auto second = BatchRunner(1, opts).run(specs);
    ASSERT_EQ(second.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_TRUE(second[i].ok);
        EXPECT_EQ(second[i].attempts, 0u) << "job " << i << " reran";
        EXPECT_FALSE(second[i].cachedJson.empty());
        // The spliced JSON is byte-identical to the first run's.
        EXPECT_EQ(toJson(specs[i], second[i]), toJson(specs[i], first[i]));
    }
    std::remove(manifest.c_str());
}

TEST(SweepManifest, FailedJobsRerunOnResume)
{
    const std::string manifest = "sl_test_sweep_failed.manifest.jsonl";
    std::remove(manifest.c_str());
    BatchOptions opts;
    opts.manifestPath = manifest;
    const std::vector<ExperimentSpec> specs{
        spec("bogus", "no_such_workload")};

    const auto first = BatchRunner(1, opts).run(specs);
    ASSERT_EQ(first.size(), 1u);
    EXPECT_FALSE(first[0].ok);
    EXPECT_GE(first[0].attempts, 1u);

    // Journalled as failed: the resume must try again, not replay it.
    const auto second = BatchRunner(1, opts).run(specs);
    ASSERT_EQ(second.size(), 1u);
    EXPECT_FALSE(second[0].ok);
    EXPECT_GE(second[0].attempts, 1u);
    std::remove(manifest.c_str());
}

/** The digest a build before kResultsVersion journalled: FNV-1a over
 *  label, config JSON and workloads, with no version in the key. */
std::string
unversionedJobDigest(const ExperimentSpec& s)
{
    std::string key = s.label + '\0' + toJson(s.config);
    for (const auto& w : s.workloads)
        key += '\0' + w;
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : key) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(h));
    return hex;
}

TEST(SweepManifest, JobsJournalledUnderOtherResultsRerun)
{
    // A manifest written by a build that simulated differently must not
    // splice its results into this build's report: the results version
    // is part of the job digest, so its ok lines match nothing here.
    const std::string manifest = "sl_test_sweep_version.manifest.jsonl";
    const ExperimentSpec s = spec("mcf", "spec06_mcf");
    ASSERT_NE(unversionedJobDigest(s), jobDigest(s));
    {
        std::ofstream out(manifest, std::ios::trunc);
        out << "{\"digest\":\"" << unversionedJobDigest(s)
            << "\",\"ok\":true,\"job\":{\"label\":\"stale\"}}\n";
    }
    BatchOptions opts;
    opts.manifestPath = manifest;
    const auto rs = BatchRunner(1, opts).run({s});
    ASSERT_EQ(rs.size(), 1u);
    EXPECT_TRUE(rs[0].ok);
    EXPECT_GE(rs[0].attempts, 1u) << "stale journal line was replayed";
    EXPECT_TRUE(rs[0].cachedJson.empty());
    std::remove(manifest.c_str());
}

TEST(SweepManifest, MalformedLinesAreSkippedNotFatal)
{
    const std::string manifest = "sl_test_sweep_malformed.manifest.jsonl";
    {
        std::ofstream out(manifest, std::ios::trunc);
        out << "this is not json\n";
        out << "{\"digest\":\"feedfacefeedface\",\"ok\":tru\n";
    }
    BatchOptions opts;
    opts.manifestPath = manifest;
    const auto rs = BatchRunner(1, opts).run({spec("mcf", "spec06_mcf")});
    ASSERT_EQ(rs.size(), 1u);
    EXPECT_TRUE(rs[0].ok);
    EXPECT_GE(rs[0].attempts, 1u); // ran, nothing usable to resume from
    std::remove(manifest.c_str());
}

TEST(SweepManifest, RetriesBoundAttempts)
{
    BatchOptions opts;
    opts.maxRetries = 2; // no manifest needed for retry accounting
    const auto rs =
        BatchRunner(1, opts).run({spec("bogus", "no_such_workload")});
    ASSERT_EQ(rs.size(), 1u);
    EXPECT_FALSE(rs[0].ok);
    EXPECT_EQ(rs[0].attempts, 3u); // 1 initial + 2 retries
}

// ---------- job timeouts ----------

TEST(JobTimeout, OverBudgetJobFailsAndLeavesResumableSnapshot)
{
    const std::string hang = "sl_snapshot_hang_job0.bin";
    std::remove(hang.c_str());
    BatchOptions opts;
    opts.jobTimeoutSec = 0.02; // far below the job's real runtime
    ExperimentSpec s = spec("slow", "spec06_mcf");
    s.config.traceScale = 0.5;

    const auto rs = BatchRunner(1, opts).run({s});
    ASSERT_EQ(rs.size(), 1u);
    EXPECT_FALSE(rs[0].ok);
    ASSERT_TRUE(rs[0].error.has_value());
    EXPECT_EQ(rs[0].error->component(), "job_timeout");
    EXPECT_FALSE(rs[0].reproBundle.empty());

    // The hang snapshot exists and resumes: restoring it finishes the
    // job with no timeout attached.
    std::ifstream probe(hang, std::ios::binary);
    ASSERT_TRUE(probe.good()) << "hang snapshot not written";
    probe.close();
    RunHooks restore;
    restore.restorePath = hang;
    const RunResult done = runWorkloadsRaw(s.config, s.workloads, restore);
    ASSERT_EQ(done.cores.size(), 1u);
    EXPECT_GT(done.cores[0].ipc, 0.0);
    std::remove(hang.c_str());
}

} // namespace
} // namespace sl
