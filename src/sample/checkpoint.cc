#include "sample/checkpoint.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "common/error.hh"
#include "common/hash.hh"
#include "sim/batch.hh"
#include "sim/snapshot.hh"
#include "sim/system.hh"

namespace sl
{

namespace
{

bool
fileExists(const std::string& path)
{
    return std::ifstream(path, std::ios::binary).good();
}

/** File-name prefix of the checkpoints of the run @p digest names,
 *  written in snapshot format @p version. The format leads the key, as
 *  the results version leads jobDigest's: after a format bump the older
 *  files are not found, so they regenerate instead of failing to
 *  restore. Up to v6 the key was the digest alone (@p version 0). */
std::string
keyPrefix(std::uint32_t version, const std::string& digest)
{
    const std::string key =
        version ? "v" + std::to_string(version) + '\0' + digest : digest;
    std::ostringstream os;
    os << "sl_ckpt_" << std::hex << std::setw(16) << std::setfill('0')
       << fnv1a(key.data(), key.size()) << "_r";
    return os.str();
}

} // namespace

std::string
checkpointPath(const std::string& dir, const RunConfig& cfg,
               const std::string& workload, std::size_t record)
{
    return (dir.empty() ? "" : dir + '/') +
           keyPrefix(kSnapshotVersion, snapshotDigest(cfg, {workload})) +
           std::to_string(record) + ".bin";
}

std::size_t
generateCheckpoints(const RunConfig& cfg, const std::string& workload,
                    const std::vector<std::size_t>& records,
                    const std::string& dir)
{
    SL_REQUIRE(cfg.cores == 1, "sample_checkpoint",
               "checkpoint generation is single-core (got " << cfg.cores
                                                            << " cores)");
    std::vector<std::size_t> boundaries(records);
    std::sort(boundaries.begin(), boundaries.end());
    boundaries.erase(
        std::unique(boundaries.begin(), boundaries.end()),
        boundaries.end());
    if (boundaries.empty())
        return 0;

    // Warm path: every boundary already on disk skips the whole pass.
    // readSnapshotFile's digest check still guards against stale files.
    const bool all_present =
        std::all_of(boundaries.begin(), boundaries.end(),
                    [&](std::size_t b) {
                        return fileExists(
                            checkpointPath(dir, cfg, workload, b));
                    });
    if (all_present)
        return 0;

    // First write into a fresh SL_SAMPLE_DIR: create it instead of
    // failing in writeSnapshotFile's stream check.
    if (!dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
        SL_REQUIRE(!ec, "sample_checkpoint",
                   "cannot create checkpoint directory '"
                       << dir << "': " << ec.message());
    }
    // This run's files from older formats cannot be restored: delete
    // them, so format bumps do not pile up full sets. Other runs' stay.
    const std::string digest = snapshotDigest(cfg, {workload});
    std::vector<std::string> stale{keyPrefix(0, digest)};
    for (std::uint32_t v = 7; v < kSnapshotVersion; ++v)
        stale.push_back(keyPrefix(v, digest));
    std::error_code ec;
    for (const auto& e : std::filesystem::directory_iterator(
             dir.empty() ? "." : dir, ec))
        for (const auto& p : stale)
            if (e.path().filename().string().rfind(p, 0) == 0)
                std::filesystem::remove(e.path(), ec);

    cfg.validate();
    std::vector<TracePtr> traces{getTrace(workload, cfg.traceScale,
                                          cfg.seed)};
    const Trace& trace = *traces[0];
    const std::size_t n = trace.records.size();
    SL_REQUIRE(boundaries.back() <= n, "sample_checkpoint",
               "checkpoint boundary " << boundaries.back()
                                      << " past the trace's " << n
                                      << " records");

    System sys(systemConfigFor(cfg), traces);
    EventQueue& eq = sys.eventQueue();
    Cache& l1d = sys.l1d(0);
    auto setFunctional = [&](bool on) {
        sys.l1d(0).setFunctionalMode(on);
        sys.l2(0).setFunctionalMode(on);
        sys.llc().setFunctionalMode(on);
    };
    setFunctional(true);

    const Addr offset = 0; // core 0: no address-space offset

    // Pseudo-clock: one cycle per instruction (memory op + its bubbles),
    // the IPC=1 approximation functional warmup trades for speed. The
    // prefetchers' scheduled PrefetchIssue events drain against it.
    Cycle pseudoNow = 0;
    std::uint64_t instr = 0;
    std::size_t rec = 0;
    std::size_t generated = 0;

    auto drainAll = [&] {
        while (!eq.empty())
            eq.runUntil(eq.nextCycle());
    };

    for (const std::size_t boundary : boundaries) {
        for (; rec < boundary; ++rec) {
            const TraceRecord& r = trace.records[rec];
            l1d.functionalAccess(r.addr + offset, r.pc, 0,
                                 r.type == AccessType::Store, pseudoNow);
            pseudoNow += 1 + r.bubbles;
            instr += 1 + r.bubbles;
            if ((rec & 63u) == 63u)
                eq.runUntil(pseudoNow);
        }
        // Interval boundary: drain every pending event (prefetch issues
        // land functionally), park the core's cursor on the boundary,
        // and save. The snapshot cycle must not precede the event
        // queue's drained clock.
        drainAll();
        // The drain can advance the event clock past the pseudo-clock;
        // fold it back in so post-snapshot accesses never schedule
        // events into the past.
        pseudoNow = std::max(pseudoNow, eq.now());
        const Cycle snapCycle = pseudoNow;
        sys.core(0).fastForwardTo(boundary, instr, snapCycle);
        setFunctional(false);
        writeSnapshotFile(checkpointPath(dir, cfg, workload, boundary),
                          digest, sys, snapCycle);
        setFunctional(true);
        ++generated;
    }
    return generated;
}

} // namespace sl
