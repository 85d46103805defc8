/**
 * @file
 * Checkpoint generation under functional warmup (DESIGN.md §14).
 *
 * One single pass per (config, workload): the trace is walked through
 * the cache hierarchy in functional mode (tags/LRU/dirty updates and
 * prefetcher training, no timing events — see Cache::setFunctionalMode)
 * and a snapshot is written at each requested record boundary. The
 * snapshots reuse the exact save/restore machinery detailed runs use
 * (snapshot.hh), so a sampled interval restores through the same
 * CRC-and-digest-guarded path as any resumed run.
 */

#ifndef SL_SAMPLE_CHECKPOINT_HH
#define SL_SAMPLE_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/runner.hh"

namespace sl
{

/**
 * Stable checkpoint file path for @p cfg x @p workload at record
 * boundary @p record: <dir>/sl_ckpt_<hash>_r<record>.bin, where the hash
 * is fnv1a over kSnapshotVersion and snapshotDigest. The hash keys the
 * file to the snapshot format and the exact run identity: files an
 * older format wrote are not found (they regenerate), and a stale file
 * from another config cannot collide silently because readSnapshotFile
 * re-verifies the full digest string on load.
 */
std::string checkpointPath(const std::string& dir, const RunConfig& cfg,
                           const std::string& workload,
                           std::size_t record);

/**
 * Ensure a snapshot exists at every record boundary in @p records
 * (single-core @p cfg only). Boundaries already on disk are reused
 * verbatim — the whole functional pass is skipped when every file
 * exists. Returns the number of checkpoints actually generated.
 */
std::size_t generateCheckpoints(const RunConfig& cfg,
                                const std::string& workload,
                                const std::vector<std::size_t>& records,
                                const std::string& dir);

} // namespace sl

#endif // SL_SAMPLE_CHECKPOINT_HH
