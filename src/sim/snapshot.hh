/**
 * @file
 * Versioned, CRC-guarded binary snapshots of a running System (DESIGN.md
 * §11).
 *
 * A snapshot captures every bit of dynamic state -- cache blocks and
 * MSHRs (with in-flight request pointers swizzled through pool slot
 * ids), the calendar event queue (as tagged EventDescs), DRAM bank
 * timing, temporal-prefetcher metadata stores, RNG and fault-injector
 * streams, stat counters, and the telemetry ring -- such that restoring
 * into a freshly built System (same RunConfig, same re-synthesized
 * traces) and resuming produces bit-identical results to the
 * uninterrupted run.
 *
 * File layout: fixed header (magic, format version, payload CRC-32,
 * payload and digest lengths), then a config-digest string identifying
 * the run the snapshot belongs to, then the serializer payload. Every
 * failure mode is diagnosable: wrong magic, version skew, truncation,
 * CRC mismatch, and config mismatch each raise SimError (component
 * "snapshot") with a message naming the specific defect; the runner
 * layer turns that into a repro bundle like any other SimError.
 */

#ifndef SL_SIM_SNAPSHOT_HH
#define SL_SIM_SNAPSHOT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace sl
{

class System;

/** On-disk snapshot format version; bump on any payload layout change.
 *  Sampled-run checkpoint names carry it (checkpointPath), so a bump
 *  makes older checkpoints regenerate instead of failing to restore.
 *  v6: no LLC MSHR quota -- MSHR and request records drop their quota
 *  fields, each cache keeps one waiter list, and DRAM drops its
 *  per-core in-flight and queued-write counts.
 *  v7: each fact saved once -- cache blocks drop their tag, valid and
 *  dirty copies (the dirty array is saved instead), stream slots their
 *  valid flag, Triage and Triangel their partition size (the store's
 *  is the one), and StreamStore's denominator mask, UADP's last
 *  accuracy and DRAM's queued-read count are rebuilt, not saved. */
constexpr std::uint32_t kSnapshotVersion = 7;

/**
 * Serialize the full dynamic state of @p sys, paused between cycles at
 * @p now, into a raw payload (no header/CRC -- writeSnapshotFile adds
 * those). Exposed separately so tests can round-trip in memory.
 */
std::vector<std::uint8_t> saveSystemState(System& sys, Cycle now);

/**
 * Restore @p sys (freshly constructed from the same config and traces)
 * from a payload produced by saveSystemState. Returns the cycle to
 * resume the run loop at. Throws SimError on any layout disagreement.
 */
Cycle restoreSystemState(System& sys, const std::uint8_t* payload,
                         std::size_t size);

/**
 * Write a complete snapshot file: header + @p configDigest + payload.
 * When the system has a fault injector with snapshotCorruptRate > 0,
 * payload bytes may be flipped AFTER the CRC is computed -- the restore
 * side's integrity check is what the fault campaign exercises.
 * Throws SimError when the file cannot be written.
 */
void writeSnapshotFile(const std::string& path,
                       const std::string& configDigest, System& sys,
                       Cycle now);

/**
 * Read, verify, and restore a snapshot file into @p sys. @p configDigest
 * must match the digest stored at save time (same config + workloads).
 * Returns the resume cycle. Throws SimError (component "snapshot") for a
 * missing file, wrong magic, version skew, truncation, CRC mismatch, or
 * config mismatch.
 */
Cycle readSnapshotFile(const std::string& path,
                       const std::string& configDigest, System& sys);

} // namespace sl

#endif // SL_SIM_SNAPSHOT_HH
