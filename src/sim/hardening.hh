/**
 * @file
 * Simulation hardening: periodic invariant auditing and a progress
 * watchdog.
 *
 * Long trace-driven runs are only as trustworthy as the state they
 * accumulate. The InvariantAuditor periodically cross-checks every
 * component's structural invariants (MSHR occupancy vs. requests in
 * flight, set occupancy vs. associativity, event-queue monotonicity,
 * metadata-store size bounds) so corruption fails the run loudly instead
 * of skewing IPC/coverage numbers. The ProgressWatchdog detects
 * no-retirement windows — a hung controller or a lost fill would
 * otherwise spin the event loop forever — dumps a diagnostic snapshot,
 * and raises SimError so the runner can serialize a repro bundle.
 */

#ifndef SL_SIM_HARDENING_HH
#define SL_SIM_HARDENING_HH

#include <cstdint>
#include <functional>
#include <string>

#include "common/error.hh"
#include "common/serializer.hh"
#include "common/types.hh"

namespace sl
{

class System;

/** Hardening knobs; part of SystemConfig. */
struct HardeningConfig
{
    /** Cycles between invariant audits; 0 disables the auditor. */
    Cycle auditInterval = 5'000'000;
    /**
     * No-retirement window (cycles) after which the watchdog trips;
     * 0 disables the watchdog. The default is orders of magnitude above
     * the worst legitimate stall (a full ROB of row-conflict DRAM
     * misses resolves in thousands of cycles, not tens of millions).
     */
    Cycle watchdogWindow = 20'000'000;

    /** Reject self-defeating knob values; throws SimError. */
    void
    validate() const
    {
        // A window shorter than a handful of DRAM round-trips would trip
        // on legitimate stalls; tests use 50K-cycle windows, so the floor
        // sits well below that.
        SL_REQUIRE(watchdogWindow == 0 || watchdogWindow >= 10'000,
                   "hardening_config",
                   "watchdogWindow " << watchdogWindow
                                     << " is below the 10000-cycle floor "
                                        "(0 disables the watchdog)");
    }
};

/**
 * Periodically audits a System's cross-component invariants. The checks
 * are O(total cache blocks), so they run every auditInterval cycles
 * rather than every cycle; any violation throws SimError.
 */
class InvariantAuditor
{
  public:
    InvariantAuditor(System& sys, Cycle interval)
        : sys_(sys), interval_(interval), nextAudit_(interval)
    {
    }

    /** Audit if the interval has elapsed (called from the run loop). */
    void
    maybeAudit(Cycle now)
    {
        if (interval_ == 0 || now < nextAudit_)
            return;
        auditNow(now);
        nextAudit_ = now + interval_;
    }

    /** Unconditional audit of every component; throws on violation. */
    void auditNow(Cycle now);

    /** Completed audit passes (tests assert the auditor actually ran). */
    std::uint64_t auditsRun() const { return auditsRun_; }

    /** Snapshot the audit schedule so restored runs audit on cadence. */
    void
    serializeState(Serializer& s)
    {
        s.marker(0x41554454, "invariant_auditor");
        s.io(nextAudit_);
        s.io(auditsRun_);
    }

  private:
    System& sys_;
    Cycle interval_;
    Cycle nextAudit_;
    std::uint64_t auditsRun_ = 0;
};

/**
 * Detects a stalled simulation: if the observed work counter (total
 * retired instructions) stops advancing for `window` cycles while the
 * run loop keeps spinning, the watchdog raises SimError carrying the
 * snapshot callback's diagnostics instead of letting the run hang
 * forever. Deliberately independent of System so it is testable alone.
 */
class ProgressWatchdog
{
  public:
    using SnapshotFn = std::function<std::string(Cycle)>;

    ProgressWatchdog(Cycle window, SnapshotFn snapshot)
        : window_(window), snapshot_(std::move(snapshot))
    {
    }

    /**
     * True when enough cycles have passed that observe() should sample
     * the work counter again. Gating on this keeps the run loop from
     * totalling every core's retirement count each cycle: one probe per
     * window still detects a hang within two windows, the counter scan
     * just stops dominating the hot loop.
     */
    bool
    probeDue(Cycle now) const
    {
        return window_ != 0 && now >= nextProbe_;
    }

    /**
     * Report the run loop's state: current cycle and cumulative work
     * done (monotonic). Throws SimError once no work lands for a full
     * window.
     */
    void
    observe(Cycle now, std::uint64_t work_done)
    {
        if (window_ == 0)
            return;
        nextProbe_ = now + window_;
        if (!primed_ || work_done != lastWork_) {
            primed_ = true;
            lastWork_ = work_done;
            lastProgressCycle_ = now;
            return;
        }
        if (now - lastProgressCycle_ > window_)
            trip(now);
    }

    /** Snapshot the progress-tracking state (probe schedule included). */
    void
    serializeState(Serializer& s)
    {
        s.marker(0x57444f47, "progress_watchdog");
        s.io(lastProgressCycle_);
        s.io(nextProbe_);
        s.io(lastWork_);
        s.io(primed_);
    }

  private:
    [[noreturn]] void trip(Cycle now) const;

    Cycle window_;
    SnapshotFn snapshot_;
    Cycle lastProgressCycle_ = 0;
    Cycle nextProbe_ = 0;
    std::uint64_t lastWork_ = 0;
    bool primed_ = false;
};

} // namespace sl

#endif // SL_SIM_HARDENING_HH
