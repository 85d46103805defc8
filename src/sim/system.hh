/**
 * @file
 * System builder and run loop: cores, cache hierarchy, DRAM, prefetchers.
 *
 * Geometry and timing follow Table II of the paper; DRAM channels/ranks
 * scale with core count exactly as the table specifies.
 */

#ifndef SL_SIM_SYSTEM_HH
#define SL_SIM_SYSTEM_HH

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/event.hh"
#include "common/fault.hh"
#include "cache/cache.hh"
#include "cpu/core.hh"
#include "dram/dram.hh"
#include "prefetch/prefetcher.hh"
#include "sim/hardening.hh"
#include "sim/mem_pressure.hh"
#include "telemetry/telemetry.hh"
#include "trace/trace.hh"

namespace sl
{

/**
 * Top-level configuration.
 *
 * Latencies, widths, associativities, MSHRs, ports, and DRAM timing are
 * Table II's. Cache *capacities* default to 1/8 of Table II (LLC 256KB
 * per core instead of 2MB) so that laptop-scale traces exercise the same
 * capacity ratios the paper's 800M-instruction SPEC/GAP runs exercise
 * against a 2MB LLC; call paperGeometry() for the full-size machine.
 */
struct SystemConfig
{
    unsigned cores = 1;
    CoreParams core;

    std::size_t l1dBytes = 8 * 1024;
    unsigned l1dWays = 8;
    unsigned l1dLatency = 5;
    unsigned l1dMshrs = 16;
    unsigned l1dPorts = 2;

    std::size_t l2Bytes = 64 * 1024;
    unsigned l2Ways = 8;
    unsigned l2Latency = 10;
    unsigned l2Mshrs = 32;
    unsigned l2Ports = 1;

    std::size_t llcBytesPerCore = 256 * 1024;
    unsigned llcWays = 16;
    unsigned llcLatency = 20;
    unsigned llcMshrsPerCore = 64;

    unsigned dramMTs = 3200; //!< Fig 10c sweeps this

    PrefetcherFactory l1dPrefetcher; //!< may be empty
    PrefetcherFactory l2Prefetcher;  //!< may be empty

    FaultConfig faults;        //!< deterministic fault injection (off)
    HardeningConfig hardening; //!< auditor / watchdog knobs
    TelemetryConfig telemetry; //!< observability (off by default)

    /**
     * Reject impossible geometry before any component is built: zero
     * capacities, non-power-of-two set counts, zero latencies / MSHRs /
     * ports, and out-of-range fault rates all throw SimError here rather
     * than corrupting a run later.
     */
    void validate() const;
};

/** The unscaled Table II machine (2MB LLC/core, 512KB L2, 48KB L1D). */
SystemConfig paperGeometry();

/**
 * Splits the shared LLC's sets among the per-core temporal prefetchers:
 * core c owns physical sets where set % cores == c and exposes them to its
 * prefetcher as a contiguous virtual range.
 */
class CompositePartition : public PartitionPolicy
{
  public:
    explicit CompositePartition(unsigned cores) : policies_(cores) {}

    void
    setPolicy(unsigned core, const PartitionPolicy* p)
    {
        policies_[core] = p;
    }

    unsigned
    reservedWays(std::uint32_t set) const override
    {
        const unsigned cores = static_cast<unsigned>(policies_.size());
        const PartitionPolicy* p = policies_[set % cores];
        return p ? p->reservedWays(set / cores) : 0;
    }

  private:
    std::vector<const PartitionPolicy*> policies_;
};

/** A fully wired simulated machine. */
class System
{
  public:
    System(const SystemConfig& cfg, std::vector<TracePtr> traces);
    ~System();

    System(const System&) = delete;
    System& operator=(const System&) = delete;

    /**
     * Run until every core completes its measurement region (cores that
     * finish early replay their traces to keep contending). The loop
     * periodically runs the invariant auditor and feeds the progress
     * watchdog; a deadlock, cycle-limit overrun, invariant violation, or
     * stall raises SimError with a diagnostic snapshot attached.
     */
    void run(std::uint64_t max_cycles = 200'000'000'000ULL);

    /** Total instructions retired across all cores (watchdog signal). */
    std::uint64_t totalRetired() const;

    /**
     * Human-readable dump of in-flight state: per-core ROB head and
     * retirement counts, per-cache MSHR occupancy, pending event count,
     * and DRAM queue depth. Attached to SimErrors raised by the run loop.
     */
    std::string diagnosticSnapshot(Cycle now) const;

    unsigned cores() const { return static_cast<unsigned>(cores_.size()); }
    Core& core(unsigned i) { return *cores_[i]; }
    Cache& l1d(unsigned i) { return *l1ds_[i]; }
    Cache& l2(unsigned i) { return *l2s_[i]; }
    Cache& llc() { return *llc_; }
    Dram& dram() { return *dram_; }
    EventQueue& eventQueue() { return eq_; }

    /** Arena every MemRequest in this system is carved from. */
    RequestPool& requestPool() { return pool_; }
    const RequestPool& requestPool() const { return pool_; }

    Prefetcher* l1dPrefetcher(unsigned i) { return l1dPfs_[i].get(); }
    Prefetcher* l2Prefetcher(unsigned i) { return l2Pfs_[i].get(); }

    /** The fault injector, or null when cfg.faults has all-zero rates. */
    FaultInjector* faultInjector() { return faults_.get(); }

    /** The auditor, or null when cfg.hardening.auditInterval == 0. */
    const InvariantAuditor* auditor() const { return auditor_.get(); }

    /** The telemetry hub, or null when cfg.telemetry.enabled is false. */
    Telemetry* telemetry() { return telemetry_.get(); }

    /** The contention probe, or null on single-core systems. */
    MemPressure* memPressure() { return pressure_.get(); }

    // --- checkpoint/restore hooks (src/sim/snapshot.cc) ---------------

    /**
     * Serialize (or restore) every component's dynamic state in
     * construction order. Defined in snapshot.cc next to the component
     * registry that backs @p ctx's pointer swizzling.
     */
    void serializeState(Serializer& s, const SnapshotCtx& ctx);

    /** Cycle run() starts at; a snapshot restore installs its save point
     *  here so the resumed loop continues exactly where it left off. */
    void setResumeCycle(Cycle c) { resumeCycle_ = c; }
    Cycle resumeCycle() const { return resumeCycle_; }

    /** Callback fired by the run loop between cycles. */
    using RunHook = std::function<void(System&, Cycle)>;

    /**
     * Arrange for @p fn to fire once, at the top of the first loop
     * iteration with cycle >= at (a point where no fill is mid-flight:
     * all events below `at` have drained and no core has stepped at
     * `at`). Disarms itself after firing.
     */
    void
    scheduleSnapshot(Cycle at, RunHook fn)
    {
        snapshotAt_ = at;
        snapshotFn_ = std::move(fn);
    }

    /**
     * Abort the run with SimError (component "job_timeout") once
     * @p seconds of wall clock elapse. @p on_timeout, when non-null,
     * fires first -- between cycles, so orchestration can snapshot the
     * hung run before the batch layer kills and journals it.
     */
    void
    setWallClockDeadline(double seconds, RunHook on_timeout = nullptr)
    {
        deadlineSeconds_ = seconds;
        timeoutFn_ = std::move(on_timeout);
    }

  private:
    SystemConfig cfg_;
    EventQueue eq_;
    /** Declared before every component so requests drain back into a
     *  still-live arena during member destruction. */
    RequestPool pool_;
    std::unique_ptr<FaultInjector> faults_;
    /** Declared before the components that hold raw probes into it. */
    std::unique_ptr<Telemetry> telemetry_;
    std::unique_ptr<Dram> dram_;
    std::unique_ptr<Cache> llc_;
    /** Built after dram_/llc_ (it probes both); null when cores == 1 so
     *  single-core behaviour is untouched. */
    std::unique_ptr<MemPressure> pressure_;
    std::vector<std::unique_ptr<Cache>> l2s_;
    std::vector<std::unique_ptr<Cache>> l1ds_;
    std::vector<std::unique_ptr<Core>> cores_;
    std::vector<std::unique_ptr<Prefetcher>> l1dPfs_;
    std::vector<std::unique_ptr<Prefetcher>> l2Pfs_;
    std::unique_ptr<CompositePartition> partition_;
    std::unique_ptr<InvariantAuditor> auditor_;
    std::unique_ptr<ProgressWatchdog> watchdog_;

    // Run-loop orchestration (snapshot points, wall-clock budget).
    Cycle resumeCycle_ = 0;
    Cycle snapshotAt_ = kNoCycle;
    RunHook snapshotFn_;
    double deadlineSeconds_ = 0;
    RunHook timeoutFn_;
};

} // namespace sl

#endif // SL_SIM_SYSTEM_HH
