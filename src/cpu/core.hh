/**
 * @file
 * Simplified out-of-order core model (ChampSim-style).
 *
 * Models the structures that gate memory-level parallelism: a 352-entry
 * ROB, 6-wide dispatch/retire, loads issued to the L1D at dispatch, and
 * in-order retirement. Address-dependent loads (pointer chases) serialise
 * on the previous load. Non-memory instructions ride along as weighted
 * "bubble" entries. This is the standard fidelity level for prefetcher
 * studies: IPC responds to miss latency, MLP, and bandwidth.
 */

#ifndef SL_CPU_CORE_HH
#define SL_CPU_CORE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include <string>

#include "common/error.hh"
#include "common/event.hh"
#include "common/serializer.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "cache/cache.hh"
#include "trace/trace.hh"

namespace sl
{

class Telemetry;

/** Core width/window configuration (defaults = Table II, Ice Lake-like). */
struct CoreParams
{
    unsigned robSize = 352;
    unsigned width = 6;

    /** Reject nonsensical core geometry before a run starts. */
    void
    validate() const
    {
        SL_REQUIRE(robSize > 0, "core_params", "ROB needs at least one "
                   "entry");
        SL_REQUIRE(width > 0, "core_params",
                   "dispatch/retire width must be nonzero");
        SL_REQUIRE(width <= robSize, "core_params",
                   "width " << width << " cannot exceed ROB size "
                            << robSize);
    }
};

/** Drives one trace through the memory hierarchy. */
class Core : public RequestClient
{
  public:
    /**
     * @param id core number (also used to offset the address space in
     *        multi-core runs)
     * @param l1d first-level data cache this core issues into
     * @param trace the workload; replayed from the start if other cores
     *        are still in their measurement region
     * @param pool request arena shared across the hierarchy (the System
     *        passes its own); null makes the core carve a private one
     */
    Core(int id, const CoreParams& params, Cache* l1d, TracePtr trace,
         RequestPool* pool = nullptr);

    Core(const Core&) = delete;
    Core& operator=(const Core&) = delete;

    /**
     * Advance one cycle: retire completed work, dispatch new work.
     * @return true if any instruction retired or dispatched
     */
    bool step(Cycle now);

    /** Earliest cycle at which step() can make progress (kNoCycle when
     *  blocked on a memory response). */
    Cycle nextWake(Cycle now) const;

    /**
     * step() for a loop that visits cycles on behalf of many cores: a
     * step that made no progress records nextWake(), and the core is
     * not stepped again before that cycle unless a completed load
     * (requestDone) lowers it. Exact: a blocked core's state changes
     * only when its ROB head or the load dispatch waits on completes,
     * both completion cycles are folded into the wake, and a step that
     * makes no progress changes nothing, so each skipped step would
     * have returned false.
     */
    bool
    stepAwake(Cycle now)
    {
        if (now < wakeAt_)
            return false;
        if (step(now)) {
            wakeAt_ = 0;
            return true;
        }
        wakeAt_ = nextWake(now);
        return false;
    }

    /** True once the first full pass over the trace has retired. */
    bool done() const { return evalEndCycle_ != kNoCycle; }

    // RequestClient
    void requestDone(const MemRequest& req, Cycle now) override;

    /** Attach the system's telemetry hub (null = probes disabled). */
    void setTelemetry(Telemetry* t) { tele_ = t; }

    /** Total instructions retired since construction (watchdog probe). */
    std::uint64_t retiredInstructions() const { return instrRetired_; }

    /**
     * One-line description of the ROB head for watchdog snapshots:
     * what the oldest in-flight instruction is waiting on.
     */
    std::string describeRobHead() const;

    /** Instructions retired in the measurement (post-warmup) region. */
    std::uint64_t evalInstructions() const;

    /** Cycles spent in the measurement region (valid once done()). */
    std::uint64_t evalCycles() const;

    /** Measurement-region IPC (valid once done()). */
    double ipc() const;

    int id() const { return id_; }
    StatGroup& stats() { return stats_; }

    /**
     * Override the measurement window with absolute records-retired
     * targets: warmup ends when recordsRetired_ reaches
     * @p warmup_records, the run (and IPC measurement) ends at
     * @p eval_records. Zero leaves the trace default (warmupRecords /
     * records.size()) in place. The targets are orchestration, not run
     * identity: they are NOT serialized into snapshots -- the sampled
     * runner (src/sample/) re-applies them after every restore, so a
     * checkpoint stays valid for any interval window cut from it.
     */
    void setMeasureWindow(std::uint64_t warmup_records,
                          std::uint64_t eval_records);

    /** Invoked once, when the warmup target retires (stat fencing for
     *  sampled intervals). Must be set before the target is crossed. */
    using WarmupCallback = std::function<void(Cycle)>;
    void setWarmupCallback(WarmupCallback cb) { warmupCb_ = std::move(cb); }

    /**
     * Teleport the trace cursor to @p records consumed records /
     * @p instructions retired instructions, as if they had executed, with
     * an empty ROB and no in-flight state. Only legal on an idle core
     * (nothing dispatched since the last drain); the sampled checkpoint
     * generator calls this after functional warmup so the snapshot's
     * cursor lands on the interval boundary.
     */
    void fastForwardTo(std::size_t records, std::uint64_t instructions,
                       Cycle now);

    /**
     * Snapshot every mutable field. The core never stores request
     * pointers -- completions match ROB slots via the request tag
     * ((slot << 32) | generation) -- so no swizzling is needed; the
     * trace cursor re-binds to the deterministically re-synthesized
     * trace on restore.
     */
    void
    serializeState(Serializer& s)
    {
        s.marker(0x434f5245, "core");
        std::uint32_t robSize = static_cast<std::uint32_t>(rob_.size());
        s.io(robSize);
        SL_CHECK(robSize == rob_.size(), "core",
                 "snapshot ROB size " << robSize << " does not match the "
                 "configured " << rob_.size() << " entries");
        static_assert(std::is_trivially_copyable_v<RobEntry> &&
                      std::has_unique_object_representations_v<RobEntry>);
        s.io(rob_);
        s.io(robHead_);
        s.io(robCount_);
        s.io(slotGen_);
        s.io(recordIdx_);
        if (s.loading()) // derived: re-wrap the cursor (one divide)
            recordPos_ = recordIdx_ % trace_->records.size();
        s.io(bubblesLeft_);
        s.io(bubblesPrimed_);
        s.io(lastLoadSlot_);
        s.io(lastLoadGen_);
        s.io(instrRetired_);
        s.io(recordsRetired_);
        s.io(warmupInstr_);
        s.io(warmupEndCycle_);
        s.io(evalInstr_);
        s.io(evalEndCycle_);
        s.io(startCycle_);
        stats_.serializeState(s);
        if (s.loading())
            wakeAt_ = 0;
    }

  private:
    struct RobEntry
    {
        std::uint32_t weight = 1;     //!< instruction count (bubbles fold)
        bool isMem = false;
        bool endsRecord = false;
        std::uint8_t pad[2] = {};     //!< explicit, so snapshots are stable
        Cycle doneAt = kNoCycle;      //!< kNoCycle while a load is in flight
        Cycle issuedAt = 0;           //!< dispatch cycle (load-to-use probe)
        std::uint64_t slotGen = 0;    //!< matches in-flight request tags
    };

    bool tryDispatch(Cycle now);
    void onRecordRetired(Cycle now);

    /** Per-core address-space offset so multi-core mixes don't share data. */
    Addr addrOffset() const { return static_cast<Addr>(id_) << 44; }

    int id_;
    CoreParams params_;
    Cache* l1d_;
    TracePtr trace_;
    Telemetry* tele_ = nullptr;

    /** Private arena backing pool_ when none was passed in. */
    std::unique_ptr<RequestPool> ownPool_;
    RequestPool* pool_;

    // ROB as a ring over fixed slots (slot indices are stable while live,
    // so in-flight requests can carry their slot as the completion tag).
    std::vector<RobEntry> rob_;
    std::size_t robHead_ = 0;
    std::size_t robCount_ = 0;
    std::uint64_t slotGen_ = 0;

    // Trace cursor. recordIdx_ counts dispatched records monotonically
    // (progress accounting, diagnostics); recordPos_ is the same cursor
    // pre-wrapped into [0, records.size()) so the dispatch loop indexes
    // without a 64-bit modulo. Invariant: recordPos_ == recordIdx_ % n.
    std::size_t recordIdx_ = 0;
    std::size_t recordPos_ = 0;
    unsigned bubblesLeft_ = 0;   //!< bubbles of the current record not yet
                                 //!< dispatched
    bool bubblesPrimed_ = false;

    // Pointer-chase serialisation.
    std::size_t lastLoadSlot_ = SIZE_MAX;
    std::uint64_t lastLoadGen_ = 0;

    /** Dependent load that tryDispatch() last broke on, for nextWake():
     *  inline response delivery means its completion cycle may exist
     *  only in the ROB entry. Not serialized — the first post-restore
     *  step() re-records it before nextWake() is ever consulted. */
    std::size_t blockedOnSlot_ = SIZE_MAX;
    std::uint64_t blockedOnGen_ = 0;

    /** stepAwake() skips steps before this cycle (0: step every cycle).
     *  Not serialized: a restore or fast-forward resets it. */
    Cycle wakeAt_ = 0;

    // Measurement window, in records retired. Defaults to the trace's
    // own warmup/full-pass boundaries; the sampled runner narrows it to
    // one interval. Deliberately not serialized (see setMeasureWindow).
    std::uint64_t warmupTarget_ = 0;
    std::uint64_t evalTarget_ = 0;
    WarmupCallback warmupCb_;

    // Progress accounting.
    std::uint64_t instrRetired_ = 0;
    std::uint64_t recordsRetired_ = 0;
    std::uint64_t warmupInstr_ = 0;
    Cycle warmupEndCycle_ = kNoCycle;
    std::uint64_t evalInstr_ = 0;
    Cycle evalEndCycle_ = kNoCycle;
    Cycle startCycle_ = 0;

    StatGroup stats_;
    /** Dispatch-loop counters, resolved once (no per-load map lookup). */
    Counter& loadsCtr_{stats_.counter("loads")};
    Counter& storesCtr_{stats_.counter("stores")};
};

} // namespace sl

#endif // SL_CPU_CORE_HH
