/**
 * @file
 * DRAM timing model with channels, ranks, banks, and row buffers.
 *
 * Parameters follow Table II of the paper: 3200 MT/s, 8B channel width,
 * tCAS = tRP = tRCD = 12.5ns, 8 banks/rank, and 1/2/2/4 channels with
 * 1/2/2/4 ranks per channel for 1/2/4/8 cores. Transfer rate is a knob so
 * the Fig 10c bandwidth sweep can scale it.
 *
 * Two service disciplines share the bank/row timing core:
 *
 *  - Unscheduled (single core, the default): every access resolves its
 *    bank and bus slot at arrival, in arrival order — the original
 *    busy-until model, kept bit-identical for cores=1 runs.
 *
 *  - Scheduled (DramParams::requestors > 1): arrivals park in per-channel
 *    read/write queues and a per-channel FR-FCFS-with-priorities
 *    scheduler picks the next request each time the channel bus frees:
 *    demand reads beat prefetch reads, cores take round-robin turns (a
 *    per-channel cursor), row-buffer hits go first within a core's turn,
 *    and writes drain in batches between read bursts (high/low
 *    watermark).
 */

#ifndef SL_DRAM_DRAM_HH
#define SL_DRAM_DRAM_HH

#include <cstdint>
#include <vector>

#include "common/event.hh"
#include "common/fault.hh"
#include "common/serializer.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "cache/cache.hh"

namespace sl
{

class Telemetry;

/** DRAM geometry and timing configuration. */
struct DramParams
{
    unsigned channels = 1;
    unsigned ranksPerChannel = 1;
    unsigned banksPerRank = 8;
    unsigned rowsPerBank = 65536;
    unsigned transferMTs = 3200;   //!< mega-transfers/s on an 8B bus
    unsigned busBytes = 8;
    double coreGHz = 4.0;          //!< CPU clock for ns->cycle conversion
    double tCasNs = 12.5;
    double tRcdNs = 12.5;
    double tRpNs = 12.5;
    /** Memory-controller queueing + on-chip interconnect to the
     *  controller and back; added to every access's completion time. */
    double controllerNs = 30.0;

    /** Cores sharing this DRAM. Values > 1 enable the per-channel
     *  FR-FCFS scheduler; 0/1 keeps the legacy arrival-order model so
     *  single-core runs stay bit-identical to pre-scheduler builds. */
    unsigned requestors = 0;

    /** Write-drain watermarks (scheduled mode): start draining writes
     *  when a channel's write queue reaches writeDrainHigh, stop once it
     *  falls to writeDrainLow (or a read is waiting and the batch is
     *  done). */
    unsigned writeDrainHigh = 16;
    unsigned writeDrainLow = 4;

    bool scheduled() const { return requestors > 1; }

    /** Reject nonsensical DRAM geometry/timing before a run starts.
     *  Channels, banks per channel and rows per bank must be powers of
     *  two: the address decode is shift/mask only. */
    void validate() const;
};

/**
 * Bank-aware DRAM model. Each access resolves its channel/rank/bank/row,
 * pays row-hit / row-miss / row-conflict latency on the bank, then queues
 * for the channel data bus. Reads respond to the requesting client;
 * writebacks only consume bank and bus time. See the file comment for
 * the scheduled (multi-core) service discipline.
 */
class Dram : public MemLevel
{
  public:
    Dram(const DramParams& params, EventQueue& eq);

    void access(MemRequest* req, Cycle now) override;

    StatGroup& stats() { return stats_; }
    const StatGroup& stats() const { return stats_; }

    /** Total cycles one 64B burst occupies the channel bus. */
    Cycle burstCycles() const { return burstCycles_; }

    /** Peak bandwidth in bytes per core cycle (for reporting). */
    double peakBytesPerCycle() const;

    /** Attach the system's fault injector (null = no faults). */
    void setFaultInjector(FaultInjector* f) { faults_ = f; }

    /** Attach the system's telemetry hub (null = probes disabled). */
    void setTelemetry(Telemetry* t) { tele_ = t; }

    /** Latest cycle any channel bus is busy until (diagnostics). */
    Cycle busyUntil() const;

    unsigned channels() const { return params_.channels; }

    /** Queued (not yet serviced) read requests across all channels.
     *  Always zero in unscheduled mode; the MemPressure signal divides
     *  this by channels() to get a per-channel congestion estimate. */
    std::size_t queuedReads() const { return queuedReads_; }

    /** Service one scheduling step on @p ch (EventKind::DramTick
     *  target): pick the best queued request, commit its bank/bus
     *  timing, and re-arm the tick while work remains. */
    void tickChannel(unsigned ch, Cycle now);

    /** Snapshot bank/row/bus state, scheduler queues (request pointers
     *  swizzled through @p ctx), and stats. Derived timing constants are
     *  rebuilt from params at construction, not serialized. */
    void serializeState(Serializer& s, const SnapshotCtx& ctx);

  private:
    struct Bank
    {
        Cycle readyAt = 0;
        std::uint32_t openRow = ~0u;
        bool rowValid = false;
        std::uint8_t pad[3] = {}; //!< explicit, so snapshots are stable
    };

    /** One parked request in a channel's read or write queue. */
    struct QueuedReq
    {
        MemRequest* req = nullptr;
        Cycle arrival = 0;          //!< for FCFS order and latency stats
        std::uint32_t bank = 0;     //!< channel-local bank index
        std::uint32_t row = 0;
        std::int32_t core = 0;      //!< clamped requestor id
        bool demand = false;        //!< demand read (beats prefetch)
    };

    /** Per-channel scheduler state (scheduled mode only). */
    struct Channel
    {
        std::vector<QueuedReq> readQ;
        std::vector<QueuedReq> writeQ;
        bool draining = false;   //!< in a write-drain batch
        bool tickArmed = false;  //!< a DramTick event is pending
        std::uint32_t rrNext = 0; //!< round-robin core cursor
        /** Queued reads per core and class, [core * 2 + demand]: the
         *  class and the turn are found from these without scanning
         *  readQ. Recomputed from readQ on snapshot load. */
        std::vector<std::uint32_t> classReads;

        std::uint32_t&
        reads(std::size_t core, bool demand)
        {
            return classReads[2 * core + demand];
        }
    };

    struct Decoded
    {
        unsigned channel;
        std::uint32_t bank; //!< channel-local
        std::uint32_t row;
    };

    Decoded decode(Addr addr) const;

    /** Read-queue index of @p ch's next read under FR-FCFS (DESIGN.md
     *  §12); the channel's read queue must be nonempty. */
    std::size_t pickRead(unsigned ch, Cycle now);

    /** True when @p e, queued on channel @p ch, hits its bank's open row. */
    bool
    rowHit(unsigned ch, const QueuedReq& e) const
    {
        const Bank& b =
            banks_[static_cast<std::size_t>(ch) * banksPerChannel_ + e.bank];
        return b.rowValid && b.openRow == e.row;
    }

    /** Commit bank/bus timing for one request at service time @p start;
     *  returns the completion cycle (shared by both disciplines). */
    Cycle serviceTiming(const Decoded& d, Cycle start);

    void enqueueScheduled(MemRequest* req, Cycle now);

    /** Completion tail shared by both disciplines: apply injected fault
     *  delay, record latency telemetry, and respond (reads) or dispose
     *  (writebacks have no client). */
    void finish(MemRequest* req, Cycle arrival, Cycle done);

    std::int32_t clampCore(int core) const;
    void armTick(unsigned ch, Cycle at);

    DramParams params_;
    EventQueue& eq_;
    FaultInjector* faults_ = nullptr;
    Telemetry* tele_ = nullptr;
    /** Flat [channel][rank*bank] state: banks_ holds channels * nbanks
     *  entries row-major, busFreeAt_ one slot per channel — one
     *  contiguous lookup each instead of nested vector indirection. */
    std::vector<Bank> banks_;
    std::vector<Cycle> busFreeAt_;
    unsigned banksPerChannel_ = 0;
    Cycle tCas_, tRcd_, tRp_, burstCycles_, controllerCycles_;
    /** Address decode shifts and masks (validate() requires every
     *  decoded field's extent to be a power of two). */
    unsigned chShift_ = 0;
    std::uint64_t chMask_ = 0;
    unsigned bankShift_ = 0;
    std::uint64_t bankMask_ = 0;
    std::uint64_t rowMask_ = 0;
    StatGroup stats_;

    // ---- scheduler state (sized only when params_.scheduled()) ----
    std::vector<Channel> channels_;
    std::size_t queuedReads_ = 0;
    /** Per-requestor serviced-byte counters, registered eagerly at
     *  construction in scheduled mode ("core<i>_bytes"). */
    std::vector<Counter*> coreBytes_;

    /** Per-access counters; lazily registered (HotCounter) so counters
     *  that never fire stay out of serialized stat snapshots. */
    HotCounter readsCtr_{stats_, "reads"};
    HotCounter writesCtr_{stats_, "writes"};
    HotCounter rowHitsCtr_{stats_, "row_hits"};
    HotCounter rowMissesCtr_{stats_, "row_misses"};
    HotCounter rowConflictsCtr_{stats_, "row_conflicts"};
    HotCounter bytesCtr_{stats_, "bytes"};
    /** Scheduler counters; only ever fire in scheduled mode, so
     *  single-core stat digests never see them. */
    HotCounter demandReadsCtr_{stats_, "sched_demand_reads"};
    HotCounter prefetchReadsCtr_{stats_, "sched_prefetch_reads"};
    HotCounter writeDrainsCtr_{stats_, "sched_write_drains"};
    HotCounter readQWaitCtr_{stats_, "read_q_wait_cycles"};
    HotCounter readQPeakCtr_{stats_, "read_q_peak"};
    HotCounter writeQPeakCtr_{stats_, "write_q_peak"};
};

} // namespace sl

#endif // SL_DRAM_DRAM_HH
