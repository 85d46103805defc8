/**
 * @file
 * Trace format for the trace-driven simulator.
 *
 * The paper evaluates with ChampSim traces of SPEC 2006 / SPEC 2017 / GAP.
 * Those traces are license-gated or multi-GB, so this repository generates
 * traces by *executing* synthetic kernels with the same access structure
 * (see workloads.hh) and recording each memory reference.
 */

#ifndef SL_TRACE_TRACE_HH
#define SL_TRACE_TRACE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"

namespace sl
{

/**
 * One memory reference. Kept to 16 bytes so multi-million-record traces
 * stay cheap; PCs are synthetic site identifiers assigned by generators.
 */
struct TraceRecord
{
    Addr addr;             //!< byte address referenced
    std::uint32_t pc;      //!< load/store site id (synthetic PC)
    AccessType type;       //!< load or store
    std::uint8_t bubbles;  //!< non-memory instructions preceding this one
    std::uint8_t flags = 0;
    std::uint8_t pad = 0;

    /** Set when this load's address depends on the previous load's value
     *  (pointer chasing); the core serialises such loads. */
    static constexpr std::uint8_t kDependsOnPrev = 1;

    bool dependsOnPrev() const { return flags & kDependsOnPrev; }
};

static_assert(sizeof(TraceRecord) == 16, "trace records must stay compact");

/** Benchmark-suite tag, used for the paper's per-suite breakdowns. */
enum class Suite : std::uint8_t { Spec06, Spec17, Gap };

/** Printable suite name. */
const char* suiteName(Suite s);

/**
 * An in-memory trace plus the workload identity needed for reporting.
 * `warmupRecords` marks how many leading records are warmup-only (stats are
 * reset after they retire), mirroring the paper's warmup/evaluate split.
 */
struct Trace
{
    std::string name;
    Suite suite = Suite::Spec06;
    std::size_t warmupRecords = 0;
    std::vector<TraceRecord> records;

    Trace() = default;
    // The cached count travels with the records it summarises (an atomic
    // member would otherwise delete the copy/move operations).
    Trace(const Trace& o)
        : name(o.name), suite(o.suite), warmupRecords(o.warmupRecords),
          records(o.records), cachedInstructions_(o.cachedCount())
    {
    }
    Trace(Trace&& o) noexcept
        : name(std::move(o.name)), suite(o.suite),
          warmupRecords(o.warmupRecords), records(std::move(o.records)),
          cachedInstructions_(o.cachedCount())
    {
    }
    Trace&
    operator=(const Trace& o)
    {
        name = o.name;
        suite = o.suite;
        warmupRecords = o.warmupRecords;
        records = o.records;
        cachedInstructions_.store(o.cachedCount(),
                                  std::memory_order_relaxed);
        return *this;
    }
    Trace&
    operator=(Trace&& o) noexcept
    {
        name = std::move(o.name);
        suite = o.suite;
        warmupRecords = o.warmupRecords;
        records = std::move(o.records);
        cachedInstructions_.store(o.cachedCount(),
                                  std::memory_order_relaxed);
        return *this;
    }

    /**
     * Total dynamic instructions represented (memory ops + bubbles).
     *
     * Computed lazily on first call and cached: traces run to millions of
     * records and are immutable once built (TracePtr is shared_ptr to
     * const), so the O(records) walk only ever needs to happen once. Do
     * not mutate `records` after calling this. Concurrent first calls
     * race benignly: both compute the same value.
     */
    std::uint64_t
    instructionCount() const
    {
        std::uint64_t n = cachedCount();
        if (n == 0 && !records.empty()) {
            for (const auto& r : records)
                n += 1 + r.bubbles;
            cachedInstructions_.store(n, std::memory_order_relaxed);
        }
        return n;
    }

  private:
    std::uint64_t
    cachedCount() const
    {
        return cachedInstructions_.load(std::memory_order_relaxed);
    }

    /** 0 = not yet computed (a non-empty trace never sums to 0). */
    mutable std::atomic<std::uint64_t> cachedInstructions_{0};
};

using TracePtr = std::shared_ptr<const Trace>;

/**
 * Recorder handed to workload kernels; kernels call load()/store() at each
 * memory-touching site and the recorder appends trace records.
 *
 * Kernels construct it, reserving their whole record budget, before any
 * scratch of their own (graphs, permutations, heaps). The record buffer is
 * the largest allocation by far, so a regenerated trace then lands in the
 * block its predecessor freed. Reserved after scratch whose size varies
 * with the seed, it can land past that block instead and keep a second
 * buffer's worth of pages resident.
 */
class TraceRecorder
{
  public:
    explicit TraceRecorder(std::size_t reserve = 0)
    {
        if (reserve)
            records_.reserve(reserve);
    }

    void
    load(std::uint32_t site, Addr addr, unsigned bubbles = 2)
    {
        append(site, addr, AccessType::Load, bubbles, 0);
    }

    /** A load whose address came from the previous load (pointer chase). */
    void
    loadDep(std::uint32_t site, Addr addr, unsigned bubbles = 2)
    {
        append(site, addr, AccessType::Load, bubbles,
               TraceRecord::kDependsOnPrev);
    }

    void
    store(std::uint32_t site, Addr addr, unsigned bubbles = 2)
    {
        append(site, addr, AccessType::Store, bubbles, 0);
    }

    std::size_t size() const { return records_.size(); }

    std::vector<TraceRecord> take() { return std::move(records_); }

  private:
    void
    append(std::uint32_t site, Addr addr, AccessType t, unsigned bubbles,
           std::uint8_t flags)
    {
        // Kernels pass the *relative* amount of non-memory work at each
        // site; expand to realistic instruction counts so traces land in
        // the paper's memory-intensive MPKI range (roughly 10-60) rather
        // than a pure back-to-back miss storm.
        bubbles = 4 + 8 * bubbles;
        TraceRecord r;
        r.addr = addr;
        r.pc = site;
        r.type = t;
        r.bubbles = static_cast<std::uint8_t>(bubbles > 255 ? 255 : bubbles);
        r.flags = flags;
        records_.push_back(r);
    }

    std::vector<TraceRecord> records_;
};

} // namespace sl

#endif // SL_TRACE_TRACE_HH
