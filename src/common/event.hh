/**
 * @file
 * Discrete-event queue driving the memory hierarchy.
 *
 * Components schedule callbacks at absolute cycles; the system loop
 * interleaves event execution with per-cycle core stepping and fast-forwards
 * across idle gaps. Simulated time is monotonic: scheduling into the past
 * is rejected via SL_CHECK (it would silently reorder causally dependent
 * events), and the auditor verifies the head never precedes current time.
 */

#ifndef SL_COMMON_EVENT_HH
#define SL_COMMON_EVENT_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "error.hh"
#include "types.hh"

namespace sl
{

/** Sentinel for "no event scheduled". */
constexpr Cycle kNoCycle = std::numeric_limits<Cycle>::max();

/**
 * Serializable identity of a scheduled event (DESIGN.md §11).
 *
 * The simulator proper schedules exactly four lambda shapes (cache retry,
 * downstream forward, response delivery, prefetch issue). Tagging each
 * with a kind and a plain-data descriptor lets a snapshot write pending
 * events as data and rebuild them on restore; untagged (Generic) events
 * are reserved for tests and are rejected by the snapshot layer.
 */
enum class EventKind : std::uint8_t
{
    Generic = 0,   //!< opaque lambda; not serializable
    Retry,         //!< wake probe: comp = Cache*, a = MemRequest*
    Forward,       //!< comp = Cache* (forwarder), a = MemRequest*
    Respond,       //!< comp unused, a = MemRequest*
    PrefetchIssue, //!< comp = Cache*, a = Addr, pc, core
    DramTick,      //!< comp = Dram*, a = channel index (literal)
};

/** Plain-data capture for a tagged event. Fits EventCallback's buffer. */
struct EventDesc
{
    void* comp = nullptr;  //!< owning component (kind-dependent)
    std::uint64_t a = 0;   //!< request pointer or address (kind-dependent)
    std::uint64_t pc = 0;  //!< PrefetchIssue only
    std::int32_t core = 0; //!< PrefetchIssue only
};

/** Per-kind invoker entry points, defined next to the component logic
 *  they re-enter (cache.cc, dram.cc). Signatures match
 *  EventCallback::invoke_: the void* is the callback's capture buffer
 *  holding an EventDesc. */
namespace event_invoke
{
void retry(void* desc, Cycle now);
void forward(void* desc, Cycle now);
void respond(void* desc, Cycle now);
void prefetchIssue(void* desc, Cycle now);
void dramTick(void* desc, Cycle now);
} // namespace event_invoke

/**
 * Fixed-capacity, trivially-copyable callable for scheduled events.
 *
 * The queue copies callbacks into buckets and (for far-future events)
 * sifts them through a heap, and std::function would route every one of
 * those moves through its type-erasure manager (or the allocator, for
 * captures past its 16-byte buffer). Restricting event callbacks to
 * trivially-copyable captures of at most kCaptureBytes makes them plain
 * old data: copies are straight memcpy and scheduling never allocates.
 * Callbacks receive the cycle they fire at, so hot-path lambdas need
 * not capture it.
 */
class EventCallback
{
  public:
    EventCallback() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventCallback>>>
    EventCallback(F f)
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= kCaptureBytes,
                      "event callback captures exceed kCaptureBytes; "
                      "capture pointers, not objects");
        static_assert(std::is_trivially_copyable_v<Fn> &&
                          std::is_trivially_destructible_v<Fn>,
                      "event callbacks must be trivially copyable "
                      "(no std::string/shared_ptr captures)");
        ::new (static_cast<void*>(buf_)) Fn(std::move(f));
        invoke_ = [](void* buf, Cycle now) {
            (*std::launder(reinterpret_cast<Fn*>(buf)))(now);
        };
    }

    /**
     * Build a tagged, serializable event. Dispatch cost is identical to
     * the lambda path: the per-kind invoker is stored directly in
     * invoke_, and the descriptor lives in the same capture buffer a
     * lambda's captures would.
     */
    static EventCallback
    make(EventKind kind, const EventDesc& desc)
    {
        static_assert(sizeof(EventDesc) <= kCaptureBytes,
                      "EventDesc must fit the capture buffer");
        static_assert(std::is_trivially_copyable_v<EventDesc>);
        EventCallback cb;
        ::new (static_cast<void*>(cb.buf_)) EventDesc(desc);
        cb.kind_ = kind;
        switch (kind) {
        case EventKind::Retry:
            cb.invoke_ = &event_invoke::retry;
            break;
        case EventKind::Forward:
            cb.invoke_ = &event_invoke::forward;
            break;
        case EventKind::Respond:
            cb.invoke_ = &event_invoke::respond;
            break;
        case EventKind::PrefetchIssue:
            cb.invoke_ = &event_invoke::prefetchIssue;
            break;
        case EventKind::DramTick:
            cb.invoke_ = &event_invoke::dramTick;
            break;
        case EventKind::Generic:
            SL_CHECK(false, "event",
                     "make() requires a tagged kind; use the lambda "
                     "constructor for generic events");
        }
        return cb;
    }

    void operator()(Cycle now) { invoke_(buf_, now); }

    /** Serializable kind; Generic for plain lambda events. */
    EventKind kind() const { return kind_; }

    /** Descriptor of a tagged event (kind() != Generic only). */
    const EventDesc&
    desc() const
    {
        SL_CHECK(kind_ != EventKind::Generic, "event",
                 "desc() on an untagged (generic lambda) event");
        return *std::launder(
            reinterpret_cast<const EventDesc*>(buf_));
    }

  private:
    /** Room for four pointer-sized captures — the largest hot-path
     *  lambda (prefetch issue: cache, addr, pc, core) just fits. */
    static constexpr std::size_t kCaptureBytes = 32;

    alignas(alignof(std::max_align_t)) unsigned char buf_[kCaptureBytes];
    void (*invoke_)(void*, Cycle) = nullptr;
    /** Rides in what was struct padding: sizeof stays 48. */
    EventKind kind_ = EventKind::Generic;
};

static_assert(std::is_trivially_copyable_v<EventCallback>,
              "queue copies callbacks by memcpy");

/**
 * Calendar queue with stable FIFO order per cycle.
 *
 * A ring of per-cycle FIFO buckets covers the window
 * [now, now + kHorizon); events beyond the window wait in a small
 * (when, seq) min-heap and are admitted as the window advances.
 * Schedule and extract are O(1) appends/pops instead of O(log n) heap
 * sifts, which matters under load: a miss storm keeps thousands of
 * short-range events (wake probes, DRAM ticks and responses) in flight,
 * and every one of them would otherwise sift the heap twice.
 *
 * Ordering is identical to a (when, seq) min-heap. Within a bucket,
 * FIFO append order is global schedule order: far events for a cycle
 * are admitted — in their own (when, seq) order — at the instant the
 * cycle enters the window, which is before any direct schedule can
 * target it (direct schedules require the cycle to be in-window).
 */
class EventQueue
{
  public:
    using Callback = EventCallback;

    EventQueue() : buckets_(kHorizon) {}

    /**
     * Schedule @p cb to run at cycle @p when. @p when must not precede
     * the cycle currently being drained (monotonic simulated time).
     */
    void
    schedule(Cycle when, Callback cb)
    {
        SL_CHECK_AT(when >= now_, "event_queue", now_,
                    "event scheduled into the past (when=" << when << ")");
        if (when - now_ < kHorizon) {
            pushNear(when, cb);
        } else {
            far_.push_back(Far{when, seq_++, cb});
            std::push_heap(far_.begin(), far_.end(), Later{});
        }
    }

    bool empty() const { return nearCount_ == 0 && far_.empty(); }

    /** Pending events (diagnostic snapshots). */
    std::size_t size() const { return nearCount_ + far_.size(); }

    /** Cycle of the earliest pending event, or kNoCycle. */
    Cycle
    nextCycle() const
    {
        // Far events lie beyond the window, so nextAt_ wins whenever
        // any bucket is nonempty.
        Cycle next = nextAt_;
        if (!far_.empty() && far_.front().when < next)
            next = far_.front().when;
        return next;
    }

    /** Latest cycle runUntil has drained up to. */
    Cycle now() const { return now_; }

    /**
     * Rebase simulated time to zero for a fresh logical run (unit tests
     * drive several independent simulations through one queue). Only
     * legal once every pending event has drained — rebasing with events
     * in flight would reorder them against new ones.
     */
    void
    reset()
    {
        SL_CHECK(empty(), "event_queue",
                 "reset with " << size() << " events still pending");
        now_ = 0;
        seq_ = 0;
        nextAt_ = kNoCycle;
    }

    /**
     * Visit every pending event in execution order -- near buckets by
     * cycle (FIFO within a bucket), then far events by (when, seq).
     * Used by the snapshot layer; re-scheduling the visited events in
     * this order into an empty queue reproduces identical execution
     * order (fresh seqs assigned in sorted order preserve relative
     * order, and bucket FIFO order IS global schedule order).
     */
    template <typename F>
    void
    forEachPending(F&& fn) const
    {
        for (std::size_t off = 0; off < kHorizon; ++off) {
            const Cycle c = now_ + off;
            const std::size_t idx = static_cast<std::size_t>(c) & kMask;
            for (const Callback& cb : buckets_[idx])
                fn(c, cb);
        }
        std::vector<Far> sorted(far_);
        std::sort(sorted.begin(), sorted.end(),
                  [](const Far& a, const Far& b) {
                      return a.when != b.when ? a.when < b.when
                                              : a.seq < b.seq;
                  });
        for (const Far& f : sorted)
            fn(f.when, f.cb);
    }

    /**
     * Set simulated time to @p now for a snapshot restore. Only legal on
     * an empty queue; the caller then re-schedules the saved events in
     * forEachPending order.
     */
    void
    restoreClock(Cycle now)
    {
        SL_CHECK(empty(), "event_queue",
                 "restoreClock with " << size() << " events pending");
        now_ = now;
        seq_ = 0;
        nextAt_ = kNoCycle;
    }

    /** Run every event scheduled at or before @p now. The far heap is
     *  usually empty, so its emptiness is tested inline before the
     *  out-of-line admission walk. */
    void
    runUntil(Cycle now)
    {
        while (true) {
            const Cycle next = nextCycle();
            if (next > now)
                break;
            if (next > now_) {
                now_ = next;
                if (!far_.empty())
                    admitFar();
            }
            drainBucket(next);
        }
        if (now > now_) {
            now_ = now;
            if (!far_.empty())
                admitFar();
        }
    }

  private:
    /** Window span in cycles (power of two). Covers every short-range
     *  schedule (cache latencies, typical DRAM service); only deeply
     *  queued DRAM banks spill into the far heap. */
    static constexpr std::size_t kHorizon = 2048;
    static constexpr std::size_t kMask = kHorizon - 1;
    static constexpr std::size_t kWords = kHorizon / 64;

    /** Beyond-window event; seq keeps admission stable per cycle. */
    struct Far
    {
        Cycle when;
        std::uint64_t seq;
        Callback cb;
    };

    /** Ordering for std::*_heap: true when @p a runs after @p b. */
    struct Later
    {
        bool
        operator()(const Far& a, const Far& b) const
        {
            return a.when != b.when ? a.when > b.when : a.seq > b.seq;
        }
    };

    void
    pushNear(Cycle when, const Callback& cb)
    {
        const std::size_t idx = static_cast<std::size_t>(when) & kMask;
        buckets_[idx].push_back(cb);
        occ_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
        ++nearCount_;
        if (when < nextAt_)
            nextAt_ = when;
    }

    /** Move far events whose cycle entered the window into buckets. */
    void
    admitFar()
    {
        while (!far_.empty() && far_.front().when - now_ < kHorizon) {
            std::pop_heap(far_.begin(), far_.end(), Later{});
            const Far f = far_.back();
            far_.pop_back();
            pushNear(f.when, f.cb);
        }
    }

    /** Run every event in cycle @p c's bucket, in FIFO order. Callbacks
     *  may append to the bucket being drained (same-cycle reschedule),
     *  so iterate by index and copy each callback out first. */
    void
    drainBucket(Cycle c)
    {
        const std::size_t idx = static_cast<std::size_t>(c) & kMask;
        auto& b = buckets_[idx];
        for (std::size_t i = 0; i < b.size(); ++i) {
            Callback cb = b[i];
            cb(c);
        }
        nearCount_ -= b.size();
        b.clear(); // keeps capacity: steady-state drains never allocate
        occ_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
        nextAt_ = scanNext();
    }

    /** Earliest nonempty bucket cycle, or kNoCycle. O(kWords) bitmap
     *  scan, paid once per drained bucket rather than per query. */
    Cycle
    scanNext() const
    {
        if (nearCount_ == 0)
            return kNoCycle;
        const std::size_t start = static_cast<std::size_t>(now_) & kMask;
        std::size_t wi = start >> 6;
        std::uint64_t w = occ_[wi] & (~std::uint64_t{0} << (start & 63));
        for (std::size_t step = 0;; ++step) {
            if (w != 0) {
                const std::size_t idx =
                    (wi << 6) +
                    static_cast<std::size_t>(std::countr_zero(w));
                return now_ + ((idx - start) & kMask);
            }
            SL_CHECK(step <= kWords, "event_queue",
                     "occupancy bitmap lost " << nearCount_ << " events");
            wi = (wi + 1) & (kWords - 1);
            w = occ_[wi];
        }
    }

    /** FIFO bucket ring: bucket i holds the in-window cycle c with
     *  (c & kMask) == i. */
    std::vector<std::vector<Callback>> buckets_;
    /** One bit per bucket: nonempty. */
    std::uint64_t occ_[kWords] = {};
    /** Events scheduled past the window, admitted as now_ advances. */
    std::vector<Far> far_;
    std::size_t nearCount_ = 0;
    /** Exact earliest bucket cycle (kNoCycle when buckets are empty). */
    Cycle nextAt_ = kNoCycle;
    std::uint64_t seq_ = 0;
    Cycle now_ = 0;
};

} // namespace sl

#endif // SL_COMMON_EVENT_HH
