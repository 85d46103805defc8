/**
 * @file
 * Fixed-capacity open-addressed MSHR table.
 *
 * The MSHR limit is known at cache construction, so the miss path never
 * needs a growing hash map: a flat power-of-two slot array sized to at
 * least twice the limit (load factor <= 0.5) with linear probing beats
 * std::unordered_map on every operation the hot path performs — no
 * per-entry node allocation on insert, no pointer chase on lookup, and
 * erase uses the classic backward-shift algorithm so there are no
 * tombstones to accumulate. Slots are relocated by swap, so each slot's
 * waiter vector keeps its grown capacity across reuse and the steady
 * state allocates nothing.
 */

#ifndef SL_CACHE_MSHR_TABLE_HH
#define SL_CACHE_MSHR_TABLE_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.hh"
#include "common/hash.hh"
#include "common/serializer.hh"
#include "common/types.hh"
#include "cache/request.hh"

namespace sl
{

/** One outstanding miss: merge state plus the requests awaiting the fill. */
struct Mshr
{
    Addr addr = 0;
    bool demandMerged = false;
    bool prefetchOnly = true;
    bool prefetchOriginHere = false;
    std::vector<MemRequest*> waiters;
};

class MshrTable
{
  public:
    /** @param limit configured MSHR count; the table never holds more. */
    explicit MshrTable(unsigned limit) : limit_(limit)
    {
        SL_REQUIRE(limit > 0, "mshr_table", "need at least one MSHR");
        std::size_t cap = 8;
        while (cap < 2 * static_cast<std::size_t>(limit))
            cap <<= 1;
        slots_.resize(cap);
        used_.resize(cap, false);
        mask_ = static_cast<std::uint32_t>(cap - 1);
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    unsigned limit() const { return limit_; }

    /** True when every configured MSHR is allocated (structural stall). */
    bool full() const { return size_ >= limit_; }

    /** The entry for @p addr, or null. */
    Mshr*
    find(Addr addr)
    {
        for (std::uint32_t i = home(addr);; i = (i + 1) & mask_) {
            if (!used_[i])
                return nullptr;
            if (slots_[i].addr == addr)
                return &slots_[i];
        }
    }

    const Mshr*
    find(Addr addr) const
    {
        return const_cast<MshrTable*>(this)->find(addr);
    }

    /**
     * Allocate the entry for @p addr (which must not be present and the
     * table must not be full). The returned entry has default merge
     * state and an empty waiter list whose capacity survives from the
     * slot's previous occupant.
     */
    Mshr&
    insert(Addr addr)
    {
        SL_CHECK(!full(), "mshr_table",
                 "insert into a full table (" << size_ << "/" << limit_
                                              << " MSHRs)");
        std::uint32_t i = home(addr);
        while (used_[i]) {
            SL_CHECK(slots_[i].addr != addr, "mshr_table",
                     "duplicate MSHR for block 0x" << std::hex << addr);
            i = (i + 1) & mask_;
        }
        used_[i] = true;
        ++size_;
        Mshr& m = slots_[i];
        m.addr = addr;
        m.demandMerged = false;
        m.prefetchOnly = true;
        m.prefetchOriginHere = false;
        m.waiters.clear(); // keep the grown capacity
        return m;
    }

    /** Remove the entry for @p addr (which must be present). */
    void
    erase(Addr addr)
    {
        std::uint32_t i = home(addr);
        for (;;) {
            SL_CHECK(used_[i], "mshr_table",
                     "erase of absent block 0x" << std::hex << addr);
            if (slots_[i].addr == addr)
                break;
            i = (i + 1) & mask_;
        }
        // Backward-shift deletion: walk the probe chain after i and pull
        // back any entry whose home slot precedes the hole, so lookups
        // never need tombstones.
        std::uint32_t hole = i;
        for (std::uint32_t j = (i + 1) & mask_; used_[j];
             j = (j + 1) & mask_) {
            const std::uint32_t h = home(slots_[j].addr);
            // Distance from home to j, vs. distance from hole to j: when
            // the home is cyclically at or before the hole, the entry may
            // move into it without breaking its probe chain.
            if (((j - h) & mask_) >= ((j - hole) & mask_)) {
                std::swap(slots_[hole], slots_[j]); // swap keeps waiter
                hole = j;                           // vector capacities
            }
        }
        used_[hole] = false;
        slots_[hole].waiters.clear();
        --size_;
    }

    /** Visit every live entry (teardown, audits); order unspecified. */
    template <typename Fn>
    void
    forEach(Fn&& fn) const
    {
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            if (used_[i])
                fn(slots_[i]);
        }
    }

    /**
     * Snapshot the live entries. Waiter pointers swizzle through the
     * request-pool slot ids in @p ctx. Load re-inserts into an empty
     * table; the probe layout that results may differ from the saved
     * one, which is fine -- layout is internal, lookup/erase behaviour
     * is identical for any layout holding the same entries.
     */
    void
    serializeState(Serializer& s, const SnapshotCtx& ctx)
    {
        s.marker(0x4d534852, "mshr_table");
        std::uint64_t n = size_;
        s.io(n);
        if (s.loading()) {
            SL_CHECK(n <= limit_, "mshr_table",
                     "snapshot holds " << n << " MSHRs but this table is "
                     "configured for " << limit_);
            SL_CHECK(empty(), "mshr_table",
                     "snapshot restore into a non-empty table");
        }
        if (s.saving()) {
            for (std::size_t i = 0; i < slots_.size(); ++i) {
                if (!used_[i])
                    continue;
                Mshr& m = slots_[i];
                s.io(m.addr);
                s.io(m.demandMerged);
                s.io(m.prefetchOnly);
                s.io(m.prefetchOriginHere);
                std::uint64_t w = m.waiters.size();
                s.io(w);
                for (MemRequest* req : m.waiters)
                    ctx.ioReq(s, req);
            }
        } else {
            for (std::uint64_t e = 0; e < n; ++e) {
                Addr addr = 0;
                s.io(addr);
                Mshr& m = insert(addr);
                s.io(m.demandMerged);
                s.io(m.prefetchOnly);
                s.io(m.prefetchOriginHere);
                std::uint64_t w = 0;
                s.io(w);
                for (std::uint64_t k = 0; k < w; ++k) {
                    MemRequest* req = nullptr;
                    ctx.ioReq(s, req);
                    m.waiters.push_back(req);
                }
            }
        }
    }

  private:
    std::uint32_t
    home(Addr addr) const
    {
        // Block-aligned keys only differ above bit 5; mix before masking.
        return static_cast<std::uint32_t>(mix64(addr)) & mask_;
    }

    unsigned limit_;
    std::uint32_t mask_;
    std::size_t size_ = 0;
    std::vector<Mshr> slots_;
    std::vector<char> used_; //!< char, not bool: no bitset proxy cost
};

} // namespace sl

#endif // SL_CACHE_MSHR_TABLE_HH
