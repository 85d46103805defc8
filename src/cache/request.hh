/**
 * @file
 * Memory request plumbing between cores, caches, prefetchers, and DRAM.
 */

#ifndef SL_CACHE_REQUEST_HH
#define SL_CACHE_REQUEST_HH

#include <cstdint>

#include "common/pool.hh"
#include "common/types.hh"

namespace sl
{

struct MemRequest;

/** Free-list arena recycling MemRequests (one per System; see pool.hh). */
using RequestPool = ObjectPool<MemRequest>;

/** Receives completion callbacks for requests it issued. */
class RequestClient
{
  public:
    virtual ~RequestClient() = default;

    /** The request's data is available at cycle @p now. */
    virtual void requestDone(const MemRequest& req, Cycle now) = 0;
};

/** What a request is for; drives stats and install policy. */
enum class ReqKind : std::uint8_t
{
    DemandLoad,   //!< core load
    DemandStore,  //!< core store (write-allocate)
    Prefetch,     //!< prefetcher fill request
    Writeback     //!< dirty eviction flowing downward
};

/**
 * One in-flight memory request. Requests are acquired from a RequestPool
 * (or heap-allocated by tests) by the issuer and owned by the hierarchy
 * until completion (responded or dropped), when disposeRequest() returns
 * them to their arena.
 */
struct MemRequest
{
    Addr addr = 0;          //!< block-aligned address
    PC pc = 0;
    int coreId = 0;
    ReqKind kind = ReqKind::DemandLoad;
    RequestClient* client = nullptr; //!< completion target (may be null)
    std::uint64_t tag = 0;           //!< client-private identifier
    bool retried = false;            //!< re-presented after an MSHR stall
    /** Client accepts its completion callback inline from Cache::respond
     *  (no Respond event). Only the Core load path sets this: its
     *  requestDone just records the data-ready cycle, so delivery order
     *  within a cycle cannot matter. */
    bool directRespond = false;
    /** Cache level that originated a prefetch (for usefulness stats:
     *  only the originating level counts issued/useful/redundant). */
    const void* origin = nullptr;

    /** Owning arena (null when heap-allocated, e.g. by tests). */
    RequestPool* pool = nullptr;
    /** Currently parked on the owning pool's free list (double-release
     *  detection; maintained by ObjectPool). */
    bool inFreeList = false;

    bool
    isDemand() const
    {
        return kind == ReqKind::DemandLoad || kind == ReqKind::DemandStore;
    }
};

/**
 * Retire a finished request: recycle it into its owning pool, or
 * `delete` it when it was plain heap-allocated (test fixtures build
 * requests with `new`). Every terminal ownership point in the hierarchy
 * funnels through here.
 */
inline void
disposeRequest(MemRequest* req)
{
    if (req->pool)
        req->pool->release(req);
    else
        delete req;
}

} // namespace sl

#endif // SL_CACHE_REQUEST_HH
