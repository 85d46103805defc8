/**
 * @file
 * Shared helpers for the test suite: synthetic trace construction and a
 * scripted next-level memory for cache tests.
 */

#ifndef SL_TESTS_TEST_UTIL_HH
#define SL_TESTS_TEST_UTIL_HH

#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "trace/trace.hh"

namespace sl
{
namespace test
{

/** Build a load-only trace from (pc, addr) pairs. */
inline TracePtr
makeTrace(const std::vector<std::pair<std::uint32_t, Addr>>& accesses,
          unsigned bubbles = 2, double warmup_fraction = 0.0)
{
    auto t = std::make_shared<Trace>();
    t->name = "synthetic";
    TraceRecorder rec;
    for (const auto& [pc, addr] : accesses)
        rec.load(pc, addr, bubbles);
    t->records = rec.take();
    t->warmupRecords =
        static_cast<std::size_t>(t->records.size() * warmup_fraction);
    return t;
}

/** Repeat a block-address sequence n times under one PC. */
inline TracePtr
repeatSequence(const std::vector<Addr>& blocks, unsigned repetitions,
               std::uint32_t pc = 7)
{
    std::vector<std::pair<std::uint32_t, Addr>> acc;
    for (unsigned r = 0; r < repetitions; ++r) {
        for (Addr b : blocks)
            acc.emplace_back(pc, b << kBlockShift);
    }
    return makeTrace(acc);
}

/**
 * Terminal memory level with a fixed latency; records every request it
 * receives, and the cycle it arrived at, and always responds (reads)
 * after `latency` cycles.
 */
class ScriptedMemory : public MemLevel
{
  public:
    explicit ScriptedMemory(EventQueue& eq, Cycle latency = 100)
        : eq_(eq), latency_(latency)
    {
    }

    void
    access(MemRequest* req, Cycle now) override
    {
        requests.push_back(*req);
        arrivals.push_back(now);
        if (req->client) {
            MemRequest* r = req;
            eq_.schedule(now + latency_, [r](Cycle done) {
                r->client->requestDone(*r, done);
                disposeRequest(r);
            });
        } else {
            disposeRequest(req);
        }
    }

    std::vector<MemRequest> requests;
    std::vector<Cycle> arrivals; //!< arrival cycle of requests[i]

  private:
    EventQueue& eq_;
    Cycle latency_;
};

/** Client that remembers completions. */
class RecordingClient : public RequestClient
{
  public:
    void
    requestDone(const MemRequest& req, Cycle now) override
    {
        completions.emplace_back(req.addr, now);
    }

    std::vector<std::pair<Addr, Cycle>> completions;
};

/** Drain the event queue completely (tests only). */
inline void
drain(EventQueue& eq, Cycle limit = 1'000'000)
{
    while (!eq.empty() && eq.nextCycle() <= limit)
        eq.runUntil(eq.nextCycle());
    // Tests drive components with their own manual clocks and often
    // rewind between drains; rebase so the monotonicity check compares
    // against the caller's clock, not the drained-event high-water mark.
    if (eq.empty())
        eq.reset();
}

} // namespace test
} // namespace sl

#endif // SL_TESTS_TEST_UTIL_HH
