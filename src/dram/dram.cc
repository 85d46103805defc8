#include "dram/dram.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "telemetry/telemetry.hh"

namespace sl
{

// Tagged-event entry point for the channel scheduler (see EventKind in
// common/event.hh): comp = Dram*, a = channel index carried literally.
namespace event_invoke
{

void
dramTick(void* buf, Cycle now)
{
    const EventDesc& d =
        *std::launder(reinterpret_cast<const EventDesc*>(buf));
    static_cast<Dram*>(d.comp)->tickChannel(
        static_cast<unsigned>(d.a), now);
}

} // namespace event_invoke

void
DramParams::validate() const
{
    SL_REQUIRE(std::has_single_bit(channels), "dram_params",
               "channel count " << channels
                                << " is not a nonzero power of two");
    SL_REQUIRE(std::has_single_bit(std::uint64_t{ranksPerChannel} *
                                   banksPerRank),
               "dram_params",
               "banks per channel (" << ranksPerChannel << " ranks x "
                                     << banksPerRank
                                     << " banks) is not a nonzero power "
                                        "of two");
    SL_REQUIRE(std::has_single_bit(rowsPerBank), "dram_params",
               "rows per bank " << rowsPerBank
                                << " is not a nonzero power of two");
    SL_REQUIRE(transferMTs > 0, "dram_params",
               "transfer rate must be nonzero");
    SL_REQUIRE(busBytes > 0 && busBytes <= kBlockBytes, "dram_params",
               "bus width must be in (0, " << kBlockBytes << "] bytes");
    SL_REQUIRE(coreGHz > 0, "dram_params", "core clock must be positive");
    SL_REQUIRE(tCasNs >= 0 && tRcdNs >= 0 && tRpNs >= 0 &&
                   controllerNs >= 0,
               "dram_params", "timing parameters must be non-negative");
    SL_REQUIRE(!scheduled() || writeDrainHigh > writeDrainLow,
               "dram_params",
               "write-drain watermarks must satisfy high ("
                   << writeDrainHigh << ") > low (" << writeDrainLow
                   << ")");
}

Dram::Dram(const DramParams& params, EventQueue& eq)
    : params_(params), eq_(eq), stats_("dram")
{
    params_.validate();
    banksPerChannel_ = params_.ranksPerChannel * params_.banksPerRank;
    banks_.resize(static_cast<std::size_t>(params_.channels) *
                  banksPerChannel_);
    busFreeAt_.resize(params_.channels, 0);

    auto ns_to_cycles = [&](double ns) {
        return static_cast<Cycle>(std::ceil(ns * params_.coreGHz));
    };
    tCas_ = ns_to_cycles(params_.tCasNs);
    tRcd_ = ns_to_cycles(params_.tRcdNs);
    tRp_ = ns_to_cycles(params_.tRpNs);
    controllerCycles_ = ns_to_cycles(params_.controllerNs);

    // One 64B block = kBlockBytes / busBytes beats; each beat takes
    // 1/(MT/s) seconds.
    const double beats =
        static_cast<double>(kBlockBytes) / params_.busBytes;
    const double seconds = beats / (params_.transferMTs * 1e6);
    burstCycles_ = std::max<Cycle>(
        1, static_cast<Cycle>(std::ceil(seconds * params_.coreGHz * 1e9)));

    chShift_ = static_cast<unsigned>(
        std::countr_zero(std::uint64_t{params_.channels}));
    chMask_ = params_.channels - 1;
    bankShift_ = static_cast<unsigned>(
        std::countr_zero(std::uint64_t{banksPerChannel_}));
    bankMask_ = banksPerChannel_ - 1;
    rowMask_ = params_.rowsPerBank - 1;

    if (params_.scheduled()) {
        channels_.resize(params_.channels);
        for (Channel& c : channels_)
            c.classReads.assign(2 * std::size_t{params_.requestors}, 0);
        coreBytes_.reserve(params_.requestors);
        for (unsigned c = 0; c < params_.requestors; ++c)
            coreBytes_.push_back(&stats_.counter(
                "core" + std::to_string(c) + "_bytes"));
    }
}

double
Dram::peakBytesPerCycle() const
{
    return static_cast<double>(kBlockBytes) * params_.channels /
           static_cast<double>(burstCycles_);
}

Cycle
Dram::busyUntil() const
{
    Cycle busy = 0;
    for (const Cycle t : busFreeAt_)
        busy = std::max(busy, t);
    return busy;
}

Dram::Decoded
Dram::decode(Addr addr) const
{
    // Address map: blocks interleave across channels; within a channel,
    // 8KB rows (128 blocks) interleave across banks, so streams enjoy
    // row locality while spreading over banks every row.
    constexpr unsigned kBlocksPerRowShift = 7;
    const std::uint64_t block = blockNumber(addr);
    Decoded d;
    d.channel = static_cast<unsigned>(block & chMask_);
    const std::uint64_t in_channel = block >> chShift_;
    d.bank = static_cast<std::uint32_t>(
        (in_channel >> kBlocksPerRowShift) & bankMask_);
    d.row = static_cast<std::uint32_t>(
        (in_channel >> (kBlocksPerRowShift + bankShift_)) & rowMask_);
    return d;
}

Cycle
Dram::serviceTiming(const Decoded& d, Cycle start)
{
    Bank& bank = banks_[static_cast<std::size_t>(d.channel) *
                            banksPerChannel_ +
                        d.bank];

    // Bank access latency depends on row-buffer state.
    const Cycle bank_start = std::max(start, bank.readyAt);
    Cycle access_lat;
    if (bank.rowValid && bank.openRow == d.row) {
        access_lat = tCas_;
        ++rowHitsCtr_;
    } else if (!bank.rowValid) {
        access_lat = tRcd_ + tCas_;
        ++rowMissesCtr_;
    } else {
        access_lat = tRp_ + tRcd_ + tCas_;
        ++rowConflictsCtr_;
    }
    bank.rowValid = true;
    bank.openRow = d.row;

    // Data burst waits for the channel bus.
    const Cycle data_ready = bank_start + access_lat;
    const Cycle burst_start =
        std::max(data_ready, busFreeAt_[d.channel]);
    busFreeAt_[d.channel] = burst_start + burstCycles_;
    bank.readyAt = burst_start + burstCycles_;

    bytesCtr_ += kBlockBytes;
    return burst_start + burstCycles_ + controllerCycles_;
}

std::int32_t
Dram::clampCore(int core) const
{
    if (core < 0)
        return 0;
    if (static_cast<unsigned>(core) >= params_.requestors)
        return static_cast<std::int32_t>(params_.requestors - 1);
    return core;
}

void
Dram::finish(MemRequest* req, Cycle arrival, Cycle done)
{
    if (faults_) {
        const Cycle delay = faults_->dramDelay(); // injected slow response
        if (delay > 0 && tele_)
            tele_->incident("dram_delay", arrival,
                            "response delayed " + std::to_string(delay) +
                                " cycles (injected fault)");
        done += delay;
    }
    if (tele_)
        tele_->dramLatency.record(done - arrival);
    if (req->client) {
        EventDesc d;
        d.a = static_cast<std::uint64_t>(
            reinterpret_cast<std::uintptr_t>(req));
        eq_.schedule(done, EventCallback::make(EventKind::Respond, d));
    } else {
        disposeRequest(req);
    }
}

void
Dram::access(MemRequest* req, Cycle now)
{
    if (params_.scheduled()) {
        enqueueScheduled(req, now);
        return;
    }

    const Decoded d = decode(req->addr);
    if (req->kind == ReqKind::Writeback)
        ++writesCtr_;
    else
        ++readsCtr_;

    const Cycle done = serviceTiming(d, now);
    finish(req, now, done);
}

void
Dram::armTick(unsigned ch, Cycle at)
{
    Channel& c = channels_[ch];
    if (c.tickArmed)
        return;
    c.tickArmed = true;
    EventDesc d;
    d.comp = this;
    d.a = ch;
    eq_.schedule(at, EventCallback::make(EventKind::DramTick, d));
}

void
Dram::enqueueScheduled(MemRequest* req, Cycle now)
{
    const Decoded d = decode(req->addr);
    Channel& c = channels_[d.channel];

    QueuedReq e;
    e.req = req;
    e.arrival = now;
    e.bank = d.bank;
    e.row = d.row;
    e.core = clampCore(req->coreId);
    e.demand = req->isDemand();

    if (req->kind == ReqKind::Writeback) {
        ++writesCtr_;
        c.writeQ.push_back(e);
        writeQPeakCtr_.noteMax(c.writeQ.size());
    } else {
        ++readsCtr_;
        if (e.demand)
            ++demandReadsCtr_;
        else
            ++prefetchReadsCtr_;
        c.readQ.push_back(e);
        ++queuedReads_;
        ++c.reads(e.core, e.demand);
        readQPeakCtr_.noteMax(c.readQ.size());
    }

    // The channel services one request per tick; ticks chase busFreeAt_
    // so the bus never idles while work is queued.
    armTick(d.channel, std::max(now, busFreeAt_[d.channel]));
}

std::size_t
Dram::pickRead(unsigned ch, Cycle now)
{
    // Demand class beats prefetch class; within the class, cores take
    // round-robin turns (the cursor advances past the serviced core),
    // and within a core's turn row hits go first, then FCFS. The class
    // and the turn (the first core from the cursor holding a read of
    // the class) come from the per-core counts; one pass over the queue
    // then considers only that core's reads of that class, stopping at
    // the first row hit or once all of them are seen.
    Channel& c = channels_[ch];
    const unsigned n = params_.requestors;
    bool demand = false;
    for (unsigned k = 0; k < n && !demand; ++k)
        demand = c.reads(k, true) > 0;
    unsigned core = c.rrNext;
    unsigned off = 0;
    for (; off < n && c.reads(core, demand) == 0; ++off)
        core = core + 1 == n ? 0 : core + 1;
    SL_CHECK_AT(off < n, "dram", now,
                "scheduler found no candidate in a nonempty read queue");
    c.rrNext = core + 1 == n ? 0 : core + 1;

    std::uint32_t left = c.reads(core, demand);
    std::size_t pick = c.readQ.size();
    for (std::size_t i = 0; i < c.readQ.size(); ++i) {
        const QueuedReq& e = c.readQ[i];
        if (static_cast<unsigned>(e.core) != core || e.demand != demand)
            continue;
        if (pick == c.readQ.size())
            pick = i; // the core's oldest read of the class
        if (rowHit(ch, e))
            return i;
        if (--left == 0)
            break;
    }
    return pick;
}

void
Dram::tickChannel(unsigned ch, Cycle now)
{
    Channel& c = channels_[ch];
    if (c.readQ.empty() && c.writeQ.empty()) {
        c.tickArmed = false;
        return;
    }

    // Write-drain batching: enter drain mode at the high watermark or
    // when no read is waiting; leave once the queue falls to the low
    // watermark (or empties) and a read wants the bus.
    if (!c.draining &&
        (c.writeQ.size() >= params_.writeDrainHigh ||
         (c.readQ.empty() && !c.writeQ.empty()))) {
        c.draining = true;
        ++writeDrainsCtr_;
    }
    if (c.draining &&
        (c.writeQ.empty() ||
         (c.writeQ.size() <= params_.writeDrainLow && !c.readQ.empty())))
        c.draining = false;

    std::vector<QueuedReq>* q;
    std::size_t pick;
    if (c.draining || c.readQ.empty()) {
        // FR-FCFS over writes: first row hit in FIFO order, else oldest.
        q = &c.writeQ;
        pick = 0;
        for (std::size_t i = 0; i < q->size(); ++i) {
            if (rowHit(ch, (*q)[i])) {
                pick = i;
                break;
            }
        }
    } else {
        q = &c.readQ;
        pick = pickRead(ch, now);
    }

    const QueuedReq e = (*q)[pick];
    q->erase(q->begin() + static_cast<std::ptrdiff_t>(pick));

    Decoded d;
    d.channel = ch;
    d.bank = e.bank;
    d.row = e.row;
    const Cycle done = serviceTiming(d, now);

    if (e.req->kind != ReqKind::Writeback) {
        --queuedReads_;
        --c.reads(e.core, e.demand);
        readQWaitCtr_ += now - e.arrival;
    }
    *coreBytes_[e.core] += kBlockBytes;
    finish(e.req, e.arrival, done);

    // Chase the bus: the next service opportunity is when this burst
    // leaves the channel. tickArmed stays true across the reschedule.
    if (c.readQ.empty() && c.writeQ.empty()) {
        c.tickArmed = false;
        return;
    }
    EventDesc ed;
    ed.comp = this;
    ed.a = ch;
    eq_.schedule(std::max(busFreeAt_[ch], now + 1),
                 EventCallback::make(EventKind::DramTick, ed));
}

void
Dram::serializeState(Serializer& s, const SnapshotCtx& ctx)
{
    s.marker(0x4452414d, "dram");
    std::uint32_t nbanks = static_cast<std::uint32_t>(banks_.size());
    std::uint32_t nchan = static_cast<std::uint32_t>(busFreeAt_.size());
    s.io(nbanks);
    s.io(nchan);
    SL_CHECK(nbanks == banks_.size() && nchan == busFreeAt_.size(), "dram",
             "snapshot DRAM geometry (" << nbanks << " banks, " << nchan
             << " channels) does not match this configuration ("
             << banks_.size() << ", " << busFreeAt_.size() << ")");
    static_assert(std::is_trivially_copyable_v<Bank> &&
                  std::has_unique_object_representations_v<Bank>);
    s.io(banks_);
    s.io(busFreeAt_);

    // Scheduler queues: absent (zero channels) in unscheduled mode; the
    // requestor count is config-derived, so both sides agree on shape.
    std::uint32_t sched = static_cast<std::uint32_t>(channels_.size());
    s.io(sched);
    SL_CHECK(sched == channels_.size(), "dram",
             "snapshot scheduler shape (" << sched << " channels) does "
             "not match this configuration (" << channels_.size() << ")");
    auto io_queue = [&](std::vector<QueuedReq>& q) {
        std::uint64_t n = q.size();
        s.io(n);
        if (s.loading()) {
            q.clear();
            q.resize(static_cast<std::size_t>(n));
        }
        for (std::uint64_t i = 0; i < n; ++i) {
            QueuedReq& e = q[static_cast<std::size_t>(i)];
            ctx.ioReq(s, e.req);
            s.io(e.arrival);
            s.io(e.bank);
            s.io(e.row);
            s.io(e.core);
            s.io(e.demand);
        }
    };
    if (s.loading())
        queuedReads_ = 0;
    for (Channel& c : channels_) {
        io_queue(c.readQ);
        io_queue(c.writeQ);
        s.io(c.draining);
        s.io(c.tickArmed);
        s.io(c.rrNext);
        if (s.loading()) { // derived: recount queued reads, by class too
            SL_CHECK(c.rrNext < params_.requestors, "dram",
                     "snapshot round-robin cursor " << c.rrNext
                         << " is past the " << params_.requestors
                         << " requestors");
            queuedReads_ += c.readQ.size();
            std::fill(c.classReads.begin(), c.classReads.end(), 0);
            for (const QueuedReq& e : c.readQ) {
                SL_CHECK(e.core >= 0 && static_cast<unsigned>(e.core) <
                                            params_.requestors,
                         "dram",
                         "snapshot read queue entry for core " << e.core
                             << " past the " << params_.requestors
                             << " requestors");
                ++c.reads(e.core, e.demand);
            }
        }
    }
    stats_.serializeState(s);
}

} // namespace sl
