#include "cpu/core.hh"

#include <sstream>

#include "telemetry/telemetry.hh"

namespace sl
{

Core::Core(int id, const CoreParams& params, Cache* l1d, TracePtr trace,
           RequestPool* pool)
    : id_(id), params_(params), l1d_(l1d),
      trace_(std::move(trace)),
      ownPool_(pool ? nullptr : std::make_unique<RequestPool>()),
      pool_(pool ? pool : ownPool_.get()), rob_(params.robSize),
      stats_("core" + std::to_string(id))
{
    params_.validate();
    SL_REQUIRE(l1d_ != nullptr, stats_.name().c_str(),
               "core needs an L1D to issue into");
    SL_REQUIRE(trace_ && !trace_->records.empty(), stats_.name().c_str(),
               "core needs a non-empty trace");
    warmupTarget_ = trace_->warmupRecords;
    evalTarget_ = trace_->records.size();
}

void
Core::setMeasureWindow(std::uint64_t warmup_records,
                       std::uint64_t eval_records)
{
    if (warmup_records != 0) {
        SL_REQUIRE(warmup_records > recordsRetired_, stats_.name().c_str(),
                   "measure-window warmup target " << warmup_records
                       << " already retired (" << recordsRetired_ << ")");
        warmupTarget_ = warmup_records;
    }
    if (eval_records != 0) {
        SL_REQUIRE(eval_records > recordsRetired_, stats_.name().c_str(),
                   "measure-window eval target " << eval_records
                       << " already retired (" << recordsRetired_ << ")");
        SL_REQUIRE(eval_records >= warmupTarget_, stats_.name().c_str(),
                   "measure-window eval target " << eval_records
                       << " precedes warmup target " << warmupTarget_);
        evalTarget_ = eval_records;
    }
}

void
Core::fastForwardTo(std::size_t records, std::uint64_t instructions,
                    Cycle now)
{
    SL_REQUIRE(robCount_ == 0, stats_.name().c_str(),
               "fast-forward with " << robCount_ << " in-flight ROB "
               "entries; drain the core first");
    recordIdx_ = records;
    recordPos_ = records % trace_->records.size();
    recordsRetired_ = records;
    instrRetired_ = instructions;
    bubblesLeft_ = 0;
    bubblesPrimed_ = false;
    lastLoadSlot_ = SIZE_MAX;
    blockedOnSlot_ = SIZE_MAX;
    wakeAt_ = 0;
    startCycle_ = now;
}

bool
Core::step(Cycle now)
{
    bool progress = false;

    // ----- retire (in order, up to width instructions) -----
    unsigned retired = 0;
    while (robCount_ > 0 && retired < params_.width) {
        RobEntry& head = rob_[robHead_];
        if (head.doneAt == kNoCycle || head.doneAt > now)
            break;
        retired += head.weight;
        instrRetired_ += head.weight;
        if (head.endsRecord)
            onRecordRetired(now);
        if (++robHead_ == rob_.size())
            robHead_ = 0;
        --robCount_;
        progress = true;
    }

    // ----- dispatch (up to width instructions) -----
    progress |= tryDispatch(now);
    return progress;
}

bool
Core::tryDispatch(Cycle now)
{
    unsigned dispatched = 0;
    bool progress = false;

    while (dispatched < params_.width && robCount_ < rob_.size()) {
        const TraceRecord& rec = trace_->records[recordPos_];

        if (!bubblesPrimed_) {
            bubblesLeft_ = rec.bubbles;
            bubblesPrimed_ = true;
        }

        // Ring arithmetic without the 64-bit divide: robHead_ < size and
        // robCount_ < size here, so one conditional subtract wraps.
        std::size_t slot = robHead_ + robCount_;
        if (slot >= rob_.size())
            slot -= rob_.size();
        RobEntry& e = rob_[slot];

        if (bubblesLeft_ > 0) {
            // Fold as many bubbles as the remaining width allows into one
            // weighted ALU entry.
            const unsigned take = std::min<unsigned>(
                bubblesLeft_, params_.width - dispatched);
            e = RobEntry{};
            e.weight = take;
            e.doneAt = now + 1;
            bubblesLeft_ -= take;
            dispatched += take;
            ++robCount_;
            progress = true;
            continue;
        }

        // The memory operation itself.
        if (rec.type == AccessType::Load && rec.dependsOnPrev() &&
            lastLoadSlot_ != SIZE_MAX) {
            // Address depends on the previous load; wait for it.
            const RobEntry& dep = rob_[lastLoadSlot_];
            if (dep.slotGen == lastLoadGen_ &&
                (dep.doneAt == kNoCycle || dep.doneAt > now)) {
                // Remember the blocker for nextWake(): with inline
                // response delivery its completion cycle may exist only
                // in the ROB entry, not as a pending event.
                blockedOnSlot_ = lastLoadSlot_;
                blockedOnGen_ = lastLoadGen_;
                break;
            }
        }

        e = RobEntry{};
        e.weight = 1;
        e.isMem = true;
        e.endsRecord = true;
        e.issuedAt = now;
        e.slotGen = ++slotGen_;

        MemRequest* req = pool_->acquire();
        req->addr = rec.addr + addrOffset();
        req->pc = rec.pc;
        req->coreId = id_;
        req->client = nullptr;

        if (rec.type == AccessType::Load) {
            req->kind = ReqKind::DemandLoad;
            req->client = this;
            req->directRespond = true;
            req->tag = (static_cast<std::uint64_t>(slot) << 32) | e.slotGen;
            e.doneAt = kNoCycle;
            lastLoadSlot_ = slot;
            lastLoadGen_ = e.slotGen;
            ++loadsCtr_;
        } else {
            // Stores retire through the store buffer; the write still
            // traverses the hierarchy for traffic/fill effects.
            req->kind = ReqKind::DemandStore;
            e.doneAt = now + 1;
            ++storesCtr_;
        }
        l1d_->access(req, now);

        ++robCount_;
        ++dispatched;
        ++recordIdx_;
        if (++recordPos_ == trace_->records.size())
            recordPos_ = 0;
        bubblesPrimed_ = false;
        progress = true;
    }
    return progress;
}

void
Core::requestDone(const MemRequest& req, Cycle now)
{
    const auto slot = static_cast<std::size_t>(req.tag >> 32);
    const std::uint64_t gen = req.tag & 0xffffffffULL;
    SL_CHECK_AT(slot < rob_.size(), stats_.name().c_str(), now,
                "memory response tagged with ROB slot " << slot
                    << " outside the " << rob_.size() << "-entry ROB");
    RobEntry& e = rob_[slot];
    // Responses can only arrive for live loads (retire waits for them).
    if (e.slotGen == gen && e.isMem && e.doneAt == kNoCycle) {
        e.doneAt = now;
        if (now < wakeAt_)
            wakeAt_ = now;
        if (tele_)
            tele_->loadToUse.record(now - e.issuedAt);
    }
}

void
Core::onRecordRetired(Cycle now)
{
    ++recordsRetired_;
    if (recordsRetired_ == warmupTarget_) {
        warmupEndCycle_ = now;
        warmupInstr_ = instrRetired_;
        if (warmupCb_)
            warmupCb_(now);
    }
    if (recordsRetired_ == evalTarget_ && evalEndCycle_ == kNoCycle) {
        evalEndCycle_ = now;
        evalInstr_ = instrRetired_;
        if (warmupEndCycle_ == kNoCycle) {
            warmupEndCycle_ = startCycle_;
            warmupInstr_ = 0;
        }
    }
}

std::string
Core::describeRobHead() const
{
    std::ostringstream os;
    if (robCount_ == 0) {
        os << "rob empty, next record " << recordIdx_;
        return os.str();
    }
    const RobEntry& head = rob_[robHead_];
    os << "rob " << robCount_ << "/" << rob_.size() << ", head "
       << (head.isMem ? "mem" : "alu") << " ";
    if (head.doneAt == kNoCycle)
        os << "waiting on memory";
    else
        os << "done at cycle " << head.doneAt;
    return os.str();
}

Cycle
Core::nextWake(Cycle now) const
{
    // Only consulted after a step() that made no progress, which implies
    // dispatch is blocked and the ROB head is incomplete: the next thing
    // that can happen locally is the head completing, or the dependent
    // load dispatch last broke on completing. Both completion cycles may
    // live only in the ROB (loads respond inline, no Respond event), so
    // fold each in; loads still waiting on memory wake through their
    // pending downstream events. kNoCycle is the max Cycle, so min() is
    // safe against unknown completions.
    (void)now;
    if (robCount_ == 0)
        return kNoCycle;
    Cycle wake = rob_[robHead_].doneAt;
    if (blockedOnSlot_ != SIZE_MAX) {
        const RobEntry& dep = rob_[blockedOnSlot_];
        if (dep.slotGen == blockedOnGen_ && dep.doneAt < wake)
            wake = dep.doneAt;
    }
    return wake;
}

std::uint64_t
Core::evalInstructions() const
{
    return evalInstr_ - warmupInstr_;
}

std::uint64_t
Core::evalCycles() const
{
    return evalEndCycle_ - warmupEndCycle_;
}

double
Core::ipc() const
{
    const auto cycles = evalCycles();
    return cycles == 0 ? 0.0
                       : static_cast<double>(evalInstructions()) /
                             static_cast<double>(cycles);
}

} // namespace sl
