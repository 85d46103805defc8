#include "sim/system.hh"

#include <algorithm>
#include <sstream>

#include "common/error.hh"

namespace sl
{

namespace
{

bool
powerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Shared geometry checks for one cache level. */
void
validateCacheLevel(const char* level, std::size_t size_bytes,
                   unsigned ways, unsigned latency, unsigned mshrs,
                   unsigned ports)
{
    SL_REQUIRE(size_bytes >= kBlockBytes, level,
               "capacity " << size_bytes << "B is below one "
                           << kBlockBytes << "B block");
    SL_REQUIRE(ways > 0, level, "associativity must be nonzero");
    SL_REQUIRE(size_bytes % (kBlockBytes * ways) == 0, level,
               "capacity " << size_bytes << "B is not a whole number of "
                           << ways << "-way sets");
    SL_REQUIRE(powerOfTwo(size_bytes / kBlockBytes / ways), level,
               "set count " << (size_bytes / kBlockBytes / ways)
                            << " is not a power of two (set indexing "
                               "masks address bits)");
    SL_REQUIRE(latency > 0, level, "latency must be nonzero");
    SL_REQUIRE(mshrs > 0, level, "MSHR count must be nonzero");
    SL_REQUIRE(ports > 0, level, "port count must be nonzero");
}

/** Table II: 1/2/4/8 cores -> 1/2/2/4 channels, 1/1/2/2 ranks/channel. */
DramParams
dramForCores(unsigned cores, unsigned mts)
{
    DramParams p;
    p.transferMTs = mts;
    switch (cores) {
      case 1: p.channels = 1; p.ranksPerChannel = 1; break;
      case 2: p.channels = 2; p.ranksPerChannel = 1; break;
      case 4: p.channels = 2; p.ranksPerChannel = 2; break;
      default: p.channels = 4; p.ranksPerChannel = 2; break;
    }
    // requestors > 1 switches Dram into the per-channel FR-FCFS
    // scheduler; one core keeps the legacy arrival-order discipline
    // (and its bit-identical digests).
    p.requestors = cores;
    return p;
}

} // namespace

SystemConfig
paperGeometry()
{
    SystemConfig c;
    c.l1dBytes = 48 * 1024;
    c.l1dWays = 12;
    c.l2Bytes = 512 * 1024;
    c.llcBytesPerCore = 2 * 1024 * 1024;
    return c;
}

void
SystemConfig::validate() const
{
    SL_REQUIRE(cores >= 1, "system_config", "need at least one core");
    core.validate();
    validateCacheLevel("l1d_config", l1dBytes, l1dWays, l1dLatency,
                       l1dMshrs, l1dPorts);
    validateCacheLevel("l2_config", l2Bytes, l2Ways, l2Latency, l2Mshrs,
                       l2Ports);
    // The LLC is banked one port per core slice; per-core capacity must
    // itself produce a power-of-two total set count.
    validateCacheLevel("llc_config", llcBytesPerCore * cores, llcWays,
                       llcLatency, llcMshrsPerCore * cores, cores);
    // Every LLC miss holds one of its core's L2 MSHRs until it returns,
    // so this bound keeps each core within its llcMshrsPerCore share of
    // the shared table without a per-core quota (DESIGN.md §12).
    SL_REQUIRE(l2Mshrs <= llcMshrsPerCore, "system_config",
               "l2Mshrs (" << l2Mshrs << ") exceeds llcMshrsPerCore ("
                           << llcMshrsPerCore
                           << "): one core could fill more than its "
                              "share of the LLC MSHRs");
    SL_REQUIRE(dramMTs > 0, "system_config",
               "DRAM transfer rate must be nonzero");
    faults.validate();
    hardening.validate();
    telemetry.validate();
}

System::System(const SystemConfig& cfg, std::vector<TracePtr> traces)
    : cfg_(cfg)
{
    cfg.validate();
    SL_REQUIRE(traces.size() == cfg.cores, "system",
               "need one trace per core, got " << traces.size() << " for "
                                               << cfg.cores << " cores");

    if (cfg.faults.enabled())
        faults_ = std::make_unique<FaultInjector>(cfg.faults);
    if (cfg.telemetry.enabled)
        telemetry_ = std::make_unique<Telemetry>(cfg.telemetry);

    dram_ = std::make_unique<Dram>(dramForCores(cfg.cores, cfg.dramMTs),
                                   eq_);
    dram_->setFaultInjector(faults_.get());
    dram_->setTelemetry(telemetry_.get());

    CacheParams llc_params;
    llc_params.name = "llc";
    llc_params.sizeBytes = cfg.llcBytesPerCore * cfg.cores;
    llc_params.ways = cfg.llcWays;
    llc_params.latency = cfg.llcLatency;
    llc_params.mshrs = cfg.llcMshrsPerCore * cfg.cores;
    llc_params.ports = cfg.cores; // banked: one access/cycle per core slice
    // Multi-core: the banked ports become per-core request lanes.
    llc_params.arbCores = cfg.cores > 1 ? cfg.cores : 0;
    llc_ = std::make_unique<Cache>(llc_params, eq_, dram_.get(), &pool_);
    llc_->setFaultInjector(faults_.get());
    llc_->setTelemetry(telemetry_.get());

    if (cfg.cores > 1)
        pressure_ = std::make_unique<MemPressure>(*dram_, *llc_);

    partition_ = std::make_unique<CompositePartition>(cfg.cores);
    llc_->setPartition(partition_.get());

    for (unsigned c = 0; c < cfg.cores; ++c) {
        CacheParams l2p;
        l2p.name = "l2_" + std::to_string(c);
        l2p.sizeBytes = cfg.l2Bytes;
        l2p.ways = cfg.l2Ways;
        l2p.latency = cfg.l2Latency;
        l2p.mshrs = cfg.l2Mshrs;
        l2p.ports = cfg.l2Ports;
        l2s_.push_back(
            std::make_unique<Cache>(l2p, eq_, llc_.get(), &pool_));
        l2s_.back()->setFaultInjector(faults_.get());
        l2s_.back()->setTelemetry(telemetry_.get());
        l2s_.back()->setPressure(pressure_.get());

        CacheParams l1p;
        l1p.name = "l1d_" + std::to_string(c);
        l1p.sizeBytes = cfg.l1dBytes;
        l1p.ways = cfg.l1dWays;
        l1p.latency = cfg.l1dLatency;
        l1p.mshrs = cfg.l1dMshrs;
        l1p.ports = cfg.l1dPorts;
        l1ds_.push_back(std::make_unique<Cache>(l1p, eq_,
                                                l2s_.back().get(), &pool_));
        l1ds_.back()->setFaultInjector(faults_.get());
        l1ds_.back()->setTelemetry(telemetry_.get());
        l1ds_.back()->setPressure(pressure_.get());

        cores_.push_back(std::make_unique<Core>(
            static_cast<int>(c), cfg.core, l1ds_.back().get(), traces[c],
            &pool_));
        cores_.back()->setTelemetry(telemetry_.get());

        if (cfg.l1dPrefetcher) {
            auto pf = cfg.l1dPrefetcher(static_cast<int>(c));
            pf->setFaultInjector(faults_.get());
            pf->setPressure(pressure_.get());
            pf->attach(l1ds_.back().get(), llc_.get(), &eq_,
                       static_cast<int>(c), cfg.cores);
            l1ds_.back()->setListener(pf.get());
            l1dPfs_.push_back(std::move(pf));
        } else {
            l1dPfs_.push_back(nullptr);
        }

        if (cfg.l2Prefetcher) {
            auto pf = cfg.l2Prefetcher(static_cast<int>(c));
            pf->setFaultInjector(faults_.get());
            pf->setPressure(pressure_.get());
            pf->attach(l2s_.back().get(), llc_.get(), &eq_,
                       static_cast<int>(c), cfg.cores);
            l2s_.back()->setListener(pf.get());
            if (const PartitionPolicy* pol = pf->partitionPolicy())
                partition_->setPolicy(c, pol);
            l2Pfs_.push_back(std::move(pf));
        } else {
            l2Pfs_.push_back(nullptr);
        }
    }

    if (telemetry_) {
        // The sampler reads cumulative totals through this callback; the
        // delta math lives in IntervalSampler where it is unit-testable.
        telemetry_->sampler.setSource([this](CounterSnapshot& s) {
            s.retired = totalRetired();
            for (const auto& l1 : l1ds_) {
                const StatGroup& st = l1->stats();
                s.l1dAccesses += st.get("demand_accesses");
                s.l1dMisses += st.get("demand_misses");
                s.mshrRetries += st.get("mshr_retries");
            }
            for (const auto& l2 : l2s_) {
                const StatGroup& st = l2->stats();
                s.l2Misses += st.get("demand_misses");
                s.pfIssued += st.get("prefetch_issued");
                s.pfUseful += st.get("prefetch_useful");
                s.pfLate += st.get("prefetch_late");
                s.mshrRetries += st.get("mshr_retries");
                s.pfDropped += st.get("prefetch_dropped_pressure");
            }
            for (const auto& l1 : l1ds_)
                s.pfDropped +=
                    l1->stats().get("prefetch_dropped_pressure");
            s.llcMisses = llc_->stats().get("demand_misses");
            s.mshrRetries += llc_->stats().get("mshr_retries");
            const StatGroup& d = dram_->stats();
            s.dramReads = d.get("reads");
            s.dramWrites = d.get("writes");
            s.dramBytes = d.get("bytes");
            s.dramRowHits = d.get("row_hits");
        });
    }

    if (cfg.hardening.auditInterval > 0)
        auditor_ = std::make_unique<InvariantAuditor>(
            *this, cfg.hardening.auditInterval);
    if (cfg.hardening.watchdogWindow > 0)
        watchdog_ = std::make_unique<ProgressWatchdog>(
            cfg.hardening.watchdogWindow,
            [this](Cycle now) { return diagnosticSnapshot(now); });
}

System::~System() = default;

void
System::run(std::uint64_t max_cycles)
{
    Cycle cycle = resumeCycle_;
    const bool deadlined = deadlineSeconds_ > 0;
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(deadlined ? deadlineSeconds_
                                                    : 0.0));
    std::uint64_t iter = 0;
    // done() is monotonic, so cores that finished stay finished: the
    // all-done scan only walks the still-running suffix and exits on the
    // first unfinished core instead of polling every core every cycle.
    std::size_t first_active = 0;
    while (true) {
        while (first_active < cores_.size() &&
               cores_[first_active]->done())
            ++first_active;
        if (first_active == cores_.size())
            break;
        SL_CHECK_AT(cycle <= max_cycles, "system", cycle,
                    "exceeded cycle limit " << max_cycles << "\n"
                                            << diagnosticSnapshot(cycle));

        // Between-cycles orchestration points. Both sit before any event
        // for `cycle` runs, so the captured state is a clean cycle
        // boundary; both are a single compare when unarmed.
        if (cycle >= snapshotAt_) {
            snapshotAt_ = kNoCycle; // disarm before the hook can throw
            if (snapshotFn_)
                snapshotFn_(*this, cycle);
        }
        if (deadlined && (++iter & 0x3fff) == 0 &&
            std::chrono::steady_clock::now() >= deadline) {
            if (timeoutFn_)
                timeoutFn_(*this, cycle);
            SL_CHECK_AT(false, "job_timeout", cycle,
                        "wall-clock budget of " << deadlineSeconds_
                                                << "s exhausted\n"
                                                << diagnosticSnapshot(
                                                       cycle));
        }

        eq_.runUntil(cycle);

        // Finished cores still step: they replay their traces so the
        // remaining cores keep seeing realistic contention. Cores blocked
        // on memory are skipped until they can progress (stepAwake).
        bool progress = false;
        for (auto& c : cores_)
            progress |= c->stepAwake(cycle);

        // The hardening checks are interval-driven; keep the common
        // cycle down to two compares, with the heavy work (component
        // walks, retirement totalling) behind them.
        if (auditor_)
            auditor_->maybeAudit(cycle);
        if (watchdog_ && watchdog_->probeDue(cycle)) {
            const std::uint64_t retired = totalRetired();
            watchdog_->observe(cycle, retired);
            if (telemetry_)
                telemetry_->incident("watchdog_probe", cycle,
                                     "retired=" +
                                         std::to_string(retired));
        }
        if (telemetry_) {
            std::size_t mshr = llc_->mshrCount();
            for (const auto& c : l1ds_)
                mshr = std::max(mshr, c->mshrCount());
            for (const auto& c : l2s_)
                mshr = std::max(mshr, c->mshrCount());
            telemetry_->sampler.noteOccupancy(mshr, eq_.size());
            if (telemetry_->sampler.due(cycle))
                telemetry_->sampler.sample(cycle);
        }

        if (progress) {
            ++cycle;
            continue;
        }

        // Idle: fast-forward to the next event or known core wake-up.
        Cycle next = eq_.nextCycle();
        for (const auto& c : cores_)
            next = std::min(next, c->nextWake(cycle));
        SL_CHECK_AT(next != kNoCycle, "system", cycle,
                    "deadlock: no core can progress and no event is "
                    "pending\n"
                        << diagnosticSnapshot(cycle));
        cycle = std::max(next, cycle + 1);
    }

    if (telemetry_)
        telemetry_->sampler.finalize(cycle);
}

std::uint64_t
System::totalRetired() const
{
    std::uint64_t total = 0;
    for (const auto& c : cores_)
        total += c->retiredInstructions();
    return total;
}

std::string
System::diagnosticSnapshot(Cycle now) const
{
    std::ostringstream os;
    os << "diagnostic snapshot @" << now << ":";
    os << "\n  events pending: " << eq_.size();
    if (!eq_.empty())
        os << " (next at " << eq_.nextCycle() << ")";
    os << "\n  dram: busy until " << dram_->busyUntil();
    os << "\n  llc: mshrs " << llc_->mshrCount() << "/"
       << llc_->mshrLimit();
    for (std::size_t c = 0; c < cores_.size(); ++c) {
        os << "\n  core " << c << ": retired "
           << cores_[c]->retiredInstructions() << ", "
           << cores_[c]->describeRobHead() << "; l1d mshrs "
           << l1ds_[c]->mshrCount() << "/" << l1ds_[c]->mshrLimit()
           << ", l2 mshrs " << l2s_[c]->mshrCount() << "/"
           << l2s_[c]->mshrLimit();
    }
    return os.str();
}

} // namespace sl
