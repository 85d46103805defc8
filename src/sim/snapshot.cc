/**
 * @file
 * Snapshot save/restore: the component registry, System::serializeState,
 * and the CRC-guarded file container (see snapshot.hh / DESIGN.md §11).
 */

#include "sim/snapshot.hh"

#include <cstring>
#include <fstream>
#include <iterator>
#include <unordered_map>

#include "cache/cache.hh"
#include "cache/request.hh"
#include "common/error.hh"
#include "common/event.hh"
#include "common/serializer.hh"
#include "cpu/core.hh"
#include "dram/dram.hh"
#include "prefetch/prefetcher.hh"
#include "sim/system.hh"

namespace sl
{

namespace
{

/**
 * Deterministic pointer<->id table. Save and restore sides both build a
 * System from the same config, so enumerating component role pointers in
 * construction order assigns the same id to the "same" component on both
 * sides. Cache inherits from both MemLevel and RequestClient; the two
 * base-subobject addresses differ, so each role registers separately.
 * Id 0 is reserved for nullptr.
 */
struct Registry
{
    std::vector<void*> ptrs{nullptr};
    std::unordered_map<const void*, std::uint32_t> ids{{nullptr, 0u}};
    RequestPool* pool = nullptr;

    void
    add(void* p)
    {
        SL_CHECK(
            ids.emplace(p, static_cast<std::uint32_t>(ptrs.size())).second,
            "snapshot", "component pointer registered twice");
        ptrs.push_back(p);
    }

    void
    addRoles(Cache* c)
    {
        add(static_cast<void*>(c));
        add(static_cast<void*>(static_cast<RequestClient*>(c)));
    }
};

Registry
buildRegistry(System& sys)
{
    Registry r;
    r.pool = &sys.requestPool();
    r.add(static_cast<void*>(&sys.dram()));
    r.addRoles(&sys.llc());
    for (unsigned c = 0; c < sys.cores(); ++c) {
        r.addRoles(&sys.l2(c));
        r.addRoles(&sys.l1d(c));
        r.add(static_cast<void*>(
            static_cast<RequestClient*>(&sys.core(c))));
    }
    return r;
}

std::uint32_t
compIdFn(const SnapshotCtx& c, const void* p)
{
    const auto* reg = static_cast<const Registry*>(c.impl);
    auto it = reg->ids.find(p);
    SL_CHECK(it != reg->ids.end(), "snapshot",
             "cannot swizzle a pointer to an unregistered component");
    return it->second;
}

void*
compPtrFn(const SnapshotCtx& c, std::uint32_t id)
{
    const auto* reg = static_cast<const Registry*>(c.impl);
    SL_CHECK(id < reg->ptrs.size(), "snapshot",
             "component id " << id << " out of range (registry holds "
                             << reg->ptrs.size() << ")");
    return reg->ptrs[id];
}

std::uint32_t
reqIdFn(const SnapshotCtx& c, const void* p)
{
    if (!p)
        return 0;
    const auto* reg = static_cast<const Registry*>(c.impl);
    return static_cast<std::uint32_t>(
        reg->pool->indexOf(static_cast<const MemRequest*>(p)) + 1);
}

void*
reqPtrFn(const SnapshotCtx& c, std::uint32_t id)
{
    if (id == 0)
        return nullptr;
    const auto* reg = static_cast<const Registry*>(c.impl);
    return reg->pool->at(id - 1);
}

SnapshotCtx
makeCtx(Registry& r)
{
    SnapshotCtx ctx;
    ctx.compId = compIdFn;
    ctx.compPtr = compPtrFn;
    ctx.reqId = reqIdFn;
    ctx.reqPtr = reqPtrFn;
    ctx.impl = &r;
    return ctx;
}

/** Fixed-size snapshot file header. All integers native-endian, like the
 *  payload itself (snapshots resume runs on the same machine/build). */
struct SnapshotHeader
{
    char magic[8];
    std::uint32_t version;
    std::uint32_t crc; //!< CRC-32 of the (pristine) payload bytes
    std::uint64_t payloadBytes;
    std::uint64_t digestBytes;
};
static_assert(std::is_trivially_copyable_v<SnapshotHeader>);

constexpr char kMagic[8] = {'S', 'L', 'S', 'N', 'A', 'P', '0', '\n'};

} // namespace

void
System::serializeState(Serializer& s, const SnapshotCtx& ctx)
{
    s.marker(0x534c5953, "system");
    s.io(resumeCycle_);

    // The config digest covers the sweep axes (toJson(RunConfig) +
    // workloads) but not fault/telemetry/hardening wiring, so guard the
    // optional-subsystem shape explicitly.
    const std::uint8_t have = static_cast<std::uint8_t>(
        (faults_ ? 1u : 0u) | (telemetry_ ? 2u : 0u) |
        (auditor_ ? 4u : 0u) | (watchdog_ ? 8u : 0u));
    std::uint8_t saved = have;
    s.io(saved);
    SL_CHECK(saved == have, "snapshot",
             "optional-subsystem mismatch: the snapshot was taken with "
             "fault/telemetry/hardening wiring bitmap "
                 << unsigned(saved) << " but this run built bitmap "
                 << unsigned(have)
                 << " (these knobs are outside the config digest)");

    // --- request arena: layout first, then every live request's fields.
    s.marker(0x504f4f4c, "request_pool");
    std::uint64_t chunkSlots = pool_.chunkSize();
    std::uint64_t chunks = pool_.chunkCount();
    std::uint64_t acq = pool_.acquired();
    std::uint64_t rel = pool_.released();
    s.io(chunkSlots);
    SL_CHECK(chunkSlots == pool_.chunkSize(), "snapshot",
             "request arena chunk size " << chunkSlots
                                         << " does not match this build's "
                                         << pool_.chunkSize());
    s.io(chunks);
    s.io(acq);
    s.io(rel);
    std::vector<std::uint8_t> live;
    if (s.saving()) {
        live.resize(pool_.capacity());
        for (std::size_t i = 0; i < live.size(); ++i)
            live[i] = pool_.isLive(i) ? 1 : 0;
    }
    s.io(live);
    if (s.loading())
        pool_.restoreLayout(static_cast<std::size_t>(chunks), live, acq,
                            rel);
    for (std::size_t i = 0; i < live.size(); ++i) {
        if (!live[i])
            continue;
        MemRequest* r = pool_.at(i);
        s.io(r->addr);
        s.io(r->pc);
        s.io(r->coreId);
        s.io(r->kind);
        ctx.ioComp(s, r->client);
        s.io(r->tag);
        s.io(r->retried);
        s.io(r->directRespond);
        ctx.ioComp(s, r->origin);
    }

    // --- event queue: tagged descriptors only. Re-scheduling events in
    // forEachPending order reproduces the save side's execution order.
    s.marker(0x45565451, "event_queue");
    Cycle eqNow = eq_.now();
    s.io(eqNow);
    std::uint64_t pending = eq_.size();
    s.io(pending);
    if (s.saving()) {
        eq_.forEachPending([&](Cycle when, const EventCallback& cb) {
            SL_CHECK(cb.kind() != EventKind::Generic, "snapshot",
                     "a pending generic (untagged lambda) event cannot "
                     "be serialized; tag it with EventCallback::make");
            const EventDesc& d = cb.desc();
            s.io(when);
            EventKind kind = cb.kind();
            s.io(kind);
            std::uint32_t comp = ctx.compId(ctx, d.comp);
            s.io(comp);
            std::uint64_t a = d.a;
            // PrefetchIssue carries an address and DramTick a channel
            // index in `a`; every other kind carries a request pointer
            // that must swizzle through the pool.
            if (kind != EventKind::PrefetchIssue &&
                kind != EventKind::DramTick)
                a = ctx.reqId(ctx, reinterpret_cast<const void*>(
                                       static_cast<std::uintptr_t>(d.a)));
            s.io(a);
            std::uint64_t pc = d.pc;
            s.io(pc);
            std::int32_t core = d.core;
            s.io(core);
        });
    } else {
        eq_.restoreClock(eqNow);
        for (std::uint64_t i = 0; i < pending; ++i) {
            Cycle when = 0;
            EventKind kind = EventKind::Generic;
            std::uint32_t comp = 0;
            std::uint64_t a = 0;
            std::uint64_t pc = 0;
            std::int32_t core = 0;
            s.io(when);
            s.io(kind);
            s.io(comp);
            s.io(a);
            s.io(pc);
            s.io(core);
            SL_CHECK(kind == EventKind::Retry ||
                         kind == EventKind::Forward ||
                         kind == EventKind::Respond ||
                         kind == EventKind::PrefetchIssue ||
                         kind == EventKind::DramTick,
                     "snapshot",
                     "event " << i << " has invalid kind byte "
                              << unsigned(static_cast<std::uint8_t>(kind)));
            EventDesc d;
            d.comp = ctx.compPtr(ctx, comp);
            if (kind != EventKind::PrefetchIssue &&
                kind != EventKind::DramTick) {
                SL_CHECK(a <= 0xffffffffull, "snapshot",
                         "event " << i << " request id " << a
                                  << " exceeds the pool id range");
                d.a = reinterpret_cast<std::uintptr_t>(ctx.reqPtr(
                    ctx, static_cast<std::uint32_t>(a)));
            } else {
                d.a = a;
            }
            d.pc = pc;
            d.core = core;
            eq_.schedule(when, EventCallback::make(kind, d));
        }
    }

    // --- components, construction order.
    if (faults_)
        faults_->serializeState(s);
    dram_->serializeState(s, ctx);
    // Presence is derived from cfg.cores (covered by the config digest),
    // so no extra shape bit is needed.
    if (pressure_)
        pressure_->serializeState(s);
    llc_->serializeState(s, ctx);
    for (auto& c : l2s_)
        c->serializeState(s, ctx);
    for (auto& c : l1ds_)
        c->serializeState(s, ctx);
    for (auto& c : cores_)
        c->serializeState(s);
    for (auto& p : l1dPfs_)
        if (p)
            p->serializeState(s, ctx);
    for (auto& p : l2Pfs_)
        if (p)
            p->serializeState(s, ctx);
    if (telemetry_)
        telemetry_->serializeState(s);
    if (auditor_)
        auditor_->serializeState(s);
    if (watchdog_)
        watchdog_->serializeState(s);
    s.marker(0x454e4421, "system_end");
}

std::vector<std::uint8_t>
saveSystemState(System& sys, Cycle now)
{
    sys.setResumeCycle(now);
    Registry reg = buildRegistry(sys);
    const SnapshotCtx ctx = makeCtx(reg);
    Serializer s;
    sys.serializeState(s, ctx);
    return s.takeBuffer();
}

Cycle
restoreSystemState(System& sys, const std::uint8_t* payload,
                   std::size_t size)
{
    Registry reg = buildRegistry(sys);
    const SnapshotCtx ctx = makeCtx(reg);
    Serializer s(payload, size);
    sys.serializeState(s, ctx);
    s.finish();
    return sys.resumeCycle();
}

void
writeSnapshotFile(const std::string& path, const std::string& configDigest,
                  System& sys, Cycle now)
{
    std::vector<std::uint8_t> payload = saveSystemState(sys, now);

    SnapshotHeader h{};
    std::memcpy(h.magic, kMagic, sizeof(kMagic));
    h.version = kSnapshotVersion;
    h.crc = crc32(payload.data(), payload.size());
    h.payloadBytes = payload.size();
    h.digestBytes = configDigest.size();

    // Fault injection flips payload bits AFTER the CRC is computed, so a
    // corrupted file is exactly what the restore-side integrity check
    // exists to catch (the --fault-campaign snapshot_corrupt case).
    if (FaultInjector* f = sys.faultInjector())
        f->corruptSnapshotBytes(payload.data(), payload.size());

    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    SL_CHECK(out.good(), "snapshot",
             "cannot open '" << path << "' for writing");
    out.write(reinterpret_cast<const char*>(&h), sizeof(h));
    out.write(configDigest.data(),
              static_cast<std::streamsize>(configDigest.size()));
    out.write(reinterpret_cast<const char*>(payload.data()),
              static_cast<std::streamsize>(payload.size()));
    out.flush();
    SL_CHECK(out.good(), "snapshot",
             "short write to '" << path << "' (disk full?)");
}

Cycle
readSnapshotFile(const std::string& path, const std::string& configDigest,
                 System& sys)
{
    std::ifstream in(path, std::ios::binary);
    SL_CHECK(in.good(), "snapshot", "cannot open '" << path << "'");
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());

    SL_CHECK(bytes.size() >= sizeof(SnapshotHeader), "snapshot",
             "'" << path << "' is truncated: " << bytes.size()
                 << " bytes is smaller than the " << sizeof(SnapshotHeader)
                 << "-byte header");
    SnapshotHeader h{};
    std::memcpy(&h, bytes.data(), sizeof(h));
    SL_CHECK(std::memcmp(h.magic, kMagic, sizeof(kMagic)) == 0, "snapshot",
             "'" << path << "' is not a snapshot file (bad magic)");
    SL_CHECK(h.version == kSnapshotVersion, "snapshot",
             "version skew: '" << path << "' is snapshot format v"
                               << h.version
                               << " but this simulator reads v"
                               << kSnapshotVersion);
    SL_CHECK(bytes.size() ==
                 sizeof(h) + h.digestBytes + h.payloadBytes,
             "snapshot",
             "'" << path << "' is truncated or overlong: header promises "
                 << (sizeof(h) + h.digestBytes + h.payloadBytes)
                 << " bytes, file holds " << bytes.size());

    const std::string fileDigest(
        reinterpret_cast<const char*>(bytes.data() + sizeof(h)),
        static_cast<std::size_t>(h.digestBytes));
    SL_CHECK(fileDigest == configDigest, "snapshot",
             "configuration mismatch: '"
                 << path << "' was saved under a different run setup\n"
                 << "  snapshot: " << fileDigest << "\n"
                 << "  current:  " << configDigest);

    const std::uint8_t* payload = bytes.data() + sizeof(h) + h.digestBytes;
    const std::size_t n = static_cast<std::size_t>(h.payloadBytes);
    const std::uint32_t got = crc32(payload, n);
    SL_CHECK(got == h.crc, "snapshot",
             "CRC mismatch: '" << path << "' payload is corrupted "
                               << "(stored 0x" << std::hex << h.crc
                               << ", computed 0x" << got << std::dec
                               << ")");

    return restoreSystemState(sys, payload, n);
}

} // namespace sl
