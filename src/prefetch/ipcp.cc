#include "prefetch/ipcp.hh"

#include "common/hash.hh"

namespace sl
{

IpcpPrefetcher::IpcpPrefetcher(unsigned entries)
    : Prefetcher("ipcp"), table_(entries), cplx_(4096)
{
}

void
IpcpPrefetcher::onAccess(const AccessInfo& info)
{
    const Addr block = blockNumber(info.addr);
    IpEntry& e = table_[mix64(info.pc) % table_.size()];

    if (!e.valid || e.pc != info.pc) {
        e = IpEntry{};
        e.pc = info.pc;
        e.lastBlock = block;
        e.valid = true;
        return;
    }

    const std::int64_t delta = static_cast<std::int64_t>(block) -
                               static_cast<std::int64_t>(e.lastBlock);
    if (delta == 0)
        return;

    // --- CS class: constant stride ---
    if (delta == e.stride) {
        if (e.strideConf < 3)
            ++e.strideConf;
    } else {
        e.stride = delta;
        e.strideConf = e.strideConf > 0 ? e.strideConf - 1 : 0;
    }

    // --- CPLX class: train signature -> delta table ---
    CplxEntry& c = cplx_[e.signature % cplx_.size()];
    if (c.conf > 0 && c.delta == delta) {
        if (c.conf < 3)
            ++c.conf;
    } else if (c.conf > 0) {
        --c.conf;
    } else {
        c.delta = delta;
        c.conf = 1;
    }
    e.signature = ((e.signature << 3) ^
                   static_cast<std::uint32_t>(delta & 0x3f)) &
                  0xfff;

    // --- GS class: global stream ---
    if (block == gsLastBlock_ + 1) {
        if (gsConf_ < 4)
            ++gsConf_;
    } else if (gsConf_ > 0) {
        --gsConf_;
    }
    gsLastBlock_ = block;
    e.lastBlock = block;

    // Issue by class priority: CS, then CPLX chain, then GS.
    if (e.strideConf >= 2) {
        for (unsigned d = 1; d <= 3; ++d) {
            const auto t = static_cast<std::int64_t>(block) +
                           e.stride * static_cast<std::int64_t>(d);
            if (t > 0)
                prefetch(static_cast<Addr>(t) << kBlockShift, info.pc,
                         info.cycle);
        }
        return;
    }

    // Walk the CPLX chain speculatively up to depth 3.
    std::uint32_t sig = e.signature;
    std::int64_t cur = static_cast<std::int64_t>(block);
    for (unsigned d = 0; d < 3; ++d) {
        const CplxEntry& p = cplx_[sig % cplx_.size()];
        if (p.conf < 2)
            break;
        cur += p.delta;
        if (cur <= 0)
            break;
        prefetch(static_cast<Addr>(cur) << kBlockShift, info.pc,
                 info.cycle);
        sig = ((sig << 3) ^ static_cast<std::uint32_t>(p.delta & 0x3f)) &
              0xfff;
    }

    if (gsConf_ >= 3) {
        for (unsigned d = 1; d <= 2; ++d)
            prefetch((block + d) << kBlockShift, info.pc, info.cycle);
    }
}

} // namespace sl
