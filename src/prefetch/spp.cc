#include "prefetch/spp.hh"

#include "common/hash.hh"

namespace sl
{

SppPrefetcher::SppPrefetcher(unsigned pages)
    : Prefetcher("spp_ppf"), pages_(pages), patterns_(4096), filter_(1024)
{
}

void
SppPrefetcher::onAccess(const AccessInfo& info)
{
    const std::uint64_t page = pageNumber(info.addr);
    const unsigned offset = blockOffsetInPage(info.addr);
    PageEntry& p = pages_[mix64(page) % pages_.size()];

    if (!p.valid || p.page != page) {
        p = PageEntry{};
        p.page = page;
        p.valid = true;
        p.lastOffset = offset;
        p.signature = 0;
        return;
    }

    const std::int32_t delta = static_cast<std::int32_t>(offset) -
                               static_cast<std::int32_t>(p.lastOffset);
    if (delta == 0)
        return;

    // Train the pattern table with the observed (signature -> delta).
    Pattern& pat = patterns_[p.signature % patterns_.size()];
    if (pat.conf > 0 && pat.delta == delta) {
        if (pat.conf < 15)
            ++pat.conf;
    } else if (pat.conf > 1) {
        pat.conf -= 2;
    } else {
        pat.delta = delta;
        pat.conf = 2;
    }

    // Advance the signature.
    p.signature = ((p.signature << 3) ^
                   static_cast<std::uint32_t>(delta & 0x3f)) &
                  0xfff;
    p.lastOffset = offset;

    // Chain predictions down the path with decaying confidence.
    std::uint32_t sig = p.signature;
    double path_conf = 1.0;
    std::int32_t cur = static_cast<std::int32_t>(offset);
    for (unsigned depth = 0; depth < 4; ++depth) {
        const Pattern& q = patterns_[sig % patterns_.size()];
        if (q.conf < 4)
            break;
        path_conf *= static_cast<double>(q.conf) / 16.0;
        if (path_conf < 0.25)
            break;
        cur += q.delta;
        if (cur < 0 || cur >= 64)
            break; // SPP-lite stops at page boundaries

        // PPF gate: suppress signatures with a history of useless issues.
        if (filter_[sig % filter_.size()] < -4)
            break;
        prefetch((page << kPageShift) +
                     (static_cast<Addr>(cur) << kBlockShift),
                 info.pc, info.cycle);
        sig = ((sig << 3) ^ static_cast<std::uint32_t>(q.delta & 0x3f)) &
              0xfff;
    }

    // Filter feedback: a demand hit on a prefetched block is positive
    // evidence for the signature that issued in this page.
    auto& f = filter_[p.signature % filter_.size()];
    if (info.prefetchHit) {
        if (f < 16)
            ++f;
    } else if (!info.hit) {
        if (f > -16)
            --f;
    }
}

} // namespace sl
