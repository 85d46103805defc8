#include "prefetch/stride.hh"

#include "common/hash.hh"

namespace sl
{

StridePrefetcher::StridePrefetcher(unsigned degree, unsigned entries)
    : Prefetcher("stride"), degree_(degree), table_(entries)
{
}

void
StridePrefetcher::onAccess(const AccessInfo& info)
{
    const Addr block = blockNumber(info.addr);
    Entry& e = table_[mix64(info.pc) % table_.size()];

    if (!e.valid || e.pc != info.pc) {
        e = Entry{};
        e.pc = info.pc;
        e.lastBlock = block;
        e.valid = true;
        return;
    }

    const std::int64_t stride =
        static_cast<std::int64_t>(block) -
        static_cast<std::int64_t>(e.lastBlock);
    if (stride == 0)
        return;

    if (stride == e.stride) {
        if (e.confidence < 3)
            ++e.confidence;
    } else {
        e.stride = stride;
        e.confidence = e.confidence > 0 ? e.confidence - 1 : 0;
    }
    e.lastBlock = block;

    if (e.confidence >= 2) {
        for (unsigned d = 1; d <= degree_; ++d) {
            const auto target = static_cast<std::int64_t>(block) +
                                e.stride * static_cast<std::int64_t>(d);
            if (target <= 0)
                break;
            prefetch(static_cast<Addr>(target) << kBlockShift, info.pc,
                     info.cycle);
        }
    }
}

} // namespace sl
