/**
 * @file
 * PC-localised stride prefetcher (the paper's baseline L1D prefetcher,
 * degree 3).
 */

#ifndef SL_PREFETCH_STRIDE_HH
#define SL_PREFETCH_STRIDE_HH

#include <vector>

#include "prefetch/prefetcher.hh"

namespace sl
{

/**
 * Classic IP-stride: a PC-indexed table tracking last address, last
 * stride, and a 2-bit confidence; confident strides prefetch the next
 * `degree` blocks along the stride.
 */
class StridePrefetcher : public Prefetcher
{
  public:
    explicit StridePrefetcher(unsigned degree = 3, unsigned entries = 256);

    void onAccess(const AccessInfo& info) override;

    void
    serializeState(Serializer& s, const SnapshotCtx& ctx) override
    {
        (void)ctx;
        serializeBaseState(s);
        static_assert(std::is_trivially_copyable_v<Entry> &&
                      std::has_unique_object_representations_v<Entry>);
        s.io(table_);
    }

  private:
    struct Entry
    {
        PC pc = 0;
        Addr lastBlock = 0;
        std::int64_t stride = 0;
        unsigned confidence = 0;
        bool valid = false;
        std::uint8_t pad[3] = {}; //!< explicit, so snapshots are stable
    };

    unsigned degree_;
    std::vector<Entry> table_;
};

} // namespace sl

#endif // SL_PREFETCH_STRIDE_HH
