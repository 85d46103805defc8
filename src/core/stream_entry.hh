/**
 * @file
 * Stream-based metadata entries -- the paper's central data structure.
 *
 * A stream entry holds one trigger and up to `streamLength` prefetch
 * targets (Fig 7): the access stream [A, B, C, D, E] becomes the single
 * entry (A -> B, C, D, E), eliminating the pairwise format's duplication
 * of B, C, and D. Consecutive entries chain: the last target of one entry
 * is the trigger of the next.
 */

#ifndef SL_CORE_STREAM_ENTRY_HH
#define SL_CORE_STREAM_ENTRY_HH

#include <array>
#include <cstdint>

#include "common/types.hh"

namespace sl
{

/** Maximum stream length supported by the sweep benches (Fig 12a). */
constexpr unsigned kMaxStreamLength = 16;

/** One stream metadata entry. Addresses are block numbers. */
struct StreamEntry
{
    Addr trigger = 0;
    std::array<Addr, kMaxStreamLength> targets{};
    std::uint8_t length = 0; //!< populated targets
    std::uint8_t pad[7] = {}; //!< explicit, so snapshots are stable

    bool valid() const { return length > 0; }

    /**
     * Position of @p block within the entry: 0 = trigger, i+1 = target i,
     * or -1 when absent.
     */
    int
    find(Addr block) const
    {
        if (block == trigger)
            return 0;
        for (unsigned i = 0; i < length; ++i) {
            if (targets[i] == block)
                return static_cast<int>(i) + 1;
        }
        return -1;
    }

    /** Last address of the stream (the next entry's trigger). */
    Addr
    lastAddress() const
    {
        return length == 0 ? trigger : targets[length - 1];
    }
};

/**
 * Stream entries per 64B metadata block for a given stream length
 * (§V-C1). Entries carry a 10-bit hashed trigger and 31 bits per target;
 * 6 trigger bits spill into the LLC tag store as partial tags (§IV-B3),
 * leaving 4 in-block trigger bits. This reproduces the paper's capacities:
 * lengths 2/3/4/5/8/16 hold 14/15/16/15/16/16 correlations per way.
 */
constexpr unsigned
streamEntriesPerBlock(unsigned stream_length)
{
    if (stream_length == 0)
        return 0;
    return 512u / (4u + 31u * stream_length);
}

/** Correlations per metadata block: entries x stream length (Fig 12a). */
constexpr unsigned
streamCorrelationsPerBlock(unsigned stream_length)
{
    return streamEntriesPerBlock(stream_length) * stream_length;
}

/** The pairwise format's correlations per block, for comparison. */
constexpr unsigned kPairwiseCorrelationsPerBlock = 12;

static_assert(streamCorrelationsPerBlock(2) == 14);
static_assert(streamCorrelationsPerBlock(3) == 15);
static_assert(streamCorrelationsPerBlock(4) == 16);
static_assert(streamCorrelationsPerBlock(5) == 15);
static_assert(streamCorrelationsPerBlock(8) == 16);
static_assert(streamCorrelationsPerBlock(16) == 16);

} // namespace sl

#endif // SL_CORE_STREAM_ENTRY_HH
