/**
 * @file
 * Fundamental types and address arithmetic shared across the simulator.
 */

#ifndef SL_COMMON_TYPES_HH
#define SL_COMMON_TYPES_HH

#include <cstdint>
#include <cstddef>

namespace sl
{

/** Physical/virtual byte address. The simulator does not model translation. */
using Addr = std::uint64_t;

/** Program counter of the instruction that issued an access. */
using PC = std::uint64_t;

/** Core clock cycle count. */
using Cycle = std::uint64_t;

/** Cache block (line) size in bytes; fixed at 64 as in the paper. */
constexpr unsigned kBlockShift = 6;
constexpr unsigned kBlockBytes = 1u << kBlockShift;

/** 4KB pages, used by spatial prefetchers (Bingo/SPP regions). */
constexpr unsigned kPageShift = 12;
constexpr unsigned kPageBytes = 1u << kPageShift;

/** Strip the block offset, keeping a byte address aligned to its block. */
constexpr Addr
blockAlign(Addr a)
{
    return a & ~Addr{kBlockBytes - 1};
}

/** Block number (byte address >> 6); the unit temporal metadata stores. */
constexpr Addr
blockNumber(Addr a)
{
    return a >> kBlockShift;
}

/** Page number of a byte address. */
constexpr Addr
pageNumber(Addr a)
{
    return a >> kPageShift;
}

/** Offset of a block within its 4KB page, in blocks (0..63). */
constexpr unsigned
blockOffsetInPage(Addr a)
{
    return static_cast<unsigned>((a >> kBlockShift) &
                                 ((kPageBytes / kBlockBytes) - 1));
}

/** Kind of memory reference carried by a trace record or request. */
enum class AccessType : std::uint8_t { Load, Store };

} // namespace sl

#endif // SL_COMMON_TYPES_HH
