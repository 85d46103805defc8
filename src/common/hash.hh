/**
 * @file
 * Address and PC hashing used by the prefetcher metadata structures.
 *
 * The paper's prefetchers store *hashed* triggers (10 bits in
 * Triage/Triangel/Streamline) and hashed PCs; the hashes here are the folded
 * XOR constructions conventional in that literature. The FNV-1a at the end
 * keys the simulator's identity digests.
 */

#ifndef SL_COMMON_HASH_HH
#define SL_COMMON_HASH_HH

#include <cstddef>
#include <cstdint>

#include "types.hh"

namespace sl
{

/** Strong 64-bit mix (MurmurHash3 finaliser) for index randomisation. */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
}

/** Fold a 64-bit value down to @p bits by repeated XOR of bit groups. */
constexpr std::uint64_t
foldXor(std::uint64_t x, unsigned bits)
{
    if (bits == 0 || bits >= 64)
        return x;
    std::uint64_t acc = 0;
    const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
    while (x != 0) {
        acc ^= x & mask;
        x >>= bits;
    }
    return acc;
}

/** The 10-bit hashed trigger tag stored per metadata entry (Fig 7). */
constexpr std::uint16_t
hashedTrigger10(Addr block)
{
    return static_cast<std::uint16_t>(foldXor(mix64(block), 10));
}

/** Partial trigger tag of @p bits spilled into the LLC tag store (§V-D5). */
constexpr std::uint16_t
partialTriggerTag(Addr block, unsigned bits)
{
    return static_cast<std::uint16_t>(foldXor(mix64(block) >> 10, bits));
}

/** partialTriggerTag for a caller that already holds mix64(block). */
constexpr std::uint16_t
partialTagFromHash(std::uint64_t h, unsigned bits)
{
    return static_cast<std::uint16_t>(foldXor(h >> 10, bits));
}

/** 8-bit address hash used by TP-Mockingjay sampler entries (§IV-E8). */
constexpr std::uint8_t
hash8(std::uint64_t v)
{
    return static_cast<std::uint8_t>(foldXor(mix64(v), 8));
}

/** Seed the identity digests (job manifests, checkpoint names) have
 *  always used: the FNV offset basis 14695981039346656037 with its last
 *  digit missing, which hashes just as well. */
constexpr std::uint64_t kFnv1aSeed = 1469598103934665603ull;

/** 64-bit FNV-1a over @p n bytes at @p data, continuing from @p h. */
inline std::uint64_t
fnv1a(const void* data, std::size_t n, std::uint64_t h = kFnv1aSeed)
{
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull; // FNV-1a prime
    }
    return h;
}

} // namespace sl

#endif // SL_COMMON_HASH_HH
