/**
 * @file
 * Direction-switched binary serializer for simulator snapshots.
 *
 * One `io()` call per field serves both directions: in Save mode it
 * appends the value's bytes to a growing buffer, in Load mode it reads
 * them back with bounds checking. Writing save and load as a single
 * function makes field-order skew between the two paths impossible --
 * the classic source of silently-wrong checkpoint code.
 *
 * All reads are guarded: a truncated or over-long payload surfaces as a
 * SimError (component "serializer"), never an out-of-bounds read. The
 * byte format is native-endian and therefore only portable between runs
 * of the same build on the same architecture -- exactly the crash/resume
 * use case snapshots exist for (DESIGN.md §11). A CRC-32 of the payload
 * (snapshot.cc) catches corruption; the serializer catches truncation.
 */

#ifndef SL_COMMON_SERIALIZER_HH
#define SL_COMMON_SERIALIZER_HH

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "error.hh"

namespace sl
{

/**
 * Software CRC-32 (IEEE 802.3 polynomial, bit-reflected), slicing-by-8.
 * Produces the same values as the classic one-table byte loop — the
 * eight tables are just the byte table composed with itself, so the
 * polynomial division is unchanged — but consumes 8 bytes per step
 * (~8x the throughput). Snapshot guards CRC whole multi-MB payloads on
 * every load.
 */
inline std::uint32_t
crc32(const void* data, std::size_t len, std::uint32_t seed = 0)
{
    static const auto table = [] {
        std::array<std::array<std::uint32_t, 256>, 8> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[0][i] = c;
        }
        for (std::uint32_t i = 0; i < 256; ++i)
            for (int s = 1; s < 8; ++s)
                t[s][i] = t[0][t[s - 1][i] & 0xffu] ^ (t[s - 1][i] >> 8);
        return t;
    }();
    std::uint32_t c = seed ^ 0xffffffffu;
    const auto* p = static_cast<const unsigned char*>(data);
    // The sliced inner loop folds two little-endian 32-bit loads per
    // step; on a big-endian target fall back to the byte loop rather
    // than swapping every load (simulator targets are all LE).
    if constexpr (std::endian::native == std::endian::little) {
        while (len >= 8) {
            std::uint32_t lo, hi;
            std::memcpy(&lo, p, 4);
            std::memcpy(&hi, p + 4, 4);
            lo ^= c;
            c = table[7][lo & 0xffu] ^ table[6][(lo >> 8) & 0xffu] ^
                table[5][(lo >> 16) & 0xffu] ^ table[4][lo >> 24] ^
                table[3][hi & 0xffu] ^ table[2][(hi >> 8) & 0xffu] ^
                table[1][(hi >> 16) & 0xffu] ^ table[0][hi >> 24];
            p += 8;
            len -= 8;
        }
    }
    while (len--)
        c = table[0][(c ^ *p++) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

/**
 * Bidirectional field streamer. Construct in Save mode to fill an
 * owned byte buffer, or in Load mode over an existing payload.
 */
class Serializer
{
  public:
    enum class Mode { Save, Load };

    /** Save-mode constructor: serializes into an internal buffer. */
    Serializer() : mode_(Mode::Save) {}

    /** Load-mode constructor: deserializes from @p payload. */
    Serializer(const std::uint8_t* payload, std::size_t size)
        : mode_(Mode::Load), in_(payload), inSize_(size)
    {
    }

    bool saving() const { return mode_ == Mode::Save; }
    bool loading() const { return mode_ == Mode::Load; }

    /** Serialize a trivially copyable scalar (integers, enums, bool,
     *  floating point). */
    template <typename T>
    void
    io(T& v)
    {
        static_assert(std::is_trivially_copyable_v<T> &&
                          !std::is_pointer_v<T>,
                      "io() is for value types; swizzle pointers by hand");
        ioBytes(&v, sizeof(T));
    }

    /** Raw byte block of a size both sides already agree on. */
    void
    ioBytes(void* data, std::size_t len)
    {
        if (mode_ == Mode::Save) {
            const auto* p = static_cast<const std::uint8_t*>(data);
            out_.insert(out_.end(), p, p + len);
        } else {
            SL_CHECK(inPos_ + len <= inSize_, "serializer",
                     "payload truncated: need " << len << " bytes at offset "
                     << inPos_ << " but only " << (inSize_ - inPos_)
                     << " remain");
            std::memcpy(data, in_ + inPos_, len);
            inPos_ += len;
        }
    }

    /** Length-prefixed string. */
    void
    io(std::string& s)
    {
        std::uint64_t n = s.size();
        io(n);
        if (loading()) {
            SL_CHECK(n <= inSize_ - inPos_, "serializer",
                     "string length " << n << " exceeds remaining payload");
            s.resize(static_cast<std::size_t>(n));
        }
        if (n)
            ioBytes(s.data(), static_cast<std::size_t>(n));
    }

    /** Vector of trivially copyable elements, length-prefixed. */
    template <typename T>
    void
    io(std::vector<T>& v)
    {
        static_assert(std::is_trivially_copyable_v<T> &&
                          !std::is_pointer_v<T>,
                      "element type must be a trivially copyable value");
        std::uint64_t n = v.size();
        io(n);
        if (loading()) {
            SL_CHECK(n * sizeof(T) <= inSize_ - inPos_, "serializer",
                     "vector of " << n << " elements exceeds remaining "
                     "payload");
            v.resize(static_cast<std::size_t>(n));
        }
        if (n)
            ioBytes(v.data(), static_cast<std::size_t>(n) * sizeof(T));
    }

    /**
     * Structural guard: emits/checks a 32-bit marker. Scatter these
     * between sections so a mismatched field sequence fails at the next
     * marker with the section's name instead of megabytes later.
     */
    void
    marker(std::uint32_t tag, const char* section)
    {
        std::uint32_t v = tag;
        io(v);
        SL_CHECK(v == tag, "serializer",
                 "section marker mismatch at '" << section
                 << "': snapshot and simulator disagree about the state "
                 "layout (expected 0x" << std::hex << tag << ", found 0x"
                 << v << std::dec << ")");
    }

    /** Save mode: the bytes accumulated so far. */
    const std::vector<std::uint8_t>& buffer() const { return out_; }
    std::vector<std::uint8_t> takeBuffer() { return std::move(out_); }

    /** Load mode: bytes not yet consumed. */
    std::size_t
    remaining() const
    {
        return inSize_ - inPos_;
    }

    /** Load mode: assert every payload byte was consumed. */
    void
    finish() const
    {
        if (mode_ == Mode::Load)
            SL_CHECK(inPos_ == inSize_, "serializer",
                     "payload has " << (inSize_ - inPos_) << " trailing "
                     "bytes the simulator did not consume -- snapshot and "
                     "simulator state layouts disagree");
    }

  private:
    Mode mode_;
    std::vector<std::uint8_t> out_;
    const std::uint8_t* in_ = nullptr;
    std::size_t inSize_ = 0;
    std::size_t inPos_ = 0;
};

/**
 * Pointer-swizzling context threaded through component serialization.
 *
 * Component role pointers (Cache*, MemLevel*, RequestClient*, Prefetcher*)
 * and in-flight MemRequest pointers cannot be stored raw; snapshot.cc
 * enumerates both sides' component graphs in deterministic construction
 * order and fills these callbacks so each component's serializeState can
 * translate pointer -> stable id on save and id -> pointer on load.
 */
struct SnapshotCtx
{
    /** pointer -> component id (save). Throws SimError for unknown. */
    std::uint32_t (*compId)(const SnapshotCtx&, const void*) = nullptr;
    /** component id -> pointer (load). Throws SimError for unknown. */
    void* (*compPtr)(const SnapshotCtx&, std::uint32_t) = nullptr;
    /** MemRequest* -> pool slot id (save). */
    std::uint32_t (*reqId)(const SnapshotCtx&, const void*) = nullptr;
    /** pool slot id -> MemRequest* (load). */
    void* (*reqPtr)(const SnapshotCtx&, std::uint32_t) = nullptr;
    /** Opaque storage for the registry behind the callbacks. */
    void* impl = nullptr;

    /** Swizzle a component role pointer through io(). */
    template <typename T>
    void
    ioComp(Serializer& s, T*& p) const
    {
        std::uint32_t id = s.saving() ? compId(*this, p) : 0;
        s.io(id);
        if (s.loading())
            p = static_cast<T*>(compPtr(*this, id));
    }

    template <typename T>
    void
    ioComp(Serializer& s, const T*& p) const
    {
        std::uint32_t id = s.saving() ? compId(*this, p) : 0;
        s.io(id);
        if (s.loading())
            p = static_cast<const T*>(compPtr(*this, id));
    }

    /** Swizzle an in-flight request pointer through io(). */
    template <typename T>
    void
    ioReq(Serializer& s, T*& p) const
    {
        std::uint32_t id = s.saving() ? reqId(*this, p) : 0;
        s.io(id);
        if (s.loading())
            p = static_cast<T*>(reqPtr(*this, id));
    }
};

} // namespace sl

#endif // SL_COMMON_SERIALIZER_HH
