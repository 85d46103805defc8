/**
 * @file
 * LRU stack-distance sampler used by the dynamic partitioners.
 *
 * Both Triangel's set-dueling partitioner and Streamline's utility-aware
 * partitioner must estimate, per candidate partition size, how many
 * data/metadata hits the LLC would see. An LRU stack on sampled sets gives
 * the whole hits-vs-capacity curve at once (the stack inclusion property):
 * an access at stack depth d hits in any configuration with >= d+1 ways.
 */

#ifndef SL_TEMPORAL_SAMPLER_HH
#define SL_TEMPORAL_SAMPLER_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "common/serializer.hh"
#include "common/types.hh"

namespace sl
{

/**
 * Tracks reuse depths of keys mapped to sampled sets. Keys are arbitrary
 * 64-bit identities (block numbers, triggers). The histogram counts hits
 * by stack depth; depth >= maxDepth accesses count as misses.
 */
class LruStackSampler
{
  public:
    /**
     * @param sampled_sets number of sampled sets (power of two)
     * @param total_sets total sets keys are distributed over (a power of
     *        two no smaller than @p sampled_sets: every caller derives it
     *        from the LLC, whose set count SystemConfig keeps one)
     * @param max_depth stack depth tracked per sampled set
     */
    LruStackSampler(std::uint32_t sampled_sets, std::uint32_t total_sets,
                    unsigned max_depth)
        : sampledSets_(sampled_sets), stride_(total_sets / sampled_sets),
          strideMask_(stride_ - 1), maxDepth_(max_depth),
          stacks_(sampled_sets), histogram_(max_depth + 1, 0)
    {
        SL_REQUIRE(std::has_single_bit(sampled_sets) &&
                       std::has_single_bit(stride_),
                   "lru_stack_sampler",
                   "sampled and total set counts must be powers of two, "
                   "got " << sampled_sets << " of " << total_sets);
        // +1: access() inserts at the head before trimming the tail, so
        // the stack transiently holds maxDepth + 1 keys; reserving the
        // peak keeps the per-access path reallocation-free.
        for (auto& s : stacks_)
            s.reserve(max_depth + 1);
    }

    /** True when @p set falls in the sampled subset. */
    bool
    sampled(std::uint32_t set) const
    {
        return (set & strideMask_) == 0;
    }

    /**
     * Record an access to @p key in @p set (a set index in [0,totalSets)).
     * Non-sampled sets are ignored. Returns the hit depth, or maxDepth for
     * a miss.
     */
    unsigned
    access(std::uint32_t set, std::uint64_t key)
    {
        if (!sampled(set))
            return maxDepth_;
        auto& stack = stacks_[(set / stride_) % sampledSets_];
        unsigned depth = maxDepth_;
        for (unsigned i = 0; i < stack.size(); ++i) {
            if (stack[i] == key) {
                depth = i;
                stack.erase(stack.begin() + i);
                break;
            }
        }
        stack.insert(stack.begin(), key);
        if (stack.size() > maxDepth_)
            stack.pop_back();
        ++histogram_[depth];
        ++accesses_;
        return depth;
    }

    /** Hits that a capacity of @p depth ways/entries would have served. */
    std::uint64_t
    hitsWithin(unsigned depth) const
    {
        std::uint64_t n = 0;
        for (unsigned d = 0; d < depth && d < maxDepth_; ++d)
            n += histogram_[d];
        return n;
    }

    /** Hits with depth in [lo, hi). */
    std::uint64_t
    hitsBetween(unsigned lo, unsigned hi) const
    {
        std::uint64_t n = 0;
        for (unsigned d = lo; d < hi && d < maxDepth_; ++d)
            n += histogram_[d];
        return n;
    }

    std::uint64_t sampledAccesses() const { return accesses_; }

    /** Start a new measurement epoch. */
    void
    reset()
    {
        std::fill(histogram_.begin(), histogram_.end(), 0);
        accesses_ = 0;
    }

    /** Snapshot the per-set LRU stacks, histogram, and access count.
     *  Geometry comes from the constructor and is cross-checked only. */
    void
    serializeState(Serializer& s)
    {
        s.marker(0x4c525353, "lru_stack_sampler");
        std::uint32_t n = static_cast<std::uint32_t>(stacks_.size());
        s.io(n);
        SL_CHECK(n == stacks_.size(), "lru_stack_sampler",
                 "snapshot has " << n << " sampled sets but this sampler "
                 "tracks " << stacks_.size());
        for (auto& stack : stacks_)
            s.io(stack);
        s.io(histogram_);
        s.io(accesses_);
    }

  private:
    std::uint32_t sampledSets_;
    std::uint32_t stride_;  //!< totalSets / sampledSets, computed once
    std::uint32_t strideMask_;
    unsigned maxDepth_;
    std::vector<std::vector<std::uint64_t>> stacks_;
    std::vector<std::uint64_t> histogram_;
    std::uint64_t accesses_ = 0;
};

} // namespace sl

#endif // SL_TEMPORAL_SAMPLER_HH
