/**
 * @file
 * Utility-Aware Dynamic Partitioning (§IV-D2, §IV-E4).
 *
 * Streamline sizes its metadata partition with set dueling, but unlike
 * Triangel it scores metadata hits by the *current prefetch accuracy*
 * instead of weighting every hit equally: data hits score 16; correlation
 * hits score 2..8 depending on the accuracy bucket measured over
 * 2048-prefetch epochs. Candidate sizes are 0MB, 0.5MB, and 1MB (set
 * denominators 0, 2, 1). Resizes happen every 2^15 sampled accesses.
 */

#ifndef SL_CORE_UADP_HH
#define SL_CORE_UADP_HH

#include <cstdint>

#include "common/stats.hh"
#include "temporal/sampler.hh"

namespace sl
{

/** The utility-aware set-dueling partition controller. */
class UtilityPartitioner
{
  public:
    /**
     * @param sets virtual LLC sets of the metadata store
     * @param llc_ways LLC associativity (16)
     * @param meta_ways ways an allocated metadata set loses (8)
     * @param corr_scale multiplier putting sampled correlation hits on
     *        the same sampling basis as the 64-set data sampler (the
     *        permanent metadata sample covers fewer sets)
     */
    UtilityPartitioner(std::uint32_t sets, unsigned llc_ways,
                       unsigned meta_ways, double corr_scale = 1.0);

    /** Feed an L2-miss data access (the stream that reaches the LLC). */
    void onDataAccess(std::uint32_t set, Addr block);

    /** Record a correlation hit observed in a permanently sampled set. */
    void onSampledCorrelationHit();

    /** Record prefetch feedback for the accuracy epochs. */
    void onPrefetchIssued();
    void onPrefetchUseful();

    /** True when 2^15 sampled accesses have elapsed since last resize. */
    bool shouldResize() const;

    /**
     * Choose the best allocation denominator (0 = off, 2 = half, 1 =
     * full) and start a new epoch.
     */
    unsigned pickDenominator();

    /** Current accuracy-bucket weight (2..8; paper §IV-E4). */
    unsigned accuracyWeight() const { return weight_; }

    StatGroup& stats() { return stats_; }

    /** Snapshot the data sampler, epoch counters, and accuracy state. */
    void
    serializeState(Serializer& s)
    {
        s.marker(0x55414450, "uadp");
        dataSampler_.serializeState(s);
        s.io(sampledCorrHits_);
        s.io(accessesThisEpoch_);
        s.io(issuedThisEpoch_);
        s.io(usefulThisEpoch_);
        s.io(lastAccuracy_);
        std::uint32_t w = weight_;
        s.io(w);
        weight_ = w;
        stats_.serializeState(s);
    }

  private:
    void rollAccuracyEpoch();

    unsigned llcWays_;
    unsigned metaWays_;

    LruStackSampler dataSampler_;
    double corrScale_;
    std::uint64_t sampledCorrHits_ = 0;
    std::uint64_t accessesThisEpoch_ = 0;

    // Accuracy tracking in 2048-prefetch epochs.
    std::uint64_t issuedThisEpoch_ = 0;
    std::uint64_t usefulThisEpoch_ = 0;
    double lastAccuracy_ = 0.0; //!< kept in snapshots (format v6)
    unsigned weight_ = 4;

    StatGroup stats_;
};

} // namespace sl

#endif // SL_CORE_UADP_HH
