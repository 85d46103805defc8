#include "core/uadp.hh"

#include <algorithm>

namespace sl
{

UtilityPartitioner::UtilityPartitioner(std::uint32_t sets,
                                       unsigned llc_ways,
                                       unsigned meta_ways,
                                       double corr_scale)
    : llcWays_(llc_ways), metaWays_(meta_ways),
      dataSampler_(std::min<std::uint32_t>(64, sets), sets, llc_ways),
      corrScale_(corr_scale), stats_("uadp")
{
}

void
UtilityPartitioner::onDataAccess(std::uint32_t set, Addr block)
{
    dataSampler_.access(set, block);
    ++accessesThisEpoch_;
}

void
UtilityPartitioner::onSampledCorrelationHit()
{
    ++sampledCorrHits_;
}

void
UtilityPartitioner::onPrefetchIssued()
{
    if (++issuedThisEpoch_ >= 2048)
        rollAccuracyEpoch();
}

void
UtilityPartitioner::onPrefetchUseful()
{
    ++usefulThisEpoch_;
}

void
UtilityPartitioner::rollAccuracyEpoch()
{
    lastAccuracy_ = ratio(usefulThisEpoch_, issuedThisEpoch_);
    issuedThisEpoch_ = 0;
    usefulThisEpoch_ = 0;

    // §IV-E4 accuracy buckets.
    const double a = lastAccuracy_;
    if (a < 0.10)
        weight_ = 1;
    else if (a < 0.25)
        weight_ = 2;
    else if (a < 0.50)
        weight_ = 3;
    else if (a < 0.70)
        weight_ = 4;
    else if (a < 0.90)
        weight_ = 6;
    else if (a < 0.95)
        weight_ = 7;
    else
        weight_ = 8;
}

bool
UtilityPartitioner::shouldResize() const
{
    return accessesThisEpoch_ >= (1ULL << 15);
}

unsigned
UtilityPartitioner::pickDenominator()
{
    // Data hits by LLC stack depth: depth < 8 hits regardless of the
    // partition; depth in [8,16) hits only in sets not allocated for
    // metadata (expected fraction 1 - 1/den).
    const std::uint64_t deep = dataSampler_.hitsWithin(llcWays_ -
                                                       metaWays_);
    const std::uint64_t shallow =
        dataSampler_.hitsBetween(llcWays_ - metaWays_, llcWays_);

    // Correlation hits scale with the allocated fraction under filtered
    // indexing (triggers hash uniformly over sets); corrScale_ normalises
    // the narrower metadata sample onto the data sampler's basis.
    const double potential = corrScale_ * sampledCorrHits_;

    const double score_off = 16.0 * (deep + shallow);
    const double score_half =
        16.0 * (deep + shallow * 0.5) + weight_ * potential * 0.5;
    const double score_full = 16.0 * deep + weight_ * potential;

    dataSampler_.reset();
    sampledCorrHits_ = 0;
    accessesThisEpoch_ = 0;
    ++stats_.counter("decisions");

    if (score_full >= score_half && score_full >= score_off) {
        ++stats_.counter("chose_full");
        return 1;
    }
    if (score_half >= score_off) {
        ++stats_.counter("chose_half");
        return 2;
    }
    ++stats_.counter("chose_off");
    return 0;
}

} // namespace sl
