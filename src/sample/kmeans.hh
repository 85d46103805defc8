/**
 * @file
 * Deterministic seeded k-means for interval selection (DESIGN.md §14).
 *
 * k-means++ initialization drawn from the repo Rng (xoshiro256**), a
 * fixed iteration budget, and lowest-index tie-breaks everywhere, so the
 * selection is a pure function of (points, k, seed) — bit-identical
 * across runs, machines, and SL_JOBS settings.
 */

#ifndef SL_SAMPLE_KMEANS_HH
#define SL_SAMPLE_KMEANS_HH

#include <cstdint>
#include <vector>

namespace sl
{

/** Outcome of clustering: K representatives with weights. Clusters are
 *  sorted by representative index, so downstream consumers (checkpoint
 *  plans, reports) see a stable order. */
struct ClusterSelection
{
    /** Selected point indices (the member closest to each centroid,
     *  lowest index on ties), ascending. */
    std::vector<std::size_t> representatives;
    /** clusterSizes[i] / totalPoints, aligned with representatives. */
    std::vector<double> weights;
    std::vector<std::size_t> clusterSizes;
    /** Per input point: position into representatives[] of its cluster. */
    std::vector<std::size_t> assignment;
};

/**
 * Cluster @p points into min(k, points.size()) groups and pick one
 * representative per group. All points must share one dimensionality.
 * @p iterations bounds the Lloyd refinement (it usually converges much
 * earlier; the fixed cap keeps worst-case runs deterministic and cheap).
 */
ClusterSelection kmeansSelect(
    const std::vector<std::vector<double>>& points, std::size_t k,
    std::uint64_t seed, unsigned iterations = 32);

} // namespace sl

#endif // SL_SAMPLE_KMEANS_HH
