/**
 * @file
 * Fig 15: mitigating filtering coverage loss at small partitions.
 * Compares, at small fixed partition sizes: filtering with no mitigation,
 * + stream realignment, + skewed indexing, and hybrid partitioning
 * (half the sets, half the ways). Each column is a speedup over the
 * stride-L1D baseline.
 */

#include <cstdio>

#include "bench_util.hh"

namespace
{

using namespace sl;
using namespace sl::bench;

double
speedupOf(const StreamlineConfig& slc, double scale)
{
    // geomeanSpeedup batches the per-workload jobs (and the baselines)
    // through the shared BatchRunner pool.
    RunConfig cfg;
    cfg.l2 = "streamline";
    cfg.streamline = slc;
    return geomeanSpeedup(sweepWorkloads(), cfg, scale);
}

} // namespace

int
main()
{
    banner("Fig 15: filtering loss, realignment, skew, hybrid");
    const double scale = benchScale();

    std::printf("%-10s %12s %12s %12s %12s\n", "size", "no-mitig",
                "+realign", "+skew", "hybrid");
    struct Point
    {
        const char* label;
        unsigned den;
        unsigned hybrid_den;
        unsigned hybrid_ways;
    };
    for (auto [label, den, hden, hways] :
         {Point{"0.125x", 8, 4, 4}, Point{"0.25x", 4, 2, 4}}) {
        StreamlineConfig bare;
        bare.fixedDen = den;
        bare.realignment = false;

        StreamlineConfig realign = bare;
        realign.realignment = true;

        StreamlineConfig skew = realign;
        skew.skewedIndexing = true;

        StreamlineConfig hybrid = realign;
        hybrid.fixedDen = hden;
        hybrid.fixedWays = hways;

        std::printf("%-10s %+11.1f%% %+11.1f%% %+11.1f%% %+11.1f%%\n",
                    label, 100 * (speedupOf(bare, scale) - 1),
                    100 * (speedupOf(realign, scale) - 1),
                    100 * (speedupOf(skew, scale) - 1),
                    100 * (speedupOf(hybrid, scale) - 1));
        std::fflush(stdout);
    }
    std::printf("paper: realignment recovers 72-79%% of filtering loss;"
                " skew recovers the rest; hybrid can beat unfiltered at"
                " small sizes\n");
    return 0;
}
