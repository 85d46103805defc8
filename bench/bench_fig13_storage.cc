/**
 * @file
 * Fig 13: storage efficiency.
 *  (a) speedup vs metadata store size, Streamline vs Triangel (plus
 *      Triangel-Ideal with a dedicated full-size store);
 *  (b) metadata traffic to the LLC vs store size;
 *  (c) correlation hit rate: TP-Mockingjay vs SRRIP, and Triangel with
 *      the TP-style utility replacement retrofitted.
 */

#include <cstdio>

#include "bench_util.hh"

namespace
{

using namespace sl;
using namespace sl::bench;

struct SizeResult
{
    double speedup;
    std::uint64_t traffic;
    std::uint64_t correlations;
};

SizeResult
runSized(const RunConfig& proto, double scale, const std::string& label)
{
    const auto workloads = sweepWorkloads();
    warmBaselines(workloads, scale);
    const auto runs = runAcross(proto, workloads, scale, label);
    std::vector<double> speeds;
    std::uint64_t traffic = 0, corr = 0;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        speeds.push_back(runs[i].cores[0].ipc /
                         baseline(workloads[i], scale).cores[0].ipc);
        traffic += runs[i].metadataTraffic();
        corr += runs[i].storedCorrelations;
    }
    return {geomean(speeds), traffic, corr};
}

} // namespace

int
main()
{
    banner("Fig 13: storage efficiency, metadata traffic, correlation"
           " hit rate");
    const double scale = benchScale();

    // ---- Fig 13a + 13b: size sweep ----
    // Sizes are fractions of the max partition (paper: 0.125..1MB of a
    // 2MB LLC; here scaled to the laptop LLC). Streamline set-partitions
    // (setDen), Triangel way-partitions (maxWays).
    std::printf("\n-- Fig 13a/b: store-size sweep (speedup | LLC metadata"
                " traffic) --\n");
    std::printf("%-9s | %10s %12s | %10s %12s\n", "size",
                "triangel", "traffic", "streamline", "traffic");
    struct SizePoint
    {
        const char* label;
        unsigned den;      // Streamline fixed allocation denominator
        unsigned tg_ways;  // Triangel partition ways
    };
    for (auto [label, den, tg_ways] :
         {SizePoint{"0.125x", 8, 1}, SizePoint{"0.25x", 4, 2},
          SizePoint{"0.5x", 2, 4}, SizePoint{"1.0x", 1, 8}}) {
        RunConfig tg;
        tg.l2 = "triangel";
        tg.triangel.maxWays = tg_ways;
        RunConfig sl_cfg;
        sl_cfg.l2 = "streamline";
        sl_cfg.streamline.fixedDen = den;
        const auto t = runSized(tg, scale, std::string("triangel:") + label);
        const auto s =
            runSized(sl_cfg, scale, std::string("streamline:") + label);
        std::printf("%-9s | %+9.1f%% %12llu | %+9.1f%% %12llu\n", label,
                    100 * (t.speedup - 1),
                    static_cast<unsigned long long>(t.traffic),
                    100 * (s.speedup - 1),
                    static_cast<unsigned long long>(s.traffic));
        std::fflush(stdout);
    }
    {
        RunConfig ideal;
        ideal.l2 = "triangel_ideal";
        const auto r = runSized(ideal, scale, "triangel_ideal");
        std::printf("%-9s | %+9.1f%% %12s |\n", "tg-ideal",
                    100 * (r.speedup - 1), "-");
    }
    std::printf("paper: Streamline at 0.5MB matches Triangel at 1MB; at"
                " 1MB Streamline has 61%% of Triangel's traffic,"
                " 13%% at 0.125MB\n");

    // ---- Fig 13c: correlation hit rate ----
    std::printf("\n-- Fig 13c: correlation hit rate (replacement"
                " policies) --\n");
    auto corr_hit_rate = [&](const RunConfig& proto,
                             const std::string& label) {
        double hits = 0, lookups = 0;
        const auto runs =
            runAcross(proto, sweepWorkloads(), scale, label);
        for (const RunResult& r : runs) {
            if (!r.storeStats.empty()) {
                auto get = [&](const char* k) {
                    auto it = r.storeStats.find(k);
                    return it == r.storeStats.end()
                               ? 0.0
                               : static_cast<double>(it->second);
                };
                hits += get("hits");
                lookups += get("hits") + get("misses");
            } else {
                auto get = [&](const char* k) {
                    auto it = r.l2PfStats[0].find(k);
                    return it == r.l2PfStats[0].end()
                               ? 0.0
                               : static_cast<double>(it->second);
                };
                // Triangel: useful feedback per issued as a proxy plus
                // prefetch-side hit counters from the runner.
                hits += static_cast<double>(r.cores[0].l2PrefetchUseful);
                lookups += get("train_events");
            }
        }
        return lookups == 0 ? 0.0 : hits / lookups;
    };

    RunConfig sl_tpmj;
    sl_tpmj.l2 = "streamline";
    RunConfig sl_srrip = sl_tpmj;
    sl_srrip.streamline.useTpMockingjay = false;
    RunConfig tg_srrip;
    tg_srrip.l2 = "triangel";
    RunConfig tg_tpmj = tg_srrip;
    tg_tpmj.triangel.useTpMockingjay = true;

    std::printf("streamline + TP-Mockingjay : %5.1f%%\n",
                100 * corr_hit_rate(sl_tpmj, "streamline:tpmj"));
    std::printf("streamline + SRRIP         : %5.1f%%\n",
                100 * corr_hit_rate(sl_srrip, "streamline:srrip"));
    std::printf("triangel   + SRRIP         : %5.1f%%\n",
                100 * corr_hit_rate(tg_srrip, "triangel:srrip"));
    std::printf("triangel   + TP-utility    : %5.1f%%\n",
                100 * corr_hit_rate(tg_tpmj, "triangel:tpmj"));
    std::printf("paper: TP-Mockingjay gives Streamline +21.5pp"
                " correlation hit rate over Triangel and closes a third"
                " of the gap when added to Triangel\n");
    return 0;
}
