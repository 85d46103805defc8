/**
 * @file
 * Fig 11: temporal prefetchers alongside aggressive regular prefetchers.
 *  (a) Berti in the L1D, single-core;
 *  (b) Berti in the L1D, 2-core mixes;
 *  (c/d) L2 regular prefetchers (IPCP / Bingo / SPP-PPF) vs the temporal
 *        prefetchers, with the added coverage they bring.
 */

#include <cstdio>

#include "bench_util.hh"

int
main()
{
    using namespace sl;
    using namespace sl::bench;
    banner("Fig 11: Berti and L2 regular prefetchers");

    const double scale = benchScale();
    const auto workloads = sweepWorkloads();

    // ---- Fig 11a: Berti L1D baseline, single-core ----
    std::printf("\n-- Fig 11a: with Berti in the L1D (speedup vs stride"
                " baseline) --\n");
    {
        RunConfig berti;
        berti.l1 = "berti";
        RunConfig berti_tg = berti;
        berti_tg.l2 = "triangel";
        RunConfig berti_sl = berti;
        berti_sl.l2 = "streamline";
        std::printf("berti alone       %+6.1f%%\n",
                    100 * (geomeanSpeedup(workloads, berti, scale) - 1));
        std::printf("berti + triangel  %+6.1f%%\n",
                    100 * (geomeanSpeedup(workloads, berti_tg, scale) -
                           1));
        std::printf("berti + streamline%+6.1f%%\n",
                    100 * (geomeanSpeedup(workloads, berti_sl, scale) -
                           1));
        std::printf("paper: Streamline 22%% vs Triangel 20.1%% vs Berti"
                    " 19.1%% (irregular subset margins larger)\n");
    }

    // ---- Fig 11b: 2-core with Berti ----
    std::printf("\n-- Fig 11b: 2-core mixes with Berti L1D --\n");
    {
        const double mscale = std::min(scale, 0.2);
        const auto mixes = makeMixes(2, 3);
        RunConfig base;
        base.cores = 2;
        base.l1 = "berti";
        base.traceScale = mscale;
        RunConfig tg = base;
        tg.l2 = "triangel";
        RunConfig sl_cfg = base;
        sl_cfg.l2 = "streamline";
        std::vector<ExperimentSpec> specs;
        for (std::size_t i = 0; i < mixes.size(); ++i) {
            const std::string id = "mix" + std::to_string(i);
            specs.push_back({"berti:" + id, base, mixes[i]});
            specs.push_back({"berti+triangel:" + id, tg, mixes[i]});
            specs.push_back({"berti+streamline:" + id, sl_cfg, mixes[i]});
        }
        const auto jobs = runBatch(specs);
        std::vector<double> tg_all, sl_all;
        for (std::size_t i = 0; i < mixes.size(); ++i) {
            const RunResult& b = jobs[3 * i].result;
            const RunResult& t = jobs[3 * i + 1].result;
            const RunResult& s = jobs[3 * i + 2].result;
            for (unsigned c = 0; c < 2; ++c) {
                tg_all.push_back(t.cores[c].ipc / b.cores[c].ipc);
                sl_all.push_back(s.cores[c].ipc / b.cores[c].ipc);
            }
        }
        std::printf("triangel  %+6.1f%%   streamline %+6.1f%%"
                    "   (paper: +0 vs +4.1pp over Berti-only)\n",
                    100 * (geomean(tg_all) - 1),
                    100 * (geomean(sl_all) - 1));
    }

    // ---- Fig 11c/d: L2 regular prefetchers ----
    std::printf("\n-- Fig 11c/d: L2 regular prefetchers (speedup /"
                " coverage) --\n");
    warmBaselines(workloads, scale);
    for (const char* name :
         {"ipcp", "bingo", "spp_ppf", "triangel", "streamline"}) {
        RunConfig cfg;
        cfg.l2 = name;
        const auto runs = runAcross(cfg, workloads, scale, name);
        std::vector<double> speeds, covs;
        for (std::size_t i = 0; i < workloads.size(); ++i) {
            speeds.push_back(runs[i].cores[0].ipc /
                             baseline(workloads[i], scale).cores[0].ipc);
            covs.push_back(runs[i].cores[0].coverage());
        }
        double cov = 0;
        for (double c : covs)
            cov += c;
        cov /= covs.size();
        std::printf("%-12s %+6.1f%%   coverage %5.1f%%\n", name,
                    100 * (geomean(speeds) - 1), 100 * cov);
        std::fflush(stdout);
    }
    std::printf("paper: Streamline beats IPCP/Bingo/SPP-PPF by"
                " 2.2/4.8/2.6pp with ~2x the added coverage of"
                " Triangel\n");
    return 0;
}
