/**
 * @file
 * Fig 10a/b/c: multi-core results.
 *  (a) geomean + weighted speedup vs core count (2/4/8),
 *  (b) per-mix win rate of Streamline over Triangel on 4-core mixes,
 *  (c) speedup vs DRAM transfer rate (bandwidth sweep).
 *
 * Every core count sweeps the full SL_MIX_COUNT seeded mixes through
 * BatchRunner; per-mix contention rollups (pressure drops, DRAM
 * read-queue wait, demand/prefetch read mix) ride along in the ==JSON==
 * notes so the shared-memory-system behaviour behind the sign is
 * inspectable.
 *
 * Mix count and trace scale shrink by default (SL_MIX_COUNT /
 * SL_BENCH_SCALE override; the paper simulates 150 mixes per core count).
 */

#include <algorithm>
#include <cstdio>

#include "bench_util.hh"

namespace
{

using namespace sl;
using namespace sl::bench;

/** Contention rollup over one config's mixes (sums of RunResult
 *  shared-memory counters). */
struct PressureRollup
{
    std::uint64_t pfDropped = 0;
    std::uint64_t readQWait = 0;
    std::uint64_t demandReads = 0;
    std::uint64_t prefetchReads = 0;

    void
    add(const RunResult& r)
    {
        pfDropped += r.pfDroppedPressure;
        readQWait += r.dramReadQueueWait;
        demandReads += r.dramDemandReads;
        prefetchReads += r.dramPrefetchReads;
    }

    std::string
    json() const
    {
        return "{\"pf_dropped\":" + std::to_string(pfDropped) +
               ",\"read_q_wait\":" + std::to_string(readQWait) +
               ",\"demand_reads\":" + std::to_string(demandReads) +
               ",\"prefetch_reads\":" + std::to_string(prefetchReads) +
               "}";
    }
};

struct MixSpeedups
{
    std::vector<double> tg;  //!< per-mix Triangel geomean speedup
    std::vector<double> sl;  //!< per-mix Streamline geomean speedup
    std::vector<double> tgW; //!< per-mix Triangel weighted speedup
    std::vector<double> slW; //!< per-mix Streamline weighted speedup
    PressureRollup tgP, slP; //!< contention rollups across the mixes

    double tgGeo() const { return geomean(tg); }
    double slGeo() const { return geomean(sl); }
    double tgWMean() const { return mean(tgW); }
    double slWMean() const { return mean(slW); }

    static double
    mean(const std::vector<double>& v)
    {
        double s = 0;
        for (const double x : v)
            s += x;
        return v.empty() ? 0 : s / v.size();
    }
};

/**
 * Submit base/Triangel/Streamline jobs for every mix as one batch and
 * reduce to per-mix speedups. Weighted speedup is the arithmetic mean of
 * per-core IPC ratios against the same-mix no-prefetch baseline (the
 * multiprogrammed-throughput metric); geomean matches the paper's
 * headline numbers.
 */
MixSpeedups
mixSpeedups(const std::vector<Mix>& mixes, const RunConfig& base,
            const std::string& tag)
{
    RunConfig tg = base;
    tg.l2 = "triangel";
    RunConfig sl_cfg = base;
    sl_cfg.l2 = "streamline";

    std::vector<ExperimentSpec> specs;
    for (std::size_t i = 0; i < mixes.size(); ++i) {
        const std::string id = tag + ":mix" + std::to_string(i);
        specs.push_back({"base:" + id, base, mixes[i]});
        specs.push_back({"triangel:" + id, tg, mixes[i]});
        specs.push_back({"streamline:" + id, sl_cfg, mixes[i]});
    }
    const auto jobs = runBatch(specs);

    MixSpeedups out;
    for (std::size_t i = 0; i < mixes.size(); ++i) {
        const RunResult& b = jobs[3 * i].result;
        const RunResult& t = jobs[3 * i + 1].result;
        const RunResult& s = jobs[3 * i + 2].result;
        std::vector<double> ts, ss;
        for (unsigned c = 0; c < b.cores.size(); ++c) {
            ts.push_back(t.cores[c].ipc / b.cores[c].ipc);
            ss.push_back(s.cores[c].ipc / b.cores[c].ipc);
        }
        out.tg.push_back(geomean(ts));
        out.sl.push_back(geomean(ss));
        out.tgW.push_back(MixSpeedups::mean(ts));
        out.slW.push_back(MixSpeedups::mean(ss));
        out.tgP.add(t);
        out.slP.add(s);
    }
    return out;
}

/** One ==JSON== note per core count: headline speedups, win rate, and
 *  the contention rollups that explain them. */
void
noteCoreCount(unsigned cores, const MixSpeedups& sp)
{
    unsigned wins = 0;
    for (std::size_t i = 0; i < sp.sl.size(); ++i)
        wins += sp.sl[i] > sp.tg[i];
    JsonReport::instance().note(
        "{\"fig10a_cores\":" + std::to_string(cores) +
        ",\"mixes\":" + std::to_string(sp.sl.size()) +
        ",\"triangel_geomean\":" + jsonNumber(sp.tgGeo()) +
        ",\"streamline_geomean\":" + jsonNumber(sp.slGeo()) +
        ",\"triangel_weighted\":" + jsonNumber(sp.tgWMean()) +
        ",\"streamline_weighted\":" + jsonNumber(sp.slWMean()) +
        ",\"streamline_wins\":" + std::to_string(wins) +
        ",\"triangel_pressure\":" + sp.tgP.json() +
        ",\"streamline_pressure\":" + sp.slP.json() + "}");
}

} // namespace

int
main()
{
    banner("Fig 10a/b/c: multi-core speedups, win rate, bandwidth");

    const double scale = std::min(benchScale(), 0.2);
    const unsigned mix_count = std::max(2u, defaultMixCount());

    // ---- Fig 10a: speedup vs core count ----
    std::printf("\n-- Fig 10a: geomean speedup vs cores (%u mixes each)"
                " --\n", mix_count);
    std::vector<double> four_core_deltas;
    for (unsigned cores : {2u, 4u, 8u}) {
        const auto mixes = makeMixes(cores, mix_count);
        RunConfig base;
        base.cores = cores;
        base.traceScale = scale;
        const auto sp =
            mixSpeedups(mixes, base, std::to_string(cores) + "core");
        if (cores == 4) {
            for (std::size_t i = 0; i < mixes.size(); ++i)
                four_core_deltas.push_back(sp.sl[i] - sp.tg[i]);
        }
        std::printf("%u cores: triangel %+5.1f%% (weighted %+5.1f%%)"
                    "  streamline %+5.1f%% (weighted %+5.1f%%)\n",
                    cores, 100 * (sp.tgGeo() - 1),
                    100 * (sp.tgWMean() - 1), 100 * (sp.slGeo() - 1),
                    100 * (sp.slWMean() - 1));
        std::printf("  contention: streamline dropped %llu prefetches, "
                    "%llu read-q wait cycles\n",
                    static_cast<unsigned long long>(sp.slP.pfDropped),
                    static_cast<unsigned long long>(sp.slP.readQWait));
        noteCoreCount(cores, sp);
        std::fflush(stdout);
    }
    std::printf("paper: Streamline wins by 7.2/6.9/6.7pp at 2/4/8"
                " cores\n");

    // ---- Fig 10b: 4-core win rate ----
    unsigned wins = 0;
    for (const double delta : four_core_deltas)
        wins += delta > 0;
    std::printf("\n-- Fig 10b: Streamline beats Triangel on %u/%zu 4-core"
                " mixes (paper: 77%%)\n",
                wins, four_core_deltas.size());
    JsonReport::instance().note(
        "{\"fig10b_wins\":" + std::to_string(wins) +
        ",\"fig10b_mixes\":" + std::to_string(four_core_deltas.size()) +
        "}");

    // ---- Fig 10c: bandwidth sweep (4-core, first mixes) ----
    std::printf("\n-- Fig 10c: speedup vs DRAM MT/s (4-core) --\n");
    const auto mixes = makeMixes(4, 2);
    for (unsigned mts : {800u, 1600u, 3200u, 6400u}) {
        RunConfig base;
        base.cores = 4;
        base.traceScale = scale;
        base.dramMTs = mts;
        const auto sp =
            mixSpeedups(mixes, base, std::to_string(mts) + "mts");
        std::printf("%5u MT/s: triangel %+5.1f%%  streamline %+5.1f%%\n",
                    mts, 100 * (sp.tgGeo() - 1), 100 * (sp.slGeo() - 1));
        JsonReport::instance().note(
            "{\"fig10c_mts\":" + std::to_string(mts) +
            ",\"triangel_geomean\":" + jsonNumber(sp.tgGeo()) +
            ",\"streamline_geomean\":" + jsonNumber(sp.slGeo()) + "}");
        std::fflush(stdout);
    }
    std::printf("paper: Streamline holds a 1.1-3.3pp margin across"
                " bandwidth levels\n");
    return 0;
}
