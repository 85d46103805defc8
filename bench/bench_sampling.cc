/**
 * @file
 * Sampled-vs-full fidelity and speedup (DESIGN.md §14).
 *
 * Runs {streamline, triage, triangel} x {spec06_mcf, gap_bfs} twice:
 * once as a full detailed simulation, once through the sampled runner
 * (profile -> k-means -> checkpoint -> K detailed intervals). Each cell
 * reports the IPC relative error with its 95% confidence half-width and
 * the wall-time ratio. The sampled run is timed twice — cold (the
 * functional checkpoint pass included) and warm (checkpoints already on
 * disk, the steady state for sweeps that reuse the checkpoint store) —
 * and the speedup claim is made on the warm number, since checkpoints
 * are a one-time artifact per (config, workload, scale).
 *
 * Unlike the figure benches this one defaults to SL_BENCH_SCALE=1.0:
 * the +-3% fidelity gate is calibrated at paper scale, where intervals
 * are long enough to amortize warmup bias.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "bench_util.hh"
#include "sample/sampled.hh"

namespace
{

double
wallOf(const std::function<void()>& fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

int
main()
{
    using namespace sl;
    using namespace sl::bench;
    JsonReport::instance().setBench("sampling");
    const double scale =
        std::getenv("SL_BENCH_SCALE") ? benchScale() : 1.0;
    std::printf("== Sampling: sampled vs full detailed runs ==\n");
    std::printf("   scale=%.2f (SL_BENCH_SCALE to override; defaults to"
                " 1.0 — the fidelity gate is calibrated at paper"
                " scale)\n",
                scale);
    std::printf("   jobs run on %u threads (SL_JOBS to override)\n",
                defaultJobThreads());
    const std::vector<std::string> configs{"streamline", "triage",
                                           "triangel"};
    const std::vector<std::string> workloads{"spec06_mcf", "gap_bfs"};

    std::printf("%-10s %-11s | %8s %8s %6s %6s | %7s %7s %7s %6s\n",
                "config", "workload", "full", "sampled", "err%",
                "ci95%", "fullW", "coldW", "warmW", "speed");

    double fullWallTotal = 0, sampledWallTotal = 0, worstErr = 0;
    for (const auto& l2 : configs) {
        for (const auto& w : workloads) {
            RunConfig cfg;
            cfg.l2 = l2;
            cfg.traceScale = scale;

            RunResult full;
            const double fullWall =
                wallOf([&] { full = runWorkload(cfg, w); });
            const double fullIpc = full.cores.at(0).ipc;

            SampleOptions opts; // paper defaults: N=96, K=24
            SampledReport rep;
            const double coldWall =
                wallOf([&] { rep = runSampled(cfg, w, opts); });
            const double warmWall =
                wallOf([&] { rep = runSampled(cfg, w, opts); });

            const double relErr =
                std::abs(rep.ipcEstimate - fullIpc) / fullIpc;
            const double relCi =
                rep.ipcMean > 0 ? rep.ipcCi95 / rep.ipcMean : 0;
            const double speedup = fullWall / warmWall;
            fullWallTotal += fullWall;
            sampledWallTotal += warmWall;
            worstErr = std::max(worstErr, relErr);

            std::printf("%-10s %-11s | %8.4f %8.4f %5.2f%% %5.2f%% |"
                        " %7.2f %7.2f %7.2f %5.2fx\n",
                        l2.c_str(), w.c_str(), fullIpc,
                        rep.ipcEstimate, 100 * relErr, 100 * relCi,
                        fullWall, coldWall, warmWall, speedup);

            JsonReport::instance().note(
                "{\"row\":\"cell\",\"config\":\"" + jsonEscape(l2) +
                "\",\"workload\":\"" + jsonEscape(w) +
                "\",\"full_ipc\":" + jsonNumber(fullIpc) +
                ",\"sampled_ipc\":" + jsonNumber(rep.ipcEstimate) +
                ",\"rel_err\":" + jsonNumber(relErr) +
                ",\"rel_ci95\":" + jsonNumber(relCi) +
                ",\"n_eff\":" + jsonNumber(rep.neff) +
                ",\"full_wall\":" + jsonNumber(fullWall) +
                ",\"cold_wall\":" + jsonNumber(coldWall) +
                ",\"sampled_wall\":" + jsonNumber(warmWall) +
                ",\"speedup\":" + jsonNumber(speedup) + "}");
        }
    }

    const double aggSpeedup =
        sampledWallTotal > 0 ? fullWallTotal / sampledWallTotal : 0;
    std::printf("\naggregate: full %.2fs, sampled %.2fs -> %.2fx"
                " (worst cell error %.2f%%)\n",
                fullWallTotal, sampledWallTotal, aggSpeedup,
                100 * worstErr);
    JsonReport::instance().note(
        "{\"row\":\"aggregate\",\"full_wall\":" +
        jsonNumber(fullWallTotal) +
        ",\"sampled_wall\":" + jsonNumber(sampledWallTotal) +
        ",\"speedup\":" + jsonNumber(aggSpeedup) +
        ",\"worst_rel_err\":" + jsonNumber(worstErr) + "}");
    return 0;
}
