/**
 * @file
 * Simulator-throughput microbenchmark (not a paper figure).
 *
 * Every figure bench sweeps ten prefetcher variants across dozens of
 * workloads, so wall-clock simulator speed bounds experiment scale. This
 * bench pins that number down: it runs a fixed workload x prefetcher
 * matrix through the same System::run hot path the figure benches use
 * and reports simulated kilocycles per wall-second and retired MIPS per
 * configuration, between the usual ==JSON== markers. check.sh's
 * `simspeed` stage snapshots the result into BENCH_simspeed.json at the
 * repo root so successive PRs accumulate a perf trajectory.
 *
 * Each cell reports both the best (minimum wall) and the median
 * repetition: best-of is the least noisy estimate of the code's true
 * speed, the median is what the check.sh floors gate on -- a single
 * lucky rep can't mask a regression, a single unlucky one can't fail
 * the build.
 *
 * Knobs: SL_BENCH_SCALE (trace scale, default 0.25), SL_SIMSPEED_REPS
 * (repetitions per cell; default 3). Jobs always run serially on one
 * thread: this bench measures single-job latency, not batch throughput.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "prefetch/registry.hh"
#include "sim/system.hh"
#include "trace/workloads.hh"

namespace
{

using namespace sl;

struct Cell
{
    std::string config;
    std::string workload;
    std::uint64_t simCycles = 0;
    std::uint64_t retired = 0;
    std::uint64_t metadataOps = 0;
    double wallSeconds = 0;       //!< best (minimum) over the repetitions
    double wallMedianSeconds = 0; //!< median over the repetitions
};

unsigned
reps()
{
    if (const char* env = std::getenv("SL_SIMSPEED_REPS")) {
        const long v = std::atol(env);
        if (v >= 1)
            return static_cast<unsigned>(v);
    }
    return 3;
}

/** One timed run (the workload is replicated across @p cores); the
 *  System is rebuilt every repetition so each measurement pays the same
 *  cold-structure costs. @p telemetry (optional) instruments the run —
 *  used by the overhead probe below. */
Cell
timeCell(const std::string& config, const std::string& l2,
         const std::string& workload, double scale, unsigned repetitions,
         const TelemetryConfig* telemetry = nullptr, unsigned cores = 1)
{
    PrefetcherRegistry& reg = prefetcherRegistry();
    const PrefetcherTuning tuning; // registry defaults for every family

    Cell cell;
    cell.config = config;
    cell.workload = workload;
    std::vector<double> walls;
    walls.reserve(repetitions);
    for (unsigned r = 0; r < repetitions; ++r) {
        std::vector<TracePtr> traces;
        for (unsigned c = 0; c < cores; ++c)
            traces.push_back(getTrace(workload, scale, /*seed=*/1));
        SystemConfig sc;
        sc.cores = cores;
        sc.l1dPrefetcher =
            reg.make("stride", PrefetcherRegistry::L1, tuning);
        sc.l2Prefetcher = reg.make(l2, PrefetcherRegistry::L2, tuning);
        if (telemetry)
            sc.telemetry = *telemetry;

        System sys(sc, std::move(traces));
        const auto t0 = std::chrono::steady_clock::now();
        sys.run();
        const double wall = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
        walls.push_back(wall);

        if (r == 0 || wall < cell.wallSeconds) {
            cell.wallSeconds = wall;
            cell.simCycles = sys.eventQueue().now();
            cell.retired = sys.totalRetired();
            Prefetcher* pf = sys.l2Prefetcher(0);
            cell.metadataOps = pf ? pf->metadataOps() : 0;
        }
    }
    // Median: upper middle element for even counts -- the conservative
    // (slower) pick, so the gated number never flatters the build.
    std::sort(walls.begin(), walls.end());
    cell.wallMedianSeconds = walls[walls.size() / 2];
    return cell;
}

double
kcps(const Cell& c)
{
    return c.wallSeconds > 0
               ? static_cast<double>(c.simCycles) / 1e3 / c.wallSeconds
               : 0;
}

double
kcpsMedian(const Cell& c)
{
    return c.wallMedianSeconds > 0
               ? static_cast<double>(c.simCycles) / 1e3 /
                     c.wallMedianSeconds
               : 0;
}

double
mips(const Cell& c)
{
    return c.wallSeconds > 0
               ? static_cast<double>(c.retired) / 1e6 / c.wallSeconds
               : 0;
}

double
mops(std::uint64_t metadata_ops, double wall)
{
    return wall > 0 ? static_cast<double>(metadata_ops) / wall : 0;
}

/** The best-of/median fields shared by every cell-shaped JSON note. */
std::string
cellJsonFields(const Cell& c)
{
    return ",\"sim_cycles\":" + std::to_string(c.simCycles) +
           ",\"retired_instructions\":" + std::to_string(c.retired) +
           ",\"wall_seconds\":" + sl::jsonNumber(c.wallSeconds) +
           ",\"wall_seconds_median\":" +
           sl::jsonNumber(c.wallMedianSeconds) +
           ",\"sim_kcycles_per_sec\":" + sl::jsonNumber(kcps(c)) +
           ",\"sim_kcycles_per_sec_median\":" +
           sl::jsonNumber(kcpsMedian(c)) +
           ",\"retired_mips\":" + sl::jsonNumber(mips(c));
}

} // namespace

int
main()
{
    using sl::bench::JsonReport;

    sl::bench::banner("bench_simspeed");
    const double scale = sl::bench::benchScale();
    const unsigned repetitions = reps();
    std::printf("   %u repetition(s) per cell, best-of and median "
                "reported\n",
                repetitions);

    // The matrix: the paper's own scheme, both temporal baselines, and
    // the no-L2-prefetcher hierarchy, over two pointer-chasing SPEC
    // traces and a graph kernel.
    const std::vector<std::pair<std::string, std::string>> configs = {
        {"baseline", "none"},
        {"streamline", "streamline"},
        {"triage", "triage"},
        {"triangel", "triangel"},
    };
    const std::vector<std::string> workloads = {"spec06_mcf",
                                                "spec06_omnetpp", "gap_bfs"};

    std::printf("%-12s %-15s %12s %12s %10s %12s %12s %10s %12s\n",
                "config", "workload", "sim_Mcycles", "retired_Mi",
                "wall_s", "kcycles/s", "kc/s_median", "MIPS",
                "meta_ops/s");

    Cell telemetry_off; // streamline/spec06_mcf, reused by the probe below
    for (const auto& [name, l2] : configs) {
        std::uint64_t cfg_cycles = 0;
        std::uint64_t cfg_retired = 0;
        std::uint64_t cfg_meta = 0;
        double cfg_wall = 0;
        double cfg_wall_median = 0;
        for (const auto& w : workloads) {
            const Cell c = timeCell(name, l2, w, scale, repetitions);
            if (name == "streamline" && w == "spec06_mcf")
                telemetry_off = c;
            std::printf("%-12s %-15s %12.1f %12.1f %10.3f %12.0f %12.0f "
                        "%10.1f %12.0f\n",
                        c.config.c_str(), c.workload.c_str(),
                        c.simCycles / 1e6, c.retired / 1e6, c.wallSeconds,
                        kcps(c), kcpsMedian(c), mips(c),
                        mops(c.metadataOps, c.wallSeconds));
            JsonReport::instance().note(
                "{\"kind\":\"simspeed_cell\",\"config\":\"" + c.config +
                "\",\"workload\":\"" + c.workload + "\"" +
                cellJsonFields(c) +
                ",\"metadata_ops\":" + std::to_string(c.metadataOps) +
                ",\"metadata_ops_per_sec\":" +
                sl::jsonNumber(mops(c.metadataOps, c.wallSeconds)) + "}");
            cfg_cycles += c.simCycles;
            cfg_retired += c.retired;
            cfg_meta += c.metadataOps;
            cfg_wall += c.wallSeconds;
            cfg_wall_median += c.wallMedianSeconds;
        }
        const double cfg_kcps =
            cfg_wall > 0 ? cfg_cycles / 1e3 / cfg_wall : 0;
        const double cfg_kcps_median =
            cfg_wall_median > 0 ? cfg_cycles / 1e3 / cfg_wall_median : 0;
        const double cfg_mips =
            cfg_wall > 0 ? cfg_retired / 1e6 / cfg_wall : 0;
        std::printf("%-12s %-15s %12.1f %12.1f %10.3f %12.0f %12.0f "
                    "%10.1f %12.0f\n",
                    name.c_str(), "(all)", cfg_cycles / 1e6,
                    cfg_retired / 1e6, cfg_wall, cfg_kcps,
                    cfg_kcps_median, cfg_mips, mops(cfg_meta, cfg_wall));
        JsonReport::instance().note(
            "{\"kind\":\"simspeed_config\",\"config\":\"" + name +
            "\",\"sim_cycles\":" + std::to_string(cfg_cycles) +
            ",\"retired_instructions\":" + std::to_string(cfg_retired) +
            ",\"metadata_ops\":" + std::to_string(cfg_meta) +
            ",\"wall_seconds\":" + sl::jsonNumber(cfg_wall) +
            ",\"wall_seconds_median\":" + sl::jsonNumber(cfg_wall_median) +
            ",\"sim_kcycles_per_sec\":" + sl::jsonNumber(cfg_kcps) +
            ",\"sim_kcycles_per_sec_median\":" +
            sl::jsonNumber(cfg_kcps_median) +
            ",\"retired_mips\":" + sl::jsonNumber(cfg_mips) +
            ",\"metadata_ops_per_sec\":" +
            sl::jsonNumber(mops(cfg_meta, cfg_wall)) + "}");
    }

    // Multi-core cost probe: the shared memory system (DRAM scheduler,
    // LLC arbiter, pressure probe) only runs when cores > 1, so its
    // simulation cost is invisible to the single-core matrix. 2-core
    // cells pin it down: spec06_mcf replicated across both cores, with
    // each L2 prefetcher and with none (the metadata-heavy prefetchers
    // stress the LLC arbiter very differently from the stream-based one,
    // so all three get their own cell).
    std::printf("\n-- 2-core cells (spec06_mcf x2, shared LLC/DRAM) --\n");
    for (const auto* l2 : {"streamline", "triage", "triangel", "none"}) {
        const Cell c =
            timeCell(std::string("2core_") + l2, l2, "spec06_mcf", scale,
                     repetitions, nullptr, /*cores=*/2);
        std::printf("%-18s %-12s %12.1f %12.1f %10.3f %12.0f %10.1f\n",
                    c.config.c_str(), c.workload.c_str(),
                    c.simCycles / 1e6, c.retired / 1e6, c.wallSeconds,
                    kcps(c), mips(c));
        JsonReport::instance().note(
            "{\"kind\":\"simspeed_multicore\",\"config\":\"" + c.config +
            "\",\"workload\":\"" + c.workload +
            "\",\"cores\":2" + cellJsonFields(c) + "}");
    }

    // Telemetry overhead probe: the streamline/spec06_mcf cell again with
    // interval sampling + histograms enabled (no output files), against
    // the telemetry-off measurement from the matrix above. The disabled
    // path has no gate of its own: check.sh's simspeed stage fails only a
    // matrix cell below 0.75x (SL_SIMSPEED_FLOOR) of its recorded
    // baseline.
    sl::TelemetryConfig tcfg;
    tcfg.enabled = true;
    const Cell on = timeCell("streamline+telemetry", "streamline",
                             "spec06_mcf", scale, repetitions, &tcfg);
    const double off_kcps = kcps(telemetry_off);
    const double on_kcps = kcps(on);
    const double overhead_pct =
        off_kcps > 0 ? 100.0 * (1.0 - on_kcps / off_kcps) : 0;
    std::printf("telemetry enabled vs disabled (streamline/spec06_mcf): "
                "%.0f vs %.0f kcycles/s (%.1f%% overhead)\n",
                on_kcps, off_kcps, overhead_pct);
    JsonReport::instance().note(
        "{\"kind\":\"simspeed_telemetry\",\"config\":\"streamline\""
        ",\"workload\":\"spec06_mcf\"" +
        std::string(",\"off_kcycles_per_sec\":") +
        sl::jsonNumber(off_kcps) +
        ",\"on_kcycles_per_sec\":" + sl::jsonNumber(on_kcps) +
        ",\"enabled_overhead_pct\":" + sl::jsonNumber(overhead_pct) + "}");
    return 0;
}
