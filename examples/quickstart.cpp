/**
 * @file
 * Quickstart: run one irregular workload through the simulated machine
 * three ways -- no L2 prefetcher, Triangel, and Streamline -- and print
 * IPC, speedup, coverage, accuracy, and metadata traffic.
 *
 * Usage: quickstart [workload] [scale]
 *   workload: any name from the registry (default spec06_mcf)
 *   scale:    trace scale factor (default 0.25 for a fast demo)
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "sim/runner.hh"

int
main(int argc, char** argv)
{
    const std::string workload = argc > 1 ? argv[1] : "spec06_mcf";
    const double scale = argc > 2 ? std::atof(argv[2]) : 0.25;

    std::printf("Streamline quickstart: workload=%s scale=%.2f\n",
                workload.c_str(), scale);
    std::printf("%-12s %8s %8s %9s %9s %12s\n", "l2-prefetch", "ipc",
                "speedup", "coverage", "accuracy", "meta-traffic");

    sl::RunConfig cfg;
    cfg.traceScale = scale;

    cfg.l2 = "none";
    const auto base = sl::runWorkload(cfg, workload);
    std::printf("%-12s %8.3f %8s %9s %9s %12s\n", "none",
                base.cores[0].ipc, "1.000", "-", "-", "-");

    for (const char* pf : {"triangel", "streamline"}) {
        cfg.l2 = pf;
        const auto r = sl::runWorkload(cfg, workload);
        std::printf("%-12s %8.3f %8.3f %8.1f%% %8.1f%% %12llu\n",
                    pf, r.cores[0].ipc,
                    r.cores[0].ipc / base.cores[0].ipc,
                    100.0 * r.cores[0].coverage(),
                    100.0 * r.cores[0].accuracy(),
                    static_cast<unsigned long long>(r.metadataTraffic()));
    }
    return 0;
}
