#include "trace/workloads.hh"

#include <cstdlib>
#include <map>
#include <mutex>
#include <stdexcept>

#include "trace/kernels.hh"

namespace sl
{

const char*
suiteName(Suite s)
{
    switch (s) {
      case Suite::Spec06: return "SPEC06";
      case Suite::Spec17: return "SPEC17";
      case Suite::Gap: return "GAP";
    }
    return "?";
}

const std::vector<WorkloadSpec>&
workloadRegistry()
{
    static const std::vector<WorkloadSpec> registry = {
        {"spec06_mcf", Suite::Spec06, kernels::specMcf},
        {"spec06_omnetpp", Suite::Spec06, kernels::specOmnetpp},
        {"spec06_xalancbmk", Suite::Spec06, kernels::specXalanc},
        {"spec06_soplex", Suite::Spec06, kernels::specSoplex},
        {"spec06_libquantum", Suite::Spec06, kernels::specLibquantum},
        {"spec06_bzip2", Suite::Spec06, kernels::specBzip2},
        {"spec06_gcc", Suite::Spec06, kernels::specGcc},
        {"spec06_sphinx3", Suite::Spec06, kernels::specSphinx},
        {"spec17_mcf", Suite::Spec17, kernels::spec17Mcf},
        {"spec17_omnetpp", Suite::Spec17, kernels::spec17Omnetpp},
        {"spec17_xalancbmk", Suite::Spec17, kernels::spec17Xalanc},
        {"spec17_lbm", Suite::Spec17, kernels::spec17Lbm},
        {"spec17_roms", Suite::Spec17, kernels::spec17Roms},
        {"spec17_fotonik3d", Suite::Spec17, kernels::spec17Fotonik},
        {"gap_bfs", Suite::Gap, kernels::gapBfs},
        {"gap_pr", Suite::Gap, kernels::gapPr},
        {"gap_cc", Suite::Gap, kernels::gapCc},
        {"gap_sssp", Suite::Gap, kernels::gapSssp},
        {"gap_bc", Suite::Gap, kernels::gapBc},
        {"gap_tc", Suite::Gap, kernels::gapTc},
    };
    return registry;
}

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const auto& w : workloadRegistry())
        names.push_back(w.name);
    return names;
}

double
defaultTraceScale()
{
    static const double scale = [] {
        if (const char* env = std::getenv("SL_TRACE_SCALE"))
            return std::max(0.01, std::atof(env));
        return 1.0;
    }();
    return scale;
}

namespace
{

using TraceKey = std::tuple<std::string, double, std::uint64_t>;

// BatchRunner workers memoise through here concurrently.
std::mutex&
traceCacheMutex()
{
    static std::mutex mu;
    return mu;
}

std::map<TraceKey, TracePtr>&
traceCache()
{
    static std::map<TraceKey, TracePtr> cache;
    return cache;
}

} // namespace

TracePtr
getTrace(const std::string& name, double scale, std::uint64_t seed)
{
    if (scale <= 0.0)
        scale = defaultTraceScale();
    const TraceKey key{name, scale, seed};
    {
        std::lock_guard<std::mutex> lock(traceCacheMutex());
        auto& cache = traceCache();
        if (auto it = cache.find(key); it != cache.end())
            return it->second;
    }

    for (const auto& w : workloadRegistry()) {
        if (w.name == name) {
            // Synthesis runs outside the lock: it is deterministic per
            // key, so two threads racing here build identical traces and
            // the loser's copy is simply dropped.
            auto t = std::make_shared<Trace>(w.make(scale, seed));
            std::lock_guard<std::mutex> lock(traceCacheMutex());
            return traceCache().emplace(key, t).first->second;
        }
    }
    throw std::invalid_argument("unknown workload: " + name);
}

void
clearTraceCache()
{
    std::lock_guard<std::mutex> lock(traceCacheMutex());
    traceCache().clear();
}

} // namespace sl
