/**
 * @file
 * Repository benchmark: the host cost of simulating memory-bound
 * workloads, end to end and layer by layer.
 *
 *   sl_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * A workload is a list of cells; a cell is one L2 prefetcher on one
 * trace (or one multi-core mix). Every cell goes through the same
 * RunConfig -> systemConfigFor -> System path the figure benches use,
 * one after another on one thread. The untraced phase runs the cells
 * round-robin until S seconds have passed and each has run at least
 * once, and reports per-cell medians, summed. With --trace 1 a traced pass of the same cells follows: every
 * L1D/L2 prefetcher is wrapped in a timing CacheListener, its digest
 * must equal the untraced one, and the per-layer counters come from the
 * public stats(). Standalone layer replays (replay.hh) close the run.
 *
 * --seed is the trace synthesis seed: the same seed rebuilds the same
 * traces, and a different one is a held-out input for re-checking a
 * claim. The last line of stdout is the JSON result; every other line is
 * the human-readable report. WORKLOADS.md records why each workload was
 * chosen and which layer metric should move which end-to-end metric.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hh"
#include "replay.hh"
#include "sim/runner.hh"
#include "sim/system.hh"
#include "trace/workloads.hh"

namespace
{

using namespace sl;
using Clock = std::chrono::steady_clock;

/** Setups per cell run; setup_s reports the median. Trace synthesis is
 *  about 1% of a cell, so repeating it is cheap and keeps the set-up
 *  figure steady. */
constexpr unsigned kSetupReps = 9;

/** Records (spread over the workload's distinct traces) fed to each
 *  standalone replay, and the timed floor per replay. */
constexpr std::size_t kReplayRecords = 1u << 20;
constexpr double kReplayMinSeconds = 0.25;

struct WorkloadDef
{
    std::string name;
    double scale;
    unsigned cores;
    /** One entry per cell row: a trace, or a mix (one trace per core). */
    std::vector<std::vector<std::string>> traceSets;
    std::vector<std::string> prefetchers;
    /** Validity floor on each trace's single-core LLC MPKI under "none"
     *  at this scale (LLC demand misses per thousand retired
     *  instructions, warmup included). The lowest value measured here is
     *  gap_pr at 0.25, about 10.5; an LLC-resident trace reads near 0.
     *  WORKLOADS.md records the measured values. */
    double mpkiFloor;
};

const std::vector<WorkloadDef>&
workloadDefs()
{
    static const std::vector<WorkloadDef> defs = {
        {"temporal_1c", 1.0, 1,
         {{"spec06_mcf"}, {"spec06_xalancbmk"}},
         {"none", "streamline", "triage", "triangel"}, 5.0},
        {"storm_1c", 0.5, 1,
         {{"gap_pr"}, {"gap_sssp"}},
         {"none", "triage"}, 5.0},
        {"mix_4c", 0.25, 4,
         {{"spec06_mcf", "spec06_xalancbmk", "spec06_soplex", "gap_pr"}},
         {"none", "streamline", "triangel"}, 5.0},
    };
    return defs;
}

struct Cell
{
    std::vector<std::string> traces;
    std::string l2;

    std::string
    label() const
    {
        std::string s;
        for (const auto& t : traces)
            s += (s.empty() ? "" : ",") + t;
        return s + "/" + l2;
    }
};

/** Layer whose metrics an L2 prefetcher's listener span belongs to:
 *  Streamline lives in core/, Triage and Triangel in temporal/. */
std::string
l2Layer(const std::string& l2)
{
    if (l2 == "streamline")
        return "core";
    if (l2 == "triage" || l2 == "triangel")
        return "temporal";
    return "";
}

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den == 0 ? 0 : num / den;
}

/** FNV-1a over the run's observable outputs. */
class Digest
{
  public:
    void
    add(std::string_view s)
    {
        for (unsigned char ch : s)
            byte(ch);
        byte(0);
    }

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<unsigned char>(v >> (8 * i)));
    }

    void
    add(double d)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof bits);
        add(bits);
    }

    void
    add(const StatGroup& g)
    {
        add(std::string_view(g.name()));
        for (const auto& [k, v] : g.counters()) {
            add(std::string_view(k));
            add(v.value());
        }
    }

    std::uint64_t value() const { return h_; }

  private:
    void
    byte(unsigned char b)
    {
        h_ = (h_ ^ b) * 0x100000001b3ULL;
    }

    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/**
 * Forwarding listener that times and counts each onAccess of the
 * prefetcher it wraps. Installed with Cache::setListener in the traced
 * pass only; it changes no simulated state.
 */
class TimedListener : public CacheListener
{
  public:
    TimedListener(CacheListener& inner, std::string layer)
        : inner_(inner), layer_(std::move(layer))
    {
    }

    void
    onAccess(const AccessInfo& info) override
    {
        const auto t0 = Clock::now();
        inner_.onAccess(info);
        busy_ += Clock::now() - t0;
        ++calls_;
    }

    const std::string& layer() const { return layer_; }
    std::uint64_t calls() const { return calls_; }

    double
    seconds() const
    {
        return std::chrono::duration<double>(busy_).count();
    }

  private:
    CacheListener& inner_;
    std::string layer_;
    Clock::duration busy_{};
    std::uint64_t calls_ = 0;
};

using Counters = std::map<std::string, double>;

/** One setup + run of one cell. */
struct CellRun
{
    bool ok = false;
    std::string error;
    std::vector<double> setupS; //!< per setup rep: getTrace + System()
    double genS = 0;            //!< last rep's getTrace share
    double buildS = 0;          //!< last rep's System() share
    double runS = 0;
    std::uint64_t records = 0;
    std::uint64_t digest = 0;
    std::uint64_t retired = 0;
    double llcMpki = 0; //!< single-core cells only
    Counters counters;  //!< per-layer sums (see collect)
};

/** Every requested access of @p c: demand, prefetch, and writebacks
 *  from above. */
double
accesses(const StatGroup& c)
{
    return static_cast<double>(c.get("demand_accesses") +
                               c.get("prefetch_requests") +
                               c.get("writeback_in"));
}

/** Digest every public StatGroup plus per-core IPC/coverage/accuracy,
 *  and sum the counters the per-layer metrics are built from. */
void
collect(System& sys, const std::string& l2, CellRun& out)
{
    Digest d;
    const unsigned n = sys.cores();
    for (unsigned c = 0; c < n; ++c)
        d.add(sys.core(c).stats());
    for (unsigned c = 0; c < n; ++c)
        d.add(sys.l1d(c).stats());
    for (unsigned c = 0; c < n; ++c)
        d.add(sys.l2(c).stats());
    d.add(sys.llc().stats());
    d.add(sys.dram().stats());
    if (MemPressure* mp = sys.memPressure())
        d.add(mp->stats());
    for (unsigned c = 0; c < n; ++c) {
        if (Prefetcher* pf = sys.l1dPrefetcher(c))
            d.add(pf->stats());
        if (Prefetcher* pf = sys.l2Prefetcher(c)) {
            d.add(pf->stats());
            if (const StatGroup* store = pf->metadataStoreStats())
                d.add(*store);
        }
    }
    for (unsigned c = 0; c < n; ++c) {
        const StatGroup& s = sys.l2(c).stats();
        const double useful = static_cast<double>(s.get("prefetch_useful"));
        const double misses = static_cast<double>(s.get("demand_misses"));
        const double issued = static_cast<double>(s.get("prefetch_issued"));
        d.add(sys.core(c).ipc());
        d.add(ratio(useful, useful + misses)); // coverage
        d.add(ratio(useful, issued));          // accuracy
    }
    out.retired = sys.totalRetired();
    d.add(out.retired);
    d.add(static_cast<std::uint64_t>(sys.eventQueue().now()));
    out.digest = d.value();

    Counters& k = out.counters;
    k["cpu.retired"] += static_cast<double>(out.retired);
    k["cpu.sim_cycles"] += static_cast<double>(sys.eventQueue().now());
    for (unsigned c = 0; c < n; ++c) {
        const StatGroup& l1 = sys.l1d(c).stats();
        const StatGroup& l2s = sys.l2(c).stats();
        k["cache.l1d.accesses"] += accesses(l1);
        k["cache.l1d.retries"] += static_cast<double>(l1.get("mshr_retries"));
        k["cache.l2.accesses"] += accesses(l2s);
        k["cache.l2.retries"] += static_cast<double>(l2s.get("mshr_retries"));
        k["cache.pf_dropped_pressure"] +=
            static_cast<double>(l1.get("prefetch_dropped_pressure") +
                                l2s.get("prefetch_dropped_pressure"));
        if (Prefetcher* pf = sys.l2Prefetcher(c)) {
            const std::string layer = l2Layer(l2);
            if (!layer.empty())
                k[layer + ".metadata_ops"] +=
                    static_cast<double>(pf->metadataOps());
            if (layer == "core")
                k["core.stored_correlations"] +=
                    static_cast<double>(pf->storedCorrelations());
        }
    }
    const StatGroup& llc = sys.llc().stats();
    k["cache.llc.accesses"] += accesses(llc);
    k["cache.llc.metadata_accesses"] += static_cast<double>(
        llc.get("metadata_reads") + llc.get("metadata_writes"));
    k["cache.llc.quota_stalls"] +=
        static_cast<double>(llc.get("mshr_quota_stalls"));

    const StatGroup& dram = sys.dram().stats();
    k["dram.reads"] += static_cast<double>(dram.get("reads"));
    k["dram.writes"] += static_cast<double>(dram.get("writes"));
    k["dram.row_hits"] += static_cast<double>(dram.get("row_hits"));
    k["dram.row_accesses"] += static_cast<double>(
        dram.get("row_hits") + dram.get("row_misses") +
        dram.get("row_conflicts"));
    k["dram.read_q_wait_cycles"] +=
        static_cast<double>(dram.get("read_q_wait_cycles"));
    // The FR-FCFS scheduler bills one block to its requestor per pick;
    // the counters exist only when it is on (more than one core).
    for (unsigned c = 0; c < n; ++c)
        k["dram.sched_picks"] += static_cast<double>(
            dram.get("core" + std::to_string(c) + "_bytes") / kBlockBytes);

    if (n == 1)
        out.llcMpki = 1000.0 * ratio(static_cast<double>(
                                         llc.get("demand_misses")),
                                     static_cast<double>(out.retired));
}

RunConfig
configFor(unsigned cores, double scale, const std::string& l2,
          std::uint64_t seed)
{
    RunConfig cfg;
    cfg.cores = cores;
    cfg.l2 = l2;
    cfg.traceScale = scale;
    cfg.seed = seed;
    return cfg;
}

/**
 * Set up @p cell @p setup_reps times (regenerating every trace each
 * time), then run the last System. With @p traced, every L1D/L2
 * prefetcher is wrapped in a TimedListener first. A SimError (or any
 * other exception) fails the cell without ending the benchmark.
 */
CellRun
runCell(const RunConfig& cfg, const Cell& cell, unsigned setup_reps,
        bool traced)
{
    CellRun out;
    try {
        cfg.validate();
        // cfg outlives the System: the factories point into it.
        const SystemConfig sc = systemConfigFor(cfg);
        // Declared before sys so the caches never hold a dangling
        // listener while the System is torn down.
        std::vector<std::unique_ptr<TimedListener>> listeners;
        std::unique_ptr<System> sys;
        for (unsigned rep = 0; rep < setup_reps; ++rep) {
            sys.reset();
            clearTraceCache();
            const auto t0 = Clock::now();
            std::vector<TracePtr> traces;
            for (const auto& t : cell.traces)
                traces.push_back(getTrace(t, cfg.traceScale, cfg.seed));
            const auto t1 = Clock::now();
            sys = std::make_unique<System>(sc, traces);
            const auto t2 = Clock::now();
            out.genS = std::chrono::duration<double>(t1 - t0).count();
            out.buildS = std::chrono::duration<double>(t2 - t1).count();
            out.setupS.push_back(out.genS + out.buildS);
            out.records = 0;
            for (const auto& t : traces)
                out.records += t->records.size();
        }
        clearTraceCache();

        if (traced) {
            const std::string l2_layer = l2Layer(cell.l2);
            for (unsigned c = 0; c < sys->cores(); ++c) {
                if (Prefetcher* pf = sys->l1dPrefetcher(c)) {
                    listeners.push_back(
                        std::make_unique<TimedListener>(*pf, "prefetch"));
                    sys->l1d(c).setListener(listeners.back().get());
                }
                if (Prefetcher* pf = sys->l2Prefetcher(c)) {
                    listeners.push_back(
                        std::make_unique<TimedListener>(*pf, l2_layer));
                    sys->l2(c).setListener(listeners.back().get());
                }
            }
        }

        const auto t0 = Clock::now();
        sys->run();
        out.runS = since(t0);

        collect(*sys, cell.l2, out);
        for (const auto& l : listeners) {
            out.counters[l->layer() + ".on_access_calls"] +=
                static_cast<double>(l->calls());
            out.counters[l->layer() + ".on_access_s"] += l->seconds();
        }
        out.ok = true;
    } catch (const SimError& e) {
        out.error = "SimError [" + e.component() + "] " + e.what();
    } catch (const std::exception& e) {
        out.error = e.what();
    }
    return out;
}

/** Up to kReplayRecords records, an equal share from the start of each
 *  distinct trace of @p def, regenerated for @p seed. */
std::vector<TraceRecord>
replaySample(const WorkloadDef& def, std::uint64_t seed)
{
    std::set<std::string> names;
    for (const auto& set : def.traceSets)
        names.insert(set.begin(), set.end());
    const std::size_t share = kReplayRecords / names.size();
    std::vector<TraceRecord> recs;
    for (const auto& name : names) {
        const TracePtr t = getTrace(name, def.scale, seed);
        const std::size_t n = std::min(share, t->records.size());
        recs.insert(recs.end(), t->records.begin(), t->records.begin() + n);
    }
    clearTraceCache();
    return recs;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 0;
    std::ostringstream os;
    os << std::setprecision(17) << v;
    return os.str();
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

int
usage(const std::string& why)
{
    std::cerr << "sl_perfbench: " << why << "\n"
              << "usage: sl_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1\nworkloads:";
    for (const auto& d : workloadDefs())
        std::cerr << " " << d.name;
    std::cerr << "\n";
    return 2;
}

bool
parseArgs(int argc, char** argv, Args& a, std::string& err)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            err = "missing value for " + flag;
            return false;
        }
        const std::string v = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (end != v.c_str() + v.size() || !(a.seconds > 0) ||
                a.seconds > 600) {
                err = "--seconds must be in (0, 600]";
                return false;
            }
        } else if (flag == "--trace") {
            if (v != "0" && v != "1") {
                err = "--trace must be 0 or 1";
                return false;
            }
            a.trace = v == "1";
        } else {
            err = "unknown flag " + flag;
            return false;
        }
        if (end && end != v.c_str() + v.size()) {
            err = "bad number for " + flag + ": " + v;
            return false;
        }
    }
    if (a.workload.empty()) {
        err = "--workload is required";
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char** argv)
{
    Args args;
    std::string err;
    if (!parseArgs(argc, argv, args, err))
        return usage(err);
    const WorkloadDef* def = nullptr;
    for (const auto& d : workloadDefs())
        if (d.name == args.workload)
            def = &d;
    if (!def)
        return usage("unknown workload " + args.workload);

    std::vector<Cell> cells;
    for (const auto& set : def->traceSets)
        for (const auto& pf : def->prefetchers)
            cells.push_back(Cell{set, pf});

    std::cout << "perfbench workload=" << def->name
              << " trace_seed=" << args.seed << " scale=" << def->scale
              << " cores=" << def->cores << " cells=" << cells.size()
              << " seconds=" << args.seconds << " trace=" << args.trace
              << "\n";

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    auto fail = [&](const std::string& what) {
        ++failed;
        std::cout << "FAIL " << what << "\n";
    };

    // ---- untraced phase: cells round-robin until --seconds have elapsed
    // and every cell has run at least once ----
    std::vector<CellRun> first(cells.size());
    std::vector<std::vector<double>> setupSamples(cells.size());
    std::vector<std::vector<double>> runSamples(cells.size());
    const auto phase0 = Clock::now();
    std::size_t runs = 0;
    while (runs < cells.size() || since(phase0) < args.seconds) {
        const std::size_t i = runs++ % cells.size();
        const RunConfig cfg = configFor(def->cores, def->scale, cells[i].l2,
                                        args.seed);
        CellRun r = runCell(cfg, cells[i], kSetupReps, false);
        ++attempted;
        if (!r.ok) {
            fail(cells[i].label() + ": " + r.error);
            continue;
        }
        if (!first[i].ok)
            first[i] = r;
        else if (r.digest != first[i].digest)
            fail(cells[i].label() + ": digest changed between identical "
                 "runs");
        setupSamples[i].insert(setupSamples[i].end(), r.setupS.begin(),
                               r.setupS.end());
        runSamples[i].push_back(r.runS);
        std::cout << "cell " << cells[i].label()
                  << " pass=" << (runs - 1) / cells.size()
                  << " setup_s=" << median(r.setupS) << " run_s=" << r.runS
                  << " retired=" << r.retired << " digest=" << std::hex
                  << r.digest << std::dec << "\n";
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double peakRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;

    double runS = 0;
    double setupS = 0;
    double retired = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        runS += median(runSamples[i]);
        setupS += median(setupSamples[i]);
        retired += static_cast<double>(first[i].retired);
    }

    // ---- validity gate: every trace stays memory-bound at this scale ----
    std::map<std::string, double> mpki;
    if (def->cores == 1)
        for (std::size_t i = 0; i < cells.size(); ++i)
            if (cells[i].l2 == "none" && first[i].ok)
                mpki[cells[i].traces[0]] = first[i].llcMpki;
    for (const auto& set : def->traceSets) {
        for (const auto& t : set) {
            if (mpki.count(t))
                continue;
            ++attempted;
            const CellRun g = runCell(configFor(1, def->scale, "none",
                                                args.seed),
                                      Cell{{t}, "none"}, 1, false);
            if (!g.ok) {
                fail("gate " + t + ": " + g.error);
                mpki[t] = 0;
            } else {
                mpki[t] = g.llcMpki;
            }
        }
    }
    bool valid = true;
    for (const auto& [t, m] : mpki) {
        const bool ok = m >= def->mpkiFloor;
        valid = valid && ok;
        std::cout << "gate " << t << " llc_mpki=" << m
                  << " floor=" << def->mpkiFloor
                  << (ok ? " ok" : " BELOW: not memory-bound at this scale")
                  << "\n";
    }

    std::vector<Metric> metrics;
    if (!args.trace) {
        metrics = {
            {"run_s", runS, "s"},
            {"setup_s", setupS, "s"},
            {"sim_mips", retired / 1e6 / runS, "Minstr/s"},
            {"peak_rss_mb", peakRssMb, "MB"},
            {"cell_ok_rate",
             static_cast<double>(attempted - failed) /
                 static_cast<double>(attempted),
             "ratio"},
        };
    } else {
        // ---- traced pass ----
        Counters k;
        double tracedRunS = 0;
        double genS = 0;
        double buildS = 0;
        double records = 0;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const RunConfig cfg = configFor(def->cores, def->scale,
                                            cells[i].l2, args.seed);
            const CellRun r = runCell(cfg, cells[i], 1, true);
            ++attempted;
            if (!r.ok) {
                fail(cells[i].label() + " (traced): " + r.error);
                continue;
            }
            if (first[i].ok && r.digest != first[i].digest)
                fail(cells[i].label() + ": traced digest differs from "
                     "untraced");
            for (const auto& [key, v] : r.counters)
                k[key] += v;
            tracedRunS += r.runS;
            genS += r.genS;
            buildS += r.buildS;
            records += static_cast<double>(r.records);
            std::cout << "traced " << cells[i].label()
                      << " run_s=" << r.runS << " digest=" << std::hex
                      << r.digest << std::dec << "\n";
        }

        double listenerS = 0;
        for (const char* layer : {"prefetch", "core", "temporal"}) {
            const std::string l = layer;
            listenerS += k[l + ".on_access_s"];
            k[l + ".on_access_ns"] = 1e9 * ratio(k[l + ".on_access_s"],
                                                 k[l + ".on_access_calls"]);
        }

        const std::vector<TraceRecord> sample =
            replaySample(*def, args.seed);
        const auto ev = perfbench::replayEventQueue(sample,
                                                    kReplayMinSeconds);
        const auto ca = perfbench::replayCache(sample, kReplayMinSeconds);
        const auto dr = perfbench::replayDram(sample, kReplayMinSeconds);
        const auto ss = perfbench::replayStreamStore(sample,
                                                     kReplayMinSeconds);
        const auto ps = perfbench::replayPairwiseStore(sample,
                                                       kReplayMinSeconds);

        metrics = {
            {"trace.gen_s", genS, "s"},
            {"trace.records", records, "count"},
            {"sim.build_s", buildS, "s"},
            {"sim.run_s", tracedRunS, "s"},
            {"sim.rest_s", tracedRunS - listenerS, "s"},
            {"sim.trace_overhead_pct", 100.0 * (tracedRunS - runS) / runS,
             "%"},
        };
        for (const char* layer : {"prefetch", "core", "temporal"}) {
            const std::string l = layer;
            metrics.push_back({l + ".on_access_calls",
                               k[l + ".on_access_calls"], "count"});
            metrics.push_back({l + ".on_access_s", k[l + ".on_access_s"],
                               "s"});
            metrics.push_back({l + ".on_access_ns", k[l + ".on_access_ns"],
                               "ns"});
            if (l != "prefetch")
                metrics.push_back({l + ".metadata_ops",
                                   k[l + ".metadata_ops"], "count"});
        }
        const std::vector<Metric> rest = {
            {"core.stored_correlations", k["core.stored_correlations"],
             "count"},
            {"cache.l1d.accesses", k["cache.l1d.accesses"], "count"},
            {"cache.l1d.retries", k["cache.l1d.retries"], "count"},
            {"cache.l1d.retries_per_access",
             ratio(k["cache.l1d.retries"], k["cache.l1d.accesses"]),
             "ratio"},
            {"cache.l2.retries_per_access",
             ratio(k["cache.l2.retries"], k["cache.l2.accesses"]),
             "ratio"},
            {"cache.llc.accesses", k["cache.llc.accesses"], "count"},
            {"cache.llc.metadata_accesses",
             k["cache.llc.metadata_accesses"], "count"},
            {"cache.llc.quota_stalls", k["cache.llc.quota_stalls"],
             "count"},
            {"cache.pf_dropped_pressure", k["cache.pf_dropped_pressure"],
             "count"},
            {"dram.reads", k["dram.reads"], "count"},
            {"dram.writes", k["dram.writes"], "count"},
            {"dram.row_hit_rate",
             ratio(k["dram.row_hits"], k["dram.row_accesses"]), "ratio"},
            {"dram.sched_picks", k["dram.sched_picks"], "count"},
            {"dram.read_q_wait_per_read",
             ratio(k["dram.read_q_wait_cycles"], k["dram.reads"]),
             "cycles"},
            {"cpu.retired", k["cpu.retired"], "count"},
            {"cpu.sim_cycles", k["cpu.sim_cycles"], "cycles"},
            {"cpu.ipc", ratio(k["cpu.retired"], k["cpu.sim_cycles"]),
             "instr/cycle"},
            {"event.replay_ns_per_event", ev.nsPerOp, "ns"},
            {"cache.replay_ns_per_access", ca.nsPerOp, "ns"},
            {"dram.replay_ns_per_access", dr.nsPerOp, "ns"},
            {"core.store_ns_per_op", ss.nsPerOp, "ns"},
            {"temporal.store_ns_per_op", ps.nsPerOp, "ns"},
        };
        metrics.insert(metrics.end(), rest.begin(), rest.end());
    }

    const bool correct = failed == 0 && valid;
    std::cout << "summary workload=" << def->name
              << " trace_seed=" << args.seed << " untraced_runs=" << runs
              << " attempted=" << attempted << " failed=" << failed
              << " cell_fail_rate="
              << static_cast<double>(failed) /
                     static_cast<double>(attempted)
              << " correct=" << (correct ? "yes" : "no") << "\n";
    for (const auto& m : metrics)
        std::cout << "metric " << m.name << " = " << jsonNumber(m.value)
                  << " " << m.unit << "\n";

    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::cout << (i ? ", " : "") << "\"" << metrics[i].name
                  << "\": {\"value\": " << jsonNumber(metrics[i].value)
                  << ", \"unit\": \"" << metrics[i].unit << "\"}";
    std::cout << "}}" << std::endl;
    return 0;
}
