/**
 * @file
 * Registry and batch-runner tests: every registered prefetcher
 * constructs by name and round-trips it, unknown names fail loudly,
 * parallel batches are bit-identical to serial execution, and a failing
 * job reports its SimError without killing siblings.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.hh"
#include "prefetch/registry.hh"
#include "sim/batch.hh"
#include "sim/runner.hh"
#include "trace/workloads.hh"

namespace sl
{
namespace
{

constexpr double kTinyScale = 0.05;

// ---------- registry ----------

TEST(Registry, EveryL2NameConstructsAndRoundTrips)
{
    PrefetcherRegistry& reg = prefetcherRegistry();
    const auto names = reg.names(PrefetcherRegistry::L2);

    // The paper's full roster must be present.
    for (const char* expected :
         {"none", "stride", "berti", "ipcp", "bingo", "spp_ppf",
          "streamline", "triage", "triage_ideal", "triangel",
          "triangel_ideal"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), expected),
                  names.end())
            << expected << " missing from the L2 registry";
    }

    for (const auto& name : names) {
        PrefetcherFactory factory =
            reg.make(name, PrefetcherRegistry::L2, PrefetcherTuning{});
        if (name == "none") {
            EXPECT_FALSE(static_cast<bool>(factory));
            continue;
        }
        ASSERT_TRUE(static_cast<bool>(factory)) << name;
        auto pf = factory(0);
        ASSERT_NE(pf, nullptr) << name;
        EXPECT_EQ(pf->name(), name);
    }
}

TEST(Registry, EveryL1NameConstructsAndRoundTrips)
{
    PrefetcherRegistry& reg = prefetcherRegistry();
    for (const auto& name : reg.names(PrefetcherRegistry::L1)) {
        PrefetcherFactory factory =
            reg.make(name, PrefetcherRegistry::L1, PrefetcherTuning{});
        if (name == "none")
            continue;
        auto pf = factory(0);
        ASSERT_NE(pf, nullptr) << name;
        EXPECT_EQ(pf->name(), name);
    }
}

TEST(Registry, IdealVariantsApplyConfigOverrides)
{
    // "triage_ideal" / "triangel_ideal" are the override hooks: the same
    // class with the ideal knob forced on, visible via the stat name.
    PrefetcherRegistry& reg = prefetcherRegistry();
    TriageConfig triage; // unlimited = false
    TriangelConfig triangel; // ideal = false
    PrefetcherTuning t;
    t.triage = &triage;
    t.triangel = &triangel;

    EXPECT_EQ(reg.make("triage_ideal", PrefetcherRegistry::L2, t)(0)
                  ->name(),
              "triage_ideal");
    EXPECT_EQ(reg.make("triangel_ideal", PrefetcherRegistry::L2, t)(0)
                  ->name(),
              "triangel_ideal");
}

TEST(Registry, UnknownNameThrowsWithKnownNames)
{
    try {
        prefetcherRegistry().require("streamlime",
                                     PrefetcherRegistry::L2);
        FAIL() << "expected SimError";
    } catch (const SimError& e) {
        EXPECT_EQ(e.component(), "prefetcher_registry");
        // The message lists the valid names so typos are self-fixing.
        EXPECT_NE(std::string(e.what()).find("streamline"),
                  std::string::npos);
    }
}

TEST(Registry, LevelMismatchThrows)
{
    // Streamline is L2-only; asking for it at the L1D must fail.
    EXPECT_THROW(
        prefetcherRegistry().require("streamline",
                                     PrefetcherRegistry::L1),
        SimError);
    EXPECT_TRUE(
        prefetcherRegistry().has("berti", PrefetcherRegistry::L1));
}

TEST(Registry, RunConfigValidateRejectsUnknownNames)
{
    RunConfig cfg;
    cfg.l2 = "bogus";
    EXPECT_THROW(cfg.validate(), SimError);

    RunConfig ok;
    ok.l2 = "triangel";
    EXPECT_NO_THROW(ok.validate());
}

// ---------- hardening validation (rides on RunConfig::validate) ----------

TEST(Hardening, ValidateRejectsTinyWatchdogWindow)
{
    RunConfig cfg;
    cfg.hardening.watchdogWindow = 5'000; // below the 10K floor
    EXPECT_THROW(cfg.validate(), SimError);
    cfg.hardening.watchdogWindow = 0; // disabled is fine
    EXPECT_NO_THROW(cfg.validate());
    cfg.hardening.watchdogWindow = 50'000; // the test-suite recipe
    EXPECT_NO_THROW(cfg.validate());
}

// ---------- batch runner ----------

std::vector<ExperimentSpec>
smallBatch()
{
    RunConfig base;
    base.traceScale = kTinyScale;
    RunConfig tg = base;
    tg.l2 = "triangel";
    std::vector<ExperimentSpec> specs;
    specs.push_back({"base:bzip2", base, {"spec06_bzip2"}});
    specs.push_back({"base:mcf", base, {"spec06_mcf"}});
    specs.push_back({"tg:bzip2", tg, {"spec06_bzip2"}});
    specs.push_back({"tg:mcf", tg, {"spec06_mcf"}});
    return specs;
}

TEST(BatchRunner, ParallelBitIdenticalToSerial)
{
    clearTraceCache();
    const auto specs = smallBatch();

    // Serial reference through the plain runner API.
    std::vector<RunResult> serial;
    for (const auto& s : specs)
        serial.push_back(runWorkloads(s.config, s.workloads));

    const auto jobs = BatchRunner(2).run(specs);
    ASSERT_EQ(jobs.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        ASSERT_TRUE(jobs[i].ok) << specs[i].label;
        const RunResult& a = serial[i];
        const RunResult& b = jobs[i].result;
        ASSERT_EQ(a.cores.size(), b.cores.size());
        // Bit-identical, not approximately equal: scheduling must not
        // leak into the simulation.
        EXPECT_EQ(a.cores[0].ipc, b.cores[0].ipc) << specs[i].label;
        EXPECT_EQ(a.cores[0].l2DemandMisses, b.cores[0].l2DemandMisses);
        EXPECT_EQ(a.cores[0].l2PrefetchIssued,
                  b.cores[0].l2PrefetchIssued);
        EXPECT_EQ(a.dramBytes, b.dramBytes);
        EXPECT_EQ(a.metadataTraffic(), b.metadataTraffic());
        EXPECT_EQ(a.storedCorrelations, b.storedCorrelations);
        EXPECT_GT(jobs[i].wallSeconds, 0.0);
    }
}

TEST(BatchRunner, FailedJobReportsErrorWithoutKillingSiblings)
{
    clearTraceCache();
    RunConfig good;
    good.traceScale = kTinyScale;

    // Every miss request is lost, so the core wedges with nothing left
    // to wake it and the run loop reports the deadlock.
    RunConfig stuck = good;
    stuck.faults.loseRequestRate = 1.0;
    stuck.hardening.auditInterval = 0;

    std::vector<ExperimentSpec> specs;
    specs.push_back({"ok:0", good, {"spec06_bzip2"}});
    specs.push_back({"stuck", stuck, {"spec06_bzip2"}});
    specs.push_back({"ok:1", good, {"spec06_libquantum"}});

    const auto jobs = BatchRunner(2).run(specs);
    ASSERT_EQ(jobs.size(), 3u);

    EXPECT_TRUE(jobs[0].ok);
    EXPECT_TRUE(jobs[2].ok);

    ASSERT_FALSE(jobs[1].ok);
    ASSERT_TRUE(jobs[1].error.has_value());
    EXPECT_EQ(jobs[1].error->component(), "system");
    EXPECT_NE(jobs[1].error->detail().find("deadlock"), std::string::npos);
    // The repro bundle travels with the job instead of racing siblings
    // for the bundle file.
    EXPECT_NE(jobs[1].reproBundle.find("error.component = system"),
              std::string::npos);
    EXPECT_NE(jobs[1].reproBundle.find("deadlock"), std::string::npos);
    EXPECT_NE(jobs[1].reproBundle.find("lose_request_rate = 1"),
              std::string::npos);
}

TEST(BatchRunner, UnknownWorkloadBecomesFailedJobNotCrash)
{
    RunConfig cfg;
    cfg.traceScale = kTinyScale;
    std::vector<ExperimentSpec> specs;
    specs.push_back({"bad", cfg, {"no_such_workload"}});
    specs.push_back({"good", cfg, {"spec06_bzip2"}});

    const auto jobs = BatchRunner(2).run(specs);
    ASSERT_FALSE(jobs[0].ok);
    EXPECT_EQ(jobs[0].error->component(), "batch");
    EXPECT_TRUE(jobs[1].ok);
}

TEST(BatchRunner, ThreadsDefaultRespectsEnv)
{
    // Can't mutate the environment portably mid-test, so just pin the
    // invariants: >= 1 and an explicit constructor count wins.
    EXPECT_GE(defaultJobThreads(), 1u);
    EXPECT_EQ(BatchRunner(3).threads(), 3u);
}

// ---------- JSON emission ----------

TEST(BatchJson, EscapesAndParsesStructurally)
{
    EXPECT_EQ(jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");

    RunConfig cfg;
    cfg.traceScale = kTinyScale;
    std::vector<ExperimentSpec> specs;
    specs.push_back({"j:bzip2", cfg, {"spec06_bzip2"}});
    const auto jobs = BatchRunner(1).run(specs);
    const std::string doc =
        batchJson("test", specs, jobs, 1, jobs[0].wallSeconds);

    // Structural smoke checks (full parsing is scripts/check.sh's job).
    EXPECT_EQ(doc.front(), '{');
    EXPECT_EQ(doc.back(), '}');
    EXPECT_NE(doc.find("\"bench\":\"test\""), std::string::npos);
    EXPECT_NE(doc.find("\"label\":\"j:bzip2\""), std::string::npos);
    EXPECT_NE(doc.find("\"ipc\":"), std::string::npos);
    EXPECT_NE(doc.find("\"l2\":\"none\""), std::string::npos);
}

} // namespace
} // namespace sl
