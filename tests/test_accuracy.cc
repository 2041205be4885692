/**
 * @file
 * Tests for the suite-wide accuracy-validation harness: grid presets,
 * internal-consistency checkers, the end-to-end run, JSON serialization
 * and the golden-baseline regression gate.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "util/status.hh"
#include "validate/accuracy.hh"

namespace mipp {
namespace {

TEST(AccuracyGrid, PresetsHaveExpectedShapes)
{
    EXPECT_EQ(accuracyGrid("ci").size(), 2u);
    EXPECT_GE(accuracyGrid("default").size(), 5u);
    EXPECT_EQ(accuracyGrid("wide").size(), 27u);
    EXPECT_THROW(accuracyGrid("nope"), StatusError);
}

TEST(AccuracyGrid, DefaultGridIncludesPrefetcherPoint)
{
    bool pf = false;
    for (const auto &c : accuracyGrid("default"))
        pf |= c.prefetcherEnabled;
    EXPECT_TRUE(pf);
}

TEST(SimConsistency, CleanResultPasses)
{
    SimResult sim; // all zero: every invariant trivially holds
    EXPECT_TRUE(checkSimConsistency(sim, 0.01).empty());
}

TEST(SimConsistency, CatchesStackCyclesMismatch)
{
    SimResult sim;
    sim.cycles = 1000;
    sim.activity.cycles = 1000;
    sim.stack.base = 600; // 40% of the cycles unattributed
    auto v = checkSimConsistency(sim, 0.01);
    ASSERT_FALSE(v.empty());
    EXPECT_NE(v[0].find("CpiStack"), std::string::npos);
}

TEST(SimConsistency, CatchesBrokenAccessChaining)
{
    SimResult sim;
    sim.mem.l1d.loadAccesses = 10;
    sim.mem.l1d.loadMisses = 4;
    sim.mem.l2.loadAccesses = 3; // must equal the 4 L1 misses
    sim.activity.l1dAccesses = 10;
    sim.activity.l2Accesses = 3;
    auto v = checkSimConsistency(sim, 0.01);
    bool found = false;
    for (const auto &s : v)
        found |= s.find("L2 accesses") != std::string::npos;
    EXPECT_TRUE(found);
}

TEST(SimConsistency, CatchesUnaccountedPrefetchTraffic)
{
    // The exact shape of the pre-fix bug: an issued prefetch whose DRAM
    // fetch never showed up in dramAccesses.
    SimResult sim;
    sim.mem.prefetchesIssued = 5;
    sim.mem.dramAccesses = 0;
    auto v = checkSimConsistency(sim, 0.01);
    bool found = false;
    for (const auto &s : v)
        found |= s.find("DRAM accesses") != std::string::npos;
    EXPECT_TRUE(found);
}

TEST(ModelConsistency, CatchesStackMismatchAndNonMonotonicMisses)
{
    ModelResult m;
    m.cycles = 100;
    m.stack.base = 50;
    m.loadMissesL1 = 1;
    m.loadMissesL2 = 2; // more misses at the larger cache: impossible
    auto v = checkModelConsistency(m, 0.01);
    bool stack = false, mono = false;
    for (const auto &s : v) {
        stack |= s.find("CpiStack") != std::string::npos;
        mono |= s.find("non-monotonic") != std::string::npos;
    }
    EXPECT_TRUE(stack);
    EXPECT_TRUE(mono);
}

class AccuracyRun : public ::testing::Test
{
  protected:
    static const AccuracyReport &
    report()
    {
        // One shared small run: 3 contrasting workloads, the CI grid.
        static AccuracyReport rep = [] {
            AccuracyOptions opts;
            opts.grid = accuracyGrid("ci");
            opts.uops = 20000;
            opts.includePhased = false;
            opts.workloads = {"loopy_small", "stream_add", "branchy"};
            return runAccuracy(opts);
        }();
        return rep;
    }
};

TEST_F(AccuracyRun, BothSidesInternallyConsistent)
{
    const AccuracyReport &rep = report();
    EXPECT_TRUE(rep.consistent()) << rep.violations.size()
                                  << " violations, first: "
                                  << rep.violations.front();
}

TEST_F(AccuracyRun, CoversEveryWorkloadConfigPair)
{
    const AccuracyReport &rep = report();
    EXPECT_EQ(rep.workloadNames.size(), 3u);
    EXPECT_EQ(rep.gridNames.size(), 2u);
    ASSERT_EQ(rep.points.size(), 6u);
    for (const auto &p : rep.points) {
        EXPECT_GT(p.simCpi, 0) << p.workload;
        EXPECT_GT(p.modelCpi, 0) << p.workload;
        EXPECT_GT(p.simWatts, 0) << p.workload;
        EXPECT_GT(p.modelWatts, 0) << p.workload;
        for (double e : p.err)
            EXPECT_TRUE(std::isfinite(e)) << p.workload;
        // Stacks are per-uop: they must rebuild each side's CPI.
        EXPECT_NEAR(p.simStack.total(), p.simCpi, 0.01 * p.simCpi);
        EXPECT_NEAR(p.modelStack.total(), p.modelCpi,
                    0.01 * std::max(p.modelCpi, 1e-9));
    }
}

TEST_F(AccuracyRun, SummariesAggregateThePoints)
{
    const AccuracyReport &rep = report();
    const MetricSummary &cpi = rep.of(AccuracyMetric::Cpi);
    EXPECT_GE(cpi.mape, 0);
    EXPECT_GE(cpi.maxAbs, cpi.mape);
    EXPECT_LE(std::abs(cpi.meanSigned), cpi.mape + 1e-9);
    double sum = 0;
    for (const auto &p : rep.points)
        sum += std::abs(p.err[static_cast<size_t>(AccuracyMetric::Cpi)]);
    EXPECT_NEAR(cpi.mape, sum / rep.points.size(), 1e-9);
}

TEST_F(AccuracyRun, PhasedWorkloadsRunThroughTheHarness)
{
    AccuracyOptions opts;
    opts.grid = {CoreConfig::nehalemReference()};
    opts.uops = 8000;
    opts.workloads = {"phase_branch_shift"};
    AccuracyReport rep = runAccuracy(opts);
    ASSERT_EQ(rep.points.size(), 1u);
    EXPECT_EQ(rep.points[0].workload, "phase_branch_shift");
    EXPECT_TRUE(rep.consistent()) << rep.violations.front();
}

TEST_F(AccuracyRun, JsonRoundTripsSummaryMapes)
{
    const AccuracyReport &rep = report();
    std::string path = ::testing::TempDir() + "mipp_accuracy_test.json";
    ASSERT_TRUE(writeAccuracyJson(rep, path));

    auto mapes = loadBaselineMapes(path);
    ASSERT_EQ(mapes.size(), kNumAccuracyMetrics);
    for (size_t k = 0; k < kNumAccuracyMetrics; ++k) {
        auto m = static_cast<AccuracyMetric>(k);
        std::string name(accuracyMetricName(m));
        ASSERT_TRUE(mapes.count(name)) << name;
        EXPECT_NEAR(mapes[name], rep.of(m).mape,
                    1e-6 * std::max(1.0, rep.of(m).mape))
            << name;
    }
    std::remove(path.c_str());
}

TEST_F(AccuracyRun, BaselineGatePassesAgainstItselfAndCatchesRegression)
{
    const AccuracyReport &rep = report();
    std::string path = ::testing::TempDir() + "mipp_accuracy_golden.json";
    ASSERT_TRUE(writeAccuracyJson(rep, path));

    // Same report vs its own golden: no regression at any margin.
    EXPECT_TRUE(compareToBaseline(rep, path, 0.5).empty());

    // A golden claiming near-zero error everywhere: the fresh report
    // must trip the gate on at least the CPI metric.
    std::ofstream tight(path);
    tight << "{\"summary\": {\"cpi\": {\"mape\": 0.0}},"
          << " \"violations\": []}";
    tight.close();
    auto regressions = compareToBaseline(rep, path, 0.5);
    ASSERT_FALSE(regressions.empty());
    EXPECT_NE(regressions[0].find("cpi"), std::string::npos);
    std::remove(path.c_str());
}

TEST_F(AccuracyRun, SelfGateAtZeroMarginPasses)
{
    // The golden MAPEs are rounded to the writer's digits; the fresh
    // ones must be compared rounded the same way, or every MAPE the
    // writer rounded down reads as a regression at margin 0.
    const AccuracyReport &rep = report();
    std::string path = ::testing::TempDir() + "mipp_accuracy_self.json";
    ASSERT_TRUE(writeAccuracyJson(rep, path));
    std::vector<std::string> regressions = compareToBaseline(rep, path, 0);
    EXPECT_TRUE(regressions.empty())
        << regressions.size() << " regressions, first: "
        << (regressions.empty() ? "" : regressions[0]);
    std::remove(path.c_str());
}

TEST(AccuracyFilter, UnmatchedWorkloadNameThrows)
{
    AccuracyOptions opts;
    opts.grid = accuracyGrid("ci");
    opts.uops = 2000;
    opts.workloads = {"stream_ad"}; // typo: must not yield an empty run
    EXPECT_THROW(runAccuracy(opts), StatusError);

    // A phased name with phased workloads excluded matches nothing.
    AccuracyOptions noPhased;
    noPhased.grid = accuracyGrid("ci");
    noPhased.uops = 2000;
    noPhased.includePhased = false;
    noPhased.workloads = {"phase_branch_shift"};
    EXPECT_THROW(runAccuracy(noPhased), StatusError);
}

TEST_F(AccuracyRun, BaselineGateRejectsMismatchedWorkloadSet)
{
    const AccuracyReport &rep = report();
    AccuracyReport other = rep;
    other.workloadNames.pop_back(); // golden covers fewer workloads
    std::string path = ::testing::TempDir() + "mipp_accuracy_wl.json";
    ASSERT_TRUE(writeAccuracyJson(other, path));
    auto fails = compareToBaseline(rep, path, 100.0);
    ASSERT_FALSE(fails.empty());
    EXPECT_NE(fails[0].find("workload set"), std::string::npos);
    std::remove(path.c_str());
}

TEST_F(AccuracyRun, BaselineGateRejectsMismatchedProvenance)
{
    const AccuracyReport &rep = report();
    AccuracyReport other = rep;
    other.uops = rep.uops * 2; // golden recorded at a different length
    std::string path = ::testing::TempDir() + "mipp_accuracy_prov.json";
    ASSERT_TRUE(writeAccuracyJson(other, path));
    auto fails = compareToBaseline(rep, path, 100.0);
    ASSERT_FALSE(fails.empty());
    EXPECT_NE(fails[0].find("uops"), std::string::npos);
    std::remove(path.c_str());
}

TEST(AccuracyBaseline, MissingFileThrows)
{
    EXPECT_THROW(loadBaselineMapes("/nonexistent/file.json"),
                 std::runtime_error);
}

TEST_F(AccuracyRun, EveryWritableNameSurvivesASelfGate)
{
    // Workload names come from any recorded trace's basename; whatever
    // the writer accepts, the gate must read back unchanged.
    const char *names[] = {"x[1]", "a\"b", "back\\slash", "tab\there",
                           "{\"nested\": [1]}", "uni\u00e9"};
    std::string path = ::testing::TempDir() + "mipp_accuracy_names.json";
    for (const char *name : names) {
        AccuracyReport r = report();
        r.workloadNames[1] = name;
        r.gridNames[0] = name;
        r.violations = {std::string(name) + "/" + name + ": sim: x"};
        ASSERT_TRUE(writeAccuracyJson(r, path));
        EXPECT_TRUE(compareToBaseline(r, path).empty()) << name;
        EXPECT_EQ(loadBaselineMapes(path).size(), kNumAccuracyMetrics)
            << name;
    }
    std::remove(path.c_str());
}

TEST_F(AccuracyRun, MalformedBaselineThrowsInsteadOfHalfReading)
{
    const std::string full = accuracyJson(report());
    std::vector<std::string> bad = {
        full.substr(0, full.size() / 4),
        full.substr(0, full.size() / 2),
        full.substr(0, full.size() - 3),
        "\"summary\" \"cpi\" \"mape\": 3 \"violations\"",
        "{\"summary\": {\"cpi\": {\"mape\": 0.5}}} trailing",
    };
    std::string path = ::testing::TempDir() + "mipp_accuracy_bad.json";
    for (const std::string &text : bad) {
        std::ofstream(path) << text;
        EXPECT_THROW(loadBaselineMapes(path), std::runtime_error)
            << text.size();
        EXPECT_THROW(compareToBaseline(report(), path), std::runtime_error)
            << text.size();
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace mipp
