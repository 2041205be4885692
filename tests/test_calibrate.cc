/**
 * @file
 * Recalibration-layer tests: golden values for the piecewise branch
 * entropy fit and the DRAM contention corrections, the behavioural
 * properties each correction promises, the calibration harness
 * end-to-end, the CalibrationReport JSON round-trip, and the one
 * ValidationSuite both harnesses simulate and score through.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "model/eval_cache.hh"
#include "model/interval_model.hh"
#include "profiler/profiler.hh"
#include "trace/mtf.hh"
#include "util/status.hh"
#include "validate/calibrate.hh"
#include "workloads/workload.hh"

namespace mipp {
namespace {

Profile
profileSuiteWorkload(const char *name, size_t uops = 60000)
{
    Trace t = generateWorkload(suiteWorkload(name), uops);
    ProfilerConfig pc;
    pc.name = name;
    return profileTrace(t, pc);
}

ModelResult
evalAt(const Profile &p, const ModelOptions &mo)
{
    return evaluateModel(p, CoreConfig::nehalemReference(), mo);
}

// --- Piecewise branch entropy fit -------------------------------------------

TEST(BranchEntropyFit, PretrainedGShareGoldenValues)
{
    // Golden check of the recalibrated gshare fit (flat below the knee,
    // steep hinge above it). Regenerate with `mipp_cli report calibrate`
    // and update on intentional refits.
    BranchMissModel m =
        BranchMissModel::pretrained(BranchPredictorKind::GShare);
    EXPECT_NEAR(m.missRate(0.10), 0.0905, 0.02);
    EXPECT_NEAR(m.missRate(0.30), 0.2365, 0.03);
    EXPECT_NEAR(m.missRate(0.44), 0.3717, 0.04);
    // Monotone and clamped.
    EXPECT_LE(m.missRate(0.10), m.missRate(0.30));
    EXPECT_LE(m.missRate(0.30), m.missRate(0.44));
    EXPECT_LE(m.missRate(5.0), 1.0);
}

TEST(BranchEntropyFit, PiecewiseTrainerRecoversHinge)
{
    // Synthetic data on an exact hinge relation: the trainer must
    // recover knee and slopes closely and beat the linear fit.
    EntropyFitTrainer tr;
    for (double e = 0.02; e <= 0.6; e += 0.02)
        tr.add(e, 0.05 + 0.2 * e + 1.5 * std::max(0.0, e - 0.3));
    BranchMissModel m = tr.fitPiecewise(BranchPredictorKind::GShare);
    EXPECT_NEAR(m.slope, 0.2, 0.05);
    EXPECT_NEAR(m.intercept, 0.05, 0.02);
    EXPECT_NEAR(m.knee, 0.3, 0.06);
    EXPECT_NEAR(m.kneeSlope, 1.5, 0.3);
    EXPECT_GT(tr.r2(m), 0.99);
    EXPECT_GE(tr.r2(m), tr.r2());
}

TEST(BranchEntropyFit, PiecewiseTrainerNeverFitsDecreasingSegments)
{
    // Data whose unconstrained least squares wants a negative slope
    // below the knee: the constrained fit must stay monotone.
    EntropyFitTrainer tr;
    tr.add(0.10, 0.09);
    tr.add(0.14, 0.04);
    tr.add(0.18, 0.05);
    tr.add(0.20, 0.11);
    tr.add(0.30, 0.22);
    tr.add(0.37, 0.27);
    tr.add(0.44, 0.36);
    BranchMissModel m = tr.fitPiecewise(BranchPredictorKind::GShare);
    EXPECT_GE(m.slope, 0.0);
    for (double e = 0.0; e < 1.0; e += 0.05)
        EXPECT_LE(m.missRate(e), m.missRate(e + 0.05) + 1e-12);
}

// --- DRAM contention corrections --------------------------------------------

class CalibratedComponents : public ::testing::Test
{
  protected:
    ModelOptions fitted_;      // defaults: fitted calibration
    ModelOptions uncal_;

    void
    SetUp() override
    {
        uncal_.cal = ModelCalibration::uncalibrated();
    }
};

TEST_F(CalibratedComponents, GoldenComponentValuesAtReference)
{
    // Golden per-uop CPI-stack components at the reference core for
    // three contrasting workloads (values from the recalibrated
    // ACCURACY_baseline.json; tolerance 15% relative). These pin the
    // DRAM contention correction: a change to the shadow/bus/window
    // mechanisms that moves any of these by more than the tolerance is
    // a deliberate recalibration, not noise.
    struct Golden {
        const char *workload;
        double dram, base;
    };
    const Golden goldens[] = {
        {"stream_add", 1.4059, 0.4427},   // bandwidth-heavy stream
        {"branchy", 2.7876, 0.8305},      // mispredict-truncated MLP
        {"cold_sweep", 7.1249, 0.6083},   // cold-miss dominated
    };
    for (const Golden &g : goldens) {
        Profile p = profileSuiteWorkload(g.workload);
        ModelResult r = evalAt(p, fitted_);
        double uops = r.uops;
        ASSERT_GT(uops, 0) << g.workload;
        EXPECT_NEAR(r.stack.dram / uops, g.dram, 0.15 * g.dram)
            << g.workload;
        EXPECT_NEAR(r.stack.base / uops, g.base, 0.15 * g.base)
            << g.workload;
    }
}

TEST_F(CalibratedComponents, MispredictTruncationRaisesBranchyDram)
{
    // The mispredict-interval window truncation is what lifts the DRAM
    // component on branch-heavy workloads (misses separated by a
    // mispredict cannot overlap): with it, branchy's DRAM component
    // must exceed the uncalibrated prediction.
    Profile p = profileSuiteWorkload("branchy");
    ModelResult with = evalAt(p, fitted_);
    ModelResult without = evalAt(p, uncal_);
    EXPECT_GT(with.stack.dram / with.uops,
              1.2 * without.stack.dram / without.uops);
    // And the effective MLP must drop accordingly.
    EXPECT_LT(with.mlp, without.mlp);
}

TEST_F(CalibratedComponents, ColdInjectionRescuesLowMissDram)
{
    // Per-op error diffusion loses the scattered cold misses of
    // low-miss workloads entirely (DRAM component collapses to ~0);
    // the cold-shortfall injection must restore a positive component.
    Profile p = profileSuiteWorkload("dense_compute");
    ModelResult with = evalAt(p, fitted_);
    ModelResult without = evalAt(p, uncal_);
    EXPECT_LT(without.stack.dram / without.uops, 0.02);
    EXPECT_GT(with.stack.dram / with.uops, 0.04);
}

TEST_F(CalibratedComponents, BusQueueScaleTamesColdSweepOvershoot)
{
    // The Eq 4.5 bus model over-charges high-MLP streams; the scaled
    // queueing excess must predict a *smaller* per-miss bus cost than
    // the uncalibrated model on cold_sweep.
    Profile p = profileSuiteWorkload("cold_sweep");
    ModelResult with = evalAt(p, fitted_);
    ModelResult without = evalAt(p, uncal_);
    EXPECT_LT(with.busCyclesPerMiss, without.busCyclesPerMiss);
}

TEST_F(CalibratedComponents, CachedEvaluationMatchesUncached)
{
    // The recalibrated paths thread new state through the EvalContext
    // memo keys (truncated windows, cold injection); cached evaluation
    // must stay bitwise-identical to the uncached compat wrapper.
    Profile p = profileSuiteWorkload("mix_mid", 30000);
    EvalContext ctx(p);
    for (const ModelOptions &mo : {fitted_, uncal_}) {
        ModelResult a = evaluateModel(ctx,
                                      CoreConfig::nehalemReference(), mo);
        ModelResult b = evaluateModel(p, CoreConfig::nehalemReference(),
                                      mo);
        EXPECT_EQ(a.cycles, b.cycles);
        EXPECT_EQ(a.stack.dram, b.stack.dram);
        EXPECT_EQ(a.stack.base, b.stack.base);
        EXPECT_EQ(a.stack.branch, b.stack.branch);
        EXPECT_EQ(a.mlp, b.mlp);
    }
}

// --- Calibration harness + JSON round-trip ----------------------------------

TEST(CalibrationReportJson, RoundTripsThroughDisk)
{
    CalibrationReport r;
    r.uops = 12345;
    r.gridNames = {"nehalem", "little"};
    r.workloadNames = {"a", "b"};
    r.cal = {0.45, 1.25, 2.5, 0.6, 0.33, 0.8};
    BranchMissModel m;
    m.kind = BranchPredictorKind::Tournament;
    m.slope = 0.21;
    m.intercept = 0.015;
    m.knee = 0.3;
    m.kneeSlope = 1.1;
    r.branchFits = {m};
    r.branchR2 = {0.87};
    r.before[0] = {10.5, -3.25, 40.0, -40.0, 12.0};
    r.after[0] = {4.5, 0.25, 12.0, -12.0, 8.5};
    CalibrationReport::GridCheck gc;
    gc.grid = "wide";
    gc.summary[0] = {6.25, -1.5, 20.0, -20.0, 9.75};
    r.gridChecks = {gc};

    std::string path =
        (std::filesystem::temp_directory_path() / "mipp_calib_rt.json")
            .string();
    ASSERT_TRUE(writeCalibrationJson(r, path));
    CalibrationReport got = loadCalibrationJson(path);
    std::remove(path.c_str());

    EXPECT_EQ(got.uops, r.uops);
    EXPECT_EQ(got.cal, r.cal);
    ASSERT_EQ(got.branchFits.size(), 1u);
    EXPECT_EQ(got.branchFits[0].kind, m.kind);
    EXPECT_NEAR(got.branchFits[0].slope, m.slope, 1e-6);
    EXPECT_NEAR(got.branchFits[0].intercept, m.intercept, 1e-6);
    EXPECT_NEAR(got.branchFits[0].knee, m.knee, 1e-6);
    EXPECT_NEAR(got.branchFits[0].kneeSlope, m.kneeSlope, 1e-6);
    ASSERT_EQ(got.branchR2.size(), 1u);
    EXPECT_NEAR(got.branchR2[0], 0.87, 1e-6);
    EXPECT_NEAR(got.before[0].mape, 10.5, 1e-6);
    EXPECT_NEAR(got.before[0].meanSigned, -3.25, 1e-6);
    EXPECT_NEAR(got.before[0].minSigned, -40.0, 1e-6);
    EXPECT_NEAR(got.after[0].mape, 4.5, 1e-6);
    EXPECT_NEAR(got.after[0].maxSigned, 8.5, 1e-6);
    ASSERT_EQ(got.gridChecks.size(), 1u);
    EXPECT_EQ(got.gridChecks[0].grid, "wide");
    EXPECT_NEAR(got.gridChecks[0].summary[0].mape, 6.25, 1e-6);
    EXPECT_NEAR(got.gridChecks[0].summary[0].meanSigned, -1.5, 1e-6);
    EXPECT_NEAR(got.gridChecks[0].summary[0].maxSigned, 9.75, 1e-6);
}

TEST(CalibrationReportJson, RejectsForeignJson)
{
    std::string path =
        (std::filesystem::temp_directory_path() / "mipp_calib_bad.json")
            .string();
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("{\"schema\": \"something-else\"}", f);
        std::fclose(f);
    }
    EXPECT_THROW(loadCalibrationJson(path), std::runtime_error);
    std::remove(path.c_str());
    EXPECT_THROW(loadCalibrationJson("/nonexistent/calib.json"),
                 std::runtime_error);
}

TEST(CalibrationReportJson, QuotedNamesAndNullsRoundTrip)
{
    CalibrationReport r;
    r.gridNames = {"a\"b"};
    r.workloadNames = {"back\\slash", "tab\there"};
    CalibrationReport::GridCheck gc;
    gc.grid = "wi\"de";
    gc.summary[0] = {1.5, 0, 0, 0, 0};
    r.gridChecks = {gc};
    // Non-finite values are written as null and read back as 0.
    r.after[0].mape = std::nan("");

    std::string path =
        (std::filesystem::temp_directory_path() / "mipp_calib_names.json")
            .string();
    ASSERT_TRUE(writeCalibrationJson(r, path));
    CalibrationReport got = loadCalibrationJson(path);
    std::remove(path.c_str());

    ASSERT_EQ(got.gridChecks.size(), 1u);
    EXPECT_EQ(got.gridChecks[0].grid, "wi\"de");
    EXPECT_EQ(got.gridChecks[0].summary[0].mape, 1.5);
    EXPECT_EQ(got.after[0].mape, 0.0);
}

TEST(CalibrationReportJson, MalformedJsonThrows)
{
    CalibrationReport r;
    const std::string full = calibrationJson(r);
    std::string path =
        (std::filesystem::temp_directory_path() / "mipp_calib_trunc.json")
            .string();
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs(full.substr(0, full.size() / 2).c_str(), f);
        std::fclose(f);
    }
    EXPECT_THROW(loadCalibrationJson(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(CalibrationHarness, SmallRunFitsAndImproves)
{
    // End-to-end harness on a reduced setup: three workloads, short
    // traces, one descent round. Checks structure, not exact values.
    CalibrationOptions opts;
    opts.uops = 10000;
    opts.includePhased = false;
    opts.workloads = {"branchy", "stream_add", "dense_compute"};
    opts.rounds = 1;
    opts.mopts.cal = ModelCalibration::uncalibrated();
    // Cross-check the fit on the same preset it fits on ("ci" is the
    // default grid): the re-simulated ground truth and re-evaluated
    // model are deterministic, so the check summary must reproduce the
    // "after" column exactly — pinning the no-refit semantics.
    opts.checkGrids = {"ci"};
    CalibrationReport rep = runCalibration(opts);

    EXPECT_EQ(rep.workloadNames.size(), 3u);
    EXPECT_EQ(rep.branchFits.size(),
              static_cast<size_t>(BranchPredictorKind::NumKinds));
    for (const BranchMissModel &m : rep.branchFits) {
        EXPECT_GE(m.slope, 0.0);
        EXPECT_GE(m.kneeSlope, 0.0);
    }
    // The fit must not meaningfully worsen its objective components on
    // its own training grid (each line search only accepts strict
    // improvements of its component objective; total CPI carries a
    // smaller weight, hence the slack).
    auto cpi = static_cast<size_t>(AccuracyMetric::Cpi);
    auto dram = static_cast<size_t>(AccuracyMetric::Dram);
    EXPECT_LE(rep.after[cpi].mape, rep.before[cpi].mape + 2.0);
    EXPECT_LE(rep.after[dram].mape, rep.before[dram].mape + 1e-9);
    ASSERT_EQ(rep.gridChecks.size(), 1u);
    EXPECT_EQ(rep.gridChecks[0].grid, "ci");
    for (size_t k = 0; k < kNumAccuracyMetrics; ++k) {
        EXPECT_EQ(rep.gridChecks[0].summary[k].mape, rep.after[k].mape);
        EXPECT_EQ(rep.gridChecks[0].summary[k].meanSigned,
                  rep.after[k].meanSigned);
    }
    // Round-trip the generated report.
    std::string path =
        (std::filesystem::temp_directory_path() / "mipp_calib_e2e.json")
            .string();
    ASSERT_TRUE(writeCalibrationJson(rep, path));
    CalibrationReport got = loadCalibrationJson(path);
    std::remove(path.c_str());
    EXPECT_EQ(got.cal, rep.cal);
    EXPECT_EQ(got.branchFits.size(), rep.branchFits.size());
}

// --- One validation suite under both harnesses ------------------------------

/** The small shared setup: three contrasting workloads, short traces. */
template <class Options>
Options
smallSuite(Options o)
{
    o.uops = 4000;
    o.includePhased = false;
    o.workloads = {"loopy_small", "stream_add", "branchy"};
    return o;
}

void
expectBitwiseEqual(const std::array<MetricSummary, kNumAccuracyMetrics> &a,
                   const std::array<MetricSummary, kNumAccuracyMetrics> &b)
{
    for (size_t k = 0; k < kNumAccuracyMetrics; ++k)
        EXPECT_EQ(std::memcmp(&a[k], &b[k], sizeof(MetricSummary)), 0)
            << accuracyMetricName(static_cast<AccuracyMetric>(k));
}

TEST(AccuracySuite, CalibrationBeforeColumnIsTheAccuracyRun)
{
    AccuracyOptions ao = smallSuite(AccuracyOptions{});
    ao.grid = accuracyGrid("ci");
    const AccuracyReport acc = runAccuracy(ao);
    for (bool fitBranch : {false, true}) {
        SCOPED_TRACE(fitBranch);
        CalibrationOptions co = smallSuite(CalibrationOptions{});
        co.grid = ao.grid;
        co.rounds = 1;
        co.fitBranch = fitBranch;
        expectBitwiseEqual(runCalibration(co).before, acc.summary);
    }
}

TEST(AccuracySuite, GridCheckIsTheAccuracyRunAtTheFittedCalibration)
{
    CalibrationOptions co = smallSuite(CalibrationOptions{});
    co.rounds = 1;
    co.fitBranch = false;
    co.checkGrids = {"default"};
    const CalibrationReport rep = runCalibration(co);
    ASSERT_EQ(rep.gridChecks.size(), 1u);

    AccuracyOptions ao = smallSuite(AccuracyOptions{});
    ao.grid = accuracyGrid("default");
    ao.mopts.cal = rep.cal;
    expectBitwiseEqual(rep.gridChecks[0].summary, runAccuracy(ao).summary);
}

TEST(AccuracySuite, CancelledSimulationsStayUnscored)
{
    ValidationSuite suite(4000, false, {"branchy", "stream_add"});
    const std::vector<CoreConfig> grid = accuracyGrid("ci");
    CancelToken cancelled = CancelToken::manual();
    cancelled.cancel();
    auto none = suite.simulate(grid, 1, cancelled);
    ASSERT_EQ(none.size(), 4u);
    for (const auto &sim : none)
        EXPECT_FALSE(sim.has_value());
    for (const PointAccuracy &pa : suite.score(grid, none, {}, {}, 1))
        EXPECT_TRUE(pa.workload.empty());

    // A pre-cancelled run keeps no pair: degraded, nothing aggregated.
    AccuracyOptions ao = smallSuite(AccuracyOptions{});
    ao.grid = grid;
    ao.cancel = cancelled;
    const AccuracyReport rep = runAccuracy(ao);
    EXPECT_TRUE(rep.degraded);
    EXPECT_TRUE(rep.points.empty());
    EXPECT_TRUE(rep.violations.empty());
    EXPECT_EQ(rep.of(AccuracyMetric::Cpi).mape, 0.0);
}

TEST(AccuracySuite, ScoreIsWorkloadMajorAndAppliesBranchFitsByKind)
{
    ValidationSuite suite(4000, false, {"branchy", "stream_add"});
    ASSERT_EQ(suite.names(),
              (std::vector<std::string>{"stream_add", "branchy"}));
    const std::vector<CoreConfig> grid = accuracyGrid("ci");
    auto sims = suite.simulate(grid, 0);
    std::vector<ModelResult> models;
    auto base = suite.score(grid, sims, {}, {}, 0, &models);
    ASSERT_EQ(base.size(), 4u);
    ASSERT_EQ(models.size(), 4u);
    for (size_t i = 0; i < base.size(); ++i) {
        EXPECT_EQ(base[i].workload, suite.names()[i / grid.size()]);
        EXPECT_EQ(base[i].config, grid[i % grid.size()].name);
        EXPECT_EQ(base[i].modelCpi, models[i].cpiPerUop());
        EXPECT_EQ(base[i].simCpi, sims[i]->cpiPerUop());
    }

    // A fit per kind whose miss rate is far off the pretrained one moves
    // the branch component of the branchy workload.
    std::vector<BranchMissModel> fits;
    for (size_t k = 0; k < size_t(BranchPredictorKind::NumKinds); ++k) {
        fits.push_back(
            BranchMissModel::pretrained(static_cast<BranchPredictorKind>(k)));
        fits.back().intercept += 0.2;
    }
    auto fitted = suite.score(grid, sims, {}, fits, 0);
    const size_t branchy = grid.size(); // workload 1, reference core
    const auto branch = metricIndex(AccuracyMetric::Branch);
    EXPECT_GT(fitted[branchy].err[branch], base[branchy].err[branch]);
}

TEST(AccuracySuite, TraceFilesJoinTheSuiteNamedByBasename)
{
    // A recorded copy of a suite workload rides along under its file
    // stem and simulates exactly like the generated original.
    const std::string path =
        (std::filesystem::temp_directory_path() / "mipp_suite_rec.v3.mtf")
            .string();
    ASSERT_TRUE(
        saveMtf(generateWorkload(suiteWorkload("branchy"), 4000), path)
            .isOk());
    ValidationSuite suite(4000, false, {"branchy"}, {path});
    std::remove(path.c_str());
    ASSERT_EQ(suite.names(),
              (std::vector<std::string>{"branchy", "mipp_suite_rec.v3"}));
    auto sims = suite.simulate({CoreConfig::nehalemReference()}, 1);
    EXPECT_EQ(sims[0]->cycles, sims[1]->cycles);

    EXPECT_THROW(ValidationSuite(4000, false, {"branchy"}, {path}),
                 StatusError);
}

} // namespace
} // namespace mipp
