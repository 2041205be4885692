/**
 * @file
 * Tests for the per-workload evaluation cache and the model-first DSE
 * pipeline.
 *
 * The load-bearing guarantee is *bitwise* parity: a memoized EvalContext
 * must return exactly the doubles the uncached path computes, for every
 * point of a design space. Everything downstream (Pareto pruning, error
 * metrics, the recorded benchmark speedups) assumes the cache is a pure
 * performance feature with zero numerical footprint.
 */

#include <gtest/gtest.h>

#include <vector>

#include "dse/explorer.hh"
#include "dse/pareto.hh"
#include "model/eval_cache.hh"
#include "power/power_model.hh"
#include "profiler/profiler.hh"
#include "uarch/design_space.hh"
#include "workloads/workload.hh"

namespace mipp {
namespace {

Profile
makeProfile(const char *name, size_t uops, Trace *traceOut = nullptr)
{
    Trace t = generateWorkload(suiteWorkload(name), uops);
    ProfilerConfig pc;
    pc.name = name;
    Profile p = profileTrace(t, pc);
    if (traceOut)
        *traceOut = std::move(t);
    return p;
}

/** Exact (bitwise modulo NaN) comparison of two model results. */
void
expectIdentical(const ModelResult &a, const ModelResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.uops, b.uops);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.deff, b.deff);
    EXPECT_EQ(a.avgLatency, b.avgLatency);
    EXPECT_EQ(a.stack.base, b.stack.base);
    EXPECT_EQ(a.stack.branch, b.stack.branch);
    EXPECT_EQ(a.stack.icache, b.stack.icache);
    EXPECT_EQ(a.stack.llcHit, b.stack.llcHit);
    EXPECT_EQ(a.stack.dram, b.stack.dram);
    EXPECT_EQ(a.branchMissRate, b.branchMissRate);
    EXPECT_EQ(a.branchMisses, b.branchMisses);
    EXPECT_EQ(a.branchResolution, b.branchResolution);
    EXPECT_EQ(a.loadMissesL1, b.loadMissesL1);
    EXPECT_EQ(a.loadMissesL2, b.loadMissesL2);
    EXPECT_EQ(a.loadMissesL3, b.loadMissesL3);
    EXPECT_EQ(a.storeMissesL1, b.storeMissesL1);
    EXPECT_EQ(a.storeMissesL2, b.storeMissesL2);
    EXPECT_EQ(a.storeMissesL3, b.storeMissesL3);
    EXPECT_EQ(a.ifetchMissesL1, b.ifetchMissesL1);
    EXPECT_EQ(a.ifetchMissesL2, b.ifetchMissesL2);
    EXPECT_EQ(a.ifetchMissesL3, b.ifetchMissesL3);
    EXPECT_EQ(a.mlp, b.mlp);
    EXPECT_EQ(a.busCyclesPerMiss, b.busCyclesPerMiss);
    EXPECT_EQ(a.llcChainPenalty, b.llcChainPenalty);
    EXPECT_EQ(a.activity.cycles, b.activity.cycles);
    EXPECT_EQ(a.activity.dramAccesses, b.activity.dramAccesses);
    ASSERT_EQ(a.windowCpi.size(), b.windowCpi.size());
    for (size_t i = 0; i < a.windowCpi.size(); ++i)
        EXPECT_EQ(a.windowCpi[i], b.windowCpi[i]);
}

/** Grid of design points exercising every memo dimension: cache levels,
 *  ROB sizes, widths, predictors and the prefetcher path. */
std::vector<CoreConfig>
parityGrid()
{
    std::vector<CoreConfig> grid;
    for (uint32_t w : {2u, 4u})
        for (uint32_t rob : {64u, 128u})
            for (uint32_t l1dKb : {16u, 64u})
                for (uint32_t l3Mb : {2u, 32u})
                    for (auto pred : {BranchPredictorKind::GShare,
                                      BranchPredictorKind::Tournament}) {
                        CoreConfig c = CoreConfig::nehalemReference();
                        c.setWidth(w);
                        scaleBackEnd(c, rob);
                        c.l1d.sizeBytes = l1dKb * 1024;
                        c.l3.sizeBytes = l3Mb * 1024 * 1024;
                        c.predictor = pred;
                        c.prefetcherEnabled = (w == 4);
                        grid.push_back(c);
                    }
    return grid;
}

TEST(EvalCache, CachedMatchesUncachedBitwise)
{
    Profile p = makeProfile("balanced_mix", 60000);
    EvalContext ctx(p);
    for (const CoreConfig &cfg : parityGrid()) {
        ModelResult cached = evaluateModel(ctx, cfg);
        ModelResult uncached = evaluateModel(p, cfg);
        expectIdentical(cached, uncached);
    }
}

TEST(EvalCache, CachedMatchesUncachedAcrossModelOptions)
{
    Profile p = makeProfile("ptr_chase", 50000);
    ModelOptions variants[4];
    variants[1].perWindow = false;
    variants[2].mlpMode = ModelOptions::MlpMode::ColdMiss;
    variants[3].mlpMode = ModelOptions::MlpMode::None;
    variants[3].modelLlcChaining = false;
    for (const ModelOptions &mo : variants) {
        EvalContext ctx(p);
        for (const CoreConfig &cfg : parityGrid()) {
            ModelResult cached = evaluateModel(ctx, cfg);
            ModelResult uncached = evaluateModel(p, cfg);
            expectIdentical(cached, uncached);
            ModelResult cachedMo = evaluateModel(ctx, cfg, mo);
            ModelResult uncachedMo = evaluateModel(p, cfg, mo);
            expectIdentical(cachedMo, uncachedMo);
        }
    }
}

TEST(EvalCache, RepeatedEvaluationIsDeterministic)
{
    Profile p = makeProfile("matrix_tile", 50000);
    CoreConfig cfg = CoreConfig::nehalemReference();
    EvalContext ctx(p);
    ModelResult first = evaluateModel(ctx, cfg);
    ModelResult second = evaluateModel(ctx, cfg);
    expectIdentical(first, second);
}

TEST(EvalCache, InternedBranchModelMatchesPretrained)
{
    for (int k = 0;
         k < static_cast<int>(BranchPredictorKind::NumKinds); ++k) {
        auto kind = static_cast<BranchPredictorKind>(k);
        const BranchMissModel &interned = internedBranchModel(kind);
        BranchMissModel fresh = BranchMissModel::pretrained(kind);
        EXPECT_EQ(interned.kind, fresh.kind);
        EXPECT_EQ(interned.slope, fresh.slope);
        EXPECT_EQ(interned.intercept, fresh.intercept);
    }
    // Interning hands out one stable instance per kind.
    EXPECT_EQ(&internedBranchModel(BranchPredictorKind::GShare),
              &internedBranchModel(BranchPredictorKind::GShare));
}

// ---------------------------------------------------------------------------
// Batched (structure-of-arrays) evaluation engine
// ---------------------------------------------------------------------------

TEST(BatchEval, BatchedMatchesScalarBitwiseOnThesisGrid)
{
    // The streaming sweep's load-bearing guarantee, same discipline as
    // the EvalContext tests above: the batched engine must reproduce
    // the scalar cached path bit for bit over the full 243-point thesis
    // grid, under both the fitted calibration and the plain thesis
    // formulation (whose different coefficients exercise every
    // config-dependent scalar the batch path hoists).
    Profile p = makeProfile("balanced_mix", 60000);
    DesignSpace space; // full 243-point thesis grid
    const auto &grid = space.configs();
    for (bool uncal : {false, true}) {
        ModelOptions mo;
        if (uncal)
            mo.cal = ModelCalibration::uncalibrated();

        EvalContext scalarCtx(p);
        EvalContext batchCtx(p);
        BatchEval be(batchCtx, mo);

        std::vector<PowerParams> pp;
        for (const CoreConfig &cfg : grid)
            pp.push_back(powerParams(cfg));
        std::vector<BatchEval::Output> out(grid.size());
        be.evaluate(grid.data(), grid.size(), out.data(), pp.data());
        // Without precomputed power params the engine derives them per
        // point; both paths must agree exactly.
        std::vector<BatchEval::Output> outDerived(grid.size());
        be.evaluate(grid.data(), grid.size(), outDerived.data(), nullptr);

        for (size_t i = 0; i < grid.size(); ++i) {
            ModelResult scalar = evaluateModel(scalarCtx, grid[i], mo);
            expectIdentical(be.evaluateOne(grid[i]), scalar);
            EXPECT_EQ(out[i].modelCpi, scalar.cpiPerUop());
            EXPECT_EQ(out[i].modelWatts,
                      computePower(scalar.activity, grid[i]).total());
            EXPECT_EQ(outDerived[i].modelCpi, out[i].modelCpi);
            EXPECT_EQ(outDerived[i].modelWatts, out[i].modelWatts);
        }
    }
}

// ---------------------------------------------------------------------------
// Model-first DSE pipeline
// ---------------------------------------------------------------------------

struct SweepFixture {
    std::vector<Trace> traces;
    std::vector<Profile> profiles;
    std::vector<CoreConfig> configs;

    SweepFixture()
    {
        for (const char *name : {"loopy_small", "int_crunch"}) {
            Trace t;
            profiles.push_back(makeProfile(name, 40000, &t));
            traces.push_back(std::move(t));
        }
        // Include an LLC axis so the space has clearly dominated points
        // (an oversized L3 costs power without helping small workloads)
        // and the model front stays well below the full space.
        for (uint32_t w : {2u, 4u, 6u})
            for (uint32_t rob : {64u, 256u})
                for (uint32_t l3Mb : {2u, 32u}) {
                    CoreConfig c = CoreConfig::nehalemReference();
                    c.setWidth(w);
                    scaleBackEnd(c, rob);
                    c.l3.sizeBytes = l3Mb * 1024 * 1024;
                    configs.push_back(c);
                }
    }
};

TEST(Sweep, ModelOnlyRunsNoSimulation)
{
    SweepFixture f;
    SweepOptions so;
    so.mode = SweepMode::ModelOnly;
    SweepResult r = sweepEx(f.traces, f.profiles, f.configs, {}, so);

    EXPECT_EQ(r.simInvocations, 0u);
    ASSERT_EQ(r.points.size(), f.profiles.size() * f.configs.size());
    for (const SweepPoint &pt : r.points) {
        EXPECT_FALSE(pt.simulated);
        EXPECT_EQ(pt.simCpi, 0.0);
        EXPECT_GT(pt.modelCpi, 0.0);
        EXPECT_GT(pt.modelWatts, 0.0);
    }
    ASSERT_EQ(r.modelFronts.size(), f.profiles.size());
    for (const auto &front : r.modelFronts)
        EXPECT_FALSE(front.empty());
}

TEST(Sweep, WorkloadMajorOrdering)
{
    SweepFixture f;
    SweepOptions so;
    so.mode = SweepMode::ModelOnly;
    SweepResult r = sweepEx(f.traces, f.profiles, f.configs, {}, so);
    for (size_t wi = 0; wi < r.nWorkloads; ++wi)
        for (size_t ci = 0; ci < r.nConfigs; ++ci) {
            EXPECT_EQ(r.at(wi, ci).workloadIdx, wi);
            EXPECT_EQ(r.at(wi, ci).configIdx, ci);
        }
}

TEST(Sweep, PairedMatchesLegacySweepAndSimulatesEverything)
{
    SweepFixture f;
    SweepResult r = sweepEx(f.traces, f.profiles, f.configs, {}, {});
    EXPECT_EQ(r.simInvocations, r.points.size());
    for (const SweepPoint &pt : r.points) {
        EXPECT_TRUE(pt.simulated);
        EXPECT_GT(pt.simCpi, 0.0);
        EXPECT_GT(pt.modelCpi, 0.0);
    }
}

TEST(Sweep, ModelThenSimParetoPrunesSimulationToFrontPlusSample)
{
    SweepFixture f;
    const size_t nw = f.profiles.size();
    const size_t nc = f.configs.size();

    SweepResult paired = sweepEx(f.traces, f.profiles, f.configs, {}, {});

    SweepOptions so;
    so.mode = SweepMode::ModelThenSimPareto;
    so.validationSamples = 1;
    SweepResult pruned = sweepEx(f.traces, f.profiles, f.configs, {}, so);

    // Model outputs are bitwise independent of the sweep mode.
    ASSERT_EQ(pruned.points.size(), paired.points.size());
    for (size_t i = 0; i < pruned.points.size(); ++i) {
        EXPECT_EQ(pruned.points[i].modelCpi, paired.points[i].modelCpi);
        EXPECT_EQ(pruned.points[i].modelWatts,
                  paired.points[i].modelWatts);
    }

    // The pruned mode's model front equals the front recomputed from the
    // Paired run's model objectives: pruning filters the simulation
    // budget, never the candidate set.
    ASSERT_EQ(pruned.modelFronts.size(), nw);
    size_t expectedSims = 0;
    for (size_t wi = 0; wi < nw; ++wi) {
        std::vector<Objective> modelObj;
        for (size_t ci = 0; ci < nc; ++ci)
            modelObj.push_back({paired.at(wi, ci).modelCpi,
                                paired.at(wi, ci).modelWatts});
        auto expectFront = paretoFront(modelObj);
        EXPECT_EQ(pruned.modelFronts[wi], expectFront);

        // Every model-front candidate got the detailed simulation.
        for (size_t ci : pruned.modelFronts[wi]) {
            EXPECT_TRUE(pruned.at(wi, ci).simulated);
            EXPECT_GT(pruned.at(wi, ci).simCpi, 0.0);
            // And its simulated coordinates match the Paired run's.
            EXPECT_EQ(pruned.at(wi, ci).simCpi, paired.at(wi, ci).simCpi);
        }
        expectedSims += expectFront.size() +
                        std::min<size_t>(so.validationSamples,
                                         nc - expectFront.size());
    }

    // The invocation counter proves the pruning: front + sample only.
    EXPECT_EQ(pruned.simInvocations, expectedSims);
    EXPECT_LT(pruned.simInvocations, paired.simInvocations);

    // Off-front, non-sample points carry model predictions only.
    size_t simulatedPoints = 0;
    for (const SweepPoint &pt : pruned.points)
        simulatedPoints += pt.simulated;
    EXPECT_EQ(simulatedPoints, expectedSims);
}

TEST(Sweep, StreamingParetoMatchesModelOnlyWithoutMaterializing)
{
    SweepFixture f;
    const size_t nw = f.profiles.size();

    SweepOptions mo;
    mo.mode = SweepMode::ModelOnly;
    SweepResult ref = sweepEx(f.traces, f.profiles, f.configs, {}, mo);

    SweepOptions so;
    so.mode = SweepMode::ModelOnlyPareto;
    SweepResult st = sweepEx(f.traces, f.profiles, f.configs, {}, so);

    // O(front): the streaming mode never materializes the point grid.
    EXPECT_TRUE(st.points.empty());
    EXPECT_EQ(st.simInvocations, 0u);
    EXPECT_EQ(st.nWorkloads, nw);
    EXPECT_EQ(st.nConfigs, f.configs.size());

    // The surviving fronts are bitwise identical to ModelOnly's.
    ASSERT_EQ(st.modelFronts.size(), nw);
    ASSERT_EQ(st.frontPoints.size(), nw);
    for (size_t wi = 0; wi < nw; ++wi) {
        EXPECT_EQ(st.modelFronts[wi], ref.modelFronts[wi]);
        ASSERT_EQ(st.frontPoints[wi].size(), st.modelFronts[wi].size());
        for (size_t k = 0; k < st.frontPoints[wi].size(); ++k) {
            const SweepPoint &a = st.frontPoints[wi][k];
            EXPECT_EQ(a.configIdx, st.modelFronts[wi][k]);
            EXPECT_EQ(a.workloadIdx, wi);
            const SweepPoint &b = ref.at(wi, a.configIdx);
            EXPECT_EQ(a.modelCpi, b.modelCpi);
            EXPECT_EQ(a.modelWatts, b.modelWatts);
        }
    }
}

TEST(Sweep, GeneratedSweepMatchesExplicitAndPoolReuseIsStable)
{
    SweepFixture f;
    SweepOptions so;
    so.mode = SweepMode::ModelOnlyPareto;
    SweepResult ref = sweepEx(f.traces, f.profiles, f.configs, {}, so);

    // Generator reproducing the explicit configs; evaluators pooled
    // across calls. Generators receive a reused scratch slot, so the
    // assignment here is the degenerate always-overwrite case.
    ModelEvalPool pool;
    so.evalPool = &pool;
    ConfigGenerator gen = [&f](size_t ci, CoreConfig &out) {
        out = f.configs[ci];
    };
    for (int rep = 0; rep < 2; ++rep) { // rep 1 reuses the warm pool
        SweepResult gn =
            sweepGenerated(f.profiles, f.configs.size(), gen, {}, so);
        EXPECT_TRUE(gn.points.empty());
        ASSERT_EQ(gn.modelFronts.size(), ref.modelFronts.size());
        for (size_t wi = 0; wi < ref.modelFronts.size(); ++wi) {
            EXPECT_EQ(gn.modelFronts[wi], ref.modelFronts[wi]);
            ASSERT_EQ(gn.frontPoints[wi].size(),
                      ref.frontPoints[wi].size());
            for (size_t k = 0; k < gn.frontPoints[wi].size(); ++k) {
                EXPECT_EQ(gn.frontPoints[wi][k].modelCpi,
                          ref.frontPoints[wi][k].modelCpi);
                EXPECT_EQ(gn.frontPoints[wi][k].modelWatts,
                          ref.frontPoints[wi][k].modelWatts);
            }
        }
    }
}

} // namespace
} // namespace mipp
