/**
 * @file
 * Memoized evaluation kernels against their unmemoized primitives.
 *
 * Every model evaluation runs through one memo layer, EvalContext, so
 * comparing two evaluations through it compares the memo path with
 * itself. The references here are the primitives the memo tables stand
 * in for — StatStack::missRatio, ablatedLimits, strideMlp / coldMissMlp,
 * branchResolutionTime, BranchMissModel::missRate and a direct per-op
 * chain-weight loop — each compared bit for bit with the kernel that
 * replays it. A second group holds one context to the options-agnostic
 * contract: interleaving evaluations under any mix of ModelOptions must
 * return exactly what a fresh context returns.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "model/eval_cache.hh"
#include "model/mlp_model.hh"
#include "profiler/profiler.hh"
#include "uarch/design_space.hh"
#include "workloads/workload.hh"

namespace mipp {
namespace {

Profile
makeProfile(const char *name, size_t uops)
{
    Trace t = generateWorkload(suiteWorkload(name), uops);
    ProfilerConfig pc;
    pc.name = name;
    return profileTrace(t, pc);
}

bool
same(double a, double b)
{
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool
sameLimits(const DispatchLimits &a, const DispatchLimits &b)
{
    return same(a.width, b.width) && same(a.dependences, b.dependences) &&
           same(a.ports, b.ports) && same(a.fus, b.fus);
}

bool
sameMlp(const MlpEstimate &a, const MlpEstimate &b)
{
    if (!same(a.mlp, b.mlp) || !same(a.dramMisses, b.dramMisses) ||
        !same(a.latWeighted, b.latWeighted) ||
        a.windows.size() != b.windows.size())
        return false;
    for (size_t i = 0; i < a.windows.size(); ++i)
        if (!same(a.windows[i].dramMisses, b.windows[i].dramMisses) ||
            !same(a.windows[i].latWeighted, b.windows[i].latWeighted) ||
            !same(a.windows[i].mlp, b.windows[i].mlp))
            return false;
    return true;
}

/** Mispredict-interval-truncated window, as the interval model derives
 *  it from ModelCalibration's window fractions. */
uint32_t
truncatedWindow(double frac, double uopsPerMispredict, uint32_t rob)
{
    if (frac <= 0 || uopsPerMispredict <= 0)
        return rob;
    double w = frac * uopsPerMispredict;
    if (w >= rob)
        return rob;
    return static_cast<uint32_t>(std::max(w, 16.0));
}

/** Mismatch counters per kernel; one EXPECT per kernel at the end keeps
 *  a failure readable over ~1000 design points. */
struct Mismatches {
    size_t ratios = 0, globalLimits = 0, windowLimits = 0, strideMlp = 0,
           coldMlp = 0, resolution = 0, chains = 0, branch = 0;
    size_t checked = 0;
};

void
checkKernels(const Profile &p, const ModelOptions &mo, Mismatches &bad)
{
    EvalContext ctx(p);
    const StatStack ss(p.reuseAll);
    const StatStack ssI(p.reuseInsts);
    const EvalContext::WindowStatics &ws = ctx.windowStatics();
    DesignSpace space; // full 243-point thesis grid
    for (const CoreConfig &cfg : space.configs()) {
        ++bad.checked;
        // Miss ratios.
        const double l1L = cfg.l1d.numLines();
        const double l2L = cfg.l2.numLines();
        const double l3L = cfg.l3.numLines();
        const EvalContext::Ratios &r = ctx.ratios(cfg);
        bad.ratios +=
            !(same(r.l1, ss.missRatio(p.reuseLoads, l1L)) &&
              same(r.l2, ss.missRatio(p.reuseLoads, l2L)) &&
              same(r.l3, ss.missRatio(p.reuseLoads, l3L)) &&
              same(r.s1, ss.missRatio(p.reuseStores, l1L)) &&
              same(r.s2, ss.missRatio(p.reuseStores, l2L)) &&
              same(r.s3, ss.missRatio(p.reuseStores, l3L)) &&
              same(r.i1, ssI.missRatio(p.reuseInsts, cfg.l1i.numLines())) &&
              same(r.i2, ssI.missRatio(p.reuseInsts, l2L)) &&
              same(r.i3, ssI.missRatio(p.reuseInsts, l3L)));

        // Branch rates under the configured predictor's pretrained fit.
        const BranchMissModel bm =
            BranchMissModel::pretrained(cfg.predictor);
        const EvalContext::BranchRates &br = ctx.branchRates(bm);
        bool branchOk = same(br.globalRate, bm.missRate(p.branch.entropy()));
        for (size_t wi = 0; wi < p.windows.size(); ++wi)
            branchOk = branchOk &&
                same(br.windowMisses[wi], bm.missRate(ws.entropyEff[wi]) *
                                              p.windows[wi].branches);
        bad.branch += !branchOk;

        // The model's own kernel inputs at this point.
        const double avgLat = mixAvgLatency(ws.globalFrac, cfg, r.l1);
        const double misses = br.globalRate * ws.globalBranches;
        const double uopsPerMiss = misses > 0.5 ? ws.totalUops / misses : 0;
        const uint32_t depWindow = truncatedWindow(
            mo.cal.baseWindowFrac, uopsPerMiss, cfg.robSize);
        const uint32_t mlpWindow = truncatedWindow(
            mo.cal.mlpWindowFrac, uopsPerMiss, cfg.robSize);

        // Dispatch limits at every ablation level.
        for (auto level : {ModelOptions::BaseLevel::Instructions,
                           ModelOptions::BaseLevel::MicroOps,
                           ModelOptions::BaseLevel::CriticalPath,
                           ModelOptions::BaseLevel::Functional}) {
            const EvalContext::LimitsEntry &le =
                ctx.limits(cfg, level, r.l1, depWindow);
            bad.globalLimits += !sameLimits(
                le.global,
                ablatedLimits(ws.globalCounts, p.chains.cp(depWindow),
                              avgLat, cfg, level, depWindow));
            const std::vector<double> &cps = ctx.windowCp(depWindow);
            bool windowsOk = le.windows.size() == p.windows.size();
            for (size_t wi = 0; windowsOk && wi < p.windows.size(); ++wi) {
                const WindowProfile &w = p.windows[wi];
                const double uopsW = w.uops();
                if (uopsW <= 0)
                    continue;
                std::array<double, kNumUopTypes> counts{}, frac{};
                for (int t = 0; t < kNumUopTypes; ++t) {
                    counts[t] = w.uopCounts[t];
                    frac[t] = w.uopCounts[t] / uopsW;
                }
                windowsOk = sameLimits(
                    le.windows[wi],
                    ablatedLimits(counts, cps[wi],
                                  mixAvgLatency(frac, cfg, r.l1), cfg,
                                  level, depWindow));
            }
            bad.windowLimits += !windowsOk;
        }

        // MLP under both profile-driven models.
        MlpOptions mlpo{mo.modelMshrs, mo.modelPrefetcher};
        mlpo.windowUops = mlpWindow;
        mlpo.coldInject = mo.cal.coldInject;
        ModelOptions stride = mo, cold = mo;
        stride.mlpMode = ModelOptions::MlpMode::Stride;
        cold.mlpMode = ModelOptions::MlpMode::ColdMiss;
        bad.strideMlp += !sameMlp(ctx.mlpEstimate(cfg, stride, mlpWindow),
                                  strideMlp(p, cfg, ss, mlpo));
        bad.coldMlp += !sameMlp(ctx.mlpEstimate(cfg, cold, mlpWindow),
                                coldMissMlp(p, cfg, ss, mlpo));

        // Branch resolution (thesis Alg 3.2).
        if (misses > 0.5)
            bad.resolution += !same(
                ctx.branchResolution(cfg, avgLat, uopsPerMiss),
                branchResolutionTime(p.chains, cfg, avgLat, uopsPerMiss));

        // Serialized-LLC-hit chain weights, straight per-op loop.
        const EvalContext::ChainWeights &cw = ctx.chainWeights(l2L, l3L);
        std::vector<double> opWeight(p.memOps.size(), 0.0);
        double global = 0, loads = 0;
        for (size_t i = 0; i < p.memOps.size(); ++i) {
            const StaticMemProfile &sp = p.memOps[i];
            if (sp.isStore)
                continue;
            double hit3 = std::max(0.0, ss.missRatio(sp.reuse, l2L) -
                                            ss.missRatio(sp.reuse, l3L));
            opWeight[i] =
                hit3 * std::clamp(sp.avgLoadDepth() - 1.0, 0.0, 1.0);
            global += opWeight[i] * sp.count;
            loads += sp.count;
        }
        if (loads > 0)
            global /= loads;
        bool chainsOk = same(cw.globalSerialHits, global) &&
                        cw.opWeight.size() == opWeight.size() &&
                        cw.windowSerial.size() == p.windows.size();
        for (size_t i = 0; chainsOk && i < opWeight.size(); ++i)
            chainsOk = same(cw.opWeight[i], opWeight[i]);
        for (size_t wi = 0; chainsOk && wi < p.windows.size(); ++wi) {
            double serialW = 0;
            for (const auto &[opIdx, cnt] : p.windows[wi].memCounts)
                serialW += opWeight[opIdx] * cnt;
            chainsOk = same(cw.windowSerial[wi], serialW);
        }
        bad.chains += !chainsOk;
    }
}

TEST(EvalKernels, MemoizedKernelsMatchPrimitivesOnThesisGrid)
{
    for (const char *name : {"balanced_mix", "ptr_chase"}) {
        Profile p = makeProfile(name, 50000);
        ASSERT_FALSE(p.windows.empty());
        for (bool uncal : {false, true}) {
            SCOPED_TRACE(std::string(name) +
                         (uncal ? " uncalibrated" : " fitted"));
            ModelOptions mo;
            if (uncal)
                mo.cal = ModelCalibration::uncalibrated();
            Mismatches bad;
            checkKernels(p, mo, bad);
            EXPECT_EQ(bad.checked, 243u);
            EXPECT_EQ(bad.ratios, 0u) << "ratios vs StatStack::missRatio";
            EXPECT_EQ(bad.globalLimits, 0u) << "global limits";
            EXPECT_EQ(bad.windowLimits, 0u) << "per-window limits";
            EXPECT_EQ(bad.strideMlp, 0u) << "mlpEstimate vs strideMlp";
            EXPECT_EQ(bad.coldMlp, 0u) << "mlpEstimate vs coldMissMlp";
            EXPECT_EQ(bad.resolution, 0u) << "vs branchResolutionTime";
            EXPECT_EQ(bad.chains, 0u) << "chainWeights vs per-op loop";
            EXPECT_EQ(bad.branch, 0u) << "branch rates vs missRate";
        }
    }
}

// ---------------------------------------------------------------------------
// One context, any options
// ---------------------------------------------------------------------------

/** Bitwise comparison of every ModelResult field the model fills. */
bool
sameResult(const ModelResult &a, const ModelResult &b)
{
    bool ok = same(a.cycles, b.cycles) && same(a.uops, b.uops) &&
        same(a.instructions, b.instructions) && same(a.deff, b.deff) &&
        same(a.avgLatency, b.avgLatency) &&
        same(a.stack.base, b.stack.base) &&
        same(a.stack.branch, b.stack.branch) &&
        same(a.stack.icache, b.stack.icache) &&
        same(a.stack.llcHit, b.stack.llcHit) &&
        same(a.stack.dram, b.stack.dram) &&
        sameLimits(a.limits, b.limits) &&
        same(a.branchMissRate, b.branchMissRate) &&
        same(a.branchMisses, b.branchMisses) &&
        same(a.branchResolution, b.branchResolution) &&
        same(a.loadMissesL1, b.loadMissesL1) &&
        same(a.loadMissesL2, b.loadMissesL2) &&
        same(a.loadMissesL3, b.loadMissesL3) &&
        same(a.storeMissesL1, b.storeMissesL1) &&
        same(a.storeMissesL2, b.storeMissesL2) &&
        same(a.storeMissesL3, b.storeMissesL3) &&
        same(a.ifetchMissesL1, b.ifetchMissesL1) &&
        same(a.ifetchMissesL2, b.ifetchMissesL2) &&
        same(a.ifetchMissesL3, b.ifetchMissesL3) &&
        same(a.mlp, b.mlp) && same(a.busCyclesPerMiss, b.busCyclesPerMiss) &&
        same(a.llcChainPenalty, b.llcChainPenalty) &&
        a.activity.cycles == b.activity.cycles &&
        a.activity.dramAccesses == b.activity.dramAccesses &&
        a.activity.l2Accesses == b.activity.l2Accesses &&
        a.windowCpi.size() == b.windowCpi.size();
    for (size_t i = 0; ok && i < a.windowCpi.size(); ++i)
        ok = same(a.windowCpi[i], b.windowCpi[i]);
    return ok;
}

/** A few thesis-grid points plus off-grid ones (odd width, a ROB size
 *  between profiled sizes, a small L1D), prefetcher on and off. */
std::vector<CoreConfig>
mixedConfigs()
{
    DesignSpace space;
    std::vector<CoreConfig> cfgs = {space[0], space[121], space[242]};
    CoreConfig odd = CoreConfig::nehalemReference();
    odd.setWidth(3);
    scaleBackEnd(odd, 96);
    odd.l1d.sizeBytes = 8 * 1024;
    scaleCacheLatencies(odd);
    cfgs.push_back(odd);
    odd.prefetcherEnabled = true;
    cfgs.push_back(odd);
    CoreConfig pf = CoreConfig::nehalemReference();
    pf.prefetcherEnabled = true;
    cfgs.push_back(pf);
    return cfgs;
}

TEST(EvalKernels, OneContextServesEveryOptionMix)
{
    Profile p = makeProfile("ptr_chase", 40000);
    const std::vector<CoreConfig> cfgs = mixedConfigs();
    std::vector<ModelOptions> variants;
    for (auto level : {ModelOptions::BaseLevel::Instructions,
                       ModelOptions::BaseLevel::MicroOps,
                       ModelOptions::BaseLevel::CriticalPath,
                       ModelOptions::BaseLevel::Functional})
        for (auto mlp : {ModelOptions::MlpMode::None,
                         ModelOptions::MlpMode::ColdMiss,
                         ModelOptions::MlpMode::Stride})
            for (bool prefetch : {false, true})
                for (double inject : {0.0, 0.4}) {
                    ModelOptions mo;
                    mo.baseLevel = level;
                    mo.mlpMode = mlp;
                    mo.modelPrefetcher = prefetch;
                    mo.cal.coldInject = inject;
                    variants.push_back(mo);
                }

    // Interleave: consecutive evaluations on the shared context switch
    // options and configuration, so every memo table sees keys that
    // differ only in option fields.
    EvalContext shared(p);
    size_t bad = 0, total = 0;
    for (int pass = 0; pass < 2; ++pass)
        for (size_t v = 0; v < variants.size(); ++v)
            for (size_t c = 0; c < cfgs.size(); ++c) {
                const ModelOptions &mo =
                    variants[(v + c * 7) % variants.size()];
                const CoreConfig &cfg = cfgs[c];
                EvalContext fresh(p);
                bad += !sameResult(evaluateModel(shared, cfg, mo),
                                   evaluateModel(fresh, cfg, mo));
                ++total;
            }
    EXPECT_EQ(total, 2 * variants.size() * cfgs.size());
    EXPECT_EQ(bad, 0u);
}

TEST(EvalKernels, ReusedOptionsWithChangingBranchModel)
{
    // Calibration reuses one ModelOptions object and rewrites its
    // branchModel between calls; the branch memo must follow the value,
    // not the (unchanged) address of the optional's payload.
    Profile p = makeProfile("branchy", 40000);
    const CoreConfig cfg = CoreConfig::nehalemReference();
    const BranchMissModel models[] = {
        {BranchPredictorKind::GShare, 0.44, 0.005, 1.0, 0.0},
        {BranchPredictorKind::GShare, 0.30, 0.010, 0.6, 0.2},
        {BranchPredictorKind::GShare, 0.44, 0.005, 0.5, 0.3},
        {BranchPredictorKind::Tournament, 0.20, 0.001, 1.0, 0.0},
    };
    EvalContext shared(p);
    ModelOptions mo;
    for (int pass = 0; pass < 2; ++pass)
        for (const BranchMissModel &bm : models) {
            mo.branchModel = bm;
            EvalContext fresh(p);
            ModelResult a = evaluateModel(shared, cfg, mo);
            ModelResult b = evaluateModel(fresh, cfg, mo);
            EXPECT_TRUE(sameResult(a, b))
                << "slope " << bm.slope << " knee " << bm.knee;
            EXPECT_EQ(a.branchMissRate,
                      bm.missRate(p.branch.entropy()));
        }
    // The coefficients really change the prediction.
    mo.branchModel = models[0];
    double r0 = evaluateModel(shared, cfg, mo).branchMisses;
    mo.branchModel = models[1];
    EXPECT_NE(evaluateModel(shared, cfg, mo).branchMisses, r0);
}

} // namespace
} // namespace mipp
