/**
 * Regenerates thesis Fig 7.10-7.13: the mechanistic model versus an
 * empirical (regression) model for design-space pruning. The empirical
 * model is trained on a random subset of simulated points and evaluated
 * on the rest; the thesis finds it accurate on average but worse at
 * ranking (lower Pareto quality).
 */
#include "bench_util.hh"
#include "dse/empirical.hh"
#include "dse/explorer.hh"
#include "dse/pareto.hh"
#include "trace/rng.hh"
#include "uarch/design_space.hh"

using namespace mipp;
using namespace mipp::bench;

int
main()
{
    banner("Fig 7.10-7.13", "mechanistic vs empirical model");
    auto b = makeBundle({suiteWorkload("stream_add"),
                         suiteWorkload("dense_compute"),
                         suiteWorkload("matrix_tile"),
                         suiteWorkload("mix_mid")},
                        120000);
    DesignSpace space = DesignSpace::small();
    SweepResult r = sweepEx(b.traces, b.profiles, space.configs());

    // Train the empirical model on half the simulated points, drawn in
    // config-major order (the seeded split is positional).
    Rng rng(2026);
    EmpiricalModel emp;
    std::vector<bool> isTraining(r.points.size());
    for (size_t ci = 0; ci < r.nConfigs; ++ci)
        for (size_t wi = 0; wi < r.nWorkloads; ++wi) {
            const size_t i = wi * r.nConfigs + ci;
            isTraining[i] = rng.chance(0.5);
            if (isTraining[i])
                emp.addSample(space[ci], b.profiles[wi], r.points[i].simCpi,
                              r.points[i].simWatts);
        }
    if (!emp.train()) {
        std::printf("empirical model under-determined\n");
        return 1;
    }

    // Held-out accuracy of both models.
    std::vector<double> mechErr, empErr;
    for (size_t ci = 0; ci < r.nConfigs; ++ci)
        for (size_t wi = 0; wi < r.nWorkloads; ++wi) {
            if (isTraining[wi * r.nConfigs + ci])
                continue;
            const SweepPoint &pt = r.at(wi, ci);
            double e = emp.predictCpi(space[ci], b.profiles[wi]);
            mechErr.push_back(100 * pt.cpiError());
            empErr.push_back(pctErr(e, pt.simCpi));
        }
    std::printf("held-out CPI avg |err|: mechanistic %.1f%%, empirical "
                "%.1f%%\n\n", meanAbs(mechErr), meanAbs(empErr));

    // Pareto quality per workload for both models.
    std::printf("%-16s | %25s | %25s\n", "", "mechanistic",
                "empirical");
    std::printf("%-16s | %7s %7s %8s | %7s %7s %8s\n", "benchmark",
                "sens", "spec", "HVR", "sens", "spec", "HVR");
    double mh = 0, eh = 0;
    for (size_t wi = 0; wi < b.size(); ++wi) {
        std::vector<Objective> trueObj, mechObj, empObj;
        for (size_t ci = 0; ci < r.nConfigs; ++ci) {
            const SweepPoint &pt = r.at(wi, ci);
            trueObj.push_back({pt.simCpi, pt.simWatts});
            mechObj.push_back({pt.modelCpi, pt.modelWatts});
            const CoreConfig &cfg = space[ci];
            empObj.push_back(
                {emp.predictCpi(cfg, b.profiles[wi]),
                 emp.predictPower(cfg, b.profiles[wi])});
        }
        auto mm = compareFronts(trueObj, mechObj);
        auto em = compareFronts(trueObj, empObj);
        std::printf("%-16s | %6.1f%% %6.1f%% %7.1f%% | %6.1f%% %6.1f%% "
                    "%7.1f%%\n",
                    b.specs[wi].name.c_str(), 100 * mm.sensitivity,
                    100 * mm.specificity, 100 * mm.hvr,
                    100 * em.sensitivity, 100 * em.specificity,
                    100 * em.hvr);
        mh += mm.hvr;
        eh += em.hvr;
    }
    std::printf("\navg HVR: mechanistic %.1f%%, empirical %.1f%%  "
                "(paper: mechanistic ranks better)\n",
                100 * mh / b.size(), 100 * eh / b.size());
    return 0;
}
