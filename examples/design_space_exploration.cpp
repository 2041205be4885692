/**
 * @file
 * Design-space exploration: the paper's motivating use case, end to end.
 *
 * One profiling run per workload, then the sweep driver evaluates the
 * design space in the selected mode:
 *
 *   --mode model    analytical model only (default; milliseconds for the
 *                   full space — this is how million-point spaces scale)
 *   --mode pareto   model everywhere, then detailed simulation on the
 *                   model-predicted Pareto front + a validation sample
 *                   (the paper's §7 prune-then-validate workflow)
 *   --mode paired   simulate + model every point (ground-truth reference;
 *                   slow — O(points x sim))
 *   --streaming     streaming sweep (ModelOnlyPareto): the model mode
 *                   without the point grid, so memory stays O(front)
 *                   however large the space
 *
 * Other flags:
 *   --threads N     sweep concurrency (0 = all cores, 1 = serial)
 *   --validate N    extra simulated off-front configs per workload
 *                   (pareto mode; default 2)
 *   --full          243-point space instead of the 27-point subspace
 *   --uops N        trace length per workload (default 120000)
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "dse/explorer.hh"
#include "profiler/profiler.hh"
#include "sweep_flags.hh"
#include "uarch/design_space.hh"
#include "workloads/workload.hh"

namespace {

using namespace mipp;

double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mipp;

    examples::SweepFlags flags;
    flags.uops = 120000;
    if (!flags.parse(argc - 1, argv + 1, argv[0]))
        return 2;
    const SweepOptions &sopts = flags.sopts;
    const bool full = flags.full;
    const size_t uops = flags.uops;

    std::vector<Trace> traces;
    std::vector<Profile> profiles;
    std::vector<std::string> names;
    auto t0 = std::chrono::steady_clock::now();
    for (const char *name : {"matrix_tile", "ptr_chase", "balanced_mix"}) {
        WorkloadSpec spec = suiteWorkload(name);
        traces.push_back(generateWorkload(spec, uops));
        profiles.push_back(profileTrace(traces.back(), {.name = name}));
        names.push_back(name);
    }
    std::printf("profiled %zu workloads once (%.1f ms, %zu uops each)\n\n",
                profiles.size(), msSince(t0), uops);

    DesignSpace space = full ? DesignSpace() : DesignSpace::small();

    t0 = std::chrono::steady_clock::now();
    SweepResult r = sweepEx(traces, profiles, space.configs(), {}, sopts);
    double ms = msSince(t0);

    const char *modeName =
        sopts.mode == SweepMode::ModelOnly
            ? "model-only"
            : (sopts.mode == SweepMode::Paired
                   ? "paired"
                   : (sopts.mode == SweepMode::ModelOnlyPareto
                          ? "streaming-pareto"
                          : "model+sim-pareto"));
    size_t points = r.nWorkloads * r.nConfigs;
    std::printf("swept %zu points (%zu workloads x %zu configs) in "
                "%.1f ms [%s]\n",
                points, r.nWorkloads, r.nConfigs, ms, modeName);
    std::printf("detailed simulations spent: %zu of %zu points "
                "(%.3f ms per point overall)\n\n",
                r.simInvocations, points, points ? ms / points : 0);

    for (size_t wi = 0; wi < r.nWorkloads; ++wi) {
        // Every mode delivers the model front directly.
        const std::vector<SweepPoint> &front = r.frontPoints[wi];
        std::printf("%s — predicted Pareto front (%zu of %zu designs):\n",
                    names[wi].c_str(), front.size(), r.nConfigs);
        for (const SweepPoint &pt : front) {
            std::printf("  %-30s CPI %7.3f  W %6.2f",
                        space[pt.configIdx].name.c_str(), pt.modelCpi,
                        pt.modelWatts);
            if (pt.simulated)
                std::printf("   (sim: %7.3f / %6.2f, err %+.1f%%)",
                            pt.simCpi, pt.simWatts, 100 * pt.cpiError());
            std::printf("\n");
        }
        std::printf("\n");
    }
    return 0;
}
