/**
 * Regenerates thesis Fig 6.8-6.10: power prediction error across the
 * design space (TC'16: 4.3 % average).
 */
#include <algorithm>

#include "bench_util.hh"
#include "dse/explorer.hh"
#include "uarch/design_space.hh"

using namespace mipp;
using namespace mipp::bench;

int
main()
{
    banner("Fig 6.9/6.10", "power error across the design space");
    auto b = makeBundle({suiteWorkload("stream_add"),
                         suiteWorkload("ptr_chase"),
                         suiteWorkload("dense_compute"),
                         suiteWorkload("matrix_tile"),
                         suiteWorkload("mix_mid"),
                         suiteWorkload("balanced_mix")},
                        120000);
    DesignSpace space = DesignSpace::small();
    SweepResult r = sweepEx(b.traces, b.profiles, space.configs());

    // Cumulative error distribution (Fig 6.8-style).
    std::vector<double> errs;
    for (const SweepPoint &pt : r.points)
        errs.push_back(std::fabs(100 * pt.powerError()));
    std::sort(errs.begin(), errs.end());
    std::printf("cumulative power |err| distribution:\n");
    for (double q : {0.25, 0.5, 0.75, 0.9, 1.0}) {
        size_t idx = std::min(errs.size() - 1,
                              static_cast<size_t>(q * errs.size()));
        std::printf("  p%-3.0f %6.1f%%\n", q * 100, errs[idx]);
    }
    double sum = 0;
    for (double e : errs)
        sum += e;
    std::printf("\ndesign-space power error: avg |err| %.1f%%, max %.1f%%"
                "  (paper: 4.3%%-7%% avg)\n",
                sum / errs.size(), errs.back());
    return 0;
}
