/**
 * explore-validate: the paper's section 7 workflow. sweepEx in
 * ModelThenSimPareto mode evaluates the model over the 243-point thesis
 * space and detail-simulates only the model's Pareto front plus a few
 * validation samples, for suite workloads dse-million does not use.
 * Only here does the sim layer do the work; every simulated point is
 * scored against its model prediction.
 */
#include <bit>
#include <cmath>
#include <cstdio>

#include "common.hh"
#include "dse/explorer.hh"
#include "model/eval_cache.hh"
#include "profiler/profiler.hh"
#include "uarch/design_space.hh"
#include "validate/accuracy.hh"
#include "workloads/workload.hh"

namespace pb {

namespace {

using namespace mipp;

constexpr const char *kWorkloads[] = {"matrix_tile", "stencil",
                                      "hash_build"};
constexpr size_t kUops = 15000;
constexpr size_t kValidationSamples = 6;
/** Stack-vs-cycles tolerance of the consistency checks (the accuracy
 *  harness's default). */
constexpr double kStackTolerance = 0.01;

struct Inputs {
    std::vector<Trace> traces;
    std::vector<Profile> profiles;
};

Inputs
makeInputs(const Args &args)
{
    Inputs in;
    for (const char *name : kWorkloads) {
        WorkloadSpec spec = suiteWorkload(name);
        spec.seed = mixSeed(spec.seed, args.seed);
        in.traces.push_back(generateWorkload(spec, kUops));
        in.profiles.push_back(profileTrace(in.traces.back(), {.name = name}));
    }
    return in;
}

SweepResult
explore(const Inputs &in, const DesignSpace &space, unsigned threads)
{
    SweepOptions so;
    so.mode = SweepMode::ModelThenSimPareto;
    so.threads = threads;
    so.validationSamples = kValidationSamples;
    obs::ScopedSpan span("dse.sweepEx");
    return sweepEx(in.traces, in.profiles, space.configs(), {}, so);
}

/** Simulation budget ModelThenSimPareto promises: front + samples. */
size_t
expectedSims(const SweepResult &r)
{
    size_t n = 0;
    for (const auto &f : r.modelFronts)
        n += f.size() + std::min(kValidationSamples, r.nConfigs - f.size());
    return n;
}

bool
samePoint(const SweepPoint &x, const SweepPoint &y)
{
    return x.simulated == y.simulated &&
           std::bit_cast<uint64_t>(x.modelCpi) ==
               std::bit_cast<uint64_t>(y.modelCpi) &&
           std::bit_cast<uint64_t>(x.simCpi) ==
               std::bit_cast<uint64_t>(y.simCpi) &&
           std::bit_cast<uint64_t>(x.simWatts) ==
               std::bit_cast<uint64_t>(y.simWatts);
}

/** Whether workload @p wi of @p ref equals the one-workload sweep @p r
 *  (or, with wi == SIZE_MAX, the full sweeps agree point for point). */
bool
samePoints(const SweepResult &r, const SweepResult &ref, size_t wi)
{
    if (wi == SIZE_MAX) {
        if (r.points.size() != ref.points.size())
            return false;
        for (size_t i = 0; i < r.points.size(); ++i)
            if (!samePoint(r.points[i], ref.points[i]))
                return false;
        return true;
    }
    if (r.nWorkloads != 1 || r.nConfigs != ref.nConfigs)
        return false;
    for (size_t ci = 0; ci < r.nConfigs; ++ci)
        if (!samePoint(r.points[ci], ref.at(wi, ci)))
            return false;
    return true;
}

struct Accuracy {
    double cpiMape = 0, powerMape = 0;
    size_t points = 0;
};

Accuracy
score(const SweepResult &r)
{
    Accuracy a;
    for (const SweepPoint &pt : r.points) {
        if (!pt.simulated)
            continue;
        a.cpiMape += std::abs(pt.cpiError());
        a.powerMape += std::abs(pt.powerError());
        ++a.points;
    }
    if (a.points) {
        a.cpiMape *= 100.0 / a.points;
        a.powerMape *= 100.0 / a.points;
    }
    return a;
}

/**
 * Sweep samples: nproc rounds over every workload, nproc sweeps of one
 * workload each (the per-workload latency) and, in the traced run,
 * one-thread sweeps of one workload each for the parallel efficiency.
 * Rates are medians, which shrug off a sweep slowed by the host.
 */
struct ExploreStats {
    explicit ExploreStats(size_t workloads)
        : singleS(workloads), oneS(workloads), sims(workloads)
    {
    }

    std::vector<double> rates;                // nproc rounds
    std::vector<std::vector<double>> singleS; // per workload, nproc
    std::vector<std::vector<double>> oneS;    // per workload, 1 thread
    std::vector<size_t> sims;                 // per workload, one alone
    uint64_t sent = 0, ok = 0, failed = 0;
    SweepResult ref;                          // the first nproc round

    double rate() const { return median(rates); }
    /** Host ms per simulated point of a one-workload nproc sweep: mean
     *  over workloads of each one's median. Per point, because the
     *  model's fronts, and so the simulations, change with the seed. */
    double
    singleMsPerSim() const
    {
        std::vector<std::vector<double>> ms(singleS.size());
        for (size_t wi = 0; wi < singleS.size(); ++wi)
            for (double s : singleS[wi])
                ms[wi].push_back(1e3 * s / static_cast<double>(sims[wi]));
        return meanOfMedians(ms);
    }
    /** One-thread rate of a full pass: every workload at its median. */
    double
    oneRate() const
    {
        double uops = 0, secs = 0;
        for (size_t wi = 0; wi < oneS.size(); ++wi) {
            if (oneS[wi].empty())
                return 0;
            uops += static_cast<double>(sims[wi] * kUops);
            secs += median(oneS[wi]);
        }
        return uops / secs;
    }
};

/** One nproc sweepEx over every workload, checked against the first. */
void
parRound(const Inputs &in, const DesignSpace &space, unsigned threads,
         ExploreStats &st)
{
    Clock::time_point t0 = Clock::now();
    SweepResult r = explore(in, space, threads);
    double dt = since(t0);
    ++st.sent;
    bool good = r.status.isOk() && !r.degraded && r.simInvocations > 0 &&
                r.simInvocations == expectedSims(r) &&
                (st.ref.points.empty() || samePoints(r, st.ref, SIZE_MAX));
    if (!good) {
        ++st.failed;
        return;
    }
    ++st.ok;
    st.rates.push_back(static_cast<double>(r.simInvocations * kUops) / dt);
    if (st.ref.points.empty())
        st.ref = std::move(r);
}

/** sweepEx of workload @p wi alone at @p threads, checked against its
 *  row of the nproc reference; the time goes to (*secs)[wi]. */
void
singleRound(const Inputs &single, size_t wi, const DesignSpace &space,
            unsigned threads, std::vector<std::vector<double>> *secs,
            ExploreStats &st)
{
    Clock::time_point t0 = Clock::now();
    SweepResult r = explore(single, space, threads);
    double dt = since(t0);
    ++st.sent;
    bool good = r.status.isOk() && !r.degraded &&
                r.simInvocations == expectedSims(r) &&
                !st.ref.points.empty() && samePoints(r, st.ref, wi);
    if (!good) {
        ++st.failed;
        return;
    }
    ++st.ok;
    (*secs)[wi].push_back(dt);
    st.sims[wi] = r.simInvocations;
}

/**
 * Internal-consistency invariants on both sides for one front point per
 * workload, and the re-simulated CPI against the sweep's value.
 */
size_t
violations(const Inputs &in, const DesignSpace &space,
           const SweepResult &r)
{
    obs::ScopedSpan span("validate.consistency");
    size_t bad = 0;
    for (size_t wi = 0; wi < in.traces.size(); ++wi) {
        if (r.modelFronts[wi].empty()) {
            ++bad;
            continue;
        }
        size_t ci = r.modelFronts[wi].front();
        SimResult sim;
        {
            obs::ScopedSpan s("sim.simulate");
            sim = simulate(in.traces[wi], space[ci]);
        }
        ModelResult m;
        {
            obs::ScopedSpan s("model.evaluateModel");
            m = evaluateModel(in.profiles[wi], space[ci]);
        }
        std::vector<std::string> found =
            checkSimConsistency(sim, kStackTolerance);
        for (std::string &v : checkModelConsistency(m, kStackTolerance))
            found.push_back(std::move(v));
        for (const std::string &v : found)
            std::printf("  violation %s: %s\n", kWorkloads[wi], v.c_str());
        bad += found.size();
        if (std::bit_cast<uint64_t>(sim.cpiPerUop()) !=
            std::bit_cast<uint64_t>(r.at(wi, ci).simCpi))
            ++bad;
    }
    return bad;
}

} // namespace

int
runExploreValidate(const Args &args)
{
    Report rep(args.workload);
    const unsigned n = nproc();
    const DesignSpace space; // the 243-point thesis space
    Inputs in;
    std::vector<double> setupS;
    timeSetup(setupS, [&] { in = makeInputs(args); });
    RssPhases rss;
    rss.endSetup();
    std::vector<Inputs> single(in.traces.size());
    for (size_t wi = 0; wi < in.traces.size(); ++wi)
        single[wi] = {{in.traces[wi]}, {in.profiles[wi]}};

    ExploreStats st(in.traces.size());
    parRound(in, space, n, st);
    const SweepResult &ref = st.ref;

    if (!args.trace) {
        Clock::time_point t0 = Clock::now();
        // A sweep of every workload alternates with a sweep of the next
        // workload alone, so a slow stretch of the host hits both; the
        // last cycle is completed so that every workload has as many
        // single sweeps.
        for (size_t k = 0; since(t0) < args.seconds || k % single.size();
             ++k) {
            if (since(t0) < args.seconds)
                parRound(in, space, n, st);
            size_t wi = k % single.size();
            singleRound(single[wi], wi, space, n, &st.singleS, st);
        }
        double sweepMs = 1e3 * meanOfMedians(st.singleS);
        double perSimMs = st.singleMsPerSim();
        Accuracy acc = score(ref);
        size_t bad = ref.points.empty() ? 1 : violations(in, space, ref);

        rep.metric("throughput_per_s", st.rate(), "1/s");
        rep.metric("latency_p50_ms", perSimMs, "ms");
        rep.note("validate_sim_uops_per_s", st.rate(), "uops/s",
                 "median of " + std::to_string(st.rates.size()) +
                     " sweeps of all workloads at nproc");
        rep.note("workload_sweep_ms", sweepMs, "ms",
                 "sweepEx of one workload at nproc: mean over " +
                     std::to_string(single.size()) +
                     " workloads of each one's median, n=" +
                     std::to_string(st.singleS[0].size()) +
                     " per workload");
        rep.note("workload_sweep_ms_per_sim", perSimMs, "ms",
                 "the same sweeps per simulated point");
        rep.note("cpi_mape_pct", acc.cpiMape, "%",
                 std::to_string(acc.points) + " simulated points, seed " +
                     std::to_string(args.seed));
        rep.note("power_mape_pct", acc.powerMape, "%");
        rep.note("sim_invocations", static_cast<double>(ref.simInvocations),
                 "count", "per sweep");
        rep.phase("explore", st.sent, st.ok, st.failed);
        rep.check(st.failed == 0,
                  "sweeps complete, spend front+samples, repeat exactly");
        rep.check(bad == 0, "validate.violations == 0");
        reportRss(rep, rss);
        timeSetup(setupS, [&] { makeInputs(args); });
        rep.metric("setup_s", median(setupS), "s");
        return rep.finish();
    }

    // Traced run: overhead from nproc sweeps alternating without and
    // with the recorder, so a slow stretch of the host hits both sides;
    // one-thread sweeps for the parallel efficiency.
    obs::SpanRecorder rec(1 << 20);
    double plainS = 0, tracedS = 0;
    for (int i = 0; i < 3; ++i) {
        Clock::time_point t0 = Clock::now();
        parRound(in, space, n, st);
        plainS += since(t0);
        rec.install();
        t0 = Clock::now();
        parRound(in, space, n, st);
        tracedS += since(t0);
        obs::SpanRecorder::uninstall();
    }
    for (size_t wi = 0; wi < single.size(); ++wi)
        singleRound(single[wi], wi, space, 1, &st.oneS, st);
    double parRate = st.rate(), oneRate = st.oneRate();

    rec.install();
    double simUops = 0;
    Clock::time_point t0 = Clock::now();
    for (size_t wi = 0; wi < in.traces.size(); ++wi) {
        obs::ScopedSpan span("sim.simulate");
        simUops += static_cast<double>(
            simulate(in.traces[wi], CoreConfig::nehalemReference()).uops);
    }
    double simS = since(t0);
    size_t bad = ref.points.empty() ? 1 : violations(in, space, ref);
    obs::SpanRecorder::uninstall();

    Accuracy acc = score(ref);
    rep.metric("sim.uops_per_s", simUops / simS, "uops/s");
    rep.metric("sim.parallel_efficiency", parRate / (n * oneRate), "ratio");
    rep.metric("dse.sim_invocations", static_cast<double>(ref.simInvocations),
               "count");
    rep.metric("validate.violations", static_cast<double>(bad), "count");
    rep.metric("validate.cpi_mape_pct", acc.cpiMape, "%");
    rep.metric("validate.power_mape_pct", acc.powerMape, "%");
    rep.phase("explore-traced", st.sent, st.ok, st.failed);
    rep.check(st.failed == 0,
              "sweeps complete and identical across thread counts");
    rep.check(bad == 0, "validate.violations == 0");
    reportTrace(rep, args, rec, 100.0 * (tracedS - plainS) / plainS);
    fillUnusedLayerMetrics(rep);
    return rep.finish();
}

} // namespace pb
