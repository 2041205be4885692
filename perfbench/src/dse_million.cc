/**
 * dse-million: cold 2^20-point design-space sweeps. Set-up profiles four
 * suite workloads with different memo-table shapes and stores the
 * profiles to disk; the timed phase loads nothing more and sweeps every
 * profile over the generated space (width x ROB x L1D x L2 x L3 x DVFS)
 * with sweepGenerated and a fresh ModelEvalPool per call, as a cold CLI
 * invocation would. The batched model, power and dse layers do nearly
 * all the work.
 */
#include <bit>
#include <cstdio>
#include <random>
#include <stdexcept>

#include "common.hh"
#include "dse/explorer.hh"
#include "dse/pareto.hh"
#include "model/eval_cache.hh"
#include "power/power_model.hh"
#include "profiler/profile_io.hh"
#include "profiler/profiler.hh"
#include "uarch/design_space.hh"
#include "workloads/workload.hh"

namespace pb {

namespace {

using namespace mipp;

constexpr const char *kWorkloads[] = {"balanced_mix", "stream_add",
                                      "ptr_chase", "branchy"};
constexpr size_t kUops = 150000;
constexpr size_t kDvfs = 16;
constexpr size_t kPoints = 8 * 16 * 8 * 8 * 8 * kDvfs;
static_assert(kPoints == 1u << 20);

/**
 * Decodes a point index into a configuration: 8 widths x 16 ROB sizes x
 * 8 L1D x 8 L2 x 8 L3 x 16 DVFS steps, DVFS innermost.
 */
void
generatePoint(size_t ci, CoreConfig &out)
{
    static const CoreConfig base = CoreConfig::nehalemReference();
    if (out.ports.empty())
        out = base; // first use of this scratch slot
    size_t v = ci % kDvfs;
    ci /= kDvfs;
    size_t l3 = ci % 8;
    ci /= 8;
    size_t l2 = ci % 8;
    ci /= 8;
    size_t l1 = ci % 8;
    ci /= 8;
    size_t rob = ci % 16;
    ci /= 16;
    uint32_t width = static_cast<uint32_t>(ci) + 1;
    if (out.dispatchWidth != width)
        out.setWidth(width);
    scaleBackEnd(out, 32 + 16 * static_cast<uint32_t>(rob));
    out.l1d.sizeBytes = (8u << l1) * 1024;
    out.l2.sizeBytes = (128u << l2) * 1024;
    out.l3.sizeBytes = (1u << l3) * 1024 * 1024;
    scaleCacheLatencies(out);
    out.freqGHz = 1.20 + 0.14 * static_cast<double>(v);
    out.vdd = 0.85 + 0.025 * static_cast<double>(v);
}

CoreConfig
pointConfig(size_t ci)
{
    CoreConfig c;
    c.ports.clear();
    generatePoint(ci, c);
    return c;
}

/** Set-up: profile the workloads, store them, load them back. */
std::vector<Profile>
makeProfiles(const Args &args)
{
    std::vector<Profile> out;
    for (const char *name : kWorkloads) {
        WorkloadSpec spec = suiteWorkload(name);
        spec.seed = mixSeed(spec.seed, args.seed);
        Trace t = generateWorkload(spec, kUops);
        std::string path = args.workdir + "/dse-" + name + ".profile";
        if (!saveProfile(profileTrace(t, {.name = name}), path))
            throw std::runtime_error("cannot write " + path);
        Profile p;
        Status st = loadProfileChecked(path, p);
        if (!st.isOk())
            throw std::runtime_error("cannot load " + path + ": " +
                                     st.message());
        out.push_back(std::move(p));
    }
    return out;
}

/** One cold sweep of @p profiles over the generated space. */
SweepResult
coldSweep(const std::vector<Profile> &profiles, unsigned threads)
{
    ModelEvalPool pool;
    SweepOptions so;
    so.mode = SweepMode::ModelOnlyPareto;
    so.threads = threads;
    so.evalPool = &pool;
    obs::ScopedSpan span("dse.sweepGenerated");
    return sweepGenerated(profiles, kPoints, generatePoint, {}, so);
}

bool
sameFront(const std::vector<SweepPoint> &a, const std::vector<SweepPoint> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (a[i].configIdx != b[i].configIdx ||
            std::bit_cast<uint64_t>(a[i].modelCpi) !=
                std::bit_cast<uint64_t>(b[i].modelCpi) ||
            std::bit_cast<uint64_t>(a[i].modelWatts) !=
                std::bit_cast<uint64_t>(b[i].modelWatts))
            return false;
    return true;
}

/** Scalar re-evaluation of sampled front points, compared bitwise. */
bool
frontMatchesScalar(const Profile &p, const std::vector<SweepPoint> &front)
{
    if (front.empty())
        return false;
    size_t step = std::max<size_t>(1, front.size() / 8);
    for (size_t i = 0; i < front.size(); i += step) {
        CoreConfig cfg = pointConfig(front[i].configIdx);
        ModelResult m = evaluateModel(p, cfg);
        double watts = computePower(m.activity, cfg).total();
        if (std::bit_cast<uint64_t>(m.cpiPerUop()) !=
                std::bit_cast<uint64_t>(front[i].modelCpi) ||
            std::bit_cast<uint64_t>(watts) !=
                std::bit_cast<uint64_t>(front[i].modelWatts))
            return false;
    }
    return true;
}

/** Timed nproc rounds over every profile, nproc sweeps of one profile
 *  each (the per-profile latency), and one-thread sweeps of one profile
 *  each for the 1-vs-nproc front check. */
struct DseStats {
    explicit DseStats(size_t profiles) : soloS(profiles), oneS(profiles) {}

    std::vector<double> roundMs;              // nproc, all profiles
    std::vector<std::vector<double>> soloS;   // per profile, nproc
    std::vector<std::vector<double>> oneS;    // per profile, 1 thread
    uint64_t sent = 0, ok = 0, failed = 0;
    std::vector<std::vector<SweepPoint>> ref; // fronts of the first round

    /** nproc rate: median round over every profile. */
    double
    parRate() const
    {
        return static_cast<double>(oneS.size() * kPoints) /
               (median(roundMs) / 1e3);
    }
    /** One-thread rate of a full pass: every profile at its median. */
    double
    oneRate() const
    {
        double s = 0;
        for (const auto &v : oneS) {
            if (v.empty())
                return 0;
            s += median(v);
        }
        return static_cast<double>(oneS.size() * kPoints) / s;
    }
};

void
parRound(const std::vector<Profile> &profiles, unsigned n, DseStats &st)
{
    Clock::time_point t0 = Clock::now();
    SweepResult r = coldSweep(profiles, n);
    double dt = since(t0);
    st.roundMs.push_back(dt * 1e3);
    st.sent += profiles.size();
    if (st.ref.empty() && r.status.isOk() && !r.degraded)
        st.ref = r.frontPoints;
    for (size_t wi = 0; wi < profiles.size(); ++wi) {
        bool good = r.status.isOk() && !r.degraded &&
                    wi < r.frontPoints.size() &&
                    sameFront(r.frontPoints[wi], st.ref[wi]);
        good ? ++st.ok : ++st.failed;
    }
}

/** A cold sweep of profile @p wi alone at @p threads, checked against
 *  its front in the first round; the time goes to (*secs)[wi]. */
void
soloRound(const std::vector<Profile> &profiles, size_t wi, unsigned threads,
          std::vector<std::vector<double>> *secs, DseStats &st)
{
    Clock::time_point t0 = Clock::now();
    SweepResult r = coldSweep({profiles[wi]}, threads);
    (*secs)[wi].push_back(since(t0));
    ++st.sent;
    bool good = r.status.isOk() && !r.degraded && !st.ref.empty() &&
                r.frontPoints.size() == 1 &&
                sameFront(r.frontPoints[0], st.ref[wi]);
    good ? ++st.ok : ++st.failed;
}

/** Isolating calls into single model/power/dse functions (traced). */
void
layerCalls(const std::vector<Profile> &profiles, uint64_t seed,
           Report &rep)
{
    // 16 random batches of 256 consecutive points: the locality the
    // sweep's own 256-point batches see.
    std::mt19937_64 rng(mixSeed(7, seed));
    std::vector<CoreConfig> cfgs;
    for (int b = 0; b < 16; ++b) {
        size_t base = rng() % (kPoints / 256) * 256;
        for (size_t j = 0; j < 256; ++j)
            cfgs.push_back(pointConfig(base + j));
    }

    double buildS = 0, batchS = 0, ratioS = 0, dispS = 0, mlpS = 0;
    double resS = 0, powS = 0, insS = 0;
    double builds = 0, batched = 0, ratios = 0, disps = 0, mlps = 0;
    double resolves = 0, powers = 0, inserts = 0;
    for (const Profile &p : profiles) {
        Clock::time_point t0 = Clock::now();
        for (int r = 0; r < 5; ++r) {
            obs::ScopedSpan span("model.EvalContext");
            EvalContext ctx(p);
        }
        buildS += since(t0);
        builds += 5;

        EvalContext ctx(p);
        std::vector<BatchEval::Output> out(cfgs.size());
        {
            BatchEval be(ctx, {});
            be.evaluate(cfgs.data(), cfgs.size(), out.data()); // warm-up
            t0 = Clock::now();
            obs::ScopedSpan span("model.BatchEval");
            for (int r = 0; r < 3; ++r)
                be.evaluate(cfgs.data(), cfgs.size(), out.data());
            batchS += since(t0);
            batched += 3.0 * cfgs.size();
        }

        EvalContext fresh(p);
        double sink = 0;
        t0 = Clock::now();
        {
            obs::ScopedSpan span("model.dataMissRatio");
            for (const CoreConfig &c : cfgs) {
                sink += fresh.dataMissRatio(p.reuseLoads, c.l1d.numLines());
                sink += fresh.dataMissRatio(p.reuseLoads, c.l2.numLines());
                sink += fresh.dataMissRatio(p.reuseLoads, c.l3.numLines());
            }
        }
        ratioS += since(t0);
        ratios += 3.0 * cfgs.size();

        // Inputs of the direct calls come from a scalar evaluation.
        const auto &ws = ctx.windowStatics();
        std::vector<ModelResult> ms;
        std::vector<double> avgLat;
        for (size_t i = 0; i < 256; ++i) {
            ms.push_back(evaluateModel(ctx, cfgs[i]));
            double mr = ctx.dataMissRatio(p.reuseLoads,
                                          cfgs[i].l1d.numLines());
            avgLat.push_back(mixAvgLatency(ws.globalFrac, cfgs[i], mr));
        }
        t0 = Clock::now();
        {
            obs::ScopedSpan span("model.dispatchLimits");
            for (size_t i = 0; i < ms.size(); ++i)
                sink += dispatchLimits(ws.globalCounts,
                                       p.chains.cp(cfgs[i].robSize),
                                       avgLat[i], cfgs[i])
                            .effective();
        }
        dispS += since(t0);
        disps += ms.size();
        t0 = Clock::now();
        {
            obs::ScopedSpan span("model.branchResolutionTime");
            for (size_t i = 0; i < ms.size(); ++i)
                sink += branchResolutionTime(
                    p.chains, cfgs[i], avgLat[i],
                    ms[i].uops / std::max(1.0, ms[i].branchMisses));
        }
        resS += since(t0);
        resolves += ms.size();
        t0 = Clock::now();
        {
            obs::ScopedSpan span("model.strideMlp");
            for (size_t i = 0; i < 16; ++i)
                sink += strideMlp(p, cfgs[i], ctx.stats()).mlp;
        }
        mlpS += since(t0);
        mlps += 16;
        t0 = Clock::now();
        {
            obs::ScopedSpan span("power.computePower");
            for (int r = 0; r < 8; ++r)
                for (size_t i = 0; i < ms.size(); ++i)
                    sink += computePower(ms[i].activity, cfgs[i]).total();
        }
        powS += since(t0);
        powers += 8.0 * ms.size();
        t0 = Clock::now();
        {
            obs::ScopedSpan span("dse.ParetoAccumulator");
            for (int r = 0; r < 8; ++r) {
                ParetoAccumulator acc;
                for (size_t i = 0; i < out.size(); ++i)
                    acc.insert({out[i].modelCpi, out[i].modelWatts}, i);
                sink += static_cast<double>(acc.size());
            }
        }
        insS += since(t0);
        inserts += 8.0 * out.size();
        if (sink == 0)
            std::printf("  (sink %g)\n", sink);
    }
    rep.metric("statstack.build_ms", 1e3 * buildS / builds, "ms");
    rep.metric("model.batch_eval_ns", 1e9 * batchS / batched, "ns");
    rep.metric("model.ratios_ns", 1e9 * ratioS / ratios, "ns");
    rep.metric("model.dispatch_ns", 1e9 * dispS / disps, "ns");
    rep.metric("model.mlp_ns", 1e9 * mlpS / mlps, "ns");
    rep.metric("model.branch_res_ns", 1e9 * resS / resolves, "ns");
    rep.metric("power.compute_ns", 1e9 * powS / powers, "ns");
    rep.metric("dse.pareto_insert_ns", 1e9 * insS / inserts, "ns");
}

} // namespace

int
runDseMillion(const Args &args)
{
    Report rep(args.workload);
    const unsigned n = nproc();
    std::vector<Profile> profiles;
    std::vector<double> setupS;
    timeSetup(setupS, [&] { profiles = makeProfiles(args); });
    RssPhases rss;
    rss.endSetup();

    if (!args.trace) {
        DseStats st(profiles.size());
        Clock::time_point t0 = Clock::now();
        // An nproc round over every profile alternates with an nproc
        // sweep of the next profile alone, so a slow stretch of the host
        // hits both; the last cycle is completed so that every profile
        // has as many sweeps of its own.
        for (size_t k = 0; since(t0) < args.seconds || k % profiles.size();
             ++k) {
            if (since(t0) < args.seconds)
                parRound(profiles, n, st);
            soloRound(profiles, k % profiles.size(), n, &st.soloS, st);
        }
        // After the timed phase: one-thread sweeps for the front check.
        for (size_t wi = 0; wi < profiles.size(); ++wi)
            soloRound(profiles, wi, 1, &st.oneS, st);
        double sweepMs = 1e3 * meanOfMedians(st.soloS);

        bool scalarOk = !st.ref.empty();
        size_t frontSize = 0;
        for (size_t wi = 0; scalarOk && wi < profiles.size(); ++wi) {
            scalarOk = frontMatchesScalar(profiles[wi], st.ref[wi]);
            frontSize += st.ref[wi].size();
        }
        rep.metric("throughput_per_s", st.parRate(), "1/s");
        rep.metric("latency_p50_ms", sweepMs, "ms");
        rep.note("sweep_points_per_s", st.parRate(), "points/s",
                 "median of " + std::to_string(st.roundMs.size()) +
                     " rounds of " +
                     std::to_string(profiles.size()) + " x 2^20 points");
        rep.note("sweep_one_profile_ms", sweepMs, "ms",
                 "cold 2^20-point sweep of one profile at nproc: mean "
                 "over " + std::to_string(profiles.size()) +
                     " profiles of each one's median, n=" +
                     std::to_string(st.soloS[0].size()) + " per profile");
        rep.note("sweep_1t_points_per_s", st.oneRate(), "points/s",
                 "one-thread sweep of each profile, untimed check");
        rep.note("front_points", static_cast<double>(frontSize), "count");
        rep.phase("sweep", st.sent, st.ok, st.failed);
        rep.check(st.failed == 0,
                  "fronts identical across rounds and 1 vs nproc threads");
        rep.check(scalarOk,
                  "sampled front points equal scalar evaluateModel bitwise");
        reportRss(rep, rss);
        timeSetup(setupS, [&] { makeProfiles(args); });
        rep.metric("setup_s", median(setupS), "s");
        return rep.finish();
    }

    // Traced run. Overhead: nproc rounds alternating without and with
    // the recorder, so a slow stretch of the host hits both sides.
    DseStats plain(profiles.size()), traced(profiles.size());
    obs::SpanRecorder rec(1 << 20);
    double plainS = 0, tracedS = 0;
    for (int i = 0; i < 3; ++i) {
        Clock::time_point t0 = Clock::now();
        parRound(profiles, n, plain);
        plainS += since(t0);
        rec.install();
        t0 = Clock::now();
        parRound(profiles, n, traced);
        tracedS += since(t0);
        obs::SpanRecorder::uninstall();
    }
    for (size_t wi = 0; wi < profiles.size(); ++wi)
        soloRound(profiles, wi, 1, &plain.oneS, plain);

    rec.install();
    layerCalls(profiles, args.seed, rep);
    obs::SpanRecorder::uninstall();

    size_t frontSize = 0;
    for (const auto &f : traced.ref)
        frontSize += f.size();
    rep.metric("dse.front_size", static_cast<double>(frontSize), "count");
    rep.metric("dse.parallel_efficiency",
               plain.parRate() / (n * plain.oneRate()),
               "ratio");
    rep.phase("sweep-traced", plain.sent + traced.sent,
              plain.ok + traced.ok, plain.failed + traced.failed);
    rep.check(plain.failed + traced.failed == 0,
              "fronts identical across rounds and 1 vs nproc threads");
    reportTrace(rep, args, rec, 100.0 * (tracedS - plainS) / plainS);
    fillUnusedLayerMetrics(rep);
    return rep.finish();
}

} // namespace pb
