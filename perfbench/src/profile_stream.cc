/**
 * profile-stream: the real-trace ingest path. Suite traces are recorded
 * to `.mtf` in set-up; the timed phase opens each file and profiles it
 * through MtfTraceSource, in rounds that alternate profileSourceParallel
 * at nproc threads (throughput) and profileSource at one thread (the
 * per-file latency). The trace and profiler layers do nearly all the
 * work.
 */
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "common.hh"
#include "profiler/profile_io.hh"
#include "profiler/profiler.hh"
#include "trace/mtf.hh"
#include "workloads/workload.hh"

namespace pb {

namespace {

using namespace mipp;

/** Large footprint, branch- and chain-dominated, and a balanced mix. */
constexpr const char *kTraces[] = {"cold_sweep", "branchy", "mix_mid"};
constexpr size_t kUopsPerTrace = 1000000;

struct Recorded {
    std::string name;
    std::string path;
    uint64_t uops = 0;
};

/**
 * TraceSource decorator that times each segment fetch as a "trace.next"
 * span, so decode shows up as its own layer inside the profiler's span.
 * One span per segment, never per uop.
 */
class SpannedSource final : public TraceSource
{
  public:
    explicit SpannedSource(TraceSource &inner) : inner_(inner) {}
    uint64_t sizeHint() const override { return inner_.sizeHint(); }
    TraceSegment
    next(size_t maxUops) override
    {
        obs::ScopedSpan span("trace.next");
        return inner_.next(maxUops);
    }
    void reset() override { inner_.reset(); }

  private:
    TraceSource &inner_;
};

std::vector<Recorded>
recordTraces(const Args &args)
{
    std::vector<Recorded> out;
    for (const char *name : kTraces) {
        WorkloadSpec spec = suiteWorkload(name);
        spec.seed = mixSeed(spec.seed, args.seed);
        Trace t = generateWorkload(spec, kUopsPerTrace);
        Recorded r{name, args.workdir + "/ps-" + name + ".mtf", t.size()};
        Status st = saveMtf(t, r.path);
        if (!st.isOk())
            throw std::runtime_error("saveMtf " + r.path + ": " +
                                     st.message());
        out.push_back(std::move(r));
    }
    return out;
}

std::string
profileBytes(const Profile &p)
{
    std::ostringstream os;
    writeProfile(p, os);
    return os.str();
}

/** Open one recorded trace and profile it; false on an open error. */
bool
profileFile(const Recorded &r, unsigned threads, Profile &out)
{
    std::unique_ptr<MtfTraceSource> src;
    {
        obs::ScopedSpan span("trace.open");
        if (!MtfTraceSource::open(r.path, src).isOk())
            return false;
    }
    SpannedSource spanned(*src);
    ProfilerConfig cfg;
    cfg.name = r.name;
    if (threads == 1) {
        obs::ScopedSpan span("profiler.profileSource");
        out = profileSource(spanned, cfg);
    } else {
        obs::ScopedSpan span("profiler.profileSourceParallel");
        out = profileSourceParallel(spanned, cfg, {.threads = threads});
    }
    return true;
}

/** Per-mode accounting over rounds of every trace. Rates are medians
 *  of per-round rates, which shrug off a round slowed by the host. */
struct ModeStats {
    explicit ModeStats(size_t traces) : fileMs(traces) {}

    uint64_t sent = 0, ok = 0, failed = 0;
    std::vector<double> roundRates;
    std::vector<std::vector<double>> fileMs; // per trace: open + profile
    double rate() const { return median(roundRates); }
};

/**
 * One round: every recorded trace profiled once at @p threads. Each
 * profile's bytes are compared against the reference (the first
 * one-thread profile of that trace), outside the timed region.
 */
void
round(const std::vector<Recorded> &traces, unsigned threads,
      std::vector<std::string> &refBytes, ModeStats &ms)
{
    double roundS = 0, roundUops = 0;
    for (size_t i = 0; i < traces.size(); ++i) {
        Profile p;
        Clock::time_point t0 = Clock::now();
        bool opened = profileFile(traces[i], threads, p);
        double dt = since(t0);
        roundS += dt;
        ms.fileMs[i].push_back(dt * 1e3);
        ++ms.sent;
        if (!opened) {
            ++ms.failed;
            continue;
        }
        roundUops += static_cast<double>(p.totalUops);
        std::string bytes = profileBytes(p);
        if (refBytes[i].empty() && threads == 1)
            refBytes[i] = bytes;
        if (p.totalUops != traces[i].uops ||
            (!refBytes[i].empty() && bytes != refBytes[i]))
            ++ms.failed;
        else
            ++ms.ok;
    }
    ms.roundRates.push_back(roundUops / roundS);
}

} // namespace

int
runProfileStream(const Args &args)
{
    Report rep(args.workload);
    const unsigned n = nproc();
    std::vector<Recorded> traces;
    std::vector<double> setupS;
    timeSetup(setupS, [&] { traces = recordTraces(args); });
    RssPhases rss;
    rss.endSetup();

    std::vector<std::string> refBytes(traces.size());
    ModeStats par(traces.size()), one(traces.size());
    // The reference bytes come from the first one-thread round.
    round(traces, 1, refBytes, one);

    if (!args.trace) {
        Clock::time_point t0 = Clock::now();
        // Rounds alternate nproc and one thread, so a slow stretch of the
        // host hits both; every one-thread round also re-checks that
        // profiles repeat exactly.
        for (size_t r = 0; since(t0) < args.seconds; ++r)
            round(traces, r % 2 ? 1 : n, refBytes, r % 2 ? one : par);
        double fileMs = meanOfMedians(one.fileMs);
        rep.metric("throughput_per_s", par.rate(), "1/s");
        rep.metric("latency_p50_ms", fileMs, "ms");
        rep.note("profile_uops_per_s", par.rate(), "uops/s",
                 "profileSourceParallel, " + std::to_string(n) +
                     " threads, median of " +
                     std::to_string(par.roundRates.size()) + " rounds");
        rep.note("profile_1t_uops_per_s", one.rate(), "uops/s",
                 "profileSource, median of " +
                     std::to_string(one.roundRates.size()) + " rounds");
        rep.note("profile_1t_file_ms", fileMs, "ms",
                 "open + profileSource of one 1M-uop file: mean over " +
                     std::to_string(traces.size()) +
                     " files of each file's median, n=" +
                     std::to_string(one.fileMs[0].size()) + " per file");
        rep.phase("profile-nproc", par.sent, par.ok, par.failed);
        rep.phase("profile-1t", one.sent, one.ok, one.failed);
        rep.check(par.failed == 0 && par.ok > 0,
                  "nproc-thread profiles byte-identical to 1-thread");
        rep.check(one.failed == 0, "1-thread profiles repeat exactly");
        reportRss(rep, rss);
        timeSetup(setupS, [&] { recordTraces(args); });
        rep.metric("setup_s", median(setupS), "s");
        return rep.finish();
    }

    // Traced run: overhead from the same fixed rounds alternating
    // without and with the recorder, so a slow stretch of the host hits
    // both sides; then isolating calls into single layers.
    ModeStats plainPar(traces.size()), plainOne(traces.size());
    ModeStats tracedPar(traces.size()), tracedOne(traces.size());
    obs::SpanRecorder rec(1 << 20);
    double plainS = 0, tracedS = 0;
    for (int i = 0; i < 3; ++i) {
        Clock::time_point t0 = Clock::now();
        round(traces, n, refBytes, plainPar);
        round(traces, 1, refBytes, plainOne);
        plainS += since(t0);
        rec.install();
        t0 = Clock::now();
        round(traces, n, refBytes, tracedPar);
        round(traces, 1, refBytes, tracedOne);
        tracedS += since(t0);
        obs::SpanRecorder::uninstall();
    }
    rec.install();

    double decodeUops = 0, decodeS = 0;
    double passUops = 0, passS = 0, memParUops = 0, memParS = 0;
    for (const Recorded &r : traces) {
        std::unique_ptr<MtfTraceSource> src;
        if (!MtfTraceSource::open(r.path, src).isOk())
            throw std::runtime_error("cannot reopen " + r.path);
        Clock::time_point t0 = Clock::now();
        {
            obs::ScopedSpan span("trace.drain");
            for (TraceSegment s; !(s = src->next(1 << 16)).empty();)
                decodeUops += static_cast<double>(s.size);
        }
        decodeS += since(t0);

        Trace t;
        if (!loadMtfTrace(r.path, t).isOk())
            throw std::runtime_error("cannot load " + r.path);
        MaterializedTraceSource mem(t);
        ProfilerConfig cfg;
        cfg.name = r.name;
        t0 = Clock::now();
        {
            obs::ScopedSpan span("profiler.profileSource");
            Profile p = profileSource(mem, cfg);
            passUops += static_cast<double>(p.totalUops);
        }
        passS += since(t0);
        mem.reset();
        t0 = Clock::now();
        {
            obs::ScopedSpan span("profiler.profileSourceParallel");
            Profile p = profileSourceParallel(mem, cfg, {.threads = n});
            memParUops += static_cast<double>(p.totalUops);
        }
        memParS += since(t0);
    }
    obs::SpanRecorder::uninstall();

    rep.metric("trace.decode_uops_per_s", decodeUops / decodeS, "uops/s");
    rep.metric("profiler.pass_uops_per_s", passUops / passS, "uops/s");
    rep.metric("profiler.mem_parallel_uops_per_s", memParUops / memParS,
               "uops/s");
    rep.metric("profiler.parallel_efficiency",
               plainPar.rate() / (n * plainOne.rate()), "ratio");
    rep.phase("profile-traced", tracedPar.sent + tracedOne.sent,
              tracedPar.ok + tracedOne.ok,
              tracedPar.failed + tracedOne.failed);
    rep.check(plainPar.failed + tracedPar.failed == 0,
              "nproc-thread profiles byte-identical to 1-thread");
    reportTrace(rep, args, rec, 100.0 * (tracedS - plainS) / plainS);
    fillUnusedLayerMetrics(rep);
    return rep.finish();
}

} // namespace pb
