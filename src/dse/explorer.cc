#include "dse/explorer.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <optional>
#include <utility>

#include "dse/pareto.hh"
#include "model/eval_cache.hh"
#include "obs/trace.hh"
#include "power/power_model.hh"
#include "util/failpoint.hh"
#include "util/thread_pool.hh"

namespace mipp {

struct ModelEvalPool::Slot {
    const Profile *profile = nullptr;
    std::unique_ptr<EvalContext> ctx;
};

ModelEvalPool::ModelEvalPool() = default;
ModelEvalPool::~ModelEvalPool() = default;

void
ModelEvalPool::reserve(size_t nWorkloads)
{
    if (slots_.size() < nWorkloads)
        slots_.resize(nWorkloads);
}

EvalContext &
ModelEvalPool::get(size_t wi, const Profile &profile)
{
    reserve(wi + 1);
    Slot &s = slots_[wi];
    if (!s.ctx || s.profile != &profile) {
        s.ctx = std::make_unique<EvalContext>(profile);
        s.profile = &profile;
    }
    return *s.ctx;
}

void
ModelEvalPool::clear()
{
    slots_.clear();
}

PairEval
evaluatePair(const Trace &trace, const Profile &profile,
             const CoreConfig &cfg, const ModelOptions &mopts,
             const SimOptions &sopts)
{
    PairEval e;
    e.sim = simulate(trace, cfg, sopts);
    e.model = evaluateModel(profile, cfg, mopts);
    e.simPower = computePower(e.sim.activity, cfg);
    e.modelPower = computePower(e.model.activity, cfg);
    return e;
}

namespace {

/** One contiguous run of configs for a single workload. */
struct Span {
    size_t wi, c0, c1;
};

/**
 * Chunk the workload-major point grid. Several chunks per execution
 * stream so uneven point costs still balance, but the grain respects
 * workload boundaries: a chunk never straddles two workloads, so one
 * memoized EvalContext serves every point in it. (The old config-major
 * mapping `wi = i % nw` interleaved workloads, thrashing any per-workload
 * state on every index.)
 */
std::vector<Span>
workloadMajorChunks(size_t nw, size_t nc, unsigned streams)
{
    std::vector<Span> spans;
    if (nw == 0 || nc == 0)
        return spans;
    size_t target = std::max<size_t>(1, 4 * streams);
    size_t perWorkload = std::max<size_t>(1, (target + nw - 1) / nw);
    perWorkload = std::min(perWorkload, nc);
    size_t grain = (nc + perWorkload - 1) / perWorkload;
    for (size_t wi = 0; wi < nw; ++wi)
        for (size_t c0 = 0; c0 < nc; c0 += grain)
            spans.push_back({wi, c0, std::min(nc, c0 + grain)});
    return spans;
}

unsigned
streamCount(unsigned threads)
{
    unsigned streams = ThreadPool::shared().concurrency();
    if (threads != 0)
        streams = std::min(streams, threads);
    return streams;
}

/** Model every point, one EvalContext per (workload, chunk). Stops
 *  starting new work once @p cancel fires; untouched points keep
 *  evaluated == false. */
void
modelPass(const std::vector<Profile> &profiles,
          const std::vector<CoreConfig> &configs, SweepResult &res,
          const ModelOptions &mopts, unsigned threads,
          const CancelToken &cancel)
{
    const size_t nc = res.nConfigs;
    auto spans =
        workloadMajorChunks(res.nWorkloads, nc, streamCount(threads));
    parallelForShared(spans.size(), threads, [&](size_t begin, size_t end) {
        for (size_t s = begin; s < end; ++s) {
            if (cancel.cancelled())
                return;
            // Test hook: stretch chunk execution so a deadline can be
            // made to expire mid-sweep deterministically. The injected
            // delay waits on the sweep's token, so a cancelled request
            // is not held hostage by its own fault injection.
            (void)MIPP_FAILPOINT_C("dse.chunk_delay", &cancel);
            MIPP_SPAN("dse.chunk");
            const Span &sp = spans[s];
            EvalContext ctx(profiles[sp.wi]);
            for (size_t ci = sp.c0; ci < sp.c1; ++ci) {
                if (cancel.cancelled())
                    return;
                ModelResult m = evaluateModel(ctx, configs[ci], mopts);
                SweepPoint &pt = res.points[sp.wi * nc + ci];
                pt.configIdx = ci;
                pt.workloadIdx = sp.wi;
                pt.modelCpi = m.cpiPerUop();
                pt.modelWatts = computePower(m.activity, configs[ci]).total();
                pt.evaluated = true;
            }
        }
    });
}

/** Detail-simulate the selected (workload, config) pairs. Checks the
 *  token before every simulate() call — one detailed simulation is the
 *  coarsest unit of work a deadline can wait out. */
void
simPass(const std::vector<Trace> &traces,
        const std::vector<CoreConfig> &configs,
        const std::vector<std::pair<size_t, size_t>> &pairs,
        SweepResult &res, unsigned threads, const CancelToken &cancel)
{
    std::atomic<size_t> invoked{0};
    parallelForShared(pairs.size(), threads, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
            if (cancel.cancelled())
                return;
            auto [wi, ci] = pairs[i];
            MIPP_SPAN("dse.sim");
            SimResult sim = simulate(traces[wi], configs[ci]);
            SweepPoint &pt = res.points[wi * res.nConfigs + ci];
            pt.simCpi = sim.cpiPerUop();
            pt.simWatts = computePower(sim.activity, configs[ci]).total();
            pt.simulated = true;
            invoked.fetch_add(1, std::memory_order_relaxed);
        }
    });
    res.simInvocations += invoked.load(std::memory_order_relaxed);
}

/** Per-workload Pareto fronts over the model objectives. Only points
 *  the model pass reached participate: a degraded sweep's front is the
 *  true front of the evaluated subset, not polluted by the zero-CPI
 *  placeholders of never-evaluated points. */
void
extractModelFronts(SweepResult &res)
{
    res.modelFronts.assign(res.nWorkloads, {});
    res.frontPoints.assign(res.nWorkloads, {});
    for (size_t wi = 0; wi < res.nWorkloads; ++wi) {
        std::vector<Objective> obj;
        std::vector<size_t> cis;
        obj.reserve(res.nConfigs);
        for (size_t ci = 0; ci < res.nConfigs; ++ci) {
            const SweepPoint &pt = res.at(wi, ci);
            if (!pt.evaluated)
                continue;
            obj.push_back({pt.modelCpi, pt.modelWatts});
            cis.push_back(ci);
        }
        // paretoFront indices are positions in obj; map back to config
        // indices (identity for a completed sweep).
        for (size_t k : paretoFront(obj))
            res.modelFronts[wi].push_back(cis[k]);
        for (size_t ci : res.modelFronts[wi])
            res.frontPoints[wi].push_back(res.at(wi, ci));
    }
}

/**
 * Chunking for the streaming model pass: one shard per workload unless
 * extra streams are idle. Model-only points cost near-uniform time, so
 * grains finer than the stream count only multiply cold evaluator
 * builds (and defeat the eval pool's whole-workload reuse).
 */
std::vector<Span>
streamingChunks(size_t nw, size_t nc, unsigned streams)
{
    std::vector<Span> spans;
    if (nw == 0 || nc == 0)
        return spans;
    size_t target = std::max<size_t>(1, streams);
    size_t perWorkload = std::max<size_t>(1, (target + nw - 1) / nw);
    perWorkload = std::min(perWorkload, nc);
    size_t grain = (nc + perWorkload - 1) / perWorkload;
    for (size_t wi = 0; wi < nw; ++wi)
        for (size_t c0 = 0; c0 < nc; c0 += grain)
            spans.push_back({wi, c0, std::min(nc, c0 + grain)});
    return spans;
}

/**
 * Streaming model pass (SweepMode::ModelOnlyPareto): evaluate every
 * point through a BatchEval loop in fixed-size batches and fold the
 * (CPI, watts) objectives straight into per-shard Pareto accumulators —
 * no SweepPoint grid. Shard accumulators merge per workload at the end;
 * the model values are the ones ModelOnly computes, so the merged fronts
 * equal ModelOnly's paretoFront() output exactly.
 *
 * Exactly one of @p configs / @p gen is non-null: explicit config spans
 * are evaluated in place, generated spaces one scratch batch at a time.
 */
void
streamingModelPass(const std::vector<Profile> &profiles,
                   const std::vector<CoreConfig> *configs,
                   const ConfigGenerator *gen, SweepResult &res,
                   const ModelOptions &mopts, const SweepOptions &sopts)
{
    const size_t nw = res.nWorkloads;
    const size_t nc = res.nConfigs;
    auto spans = streamingChunks(nw, nc, streamCount(sopts.threads));

    // Power parameters are workload-independent; precompute them once
    // for explicit multi-workload spaces so every workload shares the
    // voltage/leakage pow() chain. Generated spaces derive them per
    // point — materializing per-config state is what a generator avoids.
    std::vector<PowerParams> pp;
    if (configs && nw > 1) {
        pp.reserve(nc);
        for (const CoreConfig &cfg : *configs)
            pp.push_back(powerParams(cfg));
    }

    // The pool is consulted only in the one-shard-per-workload regime:
    // concurrent shards then touch disjoint, pre-reserved slots.
    const bool wholeSpans = sopts.evalPool && spans.size() == nw;
    if (wholeSpans)
        sopts.evalPool->reserve(nw);

    std::vector<ParetoAccumulator> accs(spans.size());
    parallelForShared(
        spans.size(), sopts.threads, [&](size_t begin, size_t end) {
            for (size_t s = begin; s < end; ++s) {
                if (sopts.cancel.cancelled())
                    return;
                (void)MIPP_FAILPOINT_C("dse.chunk_delay",
                                       &sopts.cancel);
                MIPP_SPAN("dse.chunk");
                const Span &sp = spans[s];
                std::optional<EvalContext> localCtx;
                EvalContext &ctx =
                    wholeSpans ? sopts.evalPool->get(sp.wi, profiles[sp.wi])
                               : localCtx.emplace(profiles[sp.wi]);
                BatchEval be(ctx, mopts);

                constexpr size_t kBatch = 256;
                std::array<BatchEval::Output, kBatch> out;
                std::vector<CoreConfig> genBuf;
                if (gen)
                    genBuf.resize(kBatch);
                ParetoAccumulator &acc = accs[s];
                for (size_t c0 = sp.c0; c0 < sp.c1; c0 += kBatch) {
                    if (sopts.cancel.cancelled())
                        return;
                    const size_t n = std::min(kBatch, sp.c1 - c0);
                    const CoreConfig *cfgs;
                    if (gen) {
                        for (size_t j = 0; j < n; ++j)
                            (*gen)(c0 + j, genBuf[j]);
                        cfgs = genBuf.data();
                    } else {
                        cfgs = configs->data() + c0;
                    }
                    be.evaluate(cfgs, n, out.data(),
                                pp.empty() ? nullptr : pp.data() + c0);
                    for (size_t j = 0; j < n; ++j)
                        acc.insert({out[j].modelCpi, out[j].modelWatts},
                                   c0 + j);
                }
            }
        });

    // Merge shard accumulators per workload; expose the surviving fronts
    // in ascending config order (paretoFront()'s order).
    res.modelFronts.assign(nw, {});
    res.frontPoints.assign(nw, {});
    for (size_t s = 0; s < spans.size(); ++s) {
        // Chunks of one workload are contiguous in spans.
        size_t e = s;
        while (e + 1 < spans.size() && spans[e + 1].wi == spans[s].wi)
            ++e;
        ParetoAccumulator &merged = accs[s];
        for (size_t t = s + 1; t <= e; ++t)
            merged.merge(accs[t]);
        const size_t wi = spans[s].wi;
        res.modelFronts[wi] = merged.indices();
        std::vector<SweepPoint> &fps = res.frontPoints[wi];
        fps.reserve(merged.size());
        for (const ParetoAccumulator::Entry &en : merged.entries()) {
            SweepPoint pt;
            pt.configIdx = en.idx;
            pt.workloadIdx = wi;
            pt.modelCpi = en.obj.first;
            pt.modelWatts = en.obj.second;
            fps.push_back(pt);
        }
        std::sort(fps.begin(), fps.end(),
                  [](const SweepPoint &a, const SweepPoint &b) {
                      return a.configIdx < b.configIdx;
                  });
        s = e;
    }
}

/**
 * Simulation budget of ModelThenSimPareto: every model-front config plus
 * an evenly spaced sample of the remaining configs per workload.
 */
std::vector<std::pair<size_t, size_t>>
selectValidationPairs(const SweepResult &res, size_t validationSamples)
{
    std::vector<std::pair<size_t, size_t>> pairs;
    for (size_t wi = 0; wi < res.nWorkloads; ++wi) {
        std::vector<bool> onFront(res.nConfigs, false);
        for (size_t ci : res.modelFronts[wi]) {
            onFront[ci] = true;
            pairs.push_back({wi, ci});
        }
        if (validationSamples == 0)
            continue;
        std::vector<size_t> rest;
        for (size_t ci = 0; ci < res.nConfigs; ++ci)
            if (!onFront[ci])
                rest.push_back(ci);
        size_t take = std::min(validationSamples, rest.size());
        for (size_t k = 0; k < take; ++k)
            pairs.push_back({wi, rest[k * rest.size() / take]});
    }
    return pairs;
}

} // namespace

namespace {

/** Shared input validation: an empty sweep is a caller mistake, not a
 *  trivially-empty result that sails through downstream consumers. */
Status
validateSweepInputs(size_t nTraces, size_t nProfiles, size_t nConfigs,
                    SweepMode mode)
{
    if (nProfiles == 0)
        return invalidArgument("sweep: no workloads (empty profile list)");
    if (nConfigs == 0)
        return invalidArgument("sweep: empty design space");
    const bool needsTraces =
        mode == SweepMode::Paired || mode == SweepMode::ModelThenSimPareto;
    if (needsTraces && nTraces != nProfiles)
        return invalidArgument(
            "sweep: simulation mode needs one trace per profile (" +
            std::to_string(nTraces) + " traces, " +
            std::to_string(nProfiles) + " profiles)");
    return Status::ok();
}

} // namespace

SweepResult
sweepEx(const std::vector<Trace> &traces,
        const std::vector<Profile> &profiles,
        const std::vector<CoreConfig> &configs, const ModelOptions &mopts,
        const SweepOptions &sopts)
{
    MIPP_SPAN("dse.sweep");
    SweepResult res;
    res.nWorkloads = profiles.size();
    res.nConfigs = configs.size();
    res.status = validateSweepInputs(traces.size(), profiles.size(),
                                     configs.size(), sopts.mode);
    if (!res.status.isOk())
        return res;

    if (sopts.mode == SweepMode::ModelOnlyPareto) {
        // Streaming: no point grid is ever materialized (O(front)).
        streamingModelPass(profiles, &configs, nullptr, res, mopts,
                           sopts);
        res.degraded = sopts.cancel.cancelled();
        return res;
    }

    // Pre-sized, index-addressed (see SweepResult::points doc).
    res.points.assign(res.nWorkloads * res.nConfigs, {});

    modelPass(profiles, configs, res, mopts, sopts.threads,
              sopts.cancel);

    switch (sopts.mode) {
      case SweepMode::Paired: {
        std::vector<std::pair<size_t, size_t>> all;
        all.reserve(res.points.size());
        for (size_t wi = 0; wi < res.nWorkloads; ++wi)
            for (size_t ci = 0; ci < res.nConfigs; ++ci)
                all.push_back({wi, ci});
        simPass(traces, configs, all, res, sopts.threads, sopts.cancel);
        break;
      }
      case SweepMode::ModelOnly:
        extractModelFronts(res);
        break;
      case SweepMode::ModelThenSimPareto: {
        extractModelFronts(res);
        // Graceful degradation: when the deadline already fired (or
        // fires between sims), the remaining simulation budget is
        // dropped and the response is the model-only front — strictly
        // less validated, never wrong.
        auto pairs = selectValidationPairs(res, sopts.validationSamples);
        simPass(traces, configs, pairs, res, sopts.threads, sopts.cancel);
        break;
      }
      case SweepMode::ModelOnlyPareto:
        break;  // handled above (early return)
    }
    res.degraded = sopts.cancel.cancelled();
    return res;
}

SweepResult
sweepGenerated(const std::vector<Profile> &profiles, size_t nConfigs,
               const ConfigGenerator &gen, const ModelOptions &mopts,
               const SweepOptions &sopts)
{
    MIPP_SPAN("dse.sweep");
    SweepResult res;
    res.nWorkloads = profiles.size();
    res.nConfigs = nConfigs;
    res.status = validateSweepInputs(0, profiles.size(), nConfigs,
                                     SweepMode::ModelOnlyPareto);
    if (!res.status.isOk())
        return res;
    streamingModelPass(profiles, nullptr, &gen, res, mopts, sopts);
    res.degraded = sopts.cancel.cancelled();
    return res;
}

std::vector<SweepPoint>
sweep(const std::vector<Trace> &traces,
      const std::vector<Profile> &profiles,
      const std::vector<CoreConfig> &configs, const ModelOptions &mopts,
      unsigned threads)
{
    SweepOptions sopts;
    sopts.mode = SweepMode::Paired;
    sopts.threads = threads;
    SweepResult res = sweepEx(traces, profiles, configs, mopts, sopts);
    // The vector-returning wrapper has no status channel; surface
    // structured input errors as the typed exception.
    throwIfError(res.status);
    // Preserve the historical config-major return order (point i was
    // (wi = i % nw, ci = i / nw)): consumers like the fig-7.10 bench
    // split points positionally with a seeded RNG, and reordering would
    // silently change those regenerated figures.
    std::vector<SweepPoint> points;
    points.reserve(res.points.size());
    for (size_t ci = 0; ci < res.nConfigs; ++ci)
        for (size_t wi = 0; wi < res.nWorkloads; ++wi)
            points.push_back(res.at(wi, ci));
    return points;
}

} // namespace mipp
