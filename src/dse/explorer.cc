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
 * Chunk the workload-major point grid: one shard per workload unless
 * extra streams are idle. A shard never straddles two workloads, so one
 * memoized EvalContext serves every point in it. Model points cost
 * near-uniform time, so grains finer than the stream count only multiply
 * cold evaluator builds (and defeat the eval pool's whole-workload reuse).
 */
std::vector<Span>
workloadChunks(size_t nw, size_t nc, unsigned streams)
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

unsigned
streamCount(unsigned threads)
{
    unsigned streams = ThreadPool::shared().concurrency();
    if (threads != 0)
        streams = std::min(streams, threads);
    return streams;
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

/**
 * The model pass of every sweep mode: evaluate every point through a
 * BatchEval loop in fixed-size batches and fold the (CPI, watts)
 * objectives into per-shard Pareto accumulators, which merge per
 * workload into res.modelFronts / res.frontPoints. When res.points is
 * pre-sized the batch outputs are also written into that grid; otherwise
 * (streaming) nothing but the fronts is kept.
 * Stops starting new batches once the cancel token fires; only points
 * actually evaluated reach the fronts (and have evaluated == true).
 *
 * Exactly one of @p configs / @p gen is non-null: explicit config spans
 * are evaluated in place, generated spaces one scratch batch at a time.
 */
void
modelPass(const std::vector<Profile> &profiles,
          const std::vector<CoreConfig> *configs, const ConfigGenerator *gen,
          SweepResult &res, const ModelOptions &mopts,
          const SweepOptions &sopts)
{
    const size_t nw = res.nWorkloads;
    const size_t nc = res.nConfigs;
    const bool grid = !res.points.empty();
    auto spans = workloadChunks(nw, nc, streamCount(sopts.threads));

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
                // Test hook: stretch chunk execution so a deadline can
                // be made to expire mid-sweep deterministically. The
                // injected delay waits on the sweep's token, so a
                // cancelled request is not held hostage by its own
                // fault injection.
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
                    for (size_t j = 0; j < n; ++j) {
                        const size_t ci = c0 + j;
                        acc.insert({out[j].modelCpi, out[j].modelWatts},
                                   ci);
                        if (!grid)
                            continue;
                        SweepPoint &pt = res.points[sp.wi * nc + ci];
                        pt.configIdx = ci;
                        pt.workloadIdx = sp.wi;
                        pt.modelCpi = out[j].modelCpi;
                        pt.modelWatts = out[j].modelWatts;
                        pt.evaluated = true;
                    }
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
            pt.evaluated = true;
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

    // Streaming never materializes the point grid (O(front)); every
    // other mode pre-sizes it, index-addressed (see SweepResult::points).
    if (sopts.mode != SweepMode::ModelOnlyPareto)
        res.points.assign(res.nWorkloads * res.nConfigs, {});

    modelPass(profiles, &configs, nullptr, res, mopts, sopts);

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
      case SweepMode::ModelThenSimPareto: {
        // Graceful degradation: when the deadline already fired (or
        // fires between sims), the remaining simulation budget is
        // dropped and the response is the model-only front — strictly
        // less validated, never wrong.
        auto pairs = selectValidationPairs(res, sopts.validationSamples);
        simPass(traces, configs, pairs, res, sopts.threads, sopts.cancel);
        break;
      }
      case SweepMode::ModelOnly:
      case SweepMode::ModelOnlyPareto:
        break;
    }

    // Front points of a materialized sweep are refreshed from the grid
    // after the simulations, so simulated front points carry their sim
    // fields.
    if (!res.points.empty())
        for (std::vector<SweepPoint> &fps : res.frontPoints)
            for (SweepPoint &pt : fps)
                pt = res.at(pt.workloadIdx, pt.configIdx);
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
    modelPass(profiles, nullptr, &gen, res, mopts, sopts);
    res.degraded = sopts.cancel.cancelled();
    return res;
}

} // namespace mipp
