/**
 * @file
 * Design-space sweep driver (thesis Ch. 6-7 experimental harness).
 *
 * Pairs every workload with every core configuration. Four modes:
 *
 *  - Paired: every point gets both the ground truth (cycle-level
 *    simulation + power from simulated activity) and the prediction
 *    (analytical model + power from modeled activity). O(points × sim).
 *  - ModelOnly: the analytical model over the full space, no simulation.
 *    O(points × model) — the paper's speed claim; this is how a
 *    million-point space is swept.
 *  - ModelThenSimPareto: the paper's §7 workflow. The model is evaluated
 *    everywhere, the *model-side* Pareto front is extracted per workload,
 *    and detailed simulation runs only on front candidates plus a
 *    configurable validation sample. O(points × model + front × sim).
 *  - ModelOnlyPareto: ModelOnly without the point grid. Results are
 *    discarded once folded into the fronts, so peak memory is O(front),
 *    independent of the point count; the fronts are bitwise identical to
 *    ModelOnly's. This is the mode that makes a million-point space
 *    practical; sweepGenerated() extends it to spaces too large to
 *    materialize even as a config vector.
 *
 * Every mode runs the same model pass: points are evaluated in
 * fixed-size batches through a BatchEval over a memoized EvalContext and
 * folded into online per-workload ParetoAccumulators, which become
 * modelFronts/frontPoints in every mode. The materializing modes
 * (all but ModelOnlyPareto) also write each batch into the point grid.
 *
 * Sweeps are workload-major: points for one workload are contiguous and
 * each worker chunk holds a single memoized EvalContext, so per-workload
 * state (StatStacks, chain weights, MLP walks) is built once per chunk
 * instead of once per point. Any mode can additionally keep those
 * contexts warm across calls via ModelEvalPool.
 */

#ifndef MIPP_DSE_EXPLORER_HH
#define MIPP_DSE_EXPLORER_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "model/interval_model.hh"
#include "power/power_model.hh"
#include "profiler/profile.hh"
#include "sim/ooo_core.hh"
#include "trace/trace.hh"
#include "uarch/core_config.hh"
#include "util/cancel.hh"
#include "util/status.hh"

namespace mipp {

/** Full detail for one (workload, configuration) evaluation. */
struct PairEval {
    SimResult sim;
    ModelResult model;
    PowerBreakdown simPower;
    PowerBreakdown modelPower;

    double simCpi() const { return sim.cpiPerUop(); }
    double modelCpi() const { return model.cpiPerUop(); }
    /** Relative CPI prediction error (signed). */
    double
    cpiError() const
    {
        return simCpi() > 0 ? (modelCpi() - simCpi()) / simCpi() : 0;
    }
    double
    powerError() const
    {
        double s = simPower.total();
        return s > 0 ? (modelPower.total() - s) / s : 0;
    }
};

/** Simulate and model one pair. */
PairEval evaluatePair(const Trace &trace, const Profile &profile,
                      const CoreConfig &cfg, const ModelOptions &mopts = {},
                      const SimOptions &sopts = {});

/** How a sweep spends its simulation budget. */
enum class SweepMode {
    Paired,             ///< simulate + model every point
    ModelOnly,          ///< model every point, simulate nothing
    ModelThenSimPareto, ///< model everywhere, simulate model-front + sample
    ModelOnlyPareto,    ///< model every point, streaming O(front) fronts
};

class EvalContext;

/**
 * Reusable per-workload evaluation contexts for repeated sweeps against
 * pinned profiles: the profile-level memo tables (StatStacks,
 * stride-MLP walks, dispatch-limit entries...) stay warm across sweep
 * calls instead of being rebuilt per call. Entries are keyed by workload
 * index and validated against the profile identity; a mismatch rebuilds
 * the entry. The contexts key every memo on the model options it reads,
 * so one entry serves sweeps under any ModelOptions.
 *
 * Lifetime: pooled entries pin their Profile like EvalContext does — the
 * profiles must outlive the pool, unmutated. Thread safety: a sweep
 * consults the pool only when each workload maps to exactly one shard
 * (it calls reserve() up front, so concurrent get() calls touch disjoint
 * slots); direct users must serialize access themselves.
 */
class ModelEvalPool
{
  public:
    ModelEvalPool();
    ~ModelEvalPool();
    ModelEvalPool(const ModelEvalPool &) = delete;
    ModelEvalPool &operator=(const ModelEvalPool &) = delete;

    /** Pre-size the slot table so get() never reallocates (required
     *  before concurrent use). */
    void reserve(size_t nWorkloads);

    /** Pooled context for workload @p wi pinned to @p profile;
     *  (re)built on first use or profile identity mismatch. */
    EvalContext &get(size_t wi, const Profile &profile);

    void clear();

  private:
    struct Slot;
    std::vector<Slot> slots_;
};

/** Sweep configuration. */
struct SweepOptions {
    SweepMode mode = SweepMode::Paired;

    /** 0 = full pool concurrency; 1 = serial in the caller; other values
     *  only bias chunk sizing, since the shared pool owns the workers. */
    unsigned threads = 0;

    /**
     * ModelThenSimPareto: how many *non-front* configs per workload also
     * get a detailed simulation, as a validation sample against model
     * mispredictions off the front. Chosen evenly spaced over the
     * config axis (deterministic).
     */
    size_t validationSamples = 0;

    /** Optional cross-call context pool (see ModelEvalPool), honoured
     *  by every mode. The pool must outlive the sweep call; profiles
     *  must outlive the pool. */
    ModelEvalPool *evalPool = nullptr;

    /**
     * Cooperative cancellation / per-request deadline, checked at chunk,
     * batch and sim-invocation boundaries. When it fires mid-sweep the
     * sweep *degrades* instead of failing: everything already evaluated
     * is kept, remaining work is skipped, and the result comes back with
     * degraded = true (fronts are extracted over the evaluated subset
     * only; ModelThenSimPareto falls back toward model-only by skipping
     * whatever simulation budget no longer fits). A default-constructed
     * token never cancels.
     */
    CancelToken cancel;
};

/** One record of a design-space sweep. */
struct SweepPoint {
    size_t configIdx = 0;
    size_t workloadIdx = 0;
    double simCpi = 0;
    double modelCpi = 0;
    double simWatts = 0;
    double modelWatts = 0;
    /** Whether this point was detail-simulated (always true in Paired
     *  mode; front/sample points only in ModelThenSimPareto). */
    bool simulated = false;
    /** Whether the model pass reached this point. Always true in a
     *  completed sweep; false only for points a cancelled (degraded)
     *  sweep never evaluated — front extraction skips those. */
    bool evaluated = false;

    double
    cpiError() const
    {
        return simCpi > 0 ? (modelCpi - simCpi) / simCpi : 0;
    }
    double
    powerError() const
    {
        return simWatts > 0 ? (modelWatts - simWatts) / simWatts : 0;
    }
};

/** Outcome of sweepEx: all points plus the simulation bookkeeping. */
struct SweepResult {
    /**
     * Workload-major: points[wi * nConfigs + ci]. Pre-sized and written
     * in place by the workers — each point index is owned by exactly one
     * chunk, so index-addressed writes need no synchronization (a
     * reserve/emplace scheme would). sweepEx is the only entry point
     * for explicit spaces; a consumer that needs config-major order
     * loops at(wi, ci) with ci outermost. Empty in ModelOnlyPareto.
     */
    std::vector<SweepPoint> points;
    size_t nWorkloads = 0;
    size_t nConfigs = 0;

    /** Detailed-simulation invocations actually spent. */
    size_t simInvocations = 0;

    /**
     * Structured outcome. InvalidArgument (empty design space, no
     * workloads, trace/profile count mismatch) comes back here instead
     * of as a silently empty result. A degraded sweep still reports Ok.
     */
    Status status;

    /** True when SweepOptions::cancel fired mid-sweep: the result is a
     *  valid partial (see SweepOptions::cancel), not the full space. */
    bool degraded = false;

    /** Per workload, config indices (ascending) of the model-predicted
     *  Pareto front over (model CPI, model watts). Filled in every mode;
     *  a degraded sweep's front covers the evaluated points only. */
    std::vector<std::vector<size_t>> modelFronts;

    /**
     * Per workload, the front points themselves (ascending configIdx,
     * mirroring modelFronts), filled in every mode so consumers read
     * fronts uniformly. In a materializing mode they are copies of the
     * grid points taken after simulation, so simulated front points
     * carry their sim fields. In streaming ModelOnlyPareto mode this is
     * the only per-point output — `points` stays empty so the sweep runs
     * in O(front) memory.
     */
    std::vector<std::vector<SweepPoint>> frontPoints;

    const SweepPoint &
    at(size_t wi, size_t ci) const
    {
        return points[wi * nConfigs + ci];
    }
};

/** Evaluate all (config, workload) pairs under @p sopts (see SweepMode). */
SweepResult sweepEx(const std::vector<Trace> &traces,
                    const std::vector<Profile> &profiles,
                    const std::vector<CoreConfig> &configs,
                    const ModelOptions &mopts = {},
                    const SweepOptions &sopts = {});

/**
 * Writes design point @p ci into @p out. The target is a reused scratch
 * slot: it keeps whatever configuration it held on the previous call, so
 * a generator must set every field it varies (and may exploit the reuse
 * to skip re-initializing fields it does not). Must be a pure function
 * of @p ci — shards may generate any index in any order.
 */
using ConfigGenerator = std::function<void(size_t ci, CoreConfig &out)>;

/**
 * Streaming model-only sweep over a *generated* design space: the
 * nConfigs points are produced on the fly by @p gen, evaluated in
 * batches and folded into per-workload Pareto accumulators —
 * neither the config vector nor the result grid is ever materialized, so
 * memory is O(front) + O(batch) however large the space. Runs in
 * SweepMode::ModelOnlyPareto regardless of sopts.mode; the returned
 * result carries modelFronts/frontPoints only.
 */
SweepResult sweepGenerated(const std::vector<Profile> &profiles,
                           size_t nConfigs, const ConfigGenerator &gen,
                           const ModelOptions &mopts = {},
                           const SweepOptions &sopts = {});

} // namespace mipp

#endif // MIPP_DSE_EXPLORER_HH
