/**
 * @file
 * Suite-wide accuracy-validation harness.
 *
 * The paper's headline number is how closely the analytical interval
 * model tracks cycle-level simulation; this module measures it, for every
 * workload in the standard suite (plus the phased workloads), across a
 * configurable grid of design points. For each (workload, config) pair it
 * runs both sides, compares total CPI, every CPI-stack component, the
 * per-level load miss ratios and total power, and aggregates suite-wide
 * MAPE / signed-bias summaries per metric.
 *
 * The harness also enforces the *internal consistency* invariants both
 * sides promise, so accounting bugs are caught by construction instead of
 * by eye:
 *
 *  - `CpiStack::total()` equals the reported cycles (within a small
 *    tolerance) on BOTH the simulated and the modeled side;
 *  - the simulator's per-level access counts chain: every L1 miss is an
 *    L2 access, every L2 miss an L3 access, every L3 miss (plus every
 *    issued prefetch) a DRAM access, and misses never exceed accesses;
 *  - cold + capacity miss classifications add up to the DRAM-level
 *    demand misses;
 *  - the activity counts handed to the power model mirror the memory
 *    statistics / model miss counts they are derived from (a drift
 *    guard: today both sides copy these verbatim, so this only fires
 *    if the derivation and the statistics diverge in the future — the
 *    chaining invariants above are what catch miscounted traffic).
 *
 * Error conventions (all percentages):
 *  - total CPI and power: signed relative error, 100*(model-sim)/sim;
 *  - CPI-stack components: signed contribution error normalized by the
 *    *total* simulated CPI, 100*(modelComp-simComp)/simCpi — components
 *    can be legitimately zero, so relative-per-component error would
 *    divide by zero while this stays comparable across components;
 *  - load miss ratios: signed difference in percentage points,
 *    100*(modelRatio-simRatio).
 *
 * The report serializes to JSON; a checked-in golden
 * (ACCURACY_baseline.json) plus compareToBaseline() turn it into a CI
 * regression gate: the gate fails when any metric's suite MAPE exceeds
 * the golden MAPE by more than a margin.
 */

#ifndef MIPP_VALIDATE_ACCURACY_HH
#define MIPP_VALIDATE_ACCURACY_HH

#include <array>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "model/interval_model.hh"
#include "sim/ooo_core.hh"
#include "uarch/core_config.hh"
#include "uarch/cpi_stack.hh"
#include "util/cancel.hh"
#include "util/json.hh"

namespace mipp {

class EvalContext;

/** Metrics the accuracy report tracks, one error column each. */
enum class AccuracyMetric : uint8_t {
    Cpi,     ///< total CPI (relative %)
    Base,    ///< stack component (% of sim CPI)
    Branch,
    Icache,
    L2Hit,
    LlcHit,
    Dram,
    MrL1,    ///< load miss ratio at L1D size (percentage points)
    MrL2,
    MrL3,
    Power,   ///< total watts (relative %)
    NumMetrics,
};

constexpr size_t kNumAccuracyMetrics =
    static_cast<size_t>(AccuracyMetric::NumMetrics);

/** Column of @p m in every per-metric array. */
constexpr size_t
metricIndex(AccuracyMetric m)
{
    return static_cast<size_t>(m);
}

/** Stable metric names used in reports, JSON and the golden baseline. */
std::string_view accuracyMetricName(AccuracyMetric m);

/** Bounds on the trace length a caller outside the library may request
 *  (the CLI's report `--uops`, the serve `accuracy` op). */
constexpr size_t kRequestMinUops = 100;
constexpr size_t kRequestMaxUops = 10000000;

/** Harness configuration. */
struct AccuracyOptions {
    /** Design points to evaluate; empty = accuracyGrid("default"). */
    std::vector<CoreConfig> grid;
    /** Trace length per suite workload (phased segments are scaled to
     *  uops/2 each so phased traces stay comparable). */
    size_t uops = 200000;
    /** Include the phased workloads (phasedSuite()). */
    bool includePhased = true;
    /** Restrict to these suite/phased names; empty = everything. */
    std::vector<std::string> workloads;
    /** Recorded `.mtf` trace files to validate as extra workloads
     *  (materialized whole: the simulator side needs the instruction
     *  stream). Named by file basename; not subject to the filter. */
    std::vector<std::string> traceFiles;
    ModelOptions mopts;
    /** Sweep concurrency: 0 = shared pool, 1 = serial in the caller. */
    unsigned threads = 0;
    /** |CpiStack::total() - cycles| tolerance, fraction of cycles. */
    double stackTolerance = 0.01;
    /**
     * Cooperative deadline/cancellation, checked before each (workload,
     * config) simulation. On expiry the harness keeps every pair whose
     * simulation finished, drops the rest and returns a report flagged
     * degraded; summaries aggregate the evaluated subset only.
     */
    CancelToken cancel;
};

/** One (workload, config) comparison. */
struct PointAccuracy {
    std::string workload;
    std::string config;
    double simCpi = 0, modelCpi = 0;
    double simWatts = 0, modelWatts = 0;
    CpiStack simStack;    ///< per-uop (CPI contributions)
    CpiStack modelStack;  ///< per-uop
    std::array<double, 3> simMr{};    ///< load miss ratio at L1/L2/L3
    std::array<double, 3> modelMr{};
    /** Signed error per metric (see file comment for conventions). */
    std::array<double, kNumAccuracyMetrics> err{};
};

/** Suite-level aggregate of one metric's error column. */
struct MetricSummary {
    double mape = 0;        ///< mean |error|
    double meanSigned = 0;  ///< bias
    double maxAbs = 0;      ///< worst point
    double minSigned = 0;   ///< most-negative point (under-prediction)
    double maxSigned = 0;   ///< most-positive point (over-prediction)
};

/** Everything one harness run produces. */
struct AccuracyReport {
    std::vector<PointAccuracy> points;
    std::array<MetricSummary, kNumAccuracyMetrics> summary;
    /** Internal-consistency invariant failures ("workload/config: why").
     *  A non-empty list means one side's accounting is broken and the
     *  error numbers cannot be trusted. */
    std::vector<std::string> violations;
    size_t uops = 0;
    std::vector<std::string> gridNames;
    std::vector<std::string> workloadNames;
    /** True when AccuracyOptions::cancel fired: points holds only the
     *  comparisons that finished (compacted — the wi*nc grid indexing
     *  does not apply to a degraded report). */
    bool degraded = false;

    bool consistent() const { return violations.empty(); }
    const MetricSummary &
    of(AccuracyMetric m) const
    {
        return summary[metricIndex(m)];
    }
};

/**
 * Named design-point grids:
 *  - "ci":      2 points (reference + a small machine) — the reduced CI
 *               grid the golden baseline is recorded on;
 *  - "default": 5 points spanning the design space's corners plus the
 *               reference with the prefetcher enabled;
 *  - "wide":    the 27-point DesignSpace::small() subspace.
 */
std::vector<CoreConfig> accuracyGrid(const std::string &preset);

/** Run the harness: profile once per workload, then simulate + model
 *  every (workload, grid point) pair and aggregate. */
AccuracyReport runAccuracy(const AccuracyOptions &opts = {});

/**
 * The workloads both harnesses (runAccuracy, runCalibration) measure,
 * built and profiled once, with one memoized EvalContext per workload.
 *
 * The constructor generates the suite (+ phased) traces at @p uops,
 * honoring a name filter, then appends each @p traceFiles `.mtf` as an
 * extra workload named by its basename; it throws
 * StatusError(InvalidArgument) for filter entries matching nothing and
 * rethrows the structured Status of an unreadable/corrupt trace file.
 *
 * simulate() and score() are the harnesses' one simulator call and one
 * model-evaluation loop. Results are workload-major,
 * [wi * grid.size() + ci]; @p threads is as in parallelForShared.
 * score() warms the suite's EvalContexts: one caller at a time.
 */
class ValidationSuite
{
  public:
    ValidationSuite(size_t uops, bool includePhased,
                    const std::vector<std::string> &filter,
                    const std::vector<std::string> &traceFiles = {});
    ~ValidationSuite();

    const std::vector<std::string> &names() const { return names_; }
    const std::vector<Profile> &profiles() const { return profiles_; }

    /** Simulate every (workload, @p grid point) pair. @p cancel is
     *  checked before each simulation; a skipped pair stays nullopt. */
    std::vector<std::optional<SimResult>>
    simulate(const std::vector<CoreConfig> &grid, unsigned threads,
             const CancelToken &cancel = {}) const;

    /**
     * Evaluate the model under @p mopts at every simulated pair of
     * @p sims (simulate() over the same @p grid) and score it; an
     * unsimulated pair stays default (empty workload name). A non-empty
     * @p branchFits, indexed by BranchPredictorKind, replaces
     * mopts.branchModel. @p models, if given, receives each ModelResult.
     */
    std::vector<PointAccuracy>
    score(const std::vector<CoreConfig> &grid,
          const std::vector<std::optional<SimResult>> &sims,
          const ModelOptions &mopts,
          const std::vector<BranchMissModel> &branchFits, unsigned threads,
          std::vector<ModelResult> *models = nullptr);

  private:
    std::vector<std::string> names_;
    std::vector<Trace> traces_;
    std::vector<Profile> profiles_;
    std::vector<std::unique_ptr<EvalContext>> ctxs_;
};

/** scoreAccuracyPoint fills one PointAccuracy (errors included) from a
 *  finished sim/model pair; summarizeAccuracy aggregates its columns. */
PointAccuracy scoreAccuracyPoint(const SimResult &sim,
                                 const ModelResult &mod,
                                 const CoreConfig &cfg,
                                 const Profile &profile,
                                 const std::string &workload);
std::array<MetricSummary, kNumAccuracyMetrics>
summarizeAccuracy(const std::vector<PointAccuracy> &points);

/**
 * Internal-consistency checks, one list entry per violated invariant
 * (empty = consistent). Exposed for direct unit testing and for callers
 * validating results produced outside the harness.
 */
std::vector<std::string> checkSimConsistency(const SimResult &sim,
                                             double stackTolerance);
std::vector<std::string> checkModelConsistency(const ModelResult &m,
                                               double stackTolerance);

/** Serialize a report to JSON (machine-readable, stable key names). */
std::string accuracyJson(const AccuracyReport &r);

/**
 * JSON plumbing shared by the accuracy and calibration reports (both
 * documents open with the same provenance members and hold per-metric
 * summaries in the same shape):
 *
 * readReportJson reads and parses a whole report file; it throws
 * std::runtime_error "cannot read <what> <path>" on an unreadable file
 * and carries the parse message on one that is not valid JSON.
 * reportNumber reads a number member: @p fallback when absent, 0 when
 * present but not a number (the writers spell a non-finite value
 * `null`). writeReportHeader opens the document with its schema, uops,
 * grid and workloads members. writeSummaryJson writes one line per
 * metric at @p indent with @p digits significant digits, and
 * readSummaryJson reads such an object back (absent metrics and keys
 * read as 0).
 */
json::Value readReportJson(const std::string &path, const char *what);
double reportNumber(const json::Value &obj, std::string_view key,
                    double fallback);
void writeReportHeader(std::ostream &os, std::string_view schema,
                       size_t uops, const std::vector<std::string> &grid,
                       const std::vector<std::string> &workloads);
void writeSummaryJson(
    std::ostream &os,
    const std::array<MetricSummary, kNumAccuracyMetrics> &summary,
    std::string_view indent, int digits);
std::array<MetricSummary, kNumAccuracyMetrics>
readSummaryJson(const json::Value &summary);

/** Write accuracyJson(r) to @p path. @return success. */
bool writeAccuracyJson(const AccuracyReport &r, const std::string &path);

/** Load the per-metric MAPEs from a golden baseline JSON written by
 *  writeAccuracyJson(). Throws std::runtime_error on unreadable or
 *  malformed input, or when the summary holds no MAPE. */
std::map<std::string, double> loadBaselineMapes(const std::string &path);

/**
 * Regression gate: compare a fresh report's suite MAPEs against a golden
 * baseline. @return one entry per regressed metric (fresh MAPE exceeds
 * golden MAPE + @p marginPct percentage points); empty = pass. When the
 * golden records its provenance (uops, grid), a mismatching report fails
 * the gate outright — MAPEs from different grids are not comparable.
 */
std::vector<std::string> compareToBaseline(const AccuracyReport &r,
                                           const std::string &baselinePath,
                                           double marginPct = 2.0);

} // namespace mipp

#endif // MIPP_VALIDATE_ACCURACY_HH
