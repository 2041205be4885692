#include "validate/calibrate.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/trace.hh"

namespace mipp {

namespace {

/** 17 significant digits make loadCalibrationJson a lossless inverse
 *  (the round-trip test relies on it). */
constexpr int kDigits = 17;

constexpr size_t kNumKinds =
    static_cast<size_t>(BranchPredictorKind::NumKinds);

/**
 * Fitting state: the ground truth over the fitting grid (simulated
 * once) and the options and branch fits the model is scored with. The
 * suite's EvalContexts persist across the whole coordinate descent, so
 * every calibration value the search revisits is a cache hit.
 */
struct FitState {
    ValidationSuite &suite;
    unsigned threads;
    std::vector<CoreConfig> grid;
    std::vector<std::optional<SimResult>> sims;
    ModelOptions mo; ///< objective() scores at mo with mo.cal varied
    /** Piecewise fits indexed by predictor kind (empty = incoming). */
    std::vector<BranchMissModel> fits;

    /**
     * Objective for one component: that component's summed |error| over
     * every (workload, config) point — the same statistic the accuracy
     * gate tracks (suite MAPE), so the fit optimizes what CI enforces —
     * plus a total-CPI term so corrections that merely shuffle error
     * between components do not look free, and a small squared term as
     * an outlier guard (the worst single point is also gated).
     */
    double
    objective(const ModelCalibration &cal, AccuracyMetric metric)
    {
        mo.cal = cal;
        double mae = 0, maeCpi = 0, sse = 0;
        for (const PointAccuracy &pa :
             suite.score(grid, sims, mo, fits, threads)) {
            double e = pa.err[metricIndex(metric)];
            double ec = pa.err[metricIndex(AccuracyMetric::Cpi)];
            mae += std::abs(e);
            maeCpi += std::abs(ec);
            sse += e * e;
        }
        return mae + 0.25 * maeCpi + 0.005 * sse;
    }
};

/** One fittable coefficient: location, search bracket, target metric. */
struct CoefficientSpec {
    const char *name;
    double ModelCalibration::*field;
    double lo, hi;
    AccuracyMetric metric;
};

constexpr CoefficientSpec kCoefficients[] = {
    {"penaltyScale", &ModelCalibration::penaltyScale, 0.2, 1.2,
     AccuracyMetric::Branch},
    {"baseWindowFrac", &ModelCalibration::baseWindowFrac, 0.3, 6.0,
     AccuracyMetric::Base},
    {"mlpWindowFrac", &ModelCalibration::mlpWindowFrac, 0.3, 6.0,
     AccuracyMetric::Dram},
    {"shadowScale", &ModelCalibration::shadowScale, 0.0, 1.5,
     AccuracyMetric::Dram},
    {"busQueueScale", &ModelCalibration::busQueueScale, 0.0, 1.5,
     AccuracyMetric::Dram},
    {"coldInject", &ModelCalibration::coldInject, 0.0, 1.0,
     AccuracyMetric::Dram},
};

/**
 * Two-level 1-D grid line search: coarse grid over [lo, hi], then a
 * fine grid around the coarse optimum. Plain grids instead of golden
 * section because the window-truncation coefficients quantize to whole
 * uops, making the objective piecewise constant.
 */
double
lineSearch(FitState &st, ModelCalibration cal,
           const CoefficientSpec &spec)
{
    constexpr int kPoints = 13;
    double lo = spec.lo, hi = spec.hi;
    double bestX = cal.*(spec.field);
    double bestF = st.objective(cal, spec.metric);
    for (int level = 0; level < 2; ++level) {
        double step = (hi - lo) / (kPoints - 1);
        for (int i = 0; i < kPoints; ++i) {
            double x = lo + i * step;
            cal.*(spec.field) = x;
            double f = st.objective(cal, spec.metric);
            if (f < bestF - 1e-12) {
                bestF = f;
                bestX = x;
            }
        }
        lo = std::max(spec.lo, bestX - step);
        hi = std::min(spec.hi, bestX + step);
    }
    return bestX;
}

} // namespace

CalibrationReport
runCalibration(const CalibrationOptions &opts)
{
    MIPP_SPAN("calibrate.run");
    ValidationSuite suite(opts.uops, opts.includePhased, opts.workloads,
                          opts.traceFiles);
    FitState st{suite, opts.threads,
                opts.grid.empty() ? accuracyGrid("ci") : opts.grid, {},
                opts.mopts, {}};

    CalibrationReport rep;
    rep.uops = opts.uops;
    rep.workloadNames = suite.names();
    for (const auto &c : st.grid)
        rep.gridNames.push_back(c.name);

    // --- Stage 1: piecewise entropy fits against simulated predictors ---
    if (opts.fitBranch) {
        MIPP_SPAN("calibrate.branch_fit");
        std::vector<CoreConfig> predictors(kNumKinds,
                                           CoreConfig::nehalemReference());
        for (size_t k = 0; k < kNumKinds; ++k)
            predictors[k].predictor = static_cast<BranchPredictorKind>(k);
        auto sims = suite.simulate(predictors, opts.threads);
        for (size_t i = 0; i < sims.size(); ++i) {
            const size_t wi = i / kNumKinds;
            const SimResult &sim = *sims[i];
            rep.branchPoints.push_back(
                {predictors[i % kNumKinds].predictor, suite.names()[wi],
                 suite.profiles()[wi].branch.entropy(),
                 sim.branches ? double(sim.branchMispredicts) / sim.branches
                              : 0});
        }

        for (size_t k = 0; k < kNumKinds; ++k) {
            auto kind = static_cast<BranchPredictorKind>(k);
            EntropyFitTrainer trainer;
            for (const EntropyObservation &o : rep.branchPoints)
                if (o.kind == kind)
                    trainer.add(o.entropy, o.simMissRate);
            BranchMissModel fit = trainer.fitPiecewise(kind);
            rep.branchFits.push_back(fit);
            rep.branchR2.push_back(trainer.r2(fit));
        }
    }

    // --- Stage 2: simulator ground truth over the grid -------------------
    {
        MIPP_SPAN("calibrate.sim_grid");
        st.sims = suite.simulate(st.grid, opts.threads);
    }
    // "Before": the incoming calibration, incoming branch fits.
    rep.before = summarizeAccuracy(
        suite.score(st.grid, st.sims, opts.mopts, {}, opts.threads));

    // --- Stage 3: coordinate descent over the scalar coefficients --------
    st.fits = rep.branchFits;
    ModelCalibration cal = opts.mopts.cal;
    if (opts.fitCoefficients) {
        MIPP_SPAN("calibrate.coefficient_fit");
        for (int round = 0; round < opts.rounds; ++round) {
            ModelCalibration prev = cal;
            for (const CoefficientSpec &spec : kCoefficients)
                cal.*(spec.field) = lineSearch(st, cal, spec);
            if (cal == prev)
                break; // converged early
        }
    }
    rep.cal = st.mo.cal = cal;
    rep.after = summarizeAccuracy(
        suite.score(st.grid, st.sims, st.mo, st.fits, opts.threads));

    // --- Stage 4: cross-check the fit on other grid presets --------------
    // Fresh ground truth per preset, same fitted coefficients and branch
    // fits, no refit: a fit that only works on its own grid shows up
    // here as a summary far off the "after" column.
    for (const std::string &preset : opts.checkGrids) {
        std::vector<CoreConfig> grid = accuracyGrid(preset);
        rep.gridChecks.push_back(
            {preset, summarizeAccuracy(suite.score(
                         grid, suite.simulate(grid, opts.threads), st.mo,
                         st.fits, opts.threads))});
    }
    return rep;
}

std::string
calibrationJson(const CalibrationReport &r)
{
    std::ostringstream os;
    writeReportHeader(os, "mipp-calibration-v1", r.uops, r.gridNames,
                      r.workloadNames);
    os << "  \"calibration\": {";
    for (const CoefficientSpec &spec : kCoefficients)
        os << (&spec == kCoefficients ? "" : ", ") << '"' << spec.name
           << "\": " << json::number(r.cal.*(spec.field), kDigits);
    os << "},\n";
    os << "  \"branchFits\": [";
    for (size_t i = 0; i < r.branchFits.size(); ++i) {
        const BranchMissModel &m = r.branchFits[i];
        os << (i ? "," : "") << "\n    {\"kind\": "
           << json::quote(branchPredictorName(m.kind)) << ", \"slope\": "
           << json::number(m.slope, kDigits) << ", \"intercept\": "
           << json::number(m.intercept, kDigits) << ", \"knee\": "
           << json::number(m.knee, kDigits) << ", \"kneeSlope\": "
           << json::number(m.kneeSlope, kDigits) << ", \"r2\": "
           << json::number(i < r.branchR2.size() ? r.branchR2[i] : 0,
                           kDigits)
           << "}";
    }
    os << (r.branchFits.empty() ? "" : "\n  ") << "],\n";
    os << "  \"branchPoints\": [";
    for (size_t i = 0; i < r.branchPoints.size(); ++i) {
        const EntropyObservation &o = r.branchPoints[i];
        os << (i ? "," : "") << "\n    {\"kind\": "
           << json::quote(branchPredictorName(o.kind)) << ", \"workload\": "
           << json::quote(o.workload) << ", \"entropy\": "
           << json::number(o.entropy, kDigits) << ", \"missRate\": "
           << json::number(o.simMissRate, kDigits) << "}";
    }
    os << (r.branchPoints.empty() ? "" : "\n  ") << "],\n";
    auto emitSummary = [&](const char *name, const auto &summary,
                           const char *tail) {
        os << "  \"" << name << "\": {\n";
        writeSummaryJson(os, summary, "    ", kDigits);
        os << "  }" << tail << "\n";
    };
    emitSummary("before", r.before, ",");
    emitSummary("after", r.after, r.gridChecks.empty() ? "" : ",");
    if (!r.gridChecks.empty()) {
        os << "  \"gridChecks\": [";
        for (size_t i = 0; i < r.gridChecks.size(); ++i) {
            const CalibrationReport::GridCheck &gc = r.gridChecks[i];
            os << (i ? "," : "") << "\n    {\"grid\": "
               << json::quote(gc.grid) << ", \"summary\": {\n";
            writeSummaryJson(os, gc.summary, "      ", kDigits);
            os << "    }}";
        }
        os << "\n  ]\n";
    }
    os << "}\n";
    return os.str();
}

bool
writeCalibrationJson(const CalibrationReport &r, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << calibrationJson(r);
    return static_cast<bool>(out);
}

CalibrationReport
loadCalibrationJson(const std::string &path)
{
    const json::Value doc = readReportJson(path, "calibration");
    if (doc["schema"].str() != "mipp-calibration-v1")
        throw std::runtime_error(path + " is not a calibration report");

    CalibrationReport r;
    double uops = reportNumber(doc, "uops", 0);
    r.uops = uops > 0 && uops < 1e19 ? static_cast<size_t>(uops) : 0;

    const json::Value &cal = doc["calibration"];
    if (!cal.isObject())
        throw std::runtime_error(path + " has no calibration section");
    // An absent coefficient reads as uncalibrated (the default).
    for (const CoefficientSpec &spec : kCoefficients)
        r.cal.*(spec.field) =
            reportNumber(cal, spec.name, r.cal.*(spec.field));

    for (const json::Value &f : doc["branchFits"].array()) {
        if (!f.isObject())
            continue;
        BranchMissModel m;
        for (size_t k = 0; k < kNumKinds; ++k) {
            auto kind = static_cast<BranchPredictorKind>(k);
            if (branchPredictorName(kind) == f["kind"].str())
                m.kind = kind;
        }
        m.slope = reportNumber(f, "slope", m.slope);
        m.intercept = reportNumber(f, "intercept", m.intercept);
        m.knee = reportNumber(f, "knee", m.knee);
        m.kneeSlope = reportNumber(f, "kneeSlope", m.kneeSlope);
        r.branchFits.push_back(m);
        r.branchR2.push_back(reportNumber(f, "r2", 0.0));
    }

    r.before = readSummaryJson(doc["before"]);
    r.after = readSummaryJson(doc["after"]);
    for (const json::Value &g : doc["gridChecks"].array()) {
        if (!g.isObject())
            continue;
        CalibrationReport::GridCheck gc;
        gc.grid = g["grid"].str();
        gc.summary = readSummaryJson(g["summary"]);
        r.gridChecks.push_back(std::move(gc));
    }
    return r;
}

} // namespace mipp
