#include "validate/accuracy.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "model/eval_cache.hh"
#include "obs/trace.hh"
#include "power/power_model.hh"
#include "profiler/profiler.hh"
#include "trace/mtf.hh"
#include "uarch/design_space.hh"
#include "util/status.hh"
#include "util/thread_pool.hh"
#include "workloads/workload.hh"

namespace mipp {

namespace {

/** Significant digits of the accuracy report's numbers. */
constexpr int kDigits = 8;

std::string
num(double v)
{
    return json::number(v, kDigits);
}

constexpr std::array<const char *, kNumAccuracyMetrics> kMetricNames = {
    "cpi",  "base", "branch", "icache", "l2hit", "llcHit",
    "dram", "mrL1", "mrL2",   "mrL3",   "power",
};

std::string
fmt(const char *f, double a, double b = 0, double c = 0)
{
    char buf[160];
    std::snprintf(buf, sizeof buf, f, a, b, c);
    return buf;
}

void
jstack(std::ostringstream &os, const CpiStack &s)
{
    os << "{\"base\": " << num(s.base) << ", \"branch\": "
       << num(s.branch) << ", \"icache\": " << num(s.icache)
       << ", \"l2hit\": " << num(s.l2hit) << ", \"llcHit\": "
       << num(s.llcHit) << ", \"dram\": " << num(s.dram) << "}";
}

void
checkLevel(std::vector<std::string> &v, const char *name,
           const LevelStats &s)
{
    if (s.loadMisses > s.loadAccesses || s.storeMisses > s.storeAccesses ||
        s.ifetchMisses > s.ifetchAccesses)
        v.push_back(std::string(name) + ": misses exceed accesses");
}

} // namespace

std::string_view
accuracyMetricName(AccuracyMetric m)
{
    return kMetricNames[metricIndex(m)];
}

std::vector<CoreConfig>
accuracyGrid(const std::string &preset)
{
    auto point = [](uint32_t w, uint32_t rob, uint32_t l1k, uint32_t l2k,
                    uint32_t l3m, const char *name) {
        CoreConfig c = CoreConfig::nehalemReference();
        c.setWidth(w);
        scaleBackEnd(c, rob);
        c.l1d.sizeBytes = l1k * 1024;
        c.l1i.sizeBytes = l1k * 1024;
        c.l2.sizeBytes = l2k * 1024;
        c.l3.sizeBytes = l3m * 1024 * 1024;
        scaleCacheLatencies(c);
        c.name = name;
        return c;
    };

    std::vector<CoreConfig> grid;
    if (preset == "ci") {
        grid.push_back(CoreConfig::nehalemReference());
        grid.push_back(point(2, 64, 16, 128, 2, "little"));
    } else if (preset == "default") {
        grid.push_back(CoreConfig::nehalemReference());
        grid.push_back(point(2, 64, 16, 128, 2, "little"));
        grid.push_back(point(6, 256, 64, 512, 32, "big"));
        grid.push_back(point(4, 256, 32, 256, 2, "deep_small_llc"));
        CoreConfig pf = CoreConfig::nehalemReference();
        pf.prefetcherEnabled = true;
        pf.name = "nehalem_pf";
        grid.push_back(pf);
    } else if (preset == "wide") {
        grid = DesignSpace::small().configs();
    } else {
        throw StatusError(invalidArgument(
            "unknown accuracy grid preset '" + preset +
            "' (ci|default|wide)"));
    }
    return grid;
}

std::vector<std::string>
checkSimConsistency(const SimResult &sim, double stackTolerance)
{
    std::vector<std::string> v;
    const MemoryStats &m = sim.mem;

    // CPI stack sums to the simulated cycles: account() attributes every
    // cycle to exactly one component, so this holds exactly unless the
    // attribution logic regresses.
    double cycles = static_cast<double>(sim.cycles);
    double total = sim.stack.total();
    if (std::abs(total - cycles) > stackTolerance * std::max(cycles, 1.0))
        v.push_back(fmt("CpiStack total %.1f vs %.1f cycles "
                        "(beyond tolerance)",
                        total, cycles));

    // Per-level access chaining: every miss at level N is an access at
    // level N+1; prefetches account their own DRAM fetch at issue.
    uint64_t l1Misses = m.l1d.misses() + m.l1i.misses();
    if (m.l2.accesses() != l1Misses)
        v.push_back(fmt("L2 accesses %.0f != L1 misses %.0f",
                        double(m.l2.accesses()), double(l1Misses)));
    if (m.l3.accesses() != m.l2.misses())
        v.push_back(fmt("L3 accesses %.0f != L2 misses %.0f",
                        double(m.l3.accesses()), double(m.l2.misses())));
    if (m.dramAccesses != m.l3.misses() + m.prefetchesIssued)
        v.push_back(fmt("DRAM accesses %.0f != L3 misses + prefetches "
                        "issued %.0f",
                        double(m.dramAccesses),
                        double(m.l3.misses() + m.prefetchesIssued)));

    checkLevel(v, "L1I", m.l1i);
    checkLevel(v, "L1D", m.l1d);
    checkLevel(v, "L2", m.l2);
    checkLevel(v, "L3", m.l3);

    // Cold/capacity classification covers exactly the demand DRAM data
    // misses.
    if (m.coldLoadMisses + m.capacityLoadMisses != m.l3.loadMisses)
        v.push_back(fmt("cold+capacity load misses %.0f != L3 load "
                        "misses %.0f",
                        double(m.coldLoadMisses + m.capacityLoadMisses),
                        double(m.l3.loadMisses)));
    if (m.coldStoreMisses + m.capacityStoreMisses != m.l3.storeMisses)
        v.push_back(fmt("cold+capacity store misses %.0f != L3 store "
                        "misses %.0f",
                        double(m.coldStoreMisses + m.capacityStoreMisses),
                        double(m.l3.storeMisses)));

    // Activity factors the power model consumes must mirror the memory
    // statistics and the committed totals. Drift guard only: the
    // simulator currently copies MemoryStats into ActivityCounts
    // verbatim, so miscounted traffic is caught by the chaining
    // invariants above, not here.
    const ActivityCounts &a = sim.activity;
    if (a.cycles != sim.cycles)
        v.push_back("activity cycles != simulated cycles");
    if (a.uops != sim.uops)
        v.push_back("activity uops != committed uops");
    if (a.l1iAccesses != m.l1i.accesses() ||
        a.l1dAccesses != m.l1d.accesses() ||
        a.l2Accesses != m.l2.accesses() ||
        a.l3Accesses != m.l3.accesses() ||
        a.dramAccesses != m.dramAccesses)
        v.push_back("activity cache-access counts disagree with "
                    "MemoryStats");
    if (sim.dramCycles > sim.cycles)
        v.push_back("DRAM-outstanding cycles exceed total cycles");
    return v;
}

std::vector<std::string>
checkModelConsistency(const ModelResult &m, double stackTolerance)
{
    std::vector<std::string> v;

    double total = m.stack.total();
    if (std::abs(total - m.cycles) >
        stackTolerance * std::max(m.cycles, 1.0))
        v.push_back(fmt("model CpiStack total %.1f vs %.1f cycles "
                        "(beyond tolerance)",
                        total, m.cycles));

    const double eps = 1e-9;
    if (m.stack.base < -eps || m.stack.branch < -eps ||
        m.stack.icache < -eps || m.stack.l2hit < -eps ||
        m.stack.llcHit < -eps || m.stack.dram < -eps)
        v.push_back("negative model stack component");

    // StatStack miss counts are monotone in cache size.
    auto mono = [&](const char *what, double a, double b, double c) {
        if (a + eps < b || b + eps < c || c < -eps)
            v.push_back(std::string("non-monotonic model ") + what +
                        " misses across levels");
    };
    mono("load", m.loadMissesL1, m.loadMissesL2, m.loadMissesL3);
    mono("store", m.storeMissesL1, m.storeMissesL2, m.storeMissesL3);
    mono("ifetch", m.ifetchMissesL1, m.ifetchMissesL2, m.ifetchMissesL3);

    // Activity counts must be the integer images of the model's own
    // miss predictions (truncation allows a 1-count slack each).
    const ActivityCounts &a = m.activity;
    auto near = [&](const char *what, uint64_t got, double want) {
        if (std::abs(static_cast<double>(got) - want) > 1.5)
            v.push_back(std::string("activity ") + what +
                        " disagrees with model miss counts");
    };
    near("l2Accesses", a.l2Accesses,
         m.loadMissesL1 + m.storeMissesL1 + m.ifetchMissesL1);
    near("l3Accesses", a.l3Accesses,
         m.loadMissesL2 + m.storeMissesL2 + m.ifetchMissesL2);
    near("dramAccesses", a.dramAccesses,
         m.loadMissesL3 + m.storeMissesL3 + m.ifetchMissesL3);
    near("uops", a.uops, m.uops);
    return v;
}

ValidationSuite::ValidationSuite(size_t uops, bool includePhased,
                                 const std::vector<std::string> &filter,
                                 const std::vector<std::string> &traceFiles)
{
    auto wants = [&](const std::string &n) {
        return filter.empty() ||
               std::find(filter.begin(), filter.end(), n) != filter.end();
    };

    for (const auto &s : workloadSuite()) {
        if (!wants(s.name))
            continue;
        names_.push_back(s.name);
        traces_.push_back(generateWorkload(s, uops));
    }
    if (includePhased) {
        for (PhasedSpec p : phasedSuite()) {
            if (!wants(p.name))
                continue;
            // Scale segments so the whole phased trace matches the
            // requested length: reduced runs (CI) stay fast and phased
            // points stay comparable to the suite traces.
            size_t segUops = std::max<size_t>(
                uops / std::max<size_t>(p.segments.size(), 1), 1000);
            for (auto &seg : p.segments)
                seg.second = segUops;
            names_.push_back(p.name);
            traces_.push_back(generatePhased(p));
        }
    }
    // A filter entry that matched nothing is a typo (or a phased name
    // with includePhased off): an empty/partial report would otherwise
    // sail through the baseline gate with trivially low MAPEs.
    for (const auto &w : filter) {
        if (std::find(names_.begin(), names_.end(), w) == names_.end())
            throw StatusError(invalidArgument(
                "accuracy filter matched no workload named '" + w +
                "'"));
    }
    // Recorded .mtf traces ride along as extra validation workloads,
    // materialized whole (the simulator side needs the full stream).
    for (const auto &path : traceFiles) {
        Trace t;
        Status st = loadMtfTrace(path, t);
        if (!st.isOk())
            throw StatusError(st);
        std::string base = std::filesystem::path(path).stem().string();
        names_.push_back(base.empty() ? path : base);
        traces_.push_back(std::move(t));
    }

    std::vector<ProfilerConfig> pcfgs(names_.size());
    for (size_t i = 0; i < names_.size(); ++i)
        pcfgs[i].name = names_[i];
    profiles_ = profileTraces(traces_, pcfgs);
    for (const Profile &p : profiles_)
        ctxs_.push_back(std::make_unique<EvalContext>(p));
}

ValidationSuite::~ValidationSuite() = default;

std::vector<std::optional<SimResult>>
ValidationSuite::simulate(const std::vector<CoreConfig> &grid,
                          unsigned threads, const CancelToken &cancel) const
{
    const size_t nc = grid.size();
    std::vector<std::optional<SimResult>> sims(names_.size() * nc);
    parallelForShared(sims.size(), threads, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
            if (cancel.cancelled())
                return;
            MIPP_SPAN("accuracy.simulate");
            sims[i] = mipp::simulate(traces_[i / nc], grid[i % nc]);
        }
    });
    return sims;
}

std::vector<PointAccuracy>
ValidationSuite::score(const std::vector<CoreConfig> &grid,
                       const std::vector<std::optional<SimResult>> &sims,
                       const ModelOptions &mopts,
                       const std::vector<BranchMissModel> &branchFits,
                       unsigned threads, std::vector<ModelResult> *models)
{
    const size_t nc = grid.size();
    std::vector<ModelOptions> perPoint(nc, mopts);
    for (size_t ci = 0; ci < nc; ++ci) {
        auto kind = static_cast<size_t>(grid[ci].predictor);
        if (kind < branchFits.size())
            perPoint[ci].branchModel = branchFits[kind];
    }
    std::vector<PointAccuracy> points(sims.size());
    if (models)
        models->assign(sims.size(), {});
    // One worker per workload: its EvalContext is not thread-safe.
    parallelForShared(names_.size(), threads, [&](size_t begin, size_t end) {
        for (size_t wi = begin; wi < end; ++wi) {
            for (size_t ci = 0; ci < nc; ++ci) {
                const size_t i = wi * nc + ci;
                if (!sims[i])
                    continue;
                ModelResult mod =
                    evaluateModel(*ctxs_[wi], grid[ci], perPoint[ci]);
                points[i] = scoreAccuracyPoint(*sims[i], mod, grid[ci],
                                               profiles_[wi], names_[wi]);
                if (models)
                    (*models)[i] = std::move(mod);
            }
        }
    });
    return points;
}

PointAccuracy
scoreAccuracyPoint(const SimResult &sim, const ModelResult &mod,
                   const CoreConfig &cfg, const Profile &profile,
                   const std::string &workload)
{
    PointAccuracy pa;
    pa.workload = workload;
    pa.config = cfg.name;
    pa.simCpi = sim.cpiPerUop();
    pa.modelCpi = mod.cpiPerUop();
    pa.simWatts = computePower(sim.activity, cfg).total();
    pa.modelWatts = computePower(mod.activity, cfg).total();
    double su = sim.uops ? double(sim.uops) : 1.0;
    double mu = mod.uops > 0 ? mod.uops : 1.0;
    pa.simStack = sim.stack.scaled(1.0 / su);
    pa.modelStack = mod.stack.scaled(1.0 / mu);

    const MemoryStats &ms = sim.mem;
    double demandLoads =
        std::max<double>(1.0, double(ms.l1d.loadAccesses));
    double mLoads =
        std::max<double>(1.0, double(profile.reuseLoads.total()));
    pa.simMr = {double(ms.l1d.loadMisses) / demandLoads,
                double(ms.l2.loadMisses) / demandLoads,
                double(ms.l3.loadMisses) / demandLoads};
    pa.modelMr = {mod.loadMissesL1 / mLoads, mod.loadMissesL2 / mLoads,
                  mod.loadMissesL3 / mLoads};

    double sc = pa.simCpi > 0 ? pa.simCpi : 1.0;
    auto &e = pa.err;
    e[metricIndex(AccuracyMetric::Cpi)] =
        100.0 * (pa.modelCpi - pa.simCpi) / sc;
    e[metricIndex(AccuracyMetric::Base)] =
        100.0 * (pa.modelStack.base - pa.simStack.base) / sc;
    e[metricIndex(AccuracyMetric::Branch)] =
        100.0 * (pa.modelStack.branch - pa.simStack.branch) / sc;
    e[metricIndex(AccuracyMetric::Icache)] =
        100.0 * (pa.modelStack.icache - pa.simStack.icache) / sc;
    e[metricIndex(AccuracyMetric::L2Hit)] =
        100.0 * (pa.modelStack.l2hit - pa.simStack.l2hit) / sc;
    e[metricIndex(AccuracyMetric::LlcHit)] =
        100.0 * (pa.modelStack.llcHit - pa.simStack.llcHit) / sc;
    e[metricIndex(AccuracyMetric::Dram)] =
        100.0 * (pa.modelStack.dram - pa.simStack.dram) / sc;
    for (int l = 0; l < 3; ++l)
        e[metricIndex(AccuracyMetric::MrL1) + l] =
            100.0 * (pa.modelMr[l] - pa.simMr[l]);
    e[metricIndex(AccuracyMetric::Power)] =
        100.0 * (pa.modelWatts - pa.simWatts) /
        (pa.simWatts > 0 ? pa.simWatts : 1.0);
    return pa;
}

std::array<MetricSummary, kNumAccuracyMetrics>
summarizeAccuracy(const std::vector<PointAccuracy> &points)
{
    std::array<MetricSummary, kNumAccuracyMetrics> summary{};
    for (size_t k = 0; k < kNumAccuracyMetrics; ++k) {
        MetricSummary &s = summary[k];
        for (const PointAccuracy &pa : points) {
            double err = pa.err[k];
            s.mape += std::abs(err);
            s.meanSigned += err;
            s.maxAbs = std::max(s.maxAbs, std::abs(err));
            s.minSigned = std::min(s.minSigned, err);
            s.maxSigned = std::max(s.maxSigned, err);
        }
        if (!points.empty()) {
            s.mape /= double(points.size());
            s.meanSigned /= double(points.size());
        }
    }
    return summary;
}

AccuracyReport
runAccuracy(const AccuracyOptions &opts)
{
    MIPP_SPAN("accuracy.run");
    std::vector<CoreConfig> grid =
        opts.grid.empty() ? accuracyGrid("default") : opts.grid;
    ValidationSuite suite(opts.uops, opts.includePhased, opts.workloads,
                          opts.traceFiles);

    AccuracyReport rep;
    rep.uops = opts.uops;
    rep.workloadNames = suite.names();
    for (const auto &c : grid)
        rep.gridNames.push_back(c.name);

    auto sims = suite.simulate(grid, opts.threads, opts.cancel);
    std::vector<ModelResult> models;
    rep.points = suite.score(grid, sims, opts.mopts, {}, opts.threads,
                             &models);

    for (size_t i = 0; i < sims.size(); ++i) {
        if (!sims[i])
            continue;
        const std::string where =
            rep.points[i].workload + "/" + rep.points[i].config;
        for (const auto &s : checkSimConsistency(*sims[i],
                                                 opts.stackTolerance))
            rep.violations.push_back(where + ": sim: " + s);
        for (const auto &s : checkModelConsistency(models[i],
                                                   opts.stackTolerance))
            rep.violations.push_back(where + ": model: " + s);
    }

    if (opts.cancel.cancelled()) {
        // Degraded partial report: keep only the comparisons whose
        // simulation finished (an unsimulated slot still has its
        // default-constructed empty workload name), so the summaries
        // below aggregate real points only.
        rep.degraded = true;
        std::erase_if(rep.points, [](const PointAccuracy &pt) {
            return pt.workload.empty();
        });
    }

    rep.summary = summarizeAccuracy(rep.points);
    return rep;
}

void
writeReportHeader(std::ostream &os, std::string_view schema, size_t uops,
                  const std::vector<std::string> &grid,
                  const std::vector<std::string> &workloads)
{
    auto names = [&](const std::vector<std::string> &v) {
        for (size_t i = 0; i < v.size(); ++i)
            os << (i ? ", " : "") << json::quote(v[i]);
    };
    os << "{\n  \"schema\": " << json::quote(schema) << ",\n";
    os << "  \"uops\": " << uops << ",\n";
    os << "  \"grid\": [";
    names(grid);
    os << "],\n  \"workloads\": [";
    names(workloads);
    os << "],\n";
}

void
writeSummaryJson(std::ostream &os,
                 const std::array<MetricSummary, kNumAccuracyMetrics> &summary,
                 std::string_view indent, int digits)
{
    auto n = [&](double v) { return json::number(v, digits); };
    for (size_t k = 0; k < kNumAccuracyMetrics; ++k) {
        const MetricSummary &s = summary[k];
        os << indent << '"' << kMetricNames[k] << "\": {\"mape\": "
           << n(s.mape) << ", \"meanSigned\": " << n(s.meanSigned)
           << ", \"maxAbs\": " << n(s.maxAbs) << ", \"minSigned\": "
           << n(s.minSigned) << ", \"maxSigned\": " << n(s.maxSigned)
           << "}" << (k + 1 < kNumAccuracyMetrics ? "," : "") << "\n";
    }
}

std::string
accuracyJson(const AccuracyReport &r)
{
    std::ostringstream os;
    writeReportHeader(os, "mipp-accuracy-v1", r.uops, r.gridNames,
                      r.workloadNames);
    os << "  \"summary\": {\n";
    writeSummaryJson(os, r.summary, "    ", kDigits);
    os << "  },\n  \"violations\": [";
    for (size_t i = 0; i < r.violations.size(); ++i)
        os << (i ? ", " : "") << "\n    " << json::quote(r.violations[i]);
    os << (r.violations.empty() ? "" : "\n  ") << "],\n  \"points\": [";
    for (size_t i = 0; i < r.points.size(); ++i) {
        const PointAccuracy &p = r.points[i];
        os << (i ? "," : "") << "\n    {\"workload\": "
           << json::quote(p.workload) << ", \"config\": "
           << json::quote(p.config) << ",\n     \"simCpi\": "
           << num(p.simCpi) << ", \"modelCpi\": " << num(p.modelCpi)
           << ", \"simWatts\": " << num(p.simWatts)
           << ", \"modelWatts\": " << num(p.modelWatts) << ",\n"
           << "     \"simStack\": ";
        jstack(os, p.simStack);
        os << ", \"modelStack\": ";
        jstack(os, p.modelStack);
        os << ",\n     \"simMr\": [" << num(p.simMr[0]) << ", "
           << num(p.simMr[1]) << ", " << num(p.simMr[2])
           << "], \"modelMr\": [" << num(p.modelMr[0]) << ", "
           << num(p.modelMr[1]) << ", " << num(p.modelMr[2]) << "],\n"
           << "     \"err\": {";
        for (size_t k = 0; k < kNumAccuracyMetrics; ++k)
            os << (k ? ", " : "") << '"' << kMetricNames[k]
               << "\": " << num(p.err[k]);
        os << "}}";
    }
    os << (r.points.empty() ? "" : "\n  ") << "]\n}\n";
    return os.str();
}

bool
writeAccuracyJson(const AccuracyReport &r, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << accuracyJson(r);
    return static_cast<bool>(out);
}

json::Value
readReportJson(const std::string &path, const char *what)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error(std::string("cannot read ") + what + " " +
                                 path);
    std::ostringstream buf;
    buf << in.rdbuf();
    json::Value doc;
    if (Status st = json::parse(buf.str(), doc); !st.isOk())
        throw std::runtime_error(std::string(what) + " " + path + ": " +
                                 st.message());
    return doc;
}

double
reportNumber(const json::Value &obj, std::string_view key, double fallback)
{
    const json::Object &o = obj.object();
    auto it = o.find(key);
    return it == o.end() ? fallback : it->second.number();
}

std::array<MetricSummary, kNumAccuracyMetrics>
readSummaryJson(const json::Value &summary)
{
    std::array<MetricSummary, kNumAccuracyMetrics> out{};
    for (size_t k = 0; k < kNumAccuracyMetrics; ++k) {
        const json::Value &m = summary[kMetricNames[k]];
        out[k] = {reportNumber(m, "mape", 0),
                  reportNumber(m, "meanSigned", 0),
                  reportNumber(m, "maxAbs", 0),
                  reportNumber(m, "minSigned", 0),
                  reportNumber(m, "maxSigned", 0)};
    }
    return out;
}

namespace {

/** The MAPE of every metric whose summary entry records one. */
std::map<std::string, double>
baselineMapes(const json::Value &doc, const std::string &path)
{
    const json::Value &summary = doc["summary"];
    if (!summary.isObject())
        throw std::runtime_error("baseline " + path +
                                 " has no summary section");
    std::array<MetricSummary, kNumAccuracyMetrics> s =
        readSummaryJson(summary);
    std::map<std::string, double> mapes;
    for (size_t k = 0; k < kNumAccuracyMetrics; ++k)
        if (summary[kMetricNames[k]].object().contains("mape"))
            mapes[kMetricNames[k]] = s[k].mape;
    if (mapes.empty())
        throw std::runtime_error("baseline " + path +
                                 " contains no metric MAPEs");
    return mapes;
}

std::vector<std::string>
strings(const json::Value &array)
{
    std::vector<std::string> out;
    for (const json::Value &v : array.array())
        out.push_back(v.str());
    return out;
}

} // namespace

std::map<std::string, double>
loadBaselineMapes(const std::string &path)
{
    return baselineMapes(readReportJson(path, "baseline"), path);
}

std::vector<std::string>
compareToBaseline(const AccuracyReport &r, const std::string &baselinePath,
                  double marginPct)
{
    const json::Value doc = readReportJson(baselinePath, "baseline");
    std::vector<std::string> regressions;

    // Provenance: MAPEs from a different grid or trace length are not
    // comparable point-for-point; fail loudly instead of gating noise.
    double goldenUops = reportNumber(doc, "uops", 0);
    auto goldenGrid = strings(doc["grid"]);
    auto goldenWorkloads = strings(doc["workloads"]);
    if (goldenUops != 0 && goldenUops != double(r.uops))
        regressions.push_back(
            fmt("baseline recorded at %.0f uops, report ran %.0f — "
                "rerun with matching --uops",
                goldenUops, double(r.uops)));
    if (!goldenGrid.empty() && goldenGrid != r.gridNames)
        regressions.push_back(
            "baseline recorded on a different design-point grid — "
            "rerun with the matching --grid");
    if (!goldenWorkloads.empty() && goldenWorkloads != r.workloadNames)
        regressions.push_back(
            "baseline recorded over a different workload set — "
            "rerun without --workload/--no-phased filters");
    if (!regressions.empty())
        return regressions;

    std::map<std::string, double> golden = baselineMapes(doc, baselinePath);
    for (size_t k = 0; k < kNumAccuracyMetrics; ++k) {
        auto it = golden.find(kMetricNames[k]);
        if (it == golden.end())
            continue;
        // The golden MAPE went through the writer's rounding, so the
        // fresh one does too: a report gated against its own JSON then
        // compares equal numbers, at any margin.
        double fresh = r.summary[k].mape;
        json::Value written;
        if (json::parse(num(fresh), written).isOk() && written.isNumber())
            fresh = written.number();
        if (fresh > it->second + marginPct) {
            char buf[200];
            std::snprintf(buf, sizeof buf,
                          "%s: MAPE %.3f exceeds golden %.3f + margin %.1f",
                          kMetricNames[k], fresh, it->second, marginPct);
            regressions.push_back(buf);
        }
    }
    return regressions;
}

} // namespace mipp
