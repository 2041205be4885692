#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

namespace pb {

unsigned
nproc()
{
    unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

uint64_t
mixSeed(uint64_t base, uint64_t seed)
{
    // splitmix64 over the pair: distinct seeds give unrelated streams.
    uint64_t z = base * 0x9e3779b97f4a7c15ULL + seed + 0x632be59bd9b4e019ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
meanOfMedians(const std::vector<std::vector<double>> &perInput)
{
    double sum = 0;
    for (const auto &v : perInput)
        sum += median(v);
    return perInput.empty() ? 0 : sum / static_cast<double>(perInput.size());
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

bool
resetPeakRss()
{
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5"; // resets VmHWM to the current RSS (Linux >= 4.0)
    clear.flush();
    return static_cast<bool>(clear);
}

void
reportRss(Report &rep, const RssPhases &rss)
{
    rep.metric("peak_rss_mb", peakRssMb(), "MB");
    rep.note("setup_peak_rss_mb", rss.setupMb, "MB",
             rss.reset ? "set-up alone; peak_rss_mb covers the timed phase"
                       : "high-water mark could not be reset: peak_rss_mb "
                         "includes set-up");
}

namespace {

void
printLine(const std::string &name, double value, const std::string &unit,
          const std::string &note)
{
    std::printf("  %-34s %16.6g %-8s %s\n", name.c_str(), value,
                unit.c_str(), note.c_str());
}

} // namespace

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    if (!std::isfinite(value)) {
        check(false, "metric " + name + " is finite");
        value = 0;
    }
    metrics_[name] = {value, unit};
    printLine(name, value, unit, "[metric]");
}

void
Report::note(const std::string &name, double value, const std::string &unit,
             const std::string &detail)
{
    printLine(name, value, unit, detail);
}

void
Report::phase(const std::string &name, uint64_t sent, uint64_t ok,
              uint64_t failed)
{
    std::printf("  phase %-28s sent %llu  ok %llu  failed %llu\n",
                name.c_str(), static_cast<unsigned long long>(sent),
                static_cast<unsigned long long>(ok),
                static_cast<unsigned long long>(failed));
    attempted_ += sent;
    failed_ += failed;
}

void
Report::check(bool ok, const std::string &what)
{
    ++checks_;
    if (!ok)
        ++failedChecks_;
    std::printf("  check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
}

int
Report::finish() const
{
    std::printf("%s: %u/%u checks passed\n", workload_.c_str(),
                checks_ - failedChecks_, checks_);
    std::string out = "{\"correct\": ";
    out += correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(std::max<uint64_t>(
                                     attempted_, 1));
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, vu] : metrics_) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", vu.first);
        out += first ? "" : ", ";
        first = false;
        out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
               vu.second + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
    return correct() ? 0 : 1;
}

void
printHostContext()
{
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
    std::printf("host nproc=%u compiler=\"g++ %s\" build_type=%s "
                "cxx_flags=\"%s\"\n",
                nproc(), __VERSION__, PERFBENCH_BUILD_TYPE,
                PERFBENCH_CXX_FLAGS);
}

const std::vector<std::string> &
layers()
{
    static const std::vector<std::string> kLayers = {
        "trace", "profiler", "statstack", "model",      "power", "dse",
        "sim",   "validate", "serve",     "profile_io", "util"};
    return kLayers;
}

std::string
layerOf(const std::string &spanName)
{
    if (spanName == "dse.sim")
        return "sim";
    std::string prefix = spanName.substr(0, spanName.find('.'));
    if (prefix == "accuracy" || prefix == "calibrate")
        return "validate";
    return prefix;
}

std::map<std::string, SpanStats>
spanSelfTimes(const std::vector<mipp::obs::SpanEvent> &events)
{
    std::map<uint32_t, std::vector<const mipp::obs::SpanEvent *>> byTid;
    for (const auto &e : events)
        byTid[e.tid].push_back(&e);

    std::map<std::string, SpanStats> out;
    for (auto &[tid, evs] : byTid) {
        // Parents first: earlier start, and on a tie the longer span.
        std::sort(evs.begin(), evs.end(), [](auto *a, auto *b) {
            if (a->startNs != b->startNs)
                return a->startNs < b->startNs;
            return a->durNs > b->durNs;
        });
        std::vector<double> childNs(evs.size(), 0);
        std::vector<size_t> stack;
        for (size_t i = 0; i < evs.size(); ++i) {
            const auto *e = evs[i];
            while (!stack.empty()) {
                const auto *top = evs[stack.back()];
                if (e->startNs >= top->startNs + top->durNs)
                    stack.pop_back();
                else
                    break;
            }
            if (!stack.empty())
                childNs[stack.back()] += static_cast<double>(e->durNs);
            stack.push_back(i);
        }
        for (size_t i = 0; i < evs.size(); ++i) {
            SpanStats &s = out[evs[i]->name];
            double dur = static_cast<double>(evs[i]->durNs);
            s.count += 1;
            s.totalMs += dur / 1e6;
            s.selfMs += std::max(0.0, dur - childNs[i]) / 1e6;
        }
    }
    return out;
}

void
reportTrace(Report &rep, const Args &args,
            const mipp::obs::SpanRecorder &rec, double overheadPct)
{
    std::string path = args.workdir + "/trace-" + args.workload + ".json";
    {
        std::ofstream os(path);
        rec.writeChromeTrace(os);
        rep.check(static_cast<bool>(os), "chrome trace written to " + path);
    }

    std::vector<mipp::obs::SpanEvent> events = rec.snapshot();
    std::map<std::string, SpanStats> stats = spanSelfTimes(events);
    std::map<std::string, double> layerSelf;
    std::printf("  %-30s %8s %12s %12s  layer\n", "span", "count",
                "total_ms", "self_ms");
    for (const auto &[name, s] : stats) {
        std::string layer = layerOf(name);
        layerSelf[layer] += s.selfMs;
        std::printf("  %-30s %8llu %12.3f %12.3f  %s\n", name.c_str(),
                    static_cast<unsigned long long>(s.count), s.totalMs,
                    s.selfMs, layer.c_str());
    }
    for (const std::string &layer : layers())
        rep.metric(layer + ".self_ms", layerSelf[layer], "ms");
    rep.metric("obs.spans_dropped", static_cast<double>(rec.dropped()),
               "count");
    rep.check(rec.dropped() == 0, "span ring never wrapped");
    rep.metric("trace_overhead_pct", overheadPct, "%");
}

const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> kMetrics =
        {
            // profile-stream
            {"trace.decode_uops_per_s", "uops/s"},
            {"profiler.pass_uops_per_s", "uops/s"},
            {"profiler.mem_parallel_uops_per_s", "uops/s"},
            {"profiler.parallel_efficiency", "ratio"},
            // dse-million
            {"statstack.build_ms", "ms"},
            {"model.batch_eval_ns", "ns"},
            {"model.ratios_ns", "ns"},
            {"model.dispatch_ns", "ns"},
            {"model.mlp_ns", "ns"},
            {"model.branch_res_ns", "ns"},
            {"power.compute_ns", "ns"},
            {"dse.pareto_insert_ns", "ns"},
            {"dse.front_size", "count"},
            {"dse.parallel_efficiency", "ratio"},
            // serve-mixed
            {"model.ctx_eval_us", "us"},
            {"serve.stack_us", "us"},
            {"serve.queue_wait_p99_ms", "ms"},
            {"serve.lru_hit_frac", "ratio"},
            {"serve.shed_frac", "ratio"},
            {"profile_io.parse_ms", "ms"},
            {"profiler.serve_profile_ms", "ms"},
            {"util.json_parse_us", "us"},
            {"bench.generator_late_p99_ms", "ms"},
            // explore-validate
            {"sim.uops_per_s", "uops/s"},
            {"sim.parallel_efficiency", "ratio"},
            {"dse.sim_invocations", "count"},
            {"validate.violations", "count"},
            {"validate.cpi_mape_pct", "%"},
            {"validate.power_mape_pct", "%"},
        };
    return kMetrics;
}

void
fillUnusedLayerMetrics(Report &rep)
{
    for (const auto &[name, unit] : perLayerMetrics())
        if (!rep.has(name))
            rep.metric(name, 0, unit);
}

} // namespace pb
