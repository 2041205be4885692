/**
 * @file
 * Shared harness for the end-to-end benchmark: arguments, timing and
 * statistics helpers, the result report, and the span analysis behind
 * the traced per-layer run.
 *
 * Every workload runs in one of two modes. The untraced run (--trace 0)
 * measures the end-to-end metrics with no SpanRecorder installed. The
 * traced run (--trace 1) installs an obs::SpanRecorder, wraps each
 * benchmark-side call into a layer's public function in an
 * obs::ScopedSpan named "<layer>.<call>", and reports the per-layer
 * metrics; the spans the library records itself (profiler.pass,
 * dse.sweep, statstack.build, serve.*) appear as children.
 */
#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hh"

namespace pb {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
inline double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
    std::string workload;
    uint64_t seed = 1;
    /** Measurement budget of the untraced run's timed phase. */
    double seconds = 10;
    bool trace = false;
    /** Scratch directory for recorded traces, sockets and exports. */
    std::string workdir = ".bench_build/perfbench-work";
};

/** Host concurrency; thread pools and connection counts are sized to it. */
unsigned nproc();

/** Deterministic 64-bit mix of a base seed and the workload seed. */
uint64_t mixSeed(uint64_t base, uint64_t seed);

double median(std::vector<double> v);
/** Linear-interpolated quantile, q in [0, 1]. */
double quantile(std::vector<double> v, double q);
/**
 * Mean over inputs of each input's median: the typical time of one
 * request when requests of different inputs differ in cost. A pooled
 * median would jump between inputs as their sample counts change.
 */
double meanOfMedians(const std::vector<std::vector<double>> &perInput);

/** Process resident-set high-water mark (VmHWM), MiB. */
double peakRssMb();

/**
 * Reset the high-water mark to the current resident set, so that
 * peakRssMb() afterwards covers only what follows (set-up memory is
 * reported on its own). False when the kernel does not allow it; the
 * mark then still includes set-up.
 */
bool resetPeakRss();

/** Peak resident set of set-up, then of the timed phase. */
struct RssPhases {
    double setupMb = 0;
    bool reset = false;

    /** Call right after set-up. */
    void
    endSetup()
    {
        setupMb = peakRssMb();
        reset = resetPeakRss();
    }
};

/**
 * Collects what one run reports: the contract metrics for the final
 * JSON line, failure accounting per phase, and the output checks.
 */
class Report
{
  public:
    explicit Report(std::string workload) : workload_(std::move(workload))
    {
    }

    /** A metric of the final JSON line (end-to-end in the untraced run,
     *  per-layer in the traced run). Also printed. */
    void metric(const std::string &name, double value,
                const std::string &unit);
    /** A printed-only figure (workload-specific names, sample counts,
     *  secondary percentiles). */
    void note(const std::string &name, double value,
              const std::string &unit, const std::string &detail = "");
    /** Operations of one phase: sent, succeeded, failed. Sums into the
     *  JSON line's attempted/failed. */
    void phase(const std::string &name, uint64_t sent, uint64_t ok,
               uint64_t failed);
    /** An output check; a failed one makes the run incorrect. */
    void check(bool ok, const std::string &what);
    bool correct() const { return failedChecks_ == 0; }
    bool has(const std::string &name) const
    {
        return metrics_.count(name) != 0;
    }

    /** Print the final JSON line; returns the process exit code. */
    int finish() const;

  private:
    std::string workload_;
    std::map<std::string, std::pair<double, std::string>> metrics_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    unsigned failedChecks_ = 0;
    unsigned checks_ = 0;
};

/**
 * Run @p setup at least 5 times and until a second has passed, adding
 * each wall time in seconds to @p samples; the last run's state is
 * kept. A workload calls it before its timed phase and again after it,
 * and reports the median of both halves as `setup_s`: shared virtual
 * machines have slow stretches lasting seconds, and two windows far
 * apart rarely both fall in one.
 */
template <class F>
void
timeSetup(std::vector<double> &samples, F &&setup)
{
    Clock::time_point start = Clock::now();
    for (int runs = 0; runs < 5 || since(start) < 1.0; ++runs) {
        Clock::time_point t0 = Clock::now();
        setup();
        samples.push_back(since(t0));
    }
}

/** Report peak_rss_mb (timed phase) and the set-up peak beside it. */
void reportRss(Report &rep, const RssPhases &rss);

/** Print the host context (nproc, compiler, build type, flags). */
void printHostContext();

/** The repo's layers, named as in src/. */
const std::vector<std::string> &layers();

/** Layer a span site belongs to ("dse.sim" times one simulate() call). */
std::string layerOf(const std::string &spanName);

/** Per-span-name aggregate of a recorded trace. */
struct SpanStats {
    uint64_t count = 0;
    double totalMs = 0;
    double selfMs = 0;
};

/**
 * Self time per span name: a span's duration minus the time its direct
 * children on the same thread cover (spans on one thread nest, because
 * ScopedSpan is RAII). Summed over threads, self times partition the
 * busy time of every traced thread.
 */
std::map<std::string, SpanStats>
spanSelfTimes(const std::vector<mipp::obs::SpanEvent> &events);

/**
 * Finish a traced run: export the Chrome trace to
 * <workdir>/trace-<workload>.json, print the self-time table, and add
 * `<layer>.self_ms` for every layer, `obs.spans_dropped` and
 * `trace_overhead_pct` to @p rep.
 */
void reportTrace(Report &rep, const Args &args,
                 const mipp::obs::SpanRecorder &rec, double overheadPct);

/**
 * Every per-layer metric name with its unit. A traced run reports all of
 * them; those its workload does not exercise read 0.
 */
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

/** Fill metrics of perLayerMetrics() the run did not set with 0. */
void fillUnusedLayerMetrics(Report &rep);

int runProfileStream(const Args &args);
int runDseMillion(const Args &args);
int runServeMixed(const Args &args);
int runExploreValidate(const Args &args);

} // namespace pb

#endif // PERFBENCH_COMMON_HH
