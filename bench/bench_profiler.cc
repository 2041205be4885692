/**
 * Thread-scaling benchmarks for the segment-parallel profiler.
 * BM_ProfileSequential is the single-pass profiler (profileTrace);
 * BM_ProfileParallel/N runs profileTraceParallel with N worker threads
 * over the same trace, its segments in place. BM_ProfileSourceStreaming/N
 * feeds the same trace through a source that can only stream, so the
 * drivers take the streaming path a file reader does (chunked sequential
 * feeds, per-segment copies). Because parallel profiling is
 * bit-identical to the sequential pass (see
 * tests/test_profiler_parallel.cc), the ratio of their
 * items_per_second rates is pure speedup, not an accuracy trade.
 */
#include <benchmark/benchmark.h>

#include "profiler/profiler.hh"
#include "trace/trace_source.hh"
#include "workloads/workload.hh"

namespace {

using namespace mipp;

constexpr size_t kUops = 2000000;

const Trace &
sharedTrace()
{
    static Trace t =
        generateWorkload(suiteWorkload("balanced_mix"), kUops);
    return t;
}

void
BM_ProfileSequential(benchmark::State &state)
{
    for (auto _ : state) {
        Profile p = profileTrace(sharedTrace(), {});
        benchmark::DoNotOptimize(p.profiledUops);
    }
    state.SetItemsProcessed(state.iterations() * sharedTrace().size());
}
BENCHMARK(BM_ProfileSequential)->Unit(benchmark::kMillisecond);

void
BM_ProfileParallel(benchmark::State &state)
{
    ParallelProfileOptions opts;
    opts.threads = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        Profile p = profileTraceParallel(sharedTrace(), {}, opts);
        benchmark::DoNotOptimize(p.profiledUops);
    }
    state.SetItemsProcessed(state.iterations() * sharedTrace().size());
}
BENCHMARK(BM_ProfileParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

/** Forwards to an inner source without positioned reads, as a
 *  streaming reader's would be. */
class StreamingSource final : public TraceSource
{
  public:
    explicit StreamingSource(TraceSource &inner) : inner_(inner) {}
    uint64_t sizeHint() const override { return inner_.sizeHint(); }
    TraceSegment
    next(size_t maxUops) override
    {
        return inner_.next(maxUops);
    }
    void reset() override { inner_.reset(); }

  private:
    TraceSource &inner_;
};

void
BM_ProfileSourceStreaming(benchmark::State &state)
{
    // Streaming path: the uops are in memory, but the profiler consumes
    // them as it would a file reader's (segment copies, chunked feeds),
    // so this measures the streaming overhead.
    ParallelProfileOptions opts;
    opts.threads = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        MaterializedTraceSource mem(sharedTrace());
        StreamingSource src(mem);
        Profile p = profileSourceParallel(src, {}, opts);
        benchmark::DoNotOptimize(p.profiledUops);
    }
    state.SetItemsProcessed(state.iterations() * sharedTrace().size());
}
BENCHMARK(BM_ProfileSourceStreaming)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
