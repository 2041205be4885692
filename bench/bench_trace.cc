/**
 * `.mtf` ingestion-throughput benchmarks (items/s = uops/s).
 *
 * BM_MtfEncode measures MtfWriter encoding into a memory buffer,
 * BM_MtfDecode raw MtfReader::decode() over an opened trace,
 * BM_MtfOpen MtfReader::parse() (copy + validation walk), and
 * BM_MtfProfileStream the full ingest path the CLI exercises —
 * MtfTraceSource streamed through profileSourceParallel (at one thread,
 * the sequential profileSource). run_benchmarks.sh records the decode
 * rate as the trace ingest-throughput entry in BENCH_speedup.json.
 */
#include <benchmark/benchmark.h>

#include <sstream>

#include "profiler/profiler.hh"
#include "trace/mtf.hh"
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

/** The shared trace encoded once; parsed per benchmark setup. */
const std::string &
sharedMtfBytes()
{
    static std::string bytes = [] {
        std::ostringstream os;
        Status st = writeMtf(sharedTrace(), os);
        if (!st.isOk())
            std::abort();
        return os.str();
    }();
    return bytes;
}

void
BM_MtfEncode(benchmark::State &state)
{
    for (auto _ : state) {
        std::ostringstream os;
        MtfWriter w(os);
        for (const MicroOp &op : sharedTrace())
            w.append(op);
        Status st = w.finish();
        benchmark::DoNotOptimize(st.isOk());
    }
    state.SetItemsProcessed(state.iterations() * sharedTrace().size());
    state.SetBytesProcessed(state.iterations() *
                            sharedMtfBytes().size());
}
BENCHMARK(BM_MtfEncode)->Unit(benchmark::kMillisecond);

void
BM_MtfDecode(benchmark::State &state)
{
    MtfReader reader;
    Status st = MtfReader::parse(sharedMtfBytes(), reader);
    if (!st.isOk())
        std::abort();
    std::vector<MicroOp> chunk(65536);
    for (auto _ : state) {
        reader.rewind();
        uint64_t n = 0;
        for (;;) {
            size_t got = reader.decode(chunk.data(), chunk.size());
            if (!got)
                break;
            n += got;
        }
        benchmark::DoNotOptimize(n);
    }
    state.SetItemsProcessed(state.iterations() * sharedTrace().size());
    state.SetBytesProcessed(state.iterations() *
                            sharedMtfBytes().size());
}
BENCHMARK(BM_MtfDecode)->Unit(benchmark::kMillisecond);

/** Open: MtfReader::parse of the shared bytes, i.e. the copy plus the
 *  validation walk (checksum and record checks) every open runs. */
void
BM_MtfOpen(benchmark::State &state)
{
    const std::string &bytes = sharedMtfBytes(); // encoded outside timing
    for (auto _ : state) {
        MtfReader reader;
        Status st = MtfReader::parse(bytes, reader);
        benchmark::DoNotOptimize(st.isOk());
    }
    state.SetItemsProcessed(state.iterations() * sharedTrace().size());
    state.SetBytesProcessed(state.iterations() *
                            sharedMtfBytes().size());
}
BENCHMARK(BM_MtfOpen)->Unit(benchmark::kMillisecond);

/** Full ingest path: decode + profile, threads = range(0). */
void
BM_MtfProfileStream(benchmark::State &state)
{
    MtfReader reader;
    Status st = MtfReader::parse(sharedMtfBytes(), reader);
    if (!st.isOk())
        std::abort();
    unsigned threads = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        MtfTraceSource source(reader);
        Profile p = profileSourceParallel(source, {}, {.threads = threads});
        benchmark::DoNotOptimize(p.profiledUops);
    }
    state.SetItemsProcessed(state.iterations() * sharedTrace().size());
}
BENCHMARK(BM_MtfProfileStream)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
