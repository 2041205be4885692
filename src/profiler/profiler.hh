/**
 * @file
 * The micro-architecture independent profiler (thesis Ch. 3-5).
 *
 * One pass over a uop trace produces a Profile: instruction mix, dependence
 * chains for a set of ROB sizes, linear branch entropy, reuse-distance
 * distributions, cold-miss burstiness and per-static-load stride / spacing /
 * dependence distributions. Core statistics are collected on sampled
 * micro-traces (thesis §5.1); memory reuse, strides and branch history are
 * tracked continuously so that long-range reuse is observed, mirroring
 * StatStack's whole-run burst sampling (§5.4).
 */

#ifndef MIPP_PROFILER_PROFILER_HH
#define MIPP_PROFILER_PROFILER_HH

#include <string>

#include "profiler/profile.hh"
#include "trace/trace.hh"

namespace mipp {

/** Profiling knobs. */
struct ProfilerConfig {
    std::string name = "workload";
    /** Micro-trace / window geometry; default 1000-uop micro-traces every
     *  20k uops (the thesis rate, scaled to this framework's trace sizes). */
    SamplingConfig sampling{1000, 20000};
    /** ROB sizes for which dependence chains are profiled (thesis §5.2). */
    std::vector<uint32_t> robSizes = defaultRobSizes();
    /** Global-history length for linear branch entropy (bits). */
    uint32_t historyBits = 8;
    /** History bits for the cheap per-window entropy estimate. */
    uint32_t windowHistoryBits = 4;
};

/** Knobs for the segment-parallel profiling driver. */
struct ParallelProfileOptions {
    /** Worker count; 0 = the shared pool's full concurrency. */
    unsigned threads = 0;
    /**
     * Segment length in uops (rounded up to whole sampling windows);
     * 0 derives it — about 8 segments per thread, at most 4 windows
     * (80k uops at the default sampling) each; 4 windows when the
     * stream length is unknown.
     */
    size_t segmentUops = 0;
};

class TraceSource;

/**
 * The sequential profiling driver: one pass over a uop stream.
 * Deterministic; no micro-architecture inputs. Streams at O(chunk)
 * resident uops: spans of 16 windows are fed in place, and spans a
 * source yields short mid-stream are gathered into full chunks.
 * Unsampled configs feed the whole stream, which forms one micro-trace,
 * as one span (in place when the source yields it at once). The result
 * depends only on the stream's uops, never on how the source chunks
 * them.
 */
Profile profileSource(TraceSource &source, const ProfilerConfig &cfg = {});

/**
 * The parallel profiling driver: the stream split into window-aligned
 * segments profiled concurrently on the shared thread pool and merged
 * in stream order. Bit-identical to profileSource for every stream,
 * thread count and segment size: all cross-segment state (reuse
 * last-touch maps, branch global history, per-op stride runs,
 * order-sensitive float accumulations) is carried explicitly across
 * the boundaries.
 *
 * One ordered pipeline: `threads` worker loops each claim the next
 * segment (under a lock, in stream order), profile it, and whichever
 * loop is free folds every finished segment into the result in stream
 * order, so decoding and merging overlap with profiling. A source with
 * positioned reads (TraceSource::readAt) is read by each loop for its
 * own segment, outside the lock: in place for an in-memory trace,
 * decoded into the loop's reused buffer for an indexed `.mtf` file.
 * Any other source is read through next() under the lock and each
 * segment copied into that buffer. Peak memory is
 * O(threads * segment) uops of buffers plus at most 2 * threads
 * profiled-but-unmerged segment states. Unsampled configs, one thread
 * and streams known to fit one segment run profileSource. Safe to call
 * from inside a pool worker (the loops then run inline) and from
 * several threads at once.
 */
Profile profileSourceParallel(TraceSource &source,
                              const ProfilerConfig &cfg = {},
                              const ParallelProfileOptions &opts = {});

/** profileSource over @p trace, in place. */
Profile profileTrace(const Trace &trace, const ProfilerConfig &cfg = {});

/** profileSourceParallel over @p trace; segments point into it. */
Profile profileTraceParallel(const Trace &trace,
                             const ProfilerConfig &cfg = {},
                             const ParallelProfileOptions &opts = {});

/**
 * Profile a batch of workloads, parallel across traces on the shared
 * thread pool. @p cfgs must hold either one config (broadcast to every
 * trace) or exactly one per trace; empty means all-default configs.
 * Equivalent to calling profileTrace per trace, in order.
 */
std::vector<Profile> profileTraces(const std::vector<Trace> &traces,
                                   const std::vector<ProfilerConfig> &cfgs = {});

} // namespace mipp

#endif // MIPP_PROFILER_PROFILER_HH
