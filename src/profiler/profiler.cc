#include "profiler/profiler.hh"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "obs/trace.hh"
#include "profiler/segment_profiler.hh"
#include "trace/trace_source.hh"
#include "util/thread_pool.hh"

namespace mipp {

namespace {

/** Requested (or derived) segment span, rounded up to whole windows. */
size_t
segmentSpan(uint64_t totalHint, unsigned threads, size_t winSize,
            size_t requested)
{
    // Derived spans: about 4 segments per thread, at most 4 windows
    // each (the unknown-length default too). Measured on 1M-uop .mtf
    // files of cold_sweep, branchy and mix_mid at 2 and 4 threads,
    // 40k-80k-uop segments are fastest and within noise of each other;
    // 140k is ~7% slower and 260k (one segment per thread) ~20%.
    // Smaller segments let the serial absorb and the fetch hide behind
    // the other loops' profiling and shrink the in-flight footprint.
    constexpr uint64_t kSegmentsPerThread = 4;
    constexpr uint64_t kMaxWindows = 4;
    uint64_t span = kMaxWindows * static_cast<uint64_t>(winSize);
    if (requested) {
        span = requested;
    } else if (totalHint != TraceSource::kUnknownSize) {
        uint64_t segs = kSegmentsPerThread * threads;
        span = std::min(span, (totalHint + segs - 1) / segs);
    }
    span = (span + winSize - 1) / winSize * winSize;
    return static_cast<size_t>(std::max<uint64_t>(span, winSize));
}

unsigned
effectiveThreads(unsigned requested)
{
    return requested ? requested : ThreadPool::shared().concurrency();
}

/**
 * Yields the stream's next @p span uops (fewer only at its tail; empty
 * at its end), starting at uop @p base: a pointer into a materialized
 * trace, or a copy into the calling loop's reused buffer @p buf. Called
 * under the source lock, in stream order.
 */
using FetchFn = std::function<TraceSegment(uint64_t base, size_t span,
                                           std::vector<MicroOp> &buf)>;

/**
 * The ordered segment pipeline behind both parallel entry points.
 * `threads` worker loops run inside one parallelFor; each loop
 * repeatedly
 *   1. claims and fetches the next window-aligned span under the
 *      source lock,
 *   2. profiles it as a sealed Carry segment, holding no lock, and
 *   3. publishes it; a loop that finds no absorber running becomes the
 *      absorber and folds every ready segment into the Head in stream
 *      order.
 * Decode and absorb thus overlap with the other loops' profiling. The
 * result is the Head's, so it is bit-identical to the sequential pass
 * for any segmentation and any completion order.
 *
 * At most 2 * threads segments are claimed but not yet taken up by
 * the absorber (plus the one it is folding in). Publishers absorb
 * eagerly, so a loop at that bound has nothing to absorb itself: it
 * waits for the stream-order-next segment, whose owner holds no lock
 * while it profiles and absorbs it (or hands it to the running
 * absorber) right after, so the wait always ends. That holds when
 * parallelFor runs the loops one after another on a single thread (a
 * call from inside a pool worker) too: a lone loop absorbs each
 * segment before it claims the next and never reaches the bound.
 */
class SegmentPipeline
{
  public:
    SegmentPipeline(const ProfilerConfig &cfg, unsigned threads,
                    size_t span, FetchFn fetch)
        : cfg_(cfg), threads_(threads), span_(span),
          maxInFlight_(2 * size_t{threads}), fetch_(std::move(fetch)),
          head_(cfg)
    {
    }

    Profile
    run() &&
    {
        ThreadPool::shared().parallelFor(
            threads_, 1, [this](size_t begin, size_t end) {
                for (size_t i = begin; i < end; ++i)
                    workerLoop();
            });
        return std::move(head_).finalize();
    }

  private:
    void
    workerLoop()
    {
        std::vector<MicroOp> buf;
        try {
            for (;;) {
                uint64_t seq, base;
                TraceSegment span;
                {
                    std::lock_guard<std::mutex> src(srcMu_);
                    if (exhausted_ || !waitForRoom())
                        return;
                    base = nextBase_;
                    span = fetch_(base, span_, buf);
                    if (span.empty()) {
                        exhausted_ = true;
                        return;
                    }
                    nextBase_ += span.size;
                    std::lock_guard<std::mutex> lk(mu_);
                    seq = claimed_++;
                }
                auto seg = std::make_unique<SegmentProfiler>(
                    cfg_, SegmentProfiler::Role::Carry, base);
                {
                    MIPP_SPAN("profiler.segment");
                    seg->feed(span.data, span.size);
                    seg->seal();
                }
                publish(seq, std::move(seg));
            }
        } catch (...) {
            std::lock_guard<std::mutex> lk(mu_);
            failed_ = true;
            room_.notify_all();
            throw;
        }
    }

    /** Block while the in-flight bound is reached; false once another
     *  loop has failed. */
    bool
    waitForRoom()
    {
        std::unique_lock<std::mutex> lk(mu_);
        room_.wait(lk, [this] {
            return failed_ || claimed_ - absorbed_ < maxInFlight_;
        });
        return !failed_;
    }

    /** Hand segment @p seq to the absorber, becoming it if none runs. */
    void
    publish(uint64_t seq, std::unique_ptr<SegmentProfiler> seg)
    {
        std::unique_lock<std::mutex> lk(mu_);
        size_t slot = static_cast<size_t>(seq - absorbed_);
        if (ready_.size() <= slot)
            ready_.resize(slot + 1);
        ready_[slot] = std::move(seg);
        if (absorbing_)
            return; // the running absorber re-checks before it stops
        absorbing_ = true;
        while (!failed_ && !ready_.empty() && ready_.front()) {
            std::unique_ptr<SegmentProfiler> next =
                std::move(ready_.front());
            ready_.pop_front();
            absorbed_++; // keeps ready_[k] == segment absorbed_ + k
            lk.unlock();
            room_.notify_all();
            try {
                MIPP_SPAN("profiler.absorb");
                head_.absorb(std::move(*next));
                next.reset();
            } catch (...) {
                lk.lock();
                absorbing_ = false;
                throw;
            }
            lk.lock();
        }
        absorbing_ = false;
    }

    const ProfilerConfig &cfg_;
    const unsigned threads_;
    const size_t span_;
    const size_t maxInFlight_;
    const FetchFn fetch_;

    std::mutex srcMu_; ///< claim order == fetch order == stream order
    uint64_t nextBase_ = 0;
    bool exhausted_ = false;

    std::mutex mu_; ///< guards everything below
    std::condition_variable room_;
    uint64_t claimed_ = 0;
    uint64_t absorbed_ = 0; ///< taken off ready_ by the absorber
    /** ready_[k] holds segment absorbed_ + k once it is profiled. */
    std::deque<std::unique_ptr<SegmentProfiler>> ready_;
    bool absorbing_ = false; ///< some loop owns head_
    bool failed_ = false;
    SegmentProfiler head_;
};

/**
 * Shared parallel entry: the sequential pass for unsampled configs
 * (the whole stream is one micro-trace), one thread, or a stream known
 * to fit one segment; the ordered pipeline otherwise.
 */
Profile
profileParallel(uint64_t totalHint, const ProfilerConfig &cfg,
                const ParallelProfileOptions &opts,
                const std::function<Profile()> &sequential,
                FetchFn fetch)
{
    const unsigned threads = effectiveThreads(opts.threads);
    if (!cfg.sampling.sampled() || threads <= 1)
        return sequential();
    const size_t winSize = std::max<size_t>(1, cfg.sampling.windowSize);
    const size_t span =
        segmentSpan(totalHint, threads, winSize, opts.segmentUops);
    if (totalHint != TraceSource::kUnknownSize && totalHint <= span)
        return sequential();

    MIPP_SPAN("profiler.pass");
    return SegmentPipeline(cfg, threads, span, std::move(fetch)).run();
}

} // namespace

Profile
profileTrace(const Trace &trace, const ProfilerConfig &cfg)
{
    MIPP_SPAN("profiler.pass");
    SegmentProfiler head(cfg);
    head.feed(trace.data(), trace.size());
    return std::move(head).finalize();
}

Profile
profileTraceParallel(const Trace &trace, const ProfilerConfig &cfg,
                     const ParallelProfileOptions &opts)
{
    return profileParallel(
        trace.size(), cfg, opts, [&] { return profileTrace(trace, cfg); },
        [&](uint64_t base, size_t span, std::vector<MicroOp> &) {
            // Zero-copy: segments point straight into the trace.
            size_t n = std::min<uint64_t>(span, trace.size() - base);
            return TraceSegment{trace.data() + base, n, base};
        });
}

Profile
profileSource(TraceSource &source, const ProfilerConfig &cfg)
{
    MIPP_SPAN("profiler.pass");
    const size_t winSize = std::max<size_t>(1, cfg.sampling.windowSize);
    SegmentProfiler head(cfg);
    if (!cfg.sampling.sampled()) {
        // The whole stream is one micro-trace whose span must be
        // contiguous: accumulate it, then feed once.
        std::vector<MicroOp> all;
        uint64_t hint = source.sizeHint();
        if (hint != TraceSource::kUnknownSize)
            all.reserve(hint);
        for (;;) {
            TraceSegment seg = source.next(winSize);
            if (seg.empty())
                break;
            all.insert(all.end(), seg.data, seg.data + seg.size);
        }
        head.feed(all.data(), all.size());
        return std::move(head).finalize();
    }
    // Streaming: O(chunk) resident uops regardless of stream length.
    // 16 windows per chunk keeps feed() overhead negligible next to the
    // per-uop profiling work.
    const size_t chunk = 16 * winSize;
    for (;;) {
        TraceSegment seg = source.next(chunk);
        if (seg.empty())
            break;
        head.feed(seg.data, seg.size);
    }
    return std::move(head).finalize();
}

Profile
profileSourceParallel(TraceSource &source, const ProfilerConfig &cfg,
                      const ParallelProfileOptions &opts)
{
    return profileParallel(
        source.sizeHint(), cfg, opts,
        [&] { return profileSource(source, cfg); },
        [&](uint64_t base, size_t span, std::vector<MicroOp> &buf) {
            // The source's spans die on its next next() call: copy.
            // A source may yield short spans mid-stream, so accumulate
            // the full window-aligned span to keep feed()'s alignment
            // contract no matter how the source chunks.
            buf.clear();
            while (buf.size() < span) {
                TraceSegment s = source.next(span - buf.size());
                if (s.empty())
                    break;
                buf.insert(buf.end(), s.data, s.data + s.size);
            }
            return TraceSegment{buf.data(), buf.size(), base};
        });
}

std::vector<Profile>
profileTraces(const std::vector<Trace> &traces,
              const std::vector<ProfilerConfig> &cfgs)
{
    if (!cfgs.empty() && cfgs.size() != 1 && cfgs.size() != traces.size())
        throw std::invalid_argument(
            "profileTraces: cfgs must hold 0, 1, or one config per trace");
    static const ProfilerConfig kDefault{};
    std::vector<Profile> out(traces.size());
    ThreadPool::shared().parallelFor(
        traces.size(), 1, [&](size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i) {
                const ProfilerConfig &cfg =
                    cfgs.empty() ? kDefault
                                 : (cfgs.size() == 1 ? cfgs[0]
                                                     : cfgs.at(i));
                MIPP_SPAN("profiler.pass");
                SegmentProfiler p(cfg);
                p.feed(traces[i].data(), traces[i].size());
                out[i] = std::move(p).finalize();
            }
        });
    return out;
}

} // namespace mipp
