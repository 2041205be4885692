#include "profiler/profiler.hh"

#include <algorithm>
#include <array>
#include <condition_variable>
#include <deque>
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
    // Derived spans: about 8 segments per thread, at most 4 windows
    // each (the unknown-length default too). Measured on 1M-uop .mtf
    // files of cold_sweep, branchy and mix_mid at 4 threads: 40k-uop
    // segments are ~5% faster than 60k and 80k, and 20k no faster; the
    // last segments and their line resolution are the run's tail, so
    // more of them balance the loops better. Long streams keep 4
    // windows: each segment re-touches its working set as pending
    // first touches, which more segments would multiply.
    constexpr uint64_t kSegmentsPerThread = 8;
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
 * The stream's next @p span uops as one span, fewer only at its end:
 * the source's own span when it yields them all at once or it ends a
 * stream of known length, else the pieces gathered into @p buf. A
 * source may yield short spans mid-stream; this keeps every feed but
 * the last window-aligned however it chunks.
 */
TraceSegment
nextSpan(TraceSource &source, size_t span, std::vector<MicroOp> &buf)
{
    TraceSegment first = source.next(span);
    if (first.size == span || first.empty() ||
        first.baseUop + first.size == source.sizeHint())
        return first;
    buf.assign(first.data, first.data + first.size);
    while (buf.size() < span) {
        TraceSegment s = source.next(span - buf.size());
        if (s.empty())
            break;
        buf.insert(buf.end(), s.data, s.data + s.size);
    }
    return {buf.data(), buf.size(), first.baseUop};
}

/**
 * The whole stream as one span: nextSpan over its length when that is
 * known, else gathered into @p buf in pieces of a fixed size.
 */
TraceSegment
wholeStream(TraceSource &source, std::vector<MicroOp> &buf)
{
    const uint64_t total = source.sizeHint();
    if (total != TraceSource::kUnknownSize)
        return nextSpan(source, static_cast<size_t>(total), buf);
    constexpr size_t kPiece = size_t{1} << 16;
    for (TraceSegment s; !(s = source.next(kPiece)).empty();)
        buf.insert(buf.end(), s.data, s.data + s.size);
    return {buf.data(), buf.size(), 0};
}

/**
 * The ordered segment pipeline behind profileSourceParallel. `threads`
 * worker loops run inside one parallelFor; each loop repeatedly
 *   1. claims the next window-aligned span under the source lock and
 *      fetches it: a source with positioned reads (readAt) is read
 *      after the lock is dropped, in place or into the loop's reused
 *      buffer; any other source is read under the lock through next()
 *      and copied into that buffer,
 *   2. profiles it as a sealed Carry segment, holding no lock, and
 *   3. publishes it, then runs whatever ready work it finds: the
 *      segments' data-line shard resolutions (SegmentProfiler::
 *      resolveLines; shard s of segment k is ready once shard s has
 *      taken segment k - 1, so the shards run in parallel), the fold of
 *      a segment's resolved lines (by the loop that finished its last
 *      shard), and, when no other loop is absorbing, the absorb of the
 *      stream-order-next segment once its lines are folded.
 * Decode, line resolution and absorb thus overlap with the other
 * loops' profiling, and a loop that finds the stream exhausted keeps
 * running ready work until the absorber has taken every segment. The
 * result is the Head's, so it is bit-identical to the sequential pass
 * for any segmentation and any completion order.
 *
 * At most 2 * threads segments are claimed but not yet taken up by
 * the absorber (plus the one it is folding in). A loop at that bound
 * runs ready work while it waits, and sleeps only when there is none:
 * then every unfinished piece is held by a running loop (a segment
 * being profiled, a shard task or fold, the absorb), which holds no
 * lock and signals when it is done, so the wait always ends. That
 * holds when parallelFor runs the loops one after another on a single
 * thread (a call from inside a pool worker) too: a lone loop resolves
 * and absorbs each segment itself before it claims the next and never
 * reaches the bound.
 */
class SegmentPipeline
{
  public:
    SegmentPipeline(const ProfilerConfig &cfg, unsigned threads,
                    size_t span, TraceSource &source)
        : cfg_(cfg), threads_(threads), span_(span),
          maxInFlight_(2 * size_t{threads}), source_(source),
          total_(source.sizeHint()), head_(cfg)
    {
        // A source of known length answers a positioned read at all,
        // even an empty one, exactly when it supports them.
        std::vector<MicroOp> probe;
        positioned_ = total_ != TraceSource::kUnknownSize &&
                      source.readAt(0, 0, probe).has_value();
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
    static constexpr size_t kShards = SegmentProfiler::kLineShards;

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
                        break;
                    base = nextBase_;
                    if (positioned_)
                        span.size = static_cast<size_t>(
                            std::min<uint64_t>(span_, total_ - base));
                    else
                        span = nextSpan(source_, span_, buf);
                    if (span.empty()) {
                        exhausted_ = true;
                        break;
                    }
                    // A span next() yields dies on the source's next
                    // next() call: own a copy.
                    if (!positioned_ && span.data != buf.data()) {
                        buf.assign(span.data, span.data + span.size);
                        span.data = buf.data();
                    }
                    nextBase_ += span.size;
                    std::lock_guard<std::mutex> lk(mu_);
                    seq = claimed_++;
                }
                if (positioned_) {
                    const size_t want = span.size;
                    span = *source_.readAt(base, want, buf);
                    if (span.size != want)
                        throw std::logic_error(
                            "TraceSource::readAt returned a short span "
                            "inside the stream");
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
            helpToEnd();
        } catch (...) {
            std::lock_guard<std::mutex> lk(mu_);
            failed_ = true;
            changed_.notify_all();
            throw;
        }
    }

    /** Run ready work while the in-flight bound is reached, sleeping
     *  when there is none; false once another loop has failed. */
    bool
    waitForRoom()
    {
        std::unique_lock<std::mutex> lk(mu_);
        for (;;) {
            if (failed_)
                return false;
            if (claimed_ - absorbed_ < maxInFlight_)
                return true;
            if (!runReadyWork(lk))
                changed_.wait(lk);
        }
    }

    /** Once the stream is exhausted (no more claims), keep running
     *  ready work until the absorber has taken up every segment. */
    void
    helpToEnd()
    {
        std::unique_lock<std::mutex> lk(mu_);
        while (!failed_ && absorbed_ < claimed_)
            if (!runReadyWork(lk))
                changed_.wait(lk);
    }

    /** Hand segment @p seq to the pipeline, then run ready work. */
    void
    publish(uint64_t seq, std::unique_ptr<SegmentProfiler> seg)
    {
        std::unique_lock<std::mutex> lk(mu_);
        size_t slot = static_cast<size_t>(seq - absorbed_);
        if (ready_.size() <= slot)
            ready_.resize(slot + 1);
        ready_[slot].seg = std::move(seg);
        changed_.notify_all();
        while (runReadyWork(lk)) {
        }
    }

    /**
     * Run one ready piece of work with @p lk released: the absorb of
     * the stream-order-next segment if its lines are folded and no loop
     * is absorbing, else the shard task of the earliest ready segment
     * (and the segment's fold, if that was its last shard). @return
     * false if nothing was ready.
     */
    bool
    runReadyWork(std::unique_lock<std::mutex> &lk)
    {
        if (failed_)
            return false;
        if (!absorbing_ && !ready_.empty() && ready_.front().folded) {
            std::unique_ptr<SegmentProfiler> next =
                std::move(ready_.front().seg);
            ready_.pop_front();
            absorbed_++; // keeps ready_[k] == segment absorbed_ + k
            absorbing_ = true;
            changed_.notify_all();
            unlocked(lk, [&] {
                MIPP_SPAN("profiler.absorb");
                head_.absorb(std::move(*next));
                next.reset();
            });
            absorbing_ = false;
            changed_.notify_all();
            return true;
        }
        size_t shard = kShards;
        for (size_t s = 0; s < kShards; ++s) {
            const size_t slot =
                static_cast<size_t>(shardNext_[s] - absorbed_);
            if (!shardBusy_[s] && slot < ready_.size() && ready_[slot].seg &&
                (shard == kShards || shardNext_[s] < shardNext_[shard]))
                shard = s;
        }
        if (shard == kShards)
            return false;
        const uint64_t seq = shardNext_[shard];
        SegmentProfiler &seg = *ready_[seq - absorbed_].seg;
        shardBusy_[shard] = true;
        unlocked(lk, [&] {
            MIPP_SPAN("profiler.resolve");
            head_.resolveLines(seg, shard);
        });
        shardBusy_[shard] = false;
        shardNext_[shard]++;
        // An unfolded segment is not absorbed, so seq - absorbed_ still
        // indexes its slot.
        if (--ready_[seq - absorbed_].shardsLeft == 0) {
            unlocked(lk, [&] {
                MIPP_SPAN("profiler.fold");
                seg.foldLines();
            });
            ready_[seq - absorbed_].folded = true;
        }
        changed_.notify_all();
        return true;
    }

    /** Run @p work with @p lk released and re-take it after, also when
     *  @p work throws (a failure ends every loop, so the state it was
     *  working on needs no reset). */
    template <typename Work>
    static void
    unlocked(std::unique_lock<std::mutex> &lk, Work &&work)
    {
        lk.unlock();
        struct Relock {
            std::unique_lock<std::mutex> &lk;
            ~Relock() { lk.lock(); }
        } relock{lk};
        work();
    }

    const ProfilerConfig &cfg_;
    const unsigned threads_;
    const size_t span_;
    const size_t maxInFlight_;
    /** next() is called under srcMu_ only; readAt() by any loop. */
    TraceSource &source_;
    const uint64_t total_;
    bool positioned_ = false; ///< fetch through readAt, set once

    std::mutex srcMu_; ///< claim order == fetch order == stream order
    uint64_t nextBase_ = 0;
    bool exhausted_ = false;

    std::mutex mu_; ///< guards everything below
    std::condition_variable changed_;
    uint64_t claimed_ = 0;
    uint64_t absorbed_ = 0; ///< taken off ready_ by the absorber
    struct Slot {
        std::unique_ptr<SegmentProfiler> seg; ///< set once profiled
        size_t shardsLeft = kShards; ///< shard tasks still to run
        bool folded = false;
    };
    /** ready_[k] holds segment absorbed_ + k. */
    std::deque<Slot> ready_;
    /** Per shard: the segment it resolves next, and whether a loop is
     *  resolving it now. */
    std::array<uint64_t, kShards> shardNext_{};
    std::array<bool, kShards> shardBusy_{};
    bool absorbing_ = false; ///< some loop owns head_'s non-shard state
    bool failed_ = false;
    SegmentProfiler head_;
};

} // namespace

Profile
profileTrace(const Trace &trace, const ProfilerConfig &cfg)
{
    MaterializedTraceSource source(trace);
    return profileSource(source, cfg);
}

Profile
profileTraceParallel(const Trace &trace, const ProfilerConfig &cfg,
                     const ParallelProfileOptions &opts)
{
    MaterializedTraceSource source(trace);
    return profileSourceParallel(source, cfg, opts);
}

Profile
profileSource(TraceSource &source, const ProfilerConfig &cfg)
{
    MIPP_SPAN("profiler.pass");
    SegmentProfiler head(cfg);
    std::vector<MicroOp> buf;
    if (!cfg.sampling.sampled()) {
        // The whole stream is one micro-trace whose span must be
        // contiguous: one feed.
        TraceSegment all = wholeStream(source, buf);
        head.feed(all.data, all.size);
        return std::move(head).finalize();
    }
    // Streaming: O(chunk) resident uops regardless of stream length.
    // 16 windows per chunk keeps feed() overhead negligible next to the
    // per-uop profiling work.
    const size_t chunk = 16 * cfg.sampling.windowSize;
    for (TraceSegment seg; !(seg = nextSpan(source, chunk, buf)).empty();)
        head.feed(seg.data, seg.size);
    return std::move(head).finalize();
}

Profile
profileSourceParallel(TraceSource &source, const ProfilerConfig &cfg,
                      const ParallelProfileOptions &opts)
{
    // Unsampled configs form one whole-stream micro-trace, and one
    // thread or a stream that fits one segment has nothing to overlap:
    // the sequential pass.
    const unsigned threads = effectiveThreads(opts.threads);
    if (!cfg.sampling.sampled() || threads <= 1)
        return profileSource(source, cfg);
    const uint64_t total = source.sizeHint();
    const size_t span =
        segmentSpan(total, threads, cfg.sampling.windowSize,
                    opts.segmentUops);
    if (total != TraceSource::kUnknownSize && total <= span)
        return profileSource(source, cfg);

    MIPP_SPAN("profiler.pass");
    return SegmentPipeline(cfg, threads, span, source).run();
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
                out[i] = profileTrace(traces[i], cfg);
            }
        });
    return out;
}

} // namespace mipp
