/**
 * @file
 * Segment-cursor abstraction over uop streams.
 *
 * A TraceSource yields bounded, position-annotated segments of a uop
 * stream through the profiler's zero-copy span path. A fully
 * materialized Trace is one implementation; a streaming frontend (e.g.
 * a binary trace file reader) is another — the profiler consumes either
 * through the same interface at O(segment) memory.
 *
 * Segment contract (matches SegmentProfiler::feed): every segment
 * except the last must span a whole number of sampling windows so
 * micro-traces never straddle a segment boundary. Drivers guarantee
 * this by requesting window-aligned segment sizes. A source should
 * yield exactly @p maxUops uops until the stream's tail; the profiling
 * drivers also accept shorter spans mid-stream, gathering them into a
 * full span at the cost of a copy.
 *
 * Span lifetime: a span next() yields stays valid until the source's
 * next next() or reset() call. A source that can also read at any
 * position (readAt: an in-memory trace, an indexed file) lets the
 * parallel driver fetch each segment on the loop that profiles it,
 * outside the fetch lock, with no copy; any other source is read
 * through next() in stream order and each span is copied before the
 * next call. The sequential driver feeds each span before its next
 * next() call, so it only ever uses next().
 */

#ifndef MIPP_TRACE_TRACE_SOURCE_HH
#define MIPP_TRACE_TRACE_SOURCE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "trace/trace.hh"

namespace mipp {

/** One contiguous span of a uop stream. */
struct TraceSegment {
    const MicroOp *data = nullptr;
    size_t size = 0;
    /** Global index of data[0] in the stream; with sizeHint(), the
     *  drivers use it to recognize a stream's tail. */
    uint64_t baseUop = 0;

    bool empty() const { return size == 0; }
};

/**
 * Sequential cursor over a uop stream. next() yields the following
 * segment of exactly @p maxUops uops (fewer only at the stream's tail;
 * empty at end-of-stream). The returned span stays valid until the next
 * call to next() or reset(); callers needing longer lifetimes copy.
 */
class TraceSource
{
  public:
    /** sizeHint() value when the stream length is unknown up front. */
    static constexpr uint64_t kUnknownSize = ~0ULL;

    virtual ~TraceSource() = default;

    /** Total uops in the stream, or kUnknownSize for a pure stream. */
    virtual uint64_t sizeHint() const { return kUnknownSize; }

    virtual TraceSegment next(size_t maxUops) = 0;

    /**
     * Positioned read: the uops [base, base + n) of a stream of known
     * length, fewer only at its end, without moving the next() cursor.
     * The span points into the source's own storage or into @p buf
     * (resized to fit) and stays valid while both live. Const and
     * thread-safe, so concurrent callers may each read their own range.
     * std::nullopt from a source that can only stream.
     */
    virtual std::optional<TraceSegment>
    readAt(uint64_t /*base*/, size_t /*n*/,
           std::vector<MicroOp> & /*buf*/) const
    {
        return std::nullopt;
    }

    /** Rewind to the start of the stream. */
    virtual void reset() = 0;
};

/** Zero-copy TraceSource over a materialized Trace. */
class MaterializedTraceSource final : public TraceSource
{
  public:
    explicit MaterializedTraceSource(const Trace &trace) : trace_(&trace) {}

    uint64_t sizeHint() const override { return trace_->size(); }

    TraceSegment
    next(size_t maxUops) override
    {
        TraceSegment seg = span(pos_, maxUops);
        pos_ += seg.size;
        return seg;
    }

    /** A span into the trace itself: zero-copy, @p buf unused. */
    std::optional<TraceSegment>
    readAt(uint64_t base, size_t n,
           std::vector<MicroOp> & /*buf*/) const override
    {
        return span(base, n);
    }

    void reset() override { pos_ = 0; }

  private:
    TraceSegment
    span(uint64_t base, size_t n) const
    {
        const size_t at = static_cast<size_t>(
            std::min<uint64_t>(base, trace_->size()));
        return {trace_->data() + at, std::min(n, trace_->size() - at), at};
    }

    const Trace *trace_;
    size_t pos_ = 0;
};

} // namespace mipp

#endif // MIPP_TRACE_TRACE_SOURCE_HH
