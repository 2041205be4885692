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
 * Span lifetime: a span stays valid until the source's next next() or
 * reset() call, unless the source reports stableSpans(), in which case
 * every span it yields lives as long as the source itself. The
 * parallel driver profiles a stable source's segments in place and
 * copies any other source's first; the sequential driver feeds each
 * span before its next next() call, so it never needs the property.
 */

#ifndef MIPP_TRACE_TRACE_SOURCE_HH
#define MIPP_TRACE_TRACE_SOURCE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>

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
 * call to next() or reset(), or as long as the source if stableSpans();
 * callers needing longer lifetimes copy.
 */
class TraceSource
{
  public:
    /** sizeHint() value when the stream length is unknown up front. */
    static constexpr uint64_t kUnknownSize = ~0ULL;

    virtual ~TraceSource() = default;

    /** Total uops in the stream, or kUnknownSize for a pure stream. */
    virtual uint64_t sizeHint() const { return kUnknownSize; }

    /** True if the spans next() yields stay valid as long as the
     *  source does (an in-memory stream); a property of the source
     *  type, not a setting. */
    virtual bool stableSpans() const { return false; }

    virtual TraceSegment next(size_t maxUops) = 0;

    /** Rewind to the start of the stream. */
    virtual void reset() = 0;
};

/** Zero-copy TraceSource over a materialized Trace. */
class MaterializedTraceSource final : public TraceSource
{
  public:
    explicit MaterializedTraceSource(const Trace &trace) : trace_(&trace) {}

    uint64_t sizeHint() const override { return trace_->size(); }

    /** Spans point into the trace, which outlives the source. */
    bool stableSpans() const override { return true; }

    TraceSegment
    next(size_t maxUops) override
    {
        size_t n = std::min(maxUops, trace_->size() - pos_);
        TraceSegment seg{trace_->data() + pos_, n, pos_};
        pos_ += n;
        return seg;
    }

    void reset() override { pos_ = 0; }

  private:
    const Trace *trace_;
    size_t pos_ = 0;
};

} // namespace mipp

#endif // MIPP_TRACE_TRACE_SOURCE_HH
