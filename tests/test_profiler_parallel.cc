/**
 * @file
 * Segment-parallel profiler parity: profileTraceParallel and the
 * TraceSource streaming drivers must produce Profiles *bit-identical*
 * to the sequential profileTrace for every workload, thread count and
 * segment size — the carry/absorb design resolves every cross-segment
 * observation to exactly the sequential value and replays every
 * order-sensitive float accumulation in stream order.
 */

#include <gtest/gtest.h>

#include <optional>

#include <atomic>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "profile_compare.hh"
#include "profiler/profile_io.hh"
#include "profiler/profiler.hh"
#include "profiler/segment_profiler.hh"
#include "trace/mtf.hh"
#include "trace/trace_source.hh"
#include "util/thread_pool.hh"
#include "workloads/workload.hh"

namespace mipp {
namespace {

// --------------------------------------------------------------------------
// profileTraceParallel parity
// --------------------------------------------------------------------------

TEST(ProfilerParallel, BitIdenticalAcrossWorkloads)
{
    for (const char *name :
         {"balanced_mix", "ptr_chase", "stream_add", "branchy",
          "bursty_mem"}) {
        Trace t = generateWorkload(suiteWorkload(name), 100000);
        ProfilerConfig cfg;
        cfg.name = name;
        Profile seq = profileTrace(t, cfg);
        Profile par = profileTraceParallel(t, cfg, {.threads = 4});
        SCOPED_TRACE(name);
        expectProfilesIdentical(par, seq);
    }
}

TEST(ProfilerParallel, BitIdenticalAcrossSegmentSizes)
{
    Trace t = generateWorkload(suiteWorkload("balanced_mix"), 120000);
    ProfilerConfig cfg;
    Profile seq = profileTrace(t, cfg);
    // One window per segment (maximum boundary resolution), a few
    // windows, an unaligned request (rounded up internally), and more
    // segments than uops allow.
    for (size_t segUops : {20000ul, 60000ul, 30001ul, 999999ul}) {
        Profile par = profileTraceParallel(
            t, cfg, {.threads = 4, .segmentUops = segUops});
        SCOPED_TRACE(segUops);
        expectProfilesIdentical(par, seq);
    }
}

TEST(ProfilerParallel, BitIdenticalAcrossThreadCounts)
{
    Trace t = generateWorkload(suiteWorkload("ptr_chase"), 100000);
    ProfilerConfig cfg;
    Profile seq = profileTrace(t, cfg);
    for (unsigned threads : {2u, 3u, 8u}) {
        Profile par = profileTraceParallel(t, cfg, {.threads = threads});
        SCOPED_TRACE(threads);
        expectProfilesIdentical(par, seq);
    }
}

TEST(ProfilerParallel, SparseBranchPathBitIdentical)
{
    // historyBits > 12 exercises the sparse (pc, history) branch tables
    // and a larger pending-branch budget in the carry segments.
    Trace t = generateWorkload(suiteWorkload("branchy"), 100000);
    ProfilerConfig cfg;
    cfg.historyBits = 14;
    Profile seq = profileTrace(t, cfg);
    Profile par = profileTraceParallel(t, cfg, {.threads = 4});
    expectProfilesIdentical(par, seq);
}

TEST(ProfilerParallel, UnsampledFallsBackToSequential)
{
    Trace t = generateWorkload(suiteWorkload("balanced_mix"), 20000);
    ProfilerConfig cfg;
    cfg.sampling = SamplingConfig::full();
    Profile seq = profileTrace(t, cfg);
    Profile par = profileTraceParallel(t, cfg, {.threads = 4});
    expectProfilesIdentical(par, seq);
}

TEST(ProfilerParallel, TinyAndEmptyTraces)
{
    ProfilerConfig cfg;
    {
        Trace t;
        Profile par = profileTraceParallel(t, cfg, {.threads = 4});
        EXPECT_EQ(par.totalUops, 0u);
        EXPECT_TRUE(par.windows.empty());
    }
    {
        // Smaller than one sampling window: single segment, sequential.
        Trace t = generateWorkload(suiteWorkload("stream_add"), 5000);
        Profile seq = profileTrace(t, cfg);
        Profile par = profileTraceParallel(t, cfg, {.threads = 4});
        expectProfilesIdentical(par, seq);
    }
    {
        // Barely two windows: one boundary to carry across.
        Trace t = generateWorkload(suiteWorkload("stream_add"), 40001);
        Profile seq = profileTrace(t, cfg);
        Profile par = profileTraceParallel(
            t, cfg, {.threads = 4, .segmentUops = 20000});
        expectProfilesIdentical(par, seq);
    }
}

// --------------------------------------------------------------------------
// TraceSource streaming drivers
// --------------------------------------------------------------------------

/** Yields deliberately ragged spans to stress feed-alignment handling
 *  in the copy-accumulate driver loop. */
class RaggedSource final : public TraceSource
{
  public:
    explicit RaggedSource(const Trace &trace) : trace_(&trace) {}

    uint64_t sizeHint() const override { return kUnknownSize; }

    TraceSegment
    next(size_t maxUops) override
    {
        // Vary the yield size but never exceed the request.
        size_t want = 1 + (pos_ * 7919) % 4096;
        size_t n = std::min({want, maxUops, trace_->size() - pos_});
        TraceSegment seg{trace_->data() + pos_, n, pos_};
        pos_ += n;
        return seg;
    }

    void reset() override { pos_ = 0; }

  private:
    const Trace *trace_;
    size_t pos_ = 0;
};

TEST(ProfilerParallel, SourceMatchesTrace)
{
    Trace t = generateWorkload(suiteWorkload("balanced_mix"), 100000);
    ProfilerConfig cfg;
    Profile seq = profileTrace(t, cfg);

    MaterializedTraceSource src(t);
    Profile streamed = profileSource(src, cfg);
    expectProfilesIdentical(streamed, seq);
}

TEST(ProfilerParallel, SourceUnsampledMatchesTrace)
{
    Trace t = generateWorkload(suiteWorkload("ptr_chase"), 12000);
    ProfilerConfig cfg;
    cfg.sampling = SamplingConfig::full();
    Profile seq = profileTrace(t, cfg);

    MaterializedTraceSource src(t);
    Profile streamed = profileSource(src, cfg);
    expectProfilesIdentical(streamed, seq);
}

TEST(ProfilerParallel, SourceParallelMatchesTrace)
{
    Trace t = generateWorkload(suiteWorkload("bursty_mem"), 150000);
    ProfilerConfig cfg;
    Profile seq = profileTrace(t, cfg);

    MaterializedTraceSource src(t);
    Profile par = profileSourceParallel(
        src, cfg, {.threads = 4, .segmentUops = 20000});
    expectProfilesIdentical(par, seq);
}

TEST(ProfilerParallel, SourceParallelHandlesRaggedSpans)
{
    Trace t = generateWorkload(suiteWorkload("branchy"), 100000);
    ProfilerConfig cfg;
    Profile seq = profileTrace(t, cfg);

    RaggedSource src(t);
    Profile par = profileSourceParallel(src, cfg, {.threads = 3});
    expectProfilesIdentical(par, seq);
}

// --------------------------------------------------------------------------
// SegmentProfiler contract errors
// --------------------------------------------------------------------------

TEST(ProfilerParallel, SegmentContractViolationsThrow)
{
    ProfilerConfig cfg; // windowSize 20000
    // Carry segments must start window-aligned.
    EXPECT_THROW(
        SegmentProfiler(cfg, SegmentProfiler::Role::Carry, 12345),
        std::invalid_argument);
    // The head starts at uop 0.
    EXPECT_THROW(SegmentProfiler(cfg, SegmentProfiler::Role::Head, 20000),
                 std::invalid_argument);

    Trace t = generateWorkload(suiteWorkload("balanced_mix"), 50000);
    // Absorbing out of stream order is rejected.
    SegmentProfiler head(cfg);
    SegmentProfiler seg(cfg, SegmentProfiler::Role::Carry, 20000);
    seg.feed(t.data() + 20000, 20000);
    EXPECT_THROW(head.absorb(std::move(seg)), std::logic_error);
    // A carry segment cannot finalize.
    SegmentProfiler carry(cfg, SegmentProfiler::Role::Carry, 0);
    carry.feed(t.data(), 20000);
    EXPECT_THROW(std::move(carry).finalize(), std::logic_error);
    // Non-final feeds must cover whole windows.
    SegmentProfiler head2(cfg);
    head2.feed(t.data(), 12345);
    EXPECT_THROW(head2.feed(t.data() + 12345, 20000), std::logic_error);
}

TEST(ProfilerParallel, MultiFeedMatchesSingleFeed)
{
    Trace t = generateWorkload(suiteWorkload("balanced_mix"), 100000);
    ProfilerConfig cfg;
    Profile seq = profileTrace(t, cfg);

    // Window-aligned incremental feeds into one head == one-shot feed.
    SegmentProfiler head(cfg);
    head.feed(t.data(), 40000);
    head.feed(t.data() + 40000, 20000);
    head.feed(t.data() + 60000, 40000);
    Profile streamed = std::move(head).finalize();
    expectProfilesIdentical(streamed, seq);
}

// --------------------------------------------------------------------------
// Ordered segment pipeline: out-of-order completion, failures, nesting
// --------------------------------------------------------------------------

std::string
profileBytes(const Profile &p)
{
    std::ostringstream os;
    writeProfile(p, os);
    return os.str();
}

TEST(ProfilerParallel, ManySegmentsPerThreadBitIdentical)
{
    // 1 and 3 windows per segment give each thread many segments, so
    // segments finish out of stream order and the in-flight bound is
    // reached; the ragged source also makes every fetch accumulate.
    Trace t = generateWorkload(suiteWorkload("mix_mid"), 200001);
    ProfilerConfig cfg;
    cfg.name = "mix_mid";
    const Profile seq = profileTrace(t, cfg);
    const std::string ref = profileBytes(seq);
    for (size_t segUops : {20000ul, 60000ul}) {
        for (unsigned threads : {2u, 4u, 8u}) {
            SCOPED_TRACE(testing::Message() << "segUops " << segUops
                                            << " threads " << threads);
            ParallelProfileOptions opts{threads, segUops};
            Profile par = profileTraceParallel(t, cfg, opts);
            expectProfilesIdentical(par, seq);
            EXPECT_EQ(profileBytes(par), ref);

            RaggedSource src(t);
            Profile streamed = profileSourceParallel(src, cfg, opts);
            expectProfilesIdentical(streamed, seq);
            EXPECT_EQ(profileBytes(streamed), ref);
        }
    }
}

/** Materialized source whose first next() at or past uop @p failAt
 *  throws, as a reader hitting an I/O error mid-stream would. */
class ThrowingSource final : public TraceSource
{
  public:
    ThrowingSource(const Trace &trace, uint64_t failAt)
        : inner_(trace), failAt_(failAt)
    {
    }

    uint64_t sizeHint() const override { return inner_.sizeHint(); }

    TraceSegment
    next(size_t maxUops) override
    {
        if (pos_ >= failAt_)
            throw std::runtime_error("ThrowingSource: injected failure");
        TraceSegment seg = inner_.next(maxUops);
        pos_ += seg.size;
        return seg;
    }

    void
    reset() override
    {
        inner_.reset();
        pos_ = 0;
    }

  private:
    MaterializedTraceSource inner_;
    uint64_t failAt_;
    uint64_t pos_ = 0;
};

TEST(ProfilerParallel, SourceFailureReachesCallerWithoutHang)
{
    Trace t = generateWorkload(suiteWorkload("balanced_mix"), 200000);
    ProfilerConfig cfg;
    const std::string ref = profileBytes(profileTrace(t, cfg));
    // The first fetch, a mid-stream one, and the end-of-stream probe
    // (one-window segments: 10 spans, then the empty next()).
    for (uint64_t failAt : {0ul, 60000ul, 200000ul}) {
        for (unsigned threads : {1u, 2u, 4u}) {
            SCOPED_TRACE(testing::Message() << "failAt " << failAt
                                            << " threads " << threads);
            ThrowingSource src(t, failAt);
            EXPECT_THROW(profileSourceParallel(
                             src, cfg, {threads, 20000}),
                         std::runtime_error);
            // The shared pool is not left wedged or poisoned.
            Profile after = profileTraceParallel(t, cfg, {threads, 20000});
            EXPECT_EQ(profileBytes(after), ref);
        }
    }
}

TEST(ProfilerParallel, SealedSegmentRejectsFeed)
{
    // seal() frees the segment-local lookup tables, so a later feed
    // could not profile correctly; it must fail loudly instead.
    Trace t = generateWorkload(suiteWorkload("balanced_mix"), 40000);
    ProfilerConfig cfg;
    SegmentProfiler seg(cfg, SegmentProfiler::Role::Carry, 0);
    seg.feed(t.data(), 20000);
    seg.seal();
    EXPECT_THROW(seg.feed(t.data() + 20000, 20000), std::logic_error);
}

TEST(ProfilerParallel, NestedInsidePoolChunkBitIdentical)
{
    // Called from inside a pool chunk, parallelFor runs the pipeline's
    // worker loops inline one after another on that thread.
    Trace t = generateWorkload(suiteWorkload("branchy"), 150000);
    ProfilerConfig cfg;
    cfg.name = "branchy";
    const std::string ref = profileBytes(profileTrace(t, cfg));
    constexpr size_t kChunks = 4;
    std::vector<std::string> fromTrace(kChunks), fromSource(kChunks);
    ThreadPool::shared().parallelFor(
        kChunks, 1, [&](size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i) {
                ParallelProfileOptions opts{4, 20000};
                fromTrace[i] =
                    profileBytes(profileTraceParallel(t, cfg, opts));
                MaterializedTraceSource src(t);
                fromSource[i] =
                    profileBytes(profileSourceParallel(src, cfg, opts));
            }
        });
    for (size_t i = 0; i < kChunks; ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(fromTrace[i], ref);
        EXPECT_EQ(fromSource[i], ref);
    }
}

// --------------------------------------------------------------------------
// Sharded line resolution, stride replay, ragged sources
// --------------------------------------------------------------------------

/** @p t cut into sealed carry segments of @p segUops uops. */
std::vector<std::unique_ptr<SegmentProfiler>>
sealedSegments(const Trace &t, const ProfilerConfig &cfg, size_t segUops)
{
    std::vector<std::unique_ptr<SegmentProfiler>> segs;
    for (size_t base = 0; base < t.size(); base += segUops) {
        auto seg = std::make_unique<SegmentProfiler>(
            cfg, SegmentProfiler::Role::Carry, base);
        seg->feed(t.data() + base, std::min(segUops, t.size() - base));
        seg->seal();
        segs.push_back(std::move(seg));
    }
    return segs;
}

TEST(ProfilerParallel, ShardResolutionOrderBitIdentical)
{
    Trace t = generateWorkload(suiteWorkload("mix_mid"), 200001);
    ProfilerConfig cfg;
    cfg.name = "mix_mid";
    const std::string ref = profileBytes(profileTrace(t, cfg));
    constexpr size_t kShards = SegmentProfiler::kLineShards;

    {
        SCOPED_TRACE("shards in reverse, segment by segment");
        auto segs = sealedSegments(t, cfg, 20000);
        SegmentProfiler head(cfg);
        for (auto &seg : segs)
            for (size_t s = kShards; s-- > 0;)
                head.resolveLines(*seg, s);
        for (auto &seg : segs)
            head.absorb(std::move(*seg));
        EXPECT_EQ(profileBytes(std::move(head).finalize()), ref);
    }
    {
        // The odd shards run through every segment first, one shard at
        // a time from the last; absorb resolves the even ones inline.
        SCOPED_TRACE("shard by shard, half left to absorb");
        auto segs = sealedSegments(t, cfg, 20000);
        SegmentProfiler head(cfg);
        for (size_t s = kShards; s-- > 0;)
            if (s % 2)
                for (auto &seg : segs)
                    head.resolveLines(*seg, s);
        for (auto &seg : segs)
            head.absorb(std::move(*seg));
        EXPECT_EQ(profileBytes(std::move(head).finalize()), ref);
    }
    {
        // Four threads each take every fourth shard through all the
        // segments; whichever finishes a segment's last shard folds it,
        // while this thread absorbs each segment once it is folded.
        SCOPED_TRACE("four threads, absorb concurrent");
        auto segs = sealedSegments(t, cfg, 20000);
        std::vector<std::atomic<size_t>> done(segs.size());
        std::vector<std::atomic<bool>> folded(segs.size());
        SegmentProfiler head(cfg);
        std::vector<std::thread> threads;
        for (size_t w = 0; w < 4; ++w)
            threads.emplace_back([&, w] {
                for (size_t k = 0; k < segs.size(); ++k)
                    for (size_t s = w; s < kShards; s += 4) {
                        head.resolveLines(*segs[k], s);
                        if (done[k].fetch_add(1) + 1 == kShards) {
                            segs[k]->foldLines();
                            folded[k].store(true);
                        }
                    }
            });
        for (size_t k = 0; k < segs.size(); ++k) {
            while (!folded[k].load())
                std::this_thread::yield();
            head.absorb(std::move(*segs[k]));
        }
        for (std::thread &th : threads)
            th.join();
        EXPECT_EQ(profileBytes(std::move(head).finalize()), ref);
    }
}

TEST(ProfilerParallel, ShardResolutionOutOfStreamOrderThrows)
{
    Trace t = generateWorkload(suiteWorkload("balanced_mix"), 60000);
    ProfilerConfig cfg;
    auto segs = sealedSegments(t, cfg, 20000);
    SegmentProfiler head(cfg);
    // Shard 0 has not taken segment 0 yet.
    EXPECT_THROW(head.resolveLines(*segs[1], 0), std::logic_error);
    // Line folding needs every shard resolved.
    head.resolveLines(*segs[0], 0);
    EXPECT_THROW(segs[0]->foldLines(), std::logic_error);
    // A head cannot feed past a shard that ran ahead of it.
    EXPECT_THROW(head.feed(t.data(), 20000), std::logic_error);
}

TEST(ProfilerParallel, HeadFeedsThenAbsorbsTwice)
{
    Trace t = generateWorkload(suiteWorkload("mix_mid"), 160000);
    ProfilerConfig cfg;
    cfg.name = "mix_mid";
    const std::string ref = profileBytes(profileTrace(t, cfg));

    SegmentProfiler head(cfg);
    head.feed(t.data(), 40000);
    SegmentProfiler a(cfg, SegmentProfiler::Role::Carry, 40000);
    a.feed(t.data() + 40000, 40000);
    head.absorb(std::move(a)); // sealed and resolved inside absorb
    SegmentProfiler b(cfg, SegmentProfiler::Role::Carry, 80000);
    b.feed(t.data() + 80000, 60000);
    b.seal();
    head.resolveLines(b, 3);
    head.absorb(std::move(b));
    head.feed(t.data() + 140000, 20000);
    EXPECT_EQ(profileBytes(std::move(head).finalize()), ref);
}

/**
 * One load whose stride sequence brings 25 new distinct strides per
 * sampling window, mixed with repeats of older ones, so its
 * 64-distinct stride set fills partway through the third window; a
 * second load keeps a single stride.
 */
Trace
manyStridesTrace(size_t windows)
{
    constexpr size_t kWin = 20000, kEvery = 40, kNew = 25;
    std::vector<MicroOp> ops(windows * kWin);
    uint64_t addr = 1ull << 24, addr2 = 1ull << 30;
    for (size_t i = 0; i < ops.size(); ++i) {
        MicroOp &op = ops[i];
        op.pc = 0x400000 + 4 * (i % 16);
        if (i % kEvery == 0) {
            const size_t w = i / kWin, m = (i % kWin) / kEvery;
            const size_t id = m % 2 ? (m * 37) % ((w + 1) * kNew)
                                    : w * kNew + (m / 2) % kNew;
            addr += 64 * (id + 1) + 8;
            op.type = UopType::Load;
            op.pc = 0x500000;
            op.addr = addr;
            op.dst = 1;
        } else if (i % kEvery == 7) {
            addr2 += 256;
            op.type = UopType::Load;
            op.pc = 0x500040;
            op.addr = addr2;
        }
    }
    return Trace(std::move(ops));
}

TEST(ProfilerParallel, StrideSetFillingMidReplayBitIdentical)
{
    Trace t = manyStridesTrace(8);
    ProfilerConfig cfg;
    const Profile seq = profileTrace(t, cfg);
    const std::string ref = profileBytes(seq);
    bool full = false;
    for (const StaticMemProfile &op : seq.memOps)
        if (op.pc == 0x500000)
            full = op.strides.size() == 64;
    EXPECT_TRUE(full) << "the stride set never filled";
    // One window per segment fills the set in segment 2's replay, three
    // windows in segment 0's; later segments replay into a full set.
    for (size_t segUops : {20000ul, 60000ul}) {
        SCOPED_TRACE(segUops);
        EXPECT_EQ(profileBytes(profileTraceParallel(t, cfg, {4, segUops})),
                  ref);
        auto segs = sealedSegments(t, cfg, segUops);
        SegmentProfiler head(cfg);
        for (auto &seg : segs)
            head.absorb(std::move(*seg));
        EXPECT_EQ(profileBytes(std::move(head).finalize()), ref);
    }
}

TEST(ProfilerParallel, RaggedSourceOneThreadMatchesTrace)
{
    Trace t = generateWorkload(suiteWorkload("branchy"), 100000);
    ProfilerConfig cfg;
    const std::string ref = profileBytes(profileTrace(t, cfg));
    RaggedSource src(t);
    EXPECT_EQ(profileBytes(profileSourceParallel(src, cfg, {.threads = 1})),
              ref);
    src.reset();
    EXPECT_EQ(profileBytes(profileSource(src, cfg)), ref);
}

// --------------------------------------------------------------------------
// One driver per mode: stable spans in place, every other source copied
// --------------------------------------------------------------------------

/** Forwards to an inner source without claiming stable spans, so the
 *  drivers take the copying streaming path over the same uops. The
 *  two-argument form reports @p size as the stream's length instead
 *  (a ragged source of known length). */
class ForwardingSource final : public TraceSource
{
  public:
    explicit ForwardingSource(TraceSource &inner)
        : ForwardingSource(inner, inner.sizeHint())
    {
    }
    ForwardingSource(TraceSource &inner, uint64_t size)
        : inner_(inner), size_(size)
    {
    }
    uint64_t sizeHint() const override { return size_; }
    TraceSegment
    next(size_t maxUops) override
    {
        return inner_.next(maxUops);
    }
    void reset() override { inner_.reset(); }

  private:
    TraceSource &inner_;
    uint64_t size_;
};

TEST(ProfilerParallel, UnsampledRaggedSourceMatchesTrace)
{
    // The whole stream is one micro-trace: every driver gathers it from
    // a source of unknown length yielding ragged spans.
    Trace t = generateWorkload(suiteWorkload("mix_mid"), 30001);
    ProfilerConfig cfg;
    cfg.sampling = SamplingConfig::full();
    const std::string ref = profileBytes(profileTrace(t, cfg));
    RaggedSource src(t);
    EXPECT_EQ(profileBytes(profileSource(src, cfg)), ref);
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        src.reset();
        EXPECT_EQ(
            profileBytes(profileSourceParallel(src, cfg, {threads, 0})),
            ref);
    }
}

TEST(ProfilerParallel, StableAndCopiedSpansMatchTrace)
{
    Trace t = generateWorkload(suiteWorkload("bursty_mem"), 150001);
    ProfilerConfig cfg;
    cfg.name = "bursty_mem";
    const std::string ref = profileBytes(profileTrace(t, cfg));
    for (unsigned threads : {1u, 3u, 4u}) {
        for (size_t segUops : {20000ul, 60000ul, 0ul}) {
            SCOPED_TRACE(testing::Message() << "threads " << threads
                                            << " segUops " << segUops);
            MaterializedTraceSource stable(t);
            EXPECT_EQ(profileBytes(profileSourceParallel(
                          stable, cfg, {threads, segUops})),
                      ref);
            MaterializedTraceSource inner(t);
            ForwardingSource copied(inner);
            EXPECT_EQ(profileBytes(profileSourceParallel(
                          copied, cfg, {threads, segUops})),
                      ref);
        }
    }
}

/** @p t fed to one head in a single call: a reference that runs
 *  neither profiling driver. */
std::string
oneFeedBytes(const Trace &t, const ProfilerConfig &cfg)
{
    SegmentProfiler head(cfg);
    head.feed(t.data(), t.size());
    return profileBytes(std::move(head).finalize());
}

TEST(ProfilerParallel, DriversMatchOneFeedReference)
{
    // profileTrace is profileSource over the trace itself, so pin both
    // drivers to a single feed, for in-place, decoded (.mtf), copied,
    // ragged, and ragged-but-known-length sources: a sampled stream
    // within one streaming chunk, one spanning a full chunk and a tail
    // (1500-uop windows stream in 24000-uop chunks), and an unsampled
    // stream. Segments of 3 windows put most segment bases mid-block
    // in the .mtf file.
    Trace t = generateWorkload(suiteWorkload("mix_mid"), 30001);
    std::ostringstream os;
    ASSERT_TRUE(writeMtf(t, os).isOk());
    MtfReader reader;
    ASSERT_TRUE(MtfReader::parse(os.str(), reader).isOk());
    ProfilerConfig wide, narrow, full;
    narrow.sampling = {1000, 1500};
    full.sampling = SamplingConfig::full();
    for (const ProfilerConfig *cfg : {&wide, &narrow, &full}) {
        SCOPED_TRACE(cfg->sampling.windowSize);
        const std::string ref = oneFeedBytes(t, *cfg);
        EXPECT_EQ(profileBytes(profileTrace(t, *cfg)), ref);
        MaterializedTraceSource mem(t);
        MtfTraceSource file(reader);
        ForwardingSource copied(mem);
        RaggedSource ragged(t);
        ForwardingSource raggedKnown(ragged, t.size());
        for (TraceSource *src : std::vector<TraceSource *>{
                 &mem, &file, &copied, &ragged, &raggedKnown}) {
            src->reset();
            EXPECT_EQ(profileBytes(profileSource(*src, *cfg)), ref);
            for (unsigned threads : {1u, 4u}) {
                for (size_t segUops :
                     {size_t{6000}, 3 * cfg->sampling.windowSize}) {
                    SCOPED_TRACE(testing::Message()
                                 << "threads " << threads << " segUops "
                                 << segUops);
                    src->reset();
                    EXPECT_EQ(profileBytes(profileSourceParallel(
                                  *src, *cfg, {threads, segUops})),
                              ref);
                }
            }
        }
    }
}

TEST(ProfilerParallel, PositionedReadsAreAPropertyOfTheSource)
{
    Trace t = generateWorkload(suiteWorkload("balanced_mix"), 5000);
    std::vector<MicroOp> buf;
    MaterializedTraceSource mem(t);
    std::optional<TraceSegment> inPlace = mem.readAt(1000, 300, buf);
    ASSERT_TRUE(inPlace.has_value());
    EXPECT_EQ(inPlace->data, t.data() + 1000); // zero-copy
    EXPECT_EQ(inPlace->size, 300u);
    EXPECT_EQ(inPlace->baseUop, 1000u);
    EXPECT_EQ(mem.readAt(4900, 300, buf)->size, 100u); // the tail
    EXPECT_FALSE(ForwardingSource(mem).readAt(0, 300, buf).has_value());

    std::ostringstream os;
    ASSERT_TRUE(writeMtf(t, os).isOk());
    MtfReader reader;
    ASSERT_TRUE(MtfReader::parse(os.str(), reader).isOk());
    MtfTraceSource file(std::move(reader));
    std::optional<TraceSegment> decoded = file.readAt(1000, 300, buf);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->data, buf.data());
    ASSERT_EQ(decoded->size, 300u);
    for (size_t i = 0; i < decoded->size; ++i)
        ASSERT_EQ(decoded->data[i].pc, t[1000 + i].pc) << i;
    // A positioned read leaves the next() cursor alone.
    EXPECT_EQ(file.next(10).baseUop, 0u);
}

} // namespace
} // namespace mipp
