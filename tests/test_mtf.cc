/**
 * @file
 * `.mtf` trace-format tests: byte-exact round trips, the headline
 * ingestion parity promise (profiling a recorded trace — sequentially
 * or segment-parallel — is bit-identical to profiling the generated
 * trace in memory), streaming behavior under ragged span sizes, the
 * `.mtxt` converter round trip, positioned reads across blocks, and a
 * table-driven sweep of the malformed corpus under tests/corpus/
 * asserting every attacker-shaped input comes back as a structured
 * Status with its exact message, never UB.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "profile_compare.hh"
#include "profiler/profile_io.hh"
#include "profiler/profiler.hh"
#include "trace/mtf.hh"
#include "trace/mtf_text.hh"
#include "util/hash.hh"
#include "util/thread_pool.hh"
#include "workloads/workload.hh"

namespace mipp {
namespace {

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + "mipp_mtf_" + name;
}

std::string
encodeToString(const Trace &t)
{
    std::ostringstream os;
    Status st = writeMtf(t, os);
    EXPECT_TRUE(st.isOk()) << st.toString();
    return os.str();
}

Trace
decodeAll(const std::string &bytes)
{
    MtfReader r;
    Status st = MtfReader::parse(bytes, r);
    EXPECT_TRUE(st.isOk()) << st.toString();
    std::vector<MicroOp> uops(r.uopCount());
    EXPECT_EQ(r.decode(uops.data(), uops.size()), uops.size());
    return Trace(std::move(uops));
}

void
expectUopsEqual(const Trace &a, const Trace &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        const MicroOp &x = a[i], &y = b[i];
        ASSERT_EQ(x.pc, y.pc) << "uop " << i;
        ASSERT_EQ(x.addr, y.addr) << "uop " << i;
        ASSERT_EQ(x.type, y.type) << "uop " << i;
        ASSERT_EQ(x.instBoundary, y.instBoundary) << "uop " << i;
        ASSERT_EQ(x.taken, y.taken) << "uop " << i;
        ASSERT_EQ(x.src1, y.src1) << "uop " << i;
        ASSERT_EQ(x.src2, y.src2) << "uop " << i;
        ASSERT_EQ(x.dst, y.dst) << "uop " << i;
    }
}

void
putLe64(std::string &s, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        s.push_back(static_cast<char>(v >> (8 * i)));
}

uint64_t
getLe64(const std::string &s, size_t at)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(static_cast<uint8_t>(s[at + i]))
             << (8 * i);
    return v;
}

void
setLe64(std::string &s, size_t at, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        s[at + i] = static_cast<char>(v >> (8 * i));
}

void
putVarint(std::string &s, uint64_t v)
{
    do {
        uint8_t b = v & 0x7f;
        v >>= 7;
        s.push_back(static_cast<char>(b | (v ? 0x80 : 0)));
    } while (v);
}

uint64_t
zigzag(uint64_t delta)
{
    const int64_t v = static_cast<int64_t>(delta);
    return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

/**
 * @p t as a version-1 file, built by hand from the format
 * specification rather than by MtfWriter: one run of records with
 * file-global delta predictors, then the footer with an FNV-1a-64
 * checksum over every byte before it.
 */
std::string
encodeV1(const Trace &t)
{
    std::string s("mippmtf\0", 8);
    s += std::string("\x01\0\0\0\x18\0\0\0", 8); // version 1, 24 B
    putLe64(s, 0);                                   // flags
    uint64_t pc = 0, addr = 0;
    for (const MicroOp &op : t) {
        s.push_back(static_cast<char>(static_cast<uint8_t>(op.type) |
                                      (op.instBoundary ? 0x10 : 0) |
                                      (op.taken ? 0x20 : 0)));
        putVarint(s, zigzag(op.pc - pc));
        pc = op.pc;
        s.push_back(static_cast<char>(op.src1 + 1));
        s.push_back(static_cast<char>(op.src2 + 1));
        s.push_back(static_cast<char>(op.dst + 1));
        if (isMemory(op.type)) {
            putVarint(s, zigzag(op.addr - addr));
            addr = op.addr;
        }
    }
    s += "mtfZ";
    putLe64(s, t.size());
    uint64_t h = 14695981039346656037ull;
    for (char c : s) {
        h ^= static_cast<uint8_t>(c);
        h *= 1099511628211ull;
    }
    putLe64(s, h);
    return s;
}

std::string
profileBytes(const Profile &p)
{
    std::ostringstream os;
    writeProfile(p, os);
    return os.str();
}

/** Where a v3 file's footer fields and index entries live. */
struct V3Layout {
    size_t footerAt, indexAt, blocks;

    explicit V3Layout(const std::string &s)
        : footerAt(s.size() - kMtfFooterBytes),
          indexAt(static_cast<size_t>(getLe64(s, footerAt + 20))),
          blocks(static_cast<size_t>(getLe64(s, footerAt + 12)))
    {
    }
    size_t entry(size_t b) const { return indexAt + b * kMtfIndexEntryBytes; }
};

/** Recompute a v3 file's index checksum after an edit, so the edit is
 *  seen by the checks behind it. */
void
rehashIndex(std::string &s)
{
    V3Layout l(s);
    setLe64(s, s.size() - 8,
            xxh64(s.data() + l.indexAt, s.size() - 8 - l.indexAt));
}

// --------------------------------------------------------------------
// Round trips
// --------------------------------------------------------------------

TEST(MtfRoundTrip, EverySuiteWorkloadSurvivesEncodeDecode)
{
    for (const auto &spec : workloadSuite()) {
        Trace t = generateWorkload(spec, 20000);
        Trace back = decodeAll(encodeToString(t));
        expectUopsEqual(t, back);
    }
}

TEST(MtfRoundTrip, HandAssembledCornerValuesSurvive)
{
    // Exercise the delta coder's edges: pc jumps backwards, 64-bit
    // wraparound deltas, every operand shape, all flags.
    std::vector<MicroOp> uops;
    MicroOp a;
    a.pc = 0xffffffffffffff00ull;
    a.type = UopType::Load;
    a.addr = 0xfffffffffffffff8ull;
    a.src1 = 0;
    a.dst = kNumRegs - 1;
    a.instBoundary = true;
    uops.push_back(a);
    MicroOp b;
    b.pc = 0; // maximal negative delta
    b.type = UopType::Branch;
    b.taken = true;
    b.instBoundary = true;
    uops.push_back(b);
    MicroOp c;
    c.pc = 0x400000;
    c.type = UopType::Store;
    c.addr = 0; // negative address delta
    c.src1 = 3;
    c.src2 = 7;
    uops.push_back(c);

    Trace t{std::move(uops)};
    Trace back = decodeAll(encodeToString(t));
    expectUopsEqual(t, back);
}

TEST(MtfRoundTrip, EmptyTraceIsAValidFile)
{
    std::string bytes = encodeToString(Trace{});
    EXPECT_EQ(bytes.size(), kMtfHeaderBytes + kMtfFooterBytes);
    MtfReader r;
    Status st = MtfReader::parse(bytes, r);
    ASSERT_TRUE(st.isOk()) << st.toString();
    EXPECT_EQ(r.uopCount(), 0u);
    MicroOp op;
    EXPECT_EQ(r.decode(&op, 1), 0u);
}

TEST(MtfRoundTrip, SaveLoadFileIsExact)
{
    Trace t = generateWorkload(suiteWorkload("ptr_chase"), 30000);
    std::string path = tmpPath("roundtrip.mtf");
    ASSERT_TRUE(saveMtf(t, path).isOk());
    Trace back;
    ASSERT_TRUE(loadMtfTrace(path, back).isOk());
    expectUopsEqual(t, back);
    std::remove(path.c_str());
}

TEST(MtfRoundTrip, InfoReportsCountsAndDensity)
{
    Trace t = generateWorkload(suiteWorkload("balanced_mix"), 10000);
    std::string bytes = encodeToString(t);
    MtfReader r;
    ASSERT_TRUE(MtfReader::parse(bytes, r).isOk());
    EXPECT_EQ(r.info().version, kMtfVersion);
    EXPECT_EQ(r.info().uopCount, t.size());
    EXPECT_EQ(r.info().blockCount,
              (t.size() + kMtfBlockUops - 1) / kMtfBlockUops);
    EXPECT_EQ(r.info().fileBytes, bytes.size());
    EXPECT_EQ(r.info().recordBytes,
              bytes.size() - kMtfHeaderBytes - kMtfFooterBytes -
                  r.info().blockCount * kMtfIndexEntryBytes);
    EXPECT_GE(r.info().bytesPerUop(), 1.0 * kMtfMinRecordBytes);
}

TEST(MtfFormat, BlockHashIsXxh64)
{
    // Reference values of XXH64 with seed 0; the last input is longer
    // than one 32-byte stripe.
    EXPECT_EQ(xxh64("", 0), 0xEF46DB3751D8E999ull);
    EXPECT_EQ(xxh64("a", 1), 0xD24EC4F1A98C6E5Bull);
    EXPECT_EQ(xxh64("abc", 3), 0x44BC2CF5AD770999ull);
    const char *text = "Nobody inspects the spammish repetition";
    EXPECT_EQ(xxh64(text, std::strlen(text)), 0xFBCEA83C8A378BF1ull);
    // FNV-1a-64 (the v1 and profile-file checksum) reference values.
    EXPECT_EQ(fnv1a64("", 0), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a64("a", 1), 0xaf63dc4c8601ec8cull);
}

TEST(MtfFormat, WriterCutsFixedBlocksAndIndexesThem)
{
    Trace t = generateWorkload(suiteWorkload("mix_mid"), 2 * kMtfBlockUops + 7);
    std::string bytes = encodeToString(t);
    V3Layout l(bytes);
    ASSERT_EQ(l.blocks, 3u);
    EXPECT_EQ(getLe64(bytes, l.footerAt + 4), t.size());
    uint64_t offset = kMtfHeaderBytes;
    for (size_t b = 0; b < l.blocks; ++b) {
        SCOPED_TRACE(b);
        const size_t e = l.entry(b);
        const uint64_t end =
            b + 1 < l.blocks ? getLe64(bytes, l.entry(b + 1)) : l.indexAt;
        EXPECT_EQ(getLe64(bytes, e), offset);
        EXPECT_EQ(getLe64(bytes, e + 8), b * kMtfBlockUops);
        EXPECT_EQ(getLe64(bytes, e + 16), b < 2 ? kMtfBlockUops : 7u);
        EXPECT_EQ(getLe64(bytes, e + 24),
                  xxh64(bytes.data() + offset, end - offset));
        offset = end;
    }
}

TEST(MtfFormat, VersionOneReadsAsOneBlock)
{
    Trace t = generateWorkload(suiteWorkload("ptr_chase"), 9000);
    MtfReader r;
    ASSERT_TRUE(MtfReader::parse(encodeV1(t), r).isOk());
    EXPECT_EQ(r.info().version, 1u);
    EXPECT_EQ(r.info().blockCount, 1u);
    std::vector<MicroOp> uops(t.size());
    ASSERT_EQ(r.decode(uops.data(), uops.size()), t.size());
    expectUopsEqual(Trace(std::move(uops)), t);
    std::vector<MicroOp> mid(100);
    ASSERT_EQ(r.read(4500, mid.data(), mid.size()), mid.size());
    EXPECT_EQ(mid[0].pc, t[4500].pc);
    EXPECT_EQ(mid[99].addr, t[4599].addr);
}

TEST(MtfFormat, BlocksOfAnySizeRead)
{
    // A file another writer cut into blocks of 4, 4 and 2 uops, each
    // starting with a 9-byte pc delta from its fresh predictor.
    MtfReader r;
    ASSERT_TRUE(MtfReader::open(std::string(MIPP_TEST_CORPUS_DIR) +
                                    "/v3_small_blocks.mtf",
                                r)
                    .isOk());
    EXPECT_EQ(r.info().blockCount, 3u);
    ASSERT_EQ(r.uopCount(), 10u);
    std::vector<MicroOp> all(10);
    ASSERT_EQ(r.decode(all.data(), all.size()), 10u);
    EXPECT_EQ(all[0].pc, 0x7f00000000400000ull);
    EXPECT_EQ(all[0].addr, 0x7f00000000010000ull);
    EXPECT_EQ(all[4].pc, 0x7f00000000400000ull);
    EXPECT_EQ(all[6].addr, 0x10048u);
    EXPECT_EQ(all[9].pc, 0x7f00000000400014ull);
    EXPECT_EQ(all[9].dst, 5);
    for (uint64_t base = 0; base < 10; ++base)
        for (size_t n = 1; base + n <= 10; ++n) {
            std::vector<MicroOp> got(n);
            ASSERT_EQ(r.read(base, got.data(), n), n);
            for (size_t i = 0; i < n; ++i) {
                ASSERT_EQ(got[i].pc, all[base + i].pc) << base << "+" << i;
                ASSERT_EQ(got[i].addr, all[base + i].addr)
                    << base << "+" << i;
            }
        }
}

TEST(MtfPositioned, ReadAtAnyBaseMatchesTheStream)
{
    const size_t blk = kMtfBlockUops;
    Trace t = generateWorkload(suiteWorkload("bursty_mem"), 3 * blk + 11);
    MtfReader r;
    ASSERT_TRUE(MtfReader::parse(encodeToString(t), r).isOk());
    MtfTraceSource src(r);
    std::vector<MicroOp> buf;
    for (uint64_t base : {0ul, 1ul, blk - 1, blk, blk + 1, 2 * blk + 5,
                          3 * blk, 3 * blk + 10}) {
        for (size_t n : {1ul, 7ul, blk, 2 * blk + 3}) {
            SCOPED_TRACE(testing::Message() << base << " +" << n);
            std::optional<TraceSegment> seg = src.readAt(base, n, buf);
            ASSERT_TRUE(seg.has_value());
            EXPECT_EQ(seg->baseUop, base);
            ASSERT_EQ(seg->size, std::min<uint64_t>(n, t.size() - base));
            for (size_t i = 0; i < seg->size; ++i) {
                ASSERT_EQ(seg->data[i].pc, t[base + i].pc) << i;
                ASSERT_EQ(seg->data[i].addr, t[base + i].addr) << i;
                ASSERT_EQ(seg->data[i].type, t[base + i].type) << i;
            }
        }
    }
    EXPECT_EQ(src.readAt(t.size(), 5, buf)->size, 0u);
}

// --------------------------------------------------------------------
// Headline parity: recorded trace -> profiler == in-memory profiling,
// sequentially and segment-parallel, bit for bit.
// --------------------------------------------------------------------

TEST(MtfIngestParity, ProfilingRecordedTracesIsBitIdentical)
{
    const char *names[] = {"balanced_mix", "ptr_chase",
                           "branchy"};
    for (const char *name : names) {
        SCOPED_TRACE(name);
        Trace t = generateWorkload(suiteWorkload(name), 120000);
        std::string path = tmpPath(std::string(name) + ".mtf");
        ASSERT_TRUE(saveMtf(t, path).isOk());

        ProfilerConfig cfg;
        cfg.name = name;
        Profile ref = profileTrace(t, cfg);

        std::unique_ptr<MtfTraceSource> src;
        ASSERT_TRUE(MtfTraceSource::open(path, src).isOk());
        EXPECT_EQ(src->sizeHint(), t.size());
        Profile seq = profileSource(*src, cfg);
        expectProfilesIdentical(seq, ref);

        std::unique_ptr<MtfTraceSource> src2;
        ASSERT_TRUE(MtfTraceSource::open(path, src2).isOk());
        ParallelProfileOptions popts;
        popts.threads = 4;
        Profile par = profileSourceParallel(*src2, cfg, popts);
        expectProfilesIdentical(par, ref);

        std::remove(path.c_str());
    }
}

TEST(MtfIngestParity, SampledConfigMatchesToo)
{
    // The sampled profiler buffers the whole stream internally; the
    // .mtf path must feed it identically.
    Trace t = generateWorkload(suiteWorkload("stream_add"), 200000);
    std::string bytes = encodeToString(t);
    MtfReader r;
    ASSERT_TRUE(MtfReader::parse(bytes, r).isOk());

    ProfilerConfig cfg;
    cfg.sampling = {1000, 10000};
    Profile ref = profileTrace(t, cfg);
    MtfTraceSource src(r);
    Profile got = profileSource(src, cfg);
    expectProfilesIdentical(got, ref);
}

TEST(MtfIngestParity, VersionThreeAndOneMatchMemoryAtAnyThreadCount)
{
    // Every suite workload, as written (v3) and as a hand-built v1 file
    // of the same stream, profiles byte-identically to the trace in
    // memory: the sequential driver, and the parallel one reading v3
    // blocks at window-aligned, mostly mid-block bases.
    ProfilerConfig cfg;
    cfg.sampling = {1000, 6000};
    for (const WorkloadSpec &spec : workloadSuite()) {
        SCOPED_TRACE(spec.name);
        Trace t = generateWorkload(spec, 60000);
        cfg.name = spec.name;
        const std::string ref = profileBytes(profileTrace(t, cfg));
        for (const std::string &bytes : {encodeToString(t), encodeV1(t)}) {
            MtfReader r;
            ASSERT_TRUE(MtfReader::parse(bytes, r).isOk());
            SCOPED_TRACE(r.info().version);
            for (unsigned threads : {1u, 2u, 4u, 8u}) {
                SCOPED_TRACE(threads);
                MtfTraceSource src(r);
                EXPECT_EQ(profileBytes(profileSourceParallel(
                              src, cfg, {.threads = threads})),
                          ref);
            }
        }
    }
}

// --------------------------------------------------------------------
// Streaming behavior
// --------------------------------------------------------------------

TEST(MtfStreaming, RaggedSpanSizesCoverTheWholeStream)
{
    Trace t = generateWorkload(suiteWorkload("balanced_mix"), 5000);
    std::string bytes = encodeToString(t);
    MtfReader r;
    ASSERT_TRUE(MtfReader::parse(bytes, r).isOk());

    // Odd, non-divisor span sizes, including 1.
    for (size_t span : {size_t(1), size_t(7), size_t(333), size_t(4999),
                        size_t(60000)}) {
        MtfTraceSource src(r);
        std::vector<MicroOp> got;
        uint64_t expectedBase = 0;
        for (;;) {
            TraceSegment seg = src.next(span);
            if (seg.size == 0)
                break;
            EXPECT_EQ(seg.baseUop, expectedBase);
            expectedBase += seg.size;
            got.insert(got.end(), seg.data, seg.data + seg.size);
        }
        expectUopsEqual(Trace(std::move(got)), t);

        // reset() must restart from the top.
        src.reset();
        TraceSegment seg = src.next(16);
        ASSERT_EQ(seg.size, 16u);
        EXPECT_EQ(seg.baseUop, 0u);
        EXPECT_EQ(seg.data[0].pc, t[0].pc);
    }
}

// --------------------------------------------------------------------
// .mtxt converter
// --------------------------------------------------------------------

TEST(MtfText, DumpThenConvertIsByteIdentical)
{
    Trace t = generateWorkload(suiteWorkload("mix_mid"), 15000);
    std::string path = tmpPath("text.mtf");
    ASSERT_TRUE(saveMtf(t, path).isOk());

    std::ostringstream text;
    ASSERT_TRUE(dumpMtfToText(path, text).isOk());

    std::istringstream in(text.str());
    std::ostringstream out;
    uint64_t uops = 0;
    ASSERT_TRUE(convertTextToMtf(in, out, uops).isOk());
    EXPECT_EQ(uops, t.size());

    std::ifstream orig(path, std::ios::binary);
    std::stringstream origBytes;
    origBytes << orig.rdbuf();
    EXPECT_EQ(out.str(), origBytes.str());
    std::remove(path.c_str());
}

TEST(MtfText, MalformedLinesAreStructuredErrorsWithLineNumbers)
{
    struct Bad {
        const char *text;
        const char *why;
    };
    const Bad bad[] = {
        {"", "empty input"},
        {"not-a-header\n", "bad magic"},
        {"mipp-mtxt 9\n", "version skew"},
        {"mipp-mtxt 1\nzzz load @0x10\n", "bad pc"},
        {"mipp-mtxt 1\n0x10\n", "missing type"},
        {"mipp-mtxt 1\n0x10 wibble\n", "unknown type"},
        {"mipp-mtxt 1\n0x10 load\n", "load without @addr"},
        {"mipp-mtxt 1\n0x10 ialu @0x20\n", "@addr on non-memory"},
        {"mipp-mtxt 1\n0x10 ialu t\n", "taken on non-branch"},
        {"mipp-mtxt 1\n0x10 ialu s1=99\n", "register out of range"},
        {"mipp-mtxt 1\n0x10 ialu frob=3\n", "unknown field"},
    };
    for (const Bad &b : bad) {
        std::istringstream in(b.text);
        std::ostringstream out;
        uint64_t uops = 0;
        Status st = convertTextToMtf(in, out, uops);
        EXPECT_EQ(st.code(), StatusCode::InvalidArgument) << b.why;
        EXPECT_FALSE(st.message().empty()) << b.why;
    }
}

TEST(MtfText, CommentsAndBlankLinesAreIgnored)
{
    std::istringstream in("mipp-mtxt 1\n"
                          "# a comment\n"
                          "\n"
                          "0x400000 load @0x1000 s1=2 d=3 i\n"
                          "0x400004 br t i\n");
    std::ostringstream out;
    uint64_t uops = 0;
    ASSERT_TRUE(convertTextToMtf(in, out, uops).isOk());
    EXPECT_EQ(uops, 2u);
    Trace t = decodeAll(out.str());
    EXPECT_EQ(t[0].type, UopType::Load);
    EXPECT_EQ(t[0].addr, 0x1000u);
    EXPECT_EQ(t[1].type, UopType::Branch);
    EXPECT_TRUE(t[1].taken);
}

// --------------------------------------------------------------------
// Hardened parsing: limits and the malformed corpus
// --------------------------------------------------------------------

TEST(MtfLimitsTest, OversizeCountAndBytesAreResourceExhausted)
{
    Trace t = generateWorkload(suiteWorkload("balanced_mix"), 2000);
    std::string bytes = encodeToString(t);

    MtfLimits tightBytes;
    tightBytes.maxBytes = 64;
    MtfReader r;
    EXPECT_EQ(MtfReader::parse(bytes, r, tightBytes).code(),
              StatusCode::ResourceExhausted);

    MtfLimits tightUops;
    tightUops.maxUops = 100;
    EXPECT_EQ(MtfReader::parse(bytes, r, tightUops).code(),
              StatusCode::ResourceExhausted);
}

/**
 * Table-driven sweep of the checked-in malformed corpus, mirroring
 * ProfileIoCorpus: every sample is rejected with the expected
 * structured code and exact message before any trusting allocation.
 * The interesting entries carry a *valid* (recomputed) checksum, so the
 * structural cross-checks themselves are exercised.
 *
 * Version 1: count_inflated claims 4000 uops backed by ~30 record
 * bytes, trailing_bytes claims fewer records than present,
 * bad_reg/bad_type/reserved_bits/overlong_varint/missing_addr corrupt a
 * record behind a good checksum.
 *
 * Version 3 (v3_*): three blocks of 4, 4 and 2 uops (v3_small_blocks
 * is the valid original), each sample breaking one rule behind a valid
 * index checksum unless the rule is the checksum: block 1 starting one
 * uop early (overlap) or late (gap); block 2's uop count raised past
 * what its bytes can hold (the footer count raised with it); the
 * footer's block count raised by one with the index offset moved back
 * to match, so the last 32 record bytes read as block 0's entry; a bit
 * flip in block 1; the last index entry cut out; a block count of 2^62;
 * a bad register in block 1 (behind a valid block checksum) and a bit
 * flip in block 2, where block 1's error wins; and block 1's bad
 * register behind a bad block checksum, where the checksum wins.
 */
TEST(MtfCorpus, EverySampleIsAStructuredError)
{
    struct Sample {
        const char *file;
        StatusCode expect;
        const char *message;
    };
    const Sample corpus[] = {
        {"truncated_header.mtf", StatusCode::Corrupt,
         "mtf too small to hold a header and footer (10 bytes)"},
        {"truncated_footer.mtf", StatusCode::Corrupt,
         "mtf footer magic missing (truncated?)"},
        {"bitflip.mtf", StatusCode::Corrupt,
         "mtf checksum mismatch (bit rot or truncation)"},
        {"count_inflated.mtf", StatusCode::Corrupt,
         "mtf uop count 4000 not backed by record bytes (30)"},
        {"version_skew.mtf", StatusCode::InvalidArgument,
         "unsupported mtf version 2 (expected 1)"},
        {"bad_magic.mtf", StatusCode::Corrupt,
         "not an mtf trace (bad magic)"},
        {"bad_flags.mtf", StatusCode::Corrupt, "mtf v1 flags must be zero"},
        {"bad_header_bytes.mtf", StatusCode::Corrupt,
         "mtf v1 header size must be 24, got 32"},
        {"bad_reg.mtf", StatusCode::Corrupt,
         "mtf record 1 operand register 39 out of range"},
        {"bad_type.mtf", StatusCode::Corrupt,
         "mtf record 0 has invalid uop type 12"},
        {"reserved_bits.mtf", StatusCode::Corrupt,
         "mtf record 0 has reserved control bits set"},
        {"trailing_bytes.mtf", StatusCode::Corrupt,
         "mtf has 12 trailing record bytes beyond the footer uop count"},
        {"overlong_varint.mtf", StatusCode::Corrupt,
         "mtf record 0 has a truncated or over-long pc delta"},
        {"missing_addr.mtf", StatusCode::Corrupt,
         "mtf record 3 has a truncated or over-long address delta"},
        {"garbage.mtf", StatusCode::Corrupt, "not an mtf trace (bad magic)"},
        {"v3_overlap.mtf", StatusCode::Corrupt,
         "mtf block 1 starts at uop 3, inside block 0 (which ends at uop "
         "4)"},
        {"v3_gap.mtf", StatusCode::Corrupt,
         "mtf block 1 starts at uop 5, leaving a gap after block 0 (which "
         "ends at uop 4)"},
        {"v3_block_uops_inflated.mtf", StatusCode::Corrupt,
         "mtf block 2 uop count 4 not backed by its bytes (19)"},
        {"v3_block_count_inflated.mtf", StatusCode::Corrupt,
         "mtf block 0 starts at byte 1152922617139102466, not at the end "
         "of the header (24)"},
        {"v3_bad_block_checksum.mtf", StatusCode::Corrupt,
         "mtf block 1 checksum mismatch (bit rot or truncation)"},
        {"v3_truncated_index.mtf", StatusCode::Corrupt,
         "mtf index at byte 116 does not hold the 3 entries before the "
         "footer at byte 180 (truncated index?)"},
        {"v3_index_count_unbacked.mtf", StatusCode::Corrupt,
         "mtf block count 4611686018427387904 not backed by index bytes "
         "(188)"},
        {"v3_two_bad_blocks.mtf", StatusCode::Corrupt,
         "mtf record 7 operand register 39 out of range"},
        {"v3_bad_record_bad_checksum.mtf", StatusCode::Corrupt,
         "mtf block 1 checksum mismatch (bit rot or truncation)"},
    };
    for (const Sample &s : corpus) {
        std::string path =
            std::string(MIPP_TEST_CORPUS_DIR) + "/" + s.file;
        MtfReader r;
        Status st = MtfReader::open(path, r, {});
        EXPECT_EQ(st.code(), s.expect)
            << s.file << ": " << st.toString();
        EXPECT_EQ(st.message(), s.message) << s.file;

        // The TraceSource/materializing fronts surface the same code.
        std::unique_ptr<MtfTraceSource> src;
        EXPECT_EQ(MtfTraceSource::open(path, src).code(), s.expect)
            << s.file;
        EXPECT_EQ(src, nullptr) << s.file;
        Trace t;
        EXPECT_EQ(loadMtfTrace(path, t).code(), s.expect) << s.file;
    }
}

TEST(MtfCorpus, ChecksumMismatchOutranksABadRecord)
{
    // bad_reg.mtf's out-of-range register behind a corrupted checksum:
    // the checksum verdict comes before the record walk's.
    const std::string path =
        std::string(MIPP_TEST_CORPUS_DIR) + "/bad_record_bad_checksum.mtf";
    MtfReader r;
    Status st = MtfReader::open(path, r, {});
    EXPECT_EQ(st.code(), StatusCode::Corrupt);
    EXPECT_EQ(st.message(), "mtf checksum mismatch (bit rot or truncation)");
}

TEST(MtfCorpus, LowestFailingBlockWinsOnThePoolAndInline)
{
    // Many blocks, so the open spreads them over the pool: block 9 gets
    // an invalid uop type behind a recomputed block checksum, blocks 3
    // (the winner) and 20 a bit flip each. The verdict must be block
    // 3's whatever order the workers finish in, and the same when the
    // open runs inline from inside a pool worker.
    Trace t = generateWorkload(suiteWorkload("balanced_mix"),
                               32 * kMtfBlockUops);
    std::string bytes = encodeToString(t);
    V3Layout l(bytes);
    auto blockAt = [&](size_t b) {
        return static_cast<size_t>(getLe64(bytes, l.entry(b)));
    };
    bytes[blockAt(9)] = 0x0c; // control byte of the block's first record
    setLe64(bytes, l.entry(9) + 24,
            xxh64(bytes.data() + blockAt(9), blockAt(10) - blockAt(9)));
    rehashIndex(bytes);
    bytes[blockAt(3) + 40] ^= 0x01;
    bytes[blockAt(20) + 40] ^= 0x01;
    const std::string want =
        "mtf block 3 checksum mismatch (bit rot or truncation)";

    for (int rep = 0; rep < 5; ++rep) {
        MtfReader r;
        EXPECT_EQ(MtfReader::parse(bytes, r).message(), want);
    }
    std::vector<std::string> inlineMessages(8);
    ThreadPool::shared().parallelFor(
        inlineMessages.size(), 1, [&](size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i) {
                MtfReader r;
                inlineMessages[i] = MtfReader::parse(bytes, r).message();
            }
        });
    for (const std::string &m : inlineMessages)
        EXPECT_EQ(m, want);

    // With block 3 mended, block 9's record error is the lowest.
    bytes[blockAt(3) + 40] ^= 0x01;
    MtfReader r;
    EXPECT_EQ(MtfReader::parse(bytes, r).message(),
              "mtf record " + std::to_string(9 * kMtfBlockUops) +
                  " has invalid uop type 12");
}

TEST(MtfCorpus, MissingFileIsInvalidArgument)
{
    MtfReader r;
    EXPECT_EQ(
        MtfReader::open("/nonexistent/nope.mtf", r, {}).code(),
        StatusCode::InvalidArgument);
}

TEST(MtfWriterTest, FinishTwiceIsInternalError)
{
    std::ostringstream os;
    MtfWriter w(os);
    ASSERT_TRUE(w.finish().isOk());
    EXPECT_EQ(w.finish().code(), StatusCode::Internal);
}

} // namespace
} // namespace mipp
