/**
 * @file
 * `.mtf` trace-format tests: byte-exact round trips, the headline
 * ingestion parity promise (profiling a recorded trace — sequentially
 * or segment-parallel — is bit-identical to profiling the generated
 * trace in memory), streaming behavior under ragged span sizes, the
 * `.mtxt` converter round trip, and a table-driven sweep of the
 * malformed corpus under tests/corpus/ asserting every attacker-shaped
 * input comes back as a structured Status, never UB.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "profile_compare.hh"
#include "profiler/profiler.hh"
#include "trace/mtf.hh"
#include "trace/mtf_text.hh"
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
    EXPECT_EQ(r.info().fileBytes, bytes.size());
    EXPECT_EQ(r.info().recordBytes,
              bytes.size() - kMtfHeaderBytes - kMtfFooterBytes);
    EXPECT_GE(r.info().bytesPerUop(), 1.0 * kMtfMinRecordBytes);
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
 * structured code before any trusting allocation. The interesting
 * entries carry a *valid* (recomputed) checksum, so the structural
 * cross-checks themselves are exercised: count_inflated claims 4000
 * uops backed by ~30 record bytes, trailing_bytes claims fewer records
 * than present, bad_reg/bad_type/reserved_bits/overlong_varint/
 * missing_addr corrupt a record behind a good checksum.
 */
TEST(MtfCorpus, EverySampleIsAStructuredError)
{
    struct Sample {
        const char *file;
        StatusCode expect;
    };
    const Sample corpus[] = {
        {"truncated_header.mtf", StatusCode::Corrupt},
        {"truncated_footer.mtf", StatusCode::Corrupt},
        {"bitflip.mtf", StatusCode::Corrupt},
        {"count_inflated.mtf", StatusCode::Corrupt},
        {"version_skew.mtf", StatusCode::InvalidArgument},
        {"bad_magic.mtf", StatusCode::Corrupt},
        {"bad_flags.mtf", StatusCode::Corrupt},
        {"bad_header_bytes.mtf", StatusCode::Corrupt},
        {"bad_reg.mtf", StatusCode::Corrupt},
        {"bad_type.mtf", StatusCode::Corrupt},
        {"reserved_bits.mtf", StatusCode::Corrupt},
        {"trailing_bytes.mtf", StatusCode::Corrupt},
        {"overlong_varint.mtf", StatusCode::Corrupt},
        {"missing_addr.mtf", StatusCode::Corrupt},
        {"garbage.mtf", StatusCode::Corrupt},
    };
    for (const Sample &s : corpus) {
        std::string path =
            std::string(MIPP_TEST_CORPUS_DIR) + "/" + s.file;
        MtfReader r;
        Status st = MtfReader::open(path, r, {});
        EXPECT_EQ(st.code(), s.expect)
            << s.file << ": " << st.toString();
        EXPECT_FALSE(st.message().empty()) << s.file;

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
    // the record walk that proves the records also computes the
    // checksum, and the checksum verdict comes first.
    const std::string path =
        std::string(MIPP_TEST_CORPUS_DIR) + "/bad_record_bad_checksum.mtf";
    MtfReader r;
    Status st = MtfReader::open(path, r, {});
    EXPECT_EQ(st.code(), StatusCode::Corrupt);
    EXPECT_EQ(st.message(), "mtf checksum mismatch (bit rot or truncation)");
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
