/**
 * @file
 * The `.mtf` micro-op trace format — binary, versioned, checksummed,
 * indexed.
 *
 * `.mtf` is the real-trace ingestion frontend (ROADMAP item 2): a
 * compact on-disk encoding of the exact MicroOp stream the whole
 * framework operates on, so any externally captured trace (a recorded
 * synthetic workload, a converted DynamoRIO/Intel-PT-style text dump)
 * can flow through `profileSource` / `profileSourceParallel` at bounded
 * memory and produce a Profile *bit-identical* to profiling the same
 * stream in memory.
 *
 * The byte-level layout is specified normatively in
 * `docs/trace-format.md`; the short version of v3, the version the
 * writer emits:
 *
 *     [header 24 B]  magic "mippmtf\0", version u32, headerBytes u32,
 *                    flags u64 (zero)
 *     [blocks]       records of kMtfBlockUops uops per block (the last
 *                    block may hold fewer); the pc/address delta state
 *                    resets at each block start, so every block decodes
 *                    on its own. One record per uop: a control byte
 *                    (type + instBoundary/taken flags), a zigzag LEB128
 *                    pc delta, three operand bytes, and for Load/Store
 *                    a zigzag LEB128 address delta
 *     [index]        one 32 B entry per block: byte offset, first uop,
 *                    uop count, XXH64 of the block's bytes
 *     [footer 36 B]  magic "mtfZ", uop count u64, block count u64,
 *                    index offset u64, XXH64 of the index and the
 *                    footer fields before it
 *
 * Version 1 (no blocks, no index, one FNV-1a-64 checksum over the whole
 * file) still reads: it is one block, walked and decoded by the same
 * code as a v3 block.
 *
 * Reading is hardened in the style of profile-format v2
 * (src/profiler/profile_io.hh): the file is size-capped before it is
 * mapped or read; magic, version, flags, the footer and the index are
 * validated before any record is decoded, and every count is
 * cross-checked against the bytes actually present before anything is
 * allocated by it. Then every block is hashed and walked, in parallel
 * on the shared thread pool, so every later decode() and read() is
 * infallible. The verdict does not depend on thread timing: it is the
 * lowest-numbered failing block's error. Malformed bytes of any shape
 * yield a structured Status — Corrupt / InvalidArgument /
 * ResourceExhausted — never UB (tests/test_mtf.cc drives the malformed
 * corpus under tests/corpus/ through this promise).
 */

#ifndef MIPP_TRACE_MTF_HH
#define MIPP_TRACE_MTF_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "trace/trace.hh"
#include "trace/trace_source.hh"
#include "util/status.hh"

namespace mipp {

/** Format version written by MtfWriter; MtfReader also reads version 1. */
constexpr uint32_t kMtfVersion = 3;
/** Fixed header size in bytes (every version). */
constexpr uint32_t kMtfHeaderBytes = 24;
/** Fixed v3 footer size in bytes (magic, uop count, block count, index
 *  offset, index checksum). */
constexpr uint32_t kMtfFooterBytes = 36;
/** Size of one v3 index entry in bytes. */
constexpr uint32_t kMtfIndexEntryBytes = 32;
/** Uops per block the writer emits. Small, so a positioned read that
 *  starts mid-block decodes and discards little: segment bases are
 *  window-aligned, not block-aligned. */
constexpr uint32_t kMtfBlockUops = 4096;
/** Smallest possible record: control + 1-byte pc delta + 3 operands. */
constexpr uint32_t kMtfMinRecordBytes = 5;

/**
 * Caps applied while opening untrusted `.mtf` bytes, mirroring
 * ProfileLimits. Defaults comfortably hold any trace this repo
 * records (~6 bytes/uop → 1 GiB ≈ 170M uops); a server can tighten
 * them per deployment.
 */
struct MtfLimits {
    size_t maxBytes = 1u << 30;     ///< whole-file size cap
    uint64_t maxUops = 1ull << 31;  ///< footer uop-count cap
};

/** Parsed header/footer facts of an opened `.mtf` stream. */
struct MtfInfo {
    uint32_t version = 0;
    uint64_t uopCount = 0;
    /** Independently decodable blocks; a v1 file is one block. */
    uint64_t blockCount = 0;
    uint64_t fileBytes = 0;
    /** Bytes of the records: the file less header, index and footer. */
    uint64_t recordBytes = 0;
    /** Mean encoded bytes per uop (fileBytes over uopCount). */
    double bytesPerUop() const
    {
        return uopCount ? static_cast<double>(fileBytes) / uopCount : 0.0;
    }
};

/**
 * Streaming `.mtf` encoder over any std::ostream. Bytes are emitted
 * strictly forward (no seeks), so the writer works on pipes: the uop
 * count and the block index live in the footer, not the header. Usage:
 *
 *     MtfWriter w(os);
 *     for (const MicroOp &op : stream) w.append(op);
 *     Status st = w.finish();   // writes index and footer, checks the stream
 */
class MtfWriter
{
  public:
    explicit MtfWriter(std::ostream &os);
    ~MtfWriter();

    MtfWriter(const MtfWriter &) = delete;
    MtfWriter &operator=(const MtfWriter &) = delete;

    /** Encode and buffer one uop; a full block is written out. */
    void append(const MicroOp &op);

    /** Write the last block, the index and the footer. Must be called
     *  exactly once; returns Internal if the underlying stream failed. */
    Status finish();

    uint64_t uopsWritten() const { return count_; }

  private:
    void put(uint8_t b) { block_.push_back(b); }
    void putVarint(uint64_t v);
    void endBlock();

    std::ostream &os_;
    std::vector<uint8_t> block_; ///< records of the open block
    std::vector<uint8_t> index_; ///< encoded entries of written blocks
    uint64_t offset_;            ///< file offset of the open block
    uint64_t blockFirst_ = 0;    ///< first uop of the open block
    uint64_t count_ = 0;
    uint64_t prevPc_ = 0;
    uint64_t prevAddr_ = 0;
    bool finished_ = false;
};

/** Serialize a materialized trace to @p os as `.mtf`. */
Status writeMtf(const Trace &trace, std::ostream &os);

/** writeMtf to a file path. */
Status saveMtf(const Trace &trace, const std::string &path);

/**
 * Validated decoder over an opened `.mtf` buffer.
 *
 * open()/parse() validate the complete file — size caps, magic,
 * version, flags, footer, index and every block's checksum and records
 * — so decode() and read() on a successfully opened reader cannot fail.
 * Files are mapped with mmap where available (the buffer is paged by
 * the OS, not copied to the heap) and slurped through bounded reads
 * otherwise.
 */
class MtfReader
{
  public:
    MtfReader();
    ~MtfReader();
    MtfReader(MtfReader &&) noexcept;
    MtfReader &operator=(MtfReader &&) noexcept;
    // Copies share the (immutable) mapped buffer and block table and get
    // an independent decode cursor — cheap, and handy for multi-pass
    // consumers.
    MtfReader(const MtfReader &);
    MtfReader &operator=(const MtfReader &);

    /** Open and fully validate @p path. On failure @p out is reset. */
    static Status open(const std::string &path, MtfReader &out,
                       const MtfLimits &limits = {});

    /** open() over an in-memory byte buffer (tests, socket uploads). */
    static Status parse(std::string bytes, MtfReader &out,
                        const MtfLimits &limits = {});

    const MtfInfo &info() const { return info_; }
    uint64_t uopCount() const { return info_.uopCount; }

    /**
     * Decode up to @p maxUops further uops into @p out. Returns the
     * number produced; 0 at end of stream. Never fails on an opened
     * reader (the open-time validation proved every record).
     */
    size_t decode(MicroOp *out, size_t maxUops);

    /**
     * Positioned read: decode the uops [base, base + n) into @p out,
     * fewer at the end of the stream; returns the number produced.
     * Decoding starts at the block holding @p base and discards that
     * block's uops before it. Const and thread-safe; never fails on an
     * opened reader.
     */
    size_t read(uint64_t base, MicroOp *out, size_t n) const;

    /** Rewind the decode cursor to the first record. */
    void rewind();

  private:
    struct Frame;
    /** A decode position: block, byte offset, uop index and the delta
     *  predictors' state. */
    struct Cursor {
        size_t block = 0;
        size_t pos = kMtfHeaderBytes;
        uint64_t uop = 0;
        uint64_t pc = 0;
        uint64_t addr = 0;
    };

    static Status load(std::shared_ptr<Frame> frame, MtfReader &out,
                       const MtfLimits &limits);
    /** The cursor at the start of the block holding uop @p base. */
    Cursor seek(uint64_t base) const;
    /** Decode (or, with a null @p out, skip) up to @p n uops at @p c. */
    size_t decodeAt(Cursor &c, MicroOp *out, size_t n) const;

    std::shared_ptr<const Frame> frame_;
    MtfInfo info_;
    Cursor cur_;
};

/**
 * TraceSource over an opened `.mtf` file. next() decodes the following
 * segment into an internal buffer (O(maxUops) resident uops; the file
 * itself stays mmap-ed/paged); readAt() decodes any range into the
 * caller's buffer, so the parallel profiling driver decodes each
 * segment on the loop that profiles it. Either way `profileSource` and
 * `profileSourceParallel` ingest any `.mtf` at bounded memory.
 */
class MtfTraceSource final : public TraceSource
{
  public:
    /** Open @p path fully validated; on success @p out is live. */
    static Status open(const std::string &path,
                       std::unique_ptr<MtfTraceSource> &out,
                       const MtfLimits &limits = {});

    explicit MtfTraceSource(MtfReader reader) : reader_(std::move(reader))
    {
    }

    uint64_t sizeHint() const override { return reader_.uopCount(); }

    TraceSegment next(size_t maxUops) override;

    std::optional<TraceSegment>
    readAt(uint64_t base, size_t n,
           std::vector<MicroOp> &buf) const override;

    void reset() override;

    const MtfInfo &info() const { return reader_.info(); }

  private:
    MtfReader reader_;
    std::vector<MicroOp> buf_;
    uint64_t base_ = 0;
};

/** Materialize a whole `.mtf` file as a Trace (simulator-side use:
 *  accuracy/calibrate harnesses need the instruction stream). */
Status loadMtfTrace(const std::string &path, Trace &out,
                    const MtfLimits &limits = {});

} // namespace mipp

#endif // MIPP_TRACE_MTF_HH
