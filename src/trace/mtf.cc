#include "trace/mtf.hh"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <mutex>
#include <ostream>

#if defined(__unix__) || defined(__APPLE__)
#define MIPP_MTF_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "util/hash.hh"
#include "util/thread_pool.hh"

namespace mipp {

namespace {

constexpr char kHeaderMagic[8] = {'m', 'i', 'p', 'p', 'm', 't', 'f', 0};
constexpr char kFooterMagic[4] = {'m', 't', 'f', 'Z'};

/** Version 1: records, then a 20-byte footer (magic, uop count,
 *  FNV-1a-64 checksum); no blocks, no index. */
constexpr uint32_t kMtfV1 = 1;
constexpr uint32_t kV1FooterBytes = 20;

/** Control-byte layout (docs/trace-format.md §record encoding). */
constexpr uint8_t kTypeMask = 0x0f;
constexpr uint8_t kInstBoundaryBit = 0x10;
constexpr uint8_t kTakenBit = 0x20;
constexpr uint8_t kReservedMask = 0xc0;

/** Largest canonical LEB128 length for a 64-bit value. */
constexpr int kMaxVarintBytes = 10;

uint64_t
zigzag(int64_t v)
{
    return (static_cast<uint64_t>(v) << 1) ^
           static_cast<uint64_t>(v >> 63);
}

int64_t
unzigzag(uint64_t v)
{
    return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

void
putLe32(uint8_t *p, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<uint8_t>(v >> (8 * i));
}

void
putLe64(uint8_t *p, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<uint8_t>(v >> (8 * i));
}

uint32_t
getLe32(const uint8_t *p)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(p[i]) << (8 * i);
    return v;
}

uint64_t
getLe64(const uint8_t *p)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(p[i]) << (8 * i);
    return v;
}

/**
 * Decode one LEB128 varint from [p, end). Returns bytes consumed, or 0
 * on truncation / an over-long (> 10 byte) encoding.
 */
size_t
getVarint(const uint8_t *p, const uint8_t *end, uint64_t &v)
{
    v = 0;
    int shift = 0;
    for (int i = 0; i < kMaxVarintBytes && p + i < end; ++i) {
        uint8_t b = p[i];
        v |= static_cast<uint64_t>(b & 0x7f) << shift;
        if (!(b & 0x80))
            return static_cast<size_t>(i) + 1;
        shift += 7;
    }
    return 0;
}

/**
 * Prove @p count records from @p p without reading at or past @p end:
 * the one validation walk, for a v3 block and for a v1 file's record
 * region alike. On success @p p is left after the last record; an
 * error names the failing record by its index in the stream, @p first
 * plus its index in the walk.
 */
Status
walkRecords(const uint8_t *&p, const uint8_t *end, uint64_t first,
            uint64_t count)
{
    auto recordError = [first](uint64_t i, const std::string &what) {
        return corrupt("mtf record " + std::to_string(first + i) + what);
    };
    for (uint64_t i = 0; i < count; ++i) {
        if (p >= end)
            return recordError(i, " truncated");
        uint8_t ctl = *p++;
        if (ctl & kReservedMask)
            return recordError(i, " has reserved control bits set");
        uint8_t type = ctl & kTypeMask;
        if (type >= static_cast<uint8_t>(UopType::NumTypes))
            return recordError(i, " has invalid uop type " +
                                      std::to_string(type));
        uint64_t delta = 0;
        size_t vn = getVarint(p, end, delta);
        if (vn == 0)
            return recordError(i, " has a truncated or over-long pc delta");
        p += vn;
        if (end - p < 3)
            return recordError(i, " truncated in operand bytes");
        for (int r = 0; r < 3; ++r)
            if (p[r] > kNumRegs)
                return recordError(i, " operand register " +
                                          std::to_string(p[r] - 1) +
                                          " out of range");
        p += 3;
        if (isMemory(static_cast<UopType>(type))) {
            vn = getVarint(p, end, delta);
            if (vn == 0)
                return recordError(
                    i, " has a truncated or over-long address delta");
            p += vn;
        }
    }
    return Status::ok();
}

/** A varint walkRecords proved: no bound or length check needed. */
inline const uint8_t *
provedVarint(const uint8_t *p, uint64_t &v)
{
    uint64_t b = *p++;
    v = b & 0x7f;
    for (int shift = 7; b & 0x80; shift += 7) {
        b = *p++;
        v |= (b & 0x7f) << shift;
    }
    return p;
}

/**
 * Decode @p n records at @p p that walkRecords proved, advancing the
 * delta predictors @p pc and @p addr; with kStore the uops go to
 * @p out, else they are skipped. Returns the byte after the last one.
 */
template <bool kStore>
const uint8_t *
decodeRecords(const uint8_t *p, uint64_t &pc, uint64_t &addr, MicroOp *out,
              size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        const uint8_t ctl = *p++;
        const UopType type = static_cast<UopType>(ctl & kTypeMask);
        uint64_t delta;
        p = provedVarint(p, delta);
        pc += static_cast<uint64_t>(unzigzag(delta));
        MicroOp op;
        if constexpr (kStore) {
            op.type = type;
            op.instBoundary = (ctl & kInstBoundaryBit) != 0;
            op.taken = (ctl & kTakenBit) != 0;
            op.pc = pc;
            op.src1 = static_cast<int8_t>(static_cast<int>(p[0]) - 1);
            op.src2 = static_cast<int8_t>(static_cast<int>(p[1]) - 1);
            op.dst = static_cast<int8_t>(static_cast<int>(p[2]) - 1);
        }
        p += 3;
        if (isMemory(type)) {
            p = provedVarint(p, delta);
            addr += static_cast<uint64_t>(unzigzag(delta));
            op.addr = addr;
        }
        if constexpr (kStore)
            out[i] = op;
    }
    return p;
}

/** One independently decodable run of records: bytes [offset, end),
 *  uops [firstUop, firstUop + uops), and the checksum it must match. */
struct Block {
    uint64_t offset = 0;
    uint64_t end = 0;
    uint64_t firstUop = 0;
    uint64_t uops = 0;
    uint64_t hash = 0;
};

Status
tooSmall(size_t n)
{
    return corrupt("mtf too small to hold a header and footer (" +
                   std::to_string(n) + " bytes)");
}

/** The uop-count checks v1 and v3 share: the limit, then the bytes. */
Status
checkUopCount(uint64_t count, uint64_t recordBytes, const MtfLimits &limits)
{
    if (count > limits.maxUops)
        return resourceExhausted(
            "mtf uop count " + std::to_string(count) +
            " exceeds limit " + std::to_string(limits.maxUops));
    if (count > recordBytes / kMtfMinRecordBytes)
        return corrupt("mtf uop count " + std::to_string(count) +
                       " not backed by record bytes (" +
                       std::to_string(recordBytes) + ")");
    return Status::ok();
}

/**
 * Version 1: one FNV-1a-64 checksum over everything before it, then
 * the count checks, then the records as one block. The checksum comes
 * first, so it outranks every other verdict on the file.
 */
Status
validateV1(const uint8_t *d, size_t n, const MtfLimits &limits,
           std::vector<Block> &blocks, MtfInfo &info)
{
    const size_t footerAt = n - kV1FooterBytes;
    if (std::memcmp(d + footerAt, kFooterMagic, sizeof kFooterMagic) != 0)
        return corrupt("mtf footer magic missing (truncated?)");
    const uint64_t count = getLe64(d + footerAt + 4);
    const uint64_t want = getLe64(d + footerAt + 12);
    if (fnv1a64(d, footerAt + 12) != want)
        return corrupt("mtf checksum mismatch (bit rot or truncation)");
    const uint64_t recordBytes = footerAt - kMtfHeaderBytes;
    if (Status st = checkUopCount(count, recordBytes, limits); !st.isOk())
        return st;
    const uint8_t *p = d + kMtfHeaderBytes;
    const uint8_t *end = d + footerAt;
    if (Status st = walkRecords(p, end, 0, count); !st.isOk())
        return st;
    if (p != end)
        return corrupt(
            "mtf has " + std::to_string(end - p) +
            " trailing record bytes beyond the footer uop count");
    blocks.push_back({kMtfHeaderBytes, footerAt, 0, count, want});
    info.uopCount = count;
    info.recordBytes = recordBytes;
    return Status::ok();
}

/**
 * Version 3, serial part: the footer, the index's size and checksum,
 * the uop count, and the index entries' tiling, in that order (first
 * failure wins). No allocation is sized by a count before the bytes
 * backing it are proved present.
 */
Status
readIndexV3(const uint8_t *d, size_t n, const MtfLimits &limits,
            std::vector<Block> &blocks, MtfInfo &info)
{
    if (n < kMtfHeaderBytes + kMtfFooterBytes)
        return tooSmall(n);
    const size_t footerAt = n - kMtfFooterBytes;
    const uint8_t *f = d + footerAt;
    if (std::memcmp(f, kFooterMagic, sizeof kFooterMagic) != 0)
        return corrupt("mtf footer magic missing (truncated?)");
    const uint64_t count = getLe64(f + 4);
    const uint64_t blockCount = getLe64(f + 12);
    const uint64_t indexAt = getLe64(f + 20);
    const uint64_t want = getLe64(f + 28);

    const uint64_t room = footerAt - kMtfHeaderBytes;
    if (blockCount > room / kMtfIndexEntryBytes)
        return corrupt("mtf block count " + std::to_string(blockCount) +
                       " not backed by index bytes (" +
                       std::to_string(room) + ")");
    const uint64_t indexBytes = blockCount * kMtfIndexEntryBytes;
    if (indexAt != footerAt - indexBytes)
        return corrupt("mtf index at byte " + std::to_string(indexAt) +
                       " does not hold the " + std::to_string(blockCount) +
                       " entries before the footer at byte " +
                       std::to_string(footerAt) + " (truncated index?)");
    if (xxh64(d + indexAt, n - 8 - indexAt) != want)
        return corrupt("mtf index checksum mismatch (bit rot or truncation)");
    const uint64_t recordBytes = indexAt - kMtfHeaderBytes;
    if (Status st = checkUopCount(count, recordBytes, limits); !st.isOk())
        return st;
    if (blockCount == 0 && recordBytes != 0)
        return corrupt("mtf has " + std::to_string(recordBytes) +
                       " record bytes but no blocks");

    // Blocks tile the records in file order, in bytes and in uops: each
    // starts where the one before it ends, and the last ends at the
    // index. A block's bytes run to the next entry's offset.
    auto blockError = [](uint64_t i, const std::string &what) {
        return corrupt("mtf block " + std::to_string(i) + what);
    };
    blocks.reserve(static_cast<size_t>(blockCount));
    uint64_t nextUop = 0;
    for (uint64_t i = 0; i < blockCount; ++i) {
        const uint8_t *e = d + indexAt + i * kMtfIndexEntryBytes;
        const bool last = i + 1 == blockCount;
        Block b;
        b.offset = getLe64(e);
        b.end = last ? indexAt : getLe64(e + kMtfIndexEntryBytes);
        b.firstUop = getLe64(e + 8);
        b.uops = getLe64(e + 16);
        b.hash = getLe64(e + 24);
        if (i == 0 && b.offset != kMtfHeaderBytes)
            return blockError(i, " starts at byte " +
                                     std::to_string(b.offset) +
                                     ", not at the end of the header (" +
                                     std::to_string(kMtfHeaderBytes) + ")");
        if (b.end <= b.offset)
            return last ? blockError(i, " starts at byte " +
                                            std::to_string(b.offset) +
                                            ", not before the index (byte " +
                                            std::to_string(indexAt) + ")")
                        : blockError(i + 1, " starts at byte " +
                                                std::to_string(b.end) +
                                                ", not after block " +
                                                std::to_string(i) + " (byte " +
                                                std::to_string(b.offset) + ")");
        if (b.firstUop != nextUop) {
            const std::string at =
                " starts at uop " + std::to_string(b.firstUop);
            if (i == 0)
                return blockError(i, at + ", not at uop 0");
            const std::string prev = "block " + std::to_string(i - 1) +
                                     " (which ends at uop " +
                                     std::to_string(nextUop) + ")";
            return blockError(i, b.firstUop < nextUop
                                     ? at + ", inside " + prev
                                     : at + ", leaving a gap after " + prev);
        }
        if (b.uops == 0)
            return blockError(i, " holds no uops");
        if (b.uops > (b.end - b.offset) / kMtfMinRecordBytes)
            return blockError(i, " uop count " + std::to_string(b.uops) +
                                     " not backed by its bytes (" +
                                     std::to_string(b.end - b.offset) + ")");
        nextUop += b.uops;
        blocks.push_back(b);
    }
    if (nextUop != count)
        return corrupt("mtf blocks hold " + std::to_string(nextUop) +
                       " uops, the footer counts " + std::to_string(count));
    info.uopCount = count;
    info.recordBytes = recordBytes;
    return Status::ok();
}

/** One v3 block: its checksum, then its records, then its end. */
Status
checkBlock(const uint8_t *d, const Block &b, size_t i)
{
    const uint8_t *p = d + b.offset;
    const uint8_t *end = d + b.end;
    if (xxh64(p, static_cast<size_t>(end - p)) != b.hash)
        return corrupt("mtf block " + std::to_string(i) +
                       " checksum mismatch (bit rot or truncation)");
    if (Status st = walkRecords(p, end, b.firstUop, b.uops); !st.isOk())
        return st;
    if (p != end)
        return corrupt("mtf block " + std::to_string(i) + " has " +
                       std::to_string(end - p) +
                       " trailing bytes beyond its uop count");
    return Status::ok();
}

/**
 * Every v3 block checked on the shared pool (inline when called from a
 * pool worker). The verdict is the lowest-numbered failing block's, so
 * it does not depend on thread timing: a block is only skipped once a
 * lower-numbered one is known to fail, and every block below the final
 * verdict was checked and passed.
 */
Status
checkBlocks(const uint8_t *d, const std::vector<Block> &blocks)
{
    // ~8 blocks (~200 KB of records) per task keeps the pool's
    // per-chunk cost small next to the hashing and walking.
    constexpr size_t kGrain = 8;
    std::mutex mu;
    size_t failed = blocks.size(); ///< guarded by mu
    std::atomic<size_t> failedHint{blocks.size()};
    Status verdict = Status::ok();
    ThreadPool::shared().parallelFor(
        blocks.size(), kGrain, [&](size_t begin, size_t end) {
            for (size_t i = begin;
                 i < end && i < failedHint.load(std::memory_order_relaxed);
                 ++i) {
                Status st = checkBlock(d, blocks[i], i);
                if (st.isOk())
                    continue;
                std::lock_guard<std::mutex> lk(mu);
                if (i < failed) {
                    failed = i;
                    verdict = std::move(st);
                    failedHint.store(i, std::memory_order_relaxed);
                }
                return;
            }
        });
    return verdict;
}

/** Header checks every version shares, then the version's own. */
Status
validate(const uint8_t *d, size_t n, const MtfLimits &limits,
         std::vector<Block> &blocks, MtfInfo &info)
{
    if (n > limits.maxBytes)
        return resourceExhausted(
            "mtf larger than the configured limit (" +
            std::to_string(limits.maxBytes) + " bytes)");
    if (n < kMtfHeaderBytes + kV1FooterBytes)
        return tooSmall(n);
    if (std::memcmp(d, kHeaderMagic, sizeof kHeaderMagic) != 0)
        return corrupt("not an mtf trace (bad magic)");

    const uint32_t version = getLe32(d + 8);
    if (version != kMtfV1 && version != kMtfVersion)
        // Name the version an older file is measured against (v1) or,
        // for a newer one, the newest this reader knows.
        return invalidArgument(
            "unsupported mtf version " + std::to_string(version) +
            " (expected " +
            std::to_string(version > kMtfVersion ? kMtfVersion : kMtfV1) +
            ")");
    const std::string v = "mtf v" + std::to_string(version);
    const uint32_t headerBytes = getLe32(d + 12);
    if (headerBytes != kMtfHeaderBytes)
        return corrupt(v + " header size must be " +
                       std::to_string(kMtfHeaderBytes) + ", got " +
                       std::to_string(headerBytes));
    if (getLe64(d + 16) != 0)
        return corrupt(v + " flags must be zero");

    info.version = version;
    info.fileBytes = n;
    if (version == kMtfV1)
        return validateV1(d, n, limits, blocks, info);
    if (Status st = readIndexV3(d, n, limits, blocks, info); !st.isOk())
        return st;
    return checkBlocks(d, blocks);
}

} // namespace

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

MtfWriter::MtfWriter(std::ostream &os) : os_(os), offset_(kMtfHeaderBytes)
{
    block_.reserve(1 << 16);
    uint8_t hdr[kMtfHeaderBytes] = {};
    std::memcpy(hdr, kHeaderMagic, sizeof kHeaderMagic);
    putLe32(hdr + 8, kMtfVersion);
    putLe32(hdr + 12, kMtfHeaderBytes);
    putLe64(hdr + 16, 0); // flags, all reserved
    os_.write(reinterpret_cast<const char *>(hdr), sizeof hdr);
}

MtfWriter::~MtfWriter() = default;

void
MtfWriter::putVarint(uint64_t v)
{
    do {
        uint8_t b = v & 0x7f;
        v >>= 7;
        put(b | (v ? 0x80 : 0));
    } while (v);
}

void
MtfWriter::append(const MicroOp &op)
{
    uint8_t ctl = static_cast<uint8_t>(op.type) & kTypeMask;
    if (op.instBoundary)
        ctl |= kInstBoundaryBit;
    if (op.taken)
        ctl |= kTakenBit;
    put(ctl);
    putVarint(zigzag(static_cast<int64_t>(op.pc - prevPc_)));
    prevPc_ = op.pc;
    // Operand bytes: kNoReg (-1) .. 31 mapped to 0 .. 32.
    put(static_cast<uint8_t>(op.src1 + 1));
    put(static_cast<uint8_t>(op.src2 + 1));
    put(static_cast<uint8_t>(op.dst + 1));
    if (isMemory(op.type)) {
        putVarint(zigzag(static_cast<int64_t>(op.addr - prevAddr_)));
        prevAddr_ = op.addr;
    }
    if (++count_ - blockFirst_ == kMtfBlockUops)
        endBlock();
}

void
MtfWriter::endBlock()
{
    if (count_ == blockFirst_)
        return;
    uint8_t e[kMtfIndexEntryBytes];
    putLe64(e, offset_);
    putLe64(e + 8, blockFirst_);
    putLe64(e + 16, count_ - blockFirst_);
    putLe64(e + 24, xxh64(block_.data(), block_.size()));
    index_.insert(index_.end(), e, e + sizeof e);
    os_.write(reinterpret_cast<const char *>(block_.data()),
              static_cast<std::streamsize>(block_.size()));
    offset_ += block_.size();
    blockFirst_ = count_;
    block_.clear();
    // The next block decodes on its own: fresh predictors.
    prevPc_ = 0;
    prevAddr_ = 0;
}

Status
MtfWriter::finish()
{
    if (finished_)
        return internalError("MtfWriter::finish called twice");
    finished_ = true;
    endBlock();
    // The index checksum covers the entries and every footer field
    // before it, so tampering with a count or the index offset
    // invalidates it.
    uint8_t tail[kMtfFooterBytes];
    std::memcpy(tail, kFooterMagic, sizeof kFooterMagic);
    putLe64(tail + 4, count_);
    putLe64(tail + 12, index_.size() / kMtfIndexEntryBytes);
    putLe64(tail + 20, offset_);
    index_.insert(index_.end(), tail, tail + kMtfFooterBytes - 8);
    putLe64(tail + kMtfFooterBytes - 8, xxh64(index_.data(), index_.size()));
    os_.write(reinterpret_cast<const char *>(index_.data()),
              static_cast<std::streamsize>(index_.size()));
    os_.write(reinterpret_cast<const char *>(tail + kMtfFooterBytes - 8), 8);
    os_.flush();
    if (!os_)
        return internalError("mtf write: output stream failed");
    return Status::ok();
}

Status
writeMtf(const Trace &trace, std::ostream &os)
{
    MtfWriter w(os);
    for (const MicroOp &op : trace)
        w.append(op);
    return w.finish();
}

Status
saveMtf(const Trace &trace, const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        return invalidArgument("cannot write mtf file: " + path);
    Status st = writeMtf(trace, os);
    if (st.isOk() && !os)
        st = internalError("mtf write: I/O failure on " + path);
    return st;
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/** The raw bytes (a heap copy or an mmap-ed region) and the block
 *  table the open proved. */
struct MtfReader::Frame {
    std::string owned;
    const uint8_t *data = nullptr;
    size_t size = 0;
    std::vector<Block> blocks;
#ifdef MIPP_MTF_HAVE_MMAP
    void *map = nullptr;
    size_t mapLen = 0;
#endif

    ~Frame()
    {
#ifdef MIPP_MTF_HAVE_MMAP
        if (map)
            ::munmap(map, mapLen);
#endif
    }
};

MtfReader::MtfReader() = default;
MtfReader::~MtfReader() = default;
MtfReader::MtfReader(MtfReader &&) noexcept = default;
MtfReader &MtfReader::operator=(MtfReader &&) noexcept = default;
MtfReader::MtfReader(const MtfReader &) = default;
MtfReader &MtfReader::operator=(const MtfReader &) = default;

Status
MtfReader::load(std::shared_ptr<Frame> frame, MtfReader &out,
                const MtfLimits &limits)
{
    MtfInfo info;
    Status st =
        validate(frame->data, frame->size, limits, frame->blocks, info);
    if (!st.isOk())
        return st;
    info.blockCount = frame->blocks.size();
    out.frame_ = std::move(frame);
    out.info_ = info;
    out.rewind();
    return Status::ok();
}

Status
MtfReader::parse(std::string bytes, MtfReader &out, const MtfLimits &limits)
{
    out = MtfReader();
    auto frame = std::make_shared<Frame>();
    frame->owned = std::move(bytes);
    frame->data = reinterpret_cast<const uint8_t *>(frame->owned.data());
    frame->size = frame->owned.size();
    return load(std::move(frame), out, limits);
}

Status
MtfReader::open(const std::string &path, MtfReader &out,
                const MtfLimits &limits)
{
    out = MtfReader();
    auto frame = std::make_shared<Frame>();
#ifdef MIPP_MTF_HAVE_MMAP
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd >= 0) {
        struct stat stt {};
        if (::fstat(fd, &stt) == 0 && S_ISREG(stt.st_mode)) {
            size_t len = static_cast<size_t>(stt.st_size);
            if (len > limits.maxBytes) {
                ::close(fd);
                return resourceExhausted(
                    "mtf larger than the configured limit (" +
                    std::to_string(limits.maxBytes) + " bytes): " +
                    path);
            }
            if (len > 0) {
                void *m = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE,
                                 fd, 0);
                if (m != MAP_FAILED) {
                    frame->map = m;
                    frame->mapLen = len;
                    frame->data = static_cast<const uint8_t *>(m);
                    frame->size = len;
                }
            } else {
                frame->data =
                    reinterpret_cast<const uint8_t *>(frame->owned.data());
                frame->size = 0;
            }
        }
        ::close(fd);
    } else {
        return invalidArgument("cannot open mtf file: " + path);
    }
#endif
    if (!frame->data) {
        // Portable fallback: bounded slurp.
        std::ifstream is(path, std::ios::binary);
        if (!is)
            return invalidArgument("cannot open mtf file: " + path);
        char chunk[1 << 16];
        while (is) {
            is.read(chunk, sizeof chunk);
            size_t got = static_cast<size_t>(is.gcount());
            if (got == 0)
                break;
            if (frame->owned.size() + got > limits.maxBytes)
                return resourceExhausted(
                    "mtf larger than the configured limit (" +
                    std::to_string(limits.maxBytes) + " bytes): " +
                    path);
            frame->owned.append(chunk, got);
        }
        frame->data = reinterpret_cast<const uint8_t *>(frame->owned.data());
        frame->size = frame->owned.size();
    }
    return load(std::move(frame), out, limits);
}

void
MtfReader::rewind()
{
    cur_ = Cursor{};
}

MtfReader::Cursor
MtfReader::seek(uint64_t base) const
{
    // The last block starting at or before base (block 0 starts at 0).
    const std::vector<Block> &blocks = frame_->blocks;
    auto it = std::upper_bound(
        blocks.begin(), blocks.end(), base,
        [](uint64_t uop, const Block &b) { return uop < b.firstUop; });
    const size_t i = static_cast<size_t>(it - blocks.begin()) - 1;
    Cursor c;
    c.block = i;
    c.pos = static_cast<size_t>(blocks[i].offset);
    c.uop = blocks[i].firstUop;
    return c;
}

size_t
MtfReader::decodeAt(Cursor &c, MicroOp *out, size_t n) const
{
    const uint8_t *d = frame_ ? frame_->data : nullptr;
    size_t done = 0;
    while (done < n && c.uop < info_.uopCount) {
        const Block &b = frame_->blocks[c.block];
        const uint64_t blockEnd = b.firstUop + b.uops;
        if (c.uop == blockEnd) {
            // The next block starts with fresh predictors.
            c = Cursor{c.block + 1,
                       static_cast<size_t>(frame_->blocks[c.block + 1].offset),
                       c.uop, 0, 0};
            continue;
        }
        const size_t take =
            static_cast<size_t>(std::min<uint64_t>(n - done, blockEnd - c.uop));
        const uint8_t *p = d + c.pos;
        p = out ? decodeRecords<true>(p, c.pc, c.addr, out + done, take)
                : decodeRecords<false>(p, c.pc, c.addr, nullptr, take);
        c.pos = static_cast<size_t>(p - d);
        c.uop += take;
        done += take;
    }
    return done;
}

size_t
MtfReader::decode(MicroOp *out, size_t maxUops)
{
    return decodeAt(cur_, out, maxUops);
}

size_t
MtfReader::read(uint64_t base, MicroOp *out, size_t n) const
{
    if (base >= info_.uopCount || n == 0)
        return 0;
    Cursor c = seek(base);
    decodeAt(c, nullptr, static_cast<size_t>(base - c.uop));
    return decodeAt(c, out, n);
}

// ---------------------------------------------------------------------------
// TraceSource adapter + materialization
// ---------------------------------------------------------------------------

Status
MtfTraceSource::open(const std::string &path,
                     std::unique_ptr<MtfTraceSource> &out,
                     const MtfLimits &limits)
{
    MtfReader reader;
    Status st = MtfReader::open(path, reader, limits);
    if (!st.isOk())
        return st;
    out = std::make_unique<MtfTraceSource>(std::move(reader));
    return Status::ok();
}

TraceSegment
MtfTraceSource::next(size_t maxUops)
{
    // Size to what is left, not to the request: a request past the end
    // of the stream would otherwise value-initialize and keep resident
    // a buffer larger than the whole file.
    buf_.resize(static_cast<size_t>(
        std::min<uint64_t>(maxUops, reader_.uopCount() - base_)));
    size_t n = reader_.decode(buf_.data(), buf_.size());
    TraceSegment seg{buf_.data(), n, base_};
    base_ += n;
    return seg;
}

std::optional<TraceSegment>
MtfTraceSource::readAt(uint64_t base, size_t n,
                       std::vector<MicroOp> &buf) const
{
    // Without an index (v1) every read would decode from the first
    // record: such a file only streams.
    if (reader_.info().version == kMtfV1)
        return std::nullopt;
    const uint64_t total = reader_.uopCount();
    buf.resize(base < total
                   ? static_cast<size_t>(std::min<uint64_t>(n, total - base))
                   : 0);
    return TraceSegment{buf.data(), reader_.read(base, buf.data(), buf.size()),
                        base};
}

void
MtfTraceSource::reset()
{
    reader_.rewind();
    base_ = 0;
}

Status
loadMtfTrace(const std::string &path, Trace &out, const MtfLimits &limits)
{
    MtfReader reader;
    Status st = MtfReader::open(path, reader, limits);
    if (!st.isOk())
        return st;
    std::vector<MicroOp> uops(reader.uopCount());
    size_t got = reader.decode(uops.data(), uops.size());
    if (got != uops.size())
        return internalError("mtf decode produced " +
                             std::to_string(got) + " of " +
                             std::to_string(uops.size()) + " uops");
    out = Trace(std::move(uops));
    return Status::ok();
}

} // namespace mipp
