#include "profiler/profile_io.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/failpoint.hh"
#include "util/hash.hh"

namespace mipp {

namespace {

constexpr const char *kMagic = "mipp-profile";
constexpr int kVersion = 2;

void
writeHistogram(std::ostream &os, const char *tag, const LogHistogram &h)
{
    // Sparse: only non-empty bins.
    size_t nonEmpty = 0;
    for (size_t b = 0; b < h.numBins(); ++b)
        nonEmpty += h.binCount(b) > 0;
    os << tag << ' ' << nonEmpty << ' ' << h.infiniteCount() << '\n';
    for (size_t b = 0; b < h.numBins(); ++b) {
        if (h.binCount(b) > 0)
            os << b << ' ' << h.binCount(b) << '\n';
    }
}

/**
 * Checked token/field reader over the in-memory payload. Every
 * extraction failure, bound violation or token mismatch latches a
 * Status; subsequent reads become no-ops so the parse unwinds without
 * touching further state.
 */
struct In {
    std::istringstream is;
    const ProfileLimits &limits;
    size_t payloadSize;
    Status st;

    In(const std::string &payload, const ProfileLimits &limits)
        : is(payload), limits(limits), payloadSize(payload.size())
    {
    }

    bool ok() const { return st.isOk(); }

    bool
    fail(const std::string &msg)
    {
        if (st.isOk())
            st = corrupt("profile parse: " + msg);
        return false;
    }

    template <typename T>
    bool
    get(T &v)
    {
        if (!ok())
            return false;
        if (!(is >> v))
            return fail("truncated or malformed field");
        return true;
    }

    bool
    expect(const char *token)
    {
        if (!ok())
            return false;
        std::string t;
        if (!(is >> t))
            return fail("truncated input, expected '" +
                        std::string(token) + "'");
        if (t != token)
            return fail("expected '" + std::string(token) + "', got '" +
                        t + "'");
        return true;
    }

    /** Bytes not yet consumed — upper-bounds any plausible item count. */
    size_t
    remaining()
    {
        auto pos = is.tellg();
        if (pos < 0)
            return 0;
        size_t p = static_cast<size_t>(pos);
        return p >= payloadSize ? 0 : payloadSize - p;
    }

    /**
     * Read a count that drives an allocation: capped by @p cap and by
     * the bytes actually left (every serialized item takes >= 2 bytes,
     * so a count beyond remaining()/2+1 cannot be backed by data —
     * rejected before resize()/reserve() can OOM).
     */
    bool
    getCount(size_t &v, size_t cap, const char *what)
    {
        if (!get(v))
            return false;
        if (v > cap)
            return fail(std::string(what) + " count " +
                        std::to_string(v) + " exceeds limit " +
                        std::to_string(cap));
        if (v > remaining() / 2 + 1)
            return fail(std::string(what) + " count " +
                        std::to_string(v) +
                        " not backed by remaining input");
        return true;
    }
};

LogHistogram
readHistogram(In &in, const char *tag)
{
    LogHistogram h;
    size_t nonEmpty = 0;
    uint64_t infinite = 0;
    if (!in.expect(tag) ||
        !in.getCount(nonEmpty, in.limits.maxHistogramBin + 1,
                     "histogram bin") ||
        !in.get(infinite))
        return h;
    for (size_t i = 0; i < nonEmpty; ++i) {
        size_t bin = 0;
        uint64_t count = 0;
        if (!in.get(bin) || !in.get(count))
            return h;
        if (bin > in.limits.maxHistogramBin) {
            in.fail("histogram bin index " + std::to_string(bin) +
                    " exceeds limit");
            return h;
        }
        // binLower(bin) maps back into the same bin, reproducing it.
        h.add(LogHistogram::binLower(bin), count);
    }
    h.addInfinite(infinite);
    return h;
}

Status
parsePayload(const std::string &payload, Profile &p,
             const ProfileLimits &limits)
{
    In in(payload, limits);

    size_t nameLen = 0;
    if (!in.expect("name") ||
        !in.getCount(nameLen, limits.maxNameLen, "name length"))
        return in.st;
    in.is.get(); // the separating space
    p.name.resize(nameLen);
    in.is.read(p.name.data(), static_cast<std::streamsize>(nameLen));
    if (!in.is)
        return corrupt("profile parse: truncated name");

    if (!in.expect("totals") || !in.get(p.totalUops) ||
        !in.get(p.profiledUops) || !in.get(p.profiledInsts))
        return in.st;
    if (!in.expect("sampling") || !in.get(p.sampling.microTraceSize) ||
        !in.get(p.sampling.windowSize))
        return in.st;
    if (p.sampling.microTraceSize == 0 || p.sampling.windowSize == 0)
        return corrupt("profile parse: zero sampling geometry");
    if (!in.expect("operands") || !in.get(p.srcOperands) ||
        !in.get(p.dstOperands))
        return in.st;

    if (!in.expect("uopcounts"))
        return in.st;
    for (auto &c : p.uopCounts)
        if (!in.get(c))
            return in.st;

    size_t nRob = 0;
    if (!in.expect("robsizes") ||
        !in.getCount(nRob, limits.maxRobSizes, "robsizes"))
        return in.st;
    if (nRob == 0)
        return corrupt("profile parse: no ROB sizes");
    p.robSizes.resize(nRob);
    for (size_t i = 0; i < nRob; ++i) {
        if (!in.get(p.robSizes[i]))
            return in.st;
        // The interpolation code binary-searches this axis; a
        // non-monotone axis would index out of pattern, not out of
        // bounds, so reject it here.
        if (p.robSizes[i] == 0 ||
            (i > 0 && p.robSizes[i] <= p.robSizes[i - 1]))
            return corrupt(
                "profile parse: robsizes not strictly increasing");
    }

    if (!in.expect("chains"))
        return in.st;
    p.chains = DependenceChains(p.robSizes);
    for (size_t i = 0; i < nRob; ++i) {
        DependenceChains::Row r{};
        if (!in.get(r.apSum) || !in.get(r.abpSum) || !in.get(r.cpSum) ||
            !in.get(r.weight) || !in.get(r.abpWeight))
            return in.st;
        p.chains.importRow(i, r);
    }

    if (!in.expect("loaddeps"))
        return in.st;
    p.loadDeps.resize(nRob);
    for (size_t i = 0; i < nRob; ++i) {
        for (int l = 0; l < LoadDepProfile::kMaxDepth; ++l)
            if (!in.get(p.loadDeps.histo[i][l]))
                return in.st;
        if (!in.get(p.loadDeps.loads[i]) ||
            !in.get(p.loadDeps.windows[i]) ||
            !in.get(p.loadDeps.independentLoads[i]))
            return in.st;
    }

    if (!in.expect("branch") || !in.get(p.branch.branches) ||
        !in.get(p.branch.entropySum) || !in.get(p.branch.staticBranches) ||
        !in.get(p.branch.historyBits))
        return in.st;

    if (!in.expect("cold"))
        return in.st;
    p.cold.resize(nRob);
    if (!in.get(p.cold.coldLoadMisses))
        return in.st;
    for (size_t i = 0; i < nRob; ++i)
        if (!in.get(p.cold.windowsWithCold[i]) ||
            !in.get(p.cold.coldInWindows[i]) ||
            !in.get(p.cold.totalWindows[i]))
            return in.st;

    p.reuseLoads = readHistogram(in, "reuse_loads");
    p.reuseStores = readHistogram(in, "reuse_stores");
    p.reuseAll = readHistogram(in, "reuse_all");
    p.reuseInsts = readHistogram(in, "reuse_insts");
    if (!in.ok())
        return in.st;

    size_t nOps = 0;
    if (!in.expect("memops") ||
        !in.getCount(nOps, limits.maxMemOps, "memops"))
        return in.st;
    p.memOps.resize(nOps);
    for (auto &op : p.memOps) {
        int isStore = 0;
        if (!in.get(op.pc) || !in.get(isStore) || !in.get(op.count) ||
            !in.get(op.firstPosSum) || !in.get(op.gapSum) ||
            !in.get(op.gapCount) || !in.get(op.microTraces) ||
            !in.get(op.loadDepthSum) || !in.get(op.loadDepthCount) ||
            !in.get(op.selfDependent))
            return in.st;
        op.isStore = isStore != 0;
        op.reuse = readHistogram(in, "op_reuse");
        size_t nStrides = 0;
        if (!in.expect("strides") ||
            !in.getCount(nStrides, limits.maxStridesPerOp, "strides"))
            return in.st;
        op.strides.reserve(nStrides);
        for (size_t s = 0; s < nStrides; ++s) {
            int64_t stride = 0;
            uint64_t n = 0;
            if (!in.get(stride) || !in.get(n))
                return in.st;
            op.strides.emplace_back(stride, n);
        }
        // Written sorted; re-sort in case the file was assembled by hand.
        std::sort(op.strides.begin(), op.strides.end());
    }

    size_t nWin = 0;
    if (!in.expect("windows") ||
        !in.getCount(nWin, limits.maxWindows, "windows"))
        return in.st;
    p.windows.resize(nWin);
    for (auto &w : p.windows) {
        if (!in.expect("w"))
            return in.st;
        for (auto &c : w.uopCounts)
            if (!in.get(c))
                return in.st;
        if (!in.get(w.insts) || !in.get(w.branches) ||
            !in.get(w.branchEntropy) || !in.get(w.coldMisses))
            return in.st;
        if (!in.expect("c"))
            return in.st;
        w.ap.resize(nRob);
        w.abp.resize(nRob);
        w.cp.resize(nRob);
        for (size_t i = 0; i < nRob; ++i)
            if (!in.get(w.ap[i]) || !in.get(w.abp[i]) ||
                !in.get(w.cp[i]))
                return in.st;
        size_t nMem = 0;
        if (!in.expect("m") ||
            !in.getCount(nMem, limits.maxMemOps, "window memcounts"))
            return in.st;
        w.memCounts.resize(nMem);
        for (auto &[idx, n] : w.memCounts) {
            if (!in.get(idx) || !in.get(n))
                return in.st;
            // Cross-reference into the memop table: an out-of-range
            // index would be a heap overread in every model that walks
            // window memCounts.
            if (idx >= nOps)
                return corrupt("profile parse: window memcount index " +
                               std::to_string(idx) + " out of range");
        }
    }
    if (!in.expect("end"))
        return in.st;
    return Status::ok();
}

/** Bounded slurp: reads at most limits.maxBytes + 1 so oversized input
 *  is detected without buffering it. */
Status
slurp(std::istream &is, size_t maxBytes, std::string &out)
{
    out.clear();
    char buf[1 << 16];
    while (is) {
        is.read(buf, sizeof buf);
        size_t got = static_cast<size_t>(is.gcount());
        if (got == 0)
            break;
        if (out.size() + got > maxBytes)
            return resourceExhausted(
                "profile larger than the configured limit (" +
                std::to_string(maxBytes) + " bytes)");
        out.append(buf, got);
    }
    return Status::ok();
}

} // namespace

void
writeProfile(const Profile &p, std::ostream &os)
{
    // Payload is staged in memory so the trailing checksum can cover it.
    std::ostringstream body;
    body.precision(17);
    // Names may contain spaces in principle; store length-prefixed.
    body << "name " << p.name.size() << ' ' << p.name << '\n';
    body << "totals " << p.totalUops << ' ' << p.profiledUops << ' '
         << p.profiledInsts << '\n';
    body << "sampling " << p.sampling.microTraceSize << ' '
         << p.sampling.windowSize << '\n';
    body << "operands " << p.srcOperands << ' ' << p.dstOperands << '\n';

    body << "uopcounts";
    for (auto c : p.uopCounts)
        body << ' ' << c;
    body << '\n';

    body << "robsizes " << p.robSizes.size();
    for (auto r : p.robSizes)
        body << ' ' << r;
    body << '\n';

    body << "chains\n";
    for (size_t i = 0; i < p.robSizes.size(); ++i) {
        auto r = p.chains.exportRow(i);
        body << r.apSum << ' ' << r.abpSum << ' ' << r.cpSum << ' '
             << r.weight << ' ' << r.abpWeight << '\n';
    }

    body << "loaddeps\n";
    for (size_t i = 0; i < p.robSizes.size(); ++i) {
        for (int l = 0; l < LoadDepProfile::kMaxDepth; ++l)
            body << p.loadDeps.histo[i][l] << ' ';
        body << p.loadDeps.loads[i] << ' ' << p.loadDeps.windows[i] << ' '
             << p.loadDeps.independentLoads[i] << '\n';
    }

    body << "branch " << p.branch.branches << ' ' << p.branch.entropySum
         << ' ' << p.branch.staticBranches << ' ' << p.branch.historyBits
         << '\n';

    body << "cold " << p.cold.coldLoadMisses << '\n';
    for (size_t i = 0; i < p.robSizes.size(); ++i)
        body << p.cold.windowsWithCold[i] << ' ' << p.cold.coldInWindows[i]
             << ' ' << p.cold.totalWindows[i] << '\n';

    writeHistogram(body, "reuse_loads", p.reuseLoads);
    writeHistogram(body, "reuse_stores", p.reuseStores);
    writeHistogram(body, "reuse_all", p.reuseAll);
    writeHistogram(body, "reuse_insts", p.reuseInsts);

    body << "memops " << p.memOps.size() << '\n';
    for (const auto &op : p.memOps) {
        body << op.pc << ' ' << (op.isStore ? 1 : 0) << ' ' << op.count
             << ' ' << op.firstPosSum << ' ' << op.gapSum << ' '
             << op.gapCount << ' ' << op.microTraces << ' '
             << op.loadDepthSum << ' ' << op.loadDepthCount << ' '
             << op.selfDependent << '\n';
        writeHistogram(body, "op_reuse", op.reuse);
        body << "strides " << op.strides.size() << '\n';
        for (const auto &[stride, n] : op.strides)
            body << stride << ' ' << n << '\n';
    }

    body << "windows " << p.windows.size() << '\n';
    for (const auto &w : p.windows) {
        body << "w";
        for (auto c : w.uopCounts)
            body << ' ' << c;
        body << ' ' << w.insts << ' ' << w.branches << ' '
             << w.branchEntropy << ' ' << w.coldMisses << '\n';
        body << "c";
        for (size_t i = 0; i < p.robSizes.size(); ++i)
            body << ' ' << w.ap[i] << ' ' << w.abp[i] << ' ' << w.cp[i];
        body << '\n';
        body << "m " << w.memCounts.size();
        for (const auto &[idx, n] : w.memCounts)
            body << ' ' << idx << ' ' << n;
        body << '\n';
    }
    body << "end\n";

    std::string payload = body.str();
    char sum[32];
    std::snprintf(sum, sizeof sum, "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a64(payload.data(), payload.size())));
    os << kMagic << ' ' << kVersion << '\n' << payload << "checksum "
       << sum << '\n';
}

Status
parseProfile(const std::string &data, Profile &out,
             const ProfileLimits &limits)
{
    if (data.size() > limits.maxBytes)
        return resourceExhausted(
            "profile larger than the configured limit");

    // Frame: magic+version line, payload, trailing checksum line.
    size_t firstNl = data.find('\n');
    if (firstNl == std::string::npos)
        return corrupt("not a mipp profile (no header line)");
    {
        std::istringstream hdr(data.substr(0, firstNl));
        std::string magic;
        int version = 0;
        if (!(hdr >> magic) || magic != kMagic)
            return corrupt("not a mipp profile");
        if (!(hdr >> version))
            return corrupt("profile header has no version");
        if (version != kVersion)
            return invalidArgument("unsupported profile version " +
                                   std::to_string(version) +
                                   " (expected " +
                                   std::to_string(kVersion) + ")");
    }

    size_t sumPos = data.rfind("\nchecksum ");
    if (sumPos == std::string::npos || sumPos < firstNl)
        return corrupt("profile has no checksum line (truncated?)");
    const char *payload = data.data() + firstNl + 1;
    size_t payloadLen = sumPos + 1 - (firstNl + 1);

    uint64_t want = 0;
    {
        std::istringstream tail(data.substr(sumPos + 1));
        std::string tok, hex;
        if (!(tail >> tok >> hex) || tok != "checksum" ||
            hex.size() != 16)
            return corrupt("malformed checksum line");
        char *end = nullptr;
        want = std::strtoull(hex.c_str(), &end, 16);
        if (end != hex.c_str() + hex.size())
            return corrupt("malformed checksum value");
        std::string rest;
        if (tail >> rest)
            return corrupt("trailing garbage after checksum");
    }
    if (fnv1a64(payload, payloadLen) != want ||
        MIPP_FAILPOINT("profile_io.corrupt"))
        return corrupt("checksum mismatch (bit rot or truncation)");

    return parsePayload(std::string(payload, payloadLen), out, limits);
}

Status
readProfileChecked(std::istream &is, Profile &out,
                   const ProfileLimits &limits)
{
    std::string data;
    Status st = slurp(is, limits.maxBytes, data);
    if (!st.isOk())
        return st;
    return parseProfile(data, out, limits);
}

Status
loadProfileChecked(const std::string &path, Profile &out,
                   const ProfileLimits &limits)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return invalidArgument("cannot open profile: " + path);
    return readProfileChecked(is, out, limits);
}

Profile
readProfile(std::istream &is)
{
    Profile p;
    throwIfError(readProfileChecked(is, p));
    return p;
}

bool
saveProfile(const Profile &profile, const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        return false;
    writeProfile(profile, os);
    return static_cast<bool>(os);
}

Profile
loadProfile(const std::string &path)
{
    Profile p;
    throwIfError(loadProfileChecked(path, p));
    return p;
}

} // namespace mipp
