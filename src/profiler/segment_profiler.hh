/**
 * @file
 * Per-segment profiling state with explicit carry-in/carry-out handling.
 *
 * The profiler's single-pass state splits cleanly into two kinds:
 * window-local statistics (chain walks, per-window mixes) that only
 * depend on the uops of one sampled micro-trace, and continuous state
 * (last-touch timestamps for reuse distances, the branch global-history
 * register, per-op stride/spacing run state) that crosses segment
 * boundaries. A SegmentProfiler profiles one contiguous, window-aligned
 * range of the uop stream in one of two roles:
 *
 * - Role::Head is the streaming accumulator: it profiles its uops
 *   exactly like the classic sequential profiler (every observation
 *   resolves immediately), absorbs finished Carry segments in stream
 *   order, and finalizes into a Profile. Feeding one Head the whole
 *   trace IS the sequential profiler.
 *
 * - Role::Carry profiles a segment whose prefix state is unknown. Every
 *   observation that depends on upstream state is deferred into an
 *   explicit boundary record: first-local-touch reuse distances, the
 *   first max(historyBits, windowHistoryBits) branches (their global
 *   history is incomplete), the boundary-crossing stride/gap of each
 *   static op, and the order-sensitive dependence-chain float sums
 *   (kept as per-window samples). absorb() resolves every deferral
 *   against the true carried-in state and replays order-sensitive
 *   accumulations in stream order.
 *
 * The result is *bit-identical* to the sequential pass for any
 * window-aligned segmentation: every deferred observation resolves to
 * exactly the value the sequential profiler would have computed, and
 * every floating-point accumulation happens in the sequential order.
 * Segments must start at a multiple of the sampling window size so
 * micro-traces never straddle a boundary (profileSourceParallel enforces
 * this; unsampled configs fall back to the sequential path).
 *
 * Data-line reuse, the costliest deferral, is resolved off the serial
 * absorb. The last-touch map is split into kLineShards shard maps by
 * the top bits of the line's hash, in every role. seal() groups a Carry
 * segment's first local touches by shard, and a Head's resolveLines()
 * resolves one (segment, shard) pair: it probes and advances only that
 * shard's map and writes each line's reuse bin, or "cold", into the
 * segment. A line's distance depends only on its own shard's history,
 * so the shards are independent: each takes the segments in stream
 * order, and calls for distinct shards may run concurrently, also with
 * absorb() of an earlier segment. Once every shard is resolved, the
 * segment's foldLines() folds the bins in first-touch order into its
 * own per-op state and summarizes its cold-load burstiness, still off
 * the absorb. absorb() resolves and folds inline whatever a driver
 * left undone, then merges with no map probes.
 */

#ifndef MIPP_PROFILER_SEGMENT_PROFILER_HH
#define MIPP_PROFILER_SEGMENT_PROFILER_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "profiler/profile.hh"
#include "profiler/profiler.hh"
#include "util/flat_map.hh"

namespace mipp {

class SegmentProfiler
{
  public:
    enum class Role { Head, Carry };

    /** Taken/not-taken counts for one (branch, history) pair. */
    struct TakenCounts {
        uint32_t taken = 0;
        uint32_t total = 0;
    };

    /** Shards of the data-line last-touch map. */
    static constexpr size_t kLineShardBits = 4;
    static constexpr size_t kLineShards = size_t{1} << kLineShardBits;

    /**
     * @param baseUop absolute index of the segment's first uop; must be
     *        a multiple of the sampling window size (0 for Head).
     */
    explicit SegmentProfiler(const ProfilerConfig &cfg,
                             Role role = Role::Head, uint64_t baseUop = 0);

    /**
     * Profile the next @p n uops of this segment. Every feed except the
     * last must cover a whole number of sampling windows (so the next
     * feed starts window-aligned); unsampled configs allow one feed
     * only, because the whole stream forms a single micro-trace whose
     * span must stay contiguous in one buffer.
     */
    void feed(const MicroOp *ops, size_t n);

    /**
     * Carry only: mark the segment finished. Runs the per-segment part
     * of the merge preparation on the calling thread: groups the
     * pending first touches of data lines by shard, each joined with
     * the segment's final last-touch index, so resolving a line takes
     * one probe of its shard map. Then frees the segment-local lookup
     * tables the merge no longer needs; feeding a sealed segment
     * throws. Idempotent; absorb() seals lazily if the driver did not.
     */
    void seal();

    /**
     * Head only: resolve the sealed Carry segment @p seg's first
     * touches of data lines in shard @p shard against this profiler's
     * last-touch map, and advance that shard past @p seg. Each shard
     * takes the segments in stream order: @p seg must start where the
     * shard's previous segment (or the head's own feed) ended. Calls
     * for distinct shards are safe concurrently with each other and
     * with absorb() of an earlier segment.
     */
    void resolveLines(SegmentProfiler &seg, size_t shard);

    /**
     * Carry only, once resolveLines() has taken every shard through
     * this segment: fold the resolved first touches into the segment's
     * own per-op reuse and cold-load state, on the calling thread, and
     * free the pending-line records. Idempotent; absorb() folds if the
     * driver did not.
     */
    void foldLines();

    /**
     * Head only: fold a finished Carry segment into this profiler.
     * Segments must be absorbed in stream order — @p seg's baseUop must
     * equal this profiler's current position(). Shards that
     * resolveLines() has not taken @p seg through are resolved here,
     * and the lines folded if foldLines() has not run.
     */
    void absorb(SegmentProfiler &&seg);

    /** Head only: finalize the derived statistics into a Profile. */
    Profile finalize() &&;

    uint64_t baseUop() const { return base_; }
    /** Absolute uop position: base + fed uops (+ absorbed segments). */
    uint64_t position() const { return pos_; }

  private:
    template <bool InMt>
    void observeRange(const MicroOp *buf, uint64_t begin, uint64_t end);
    void observeMemory(const MicroOp &op, uint64_t uopIndex, bool inMt);
    void observeBranch(const MicroOp &op, bool inMt);
    void addGlobalBranch(uint64_t pc, bool taken, uint64_t hist);
    TakenCounts *branchTableFor(uint64_t pc);
    uint32_t newBranchTable(uint64_t pc);
    void finishMicroTrace();
    void walkRobSize(const MicroOp *mt, size_t mtLen, size_t i,
                     size_t median, WindowProfile &wp);
    uint32_t memOpIndex(uint64_t pc, bool isStore);
    bool findMemOp(uint64_t pc, uint32_t &idx) const;
    uint32_t createMemOp(uint64_t pc, bool isStore);
    void addTypeAdjustBin(bool accessIsStore, bool nominalIsStore,
                          size_t bin);
    void addTypeAdjustInfinite(bool accessIsStore, bool nominalIsStore);

    /** Config by value: Carry profilers run on pool workers and must
     *  not reference a caller frame. */
    ProfilerConfig cfg_;
    Profile profile_;
    bool carry_ = false;
    uint64_t base_ = 0;
    uint64_t pos_ = 0;

    // --- current feed span ------------------------------------------------
    const MicroOp *buf_ = nullptr; ///< buffer of the feed in progress
    uint64_t bufBase_ = 0;         ///< absolute index of buf_[0]
    uint64_t feedEnd_ = 0;         ///< absolute end of the current feed
    bool fedAny_ = false;

    // --- continuous (whole-segment) state ---------------------------------
    /** Shard of the data-line last-touch map. Aligned so resolveLines()
     *  calls on distinct shards share no cache line. */
    struct alignas(64) LineShard {
        FlatMap<uint64_t> lastTouch; ///< line -> mem idx
        /** Head: stream position this shard is resolved up to, and the
         *  memory index there. */
        uint64_t pos = 0;
        uint64_t memIdx = 0;
    };
    static size_t
    lineShard(uint64_t line)
    {
        return static_cast<size_t>(FlatMap<uint64_t>::hash(line) >>
                                   (64 - kLineShardBits));
    }
    std::array<LineShard, kLineShards> lines_;
    uint64_t memIndex_ = 0;
    FlatMap<uint64_t> lastILine_;  // iline -> idx
    uint64_t iLineIndex_ = 0;
    uint64_t prevILine_ = ~0ULL;
    /**
     * Global branch statistics as pc -> dense history table: one
     * direct-indexed (or, off-window, hashed) pc lookup plus one
     * direct-indexed store per branch, instead of hashing the whole
     * (pc, history) pair into one large map. Direct slots hold
     * table+1 (0 = empty), same windowing scheme as memOpDirect_.
     */
    std::vector<uint32_t> branchDirect_;
    uint64_t branchPcBase_ = ~0ULL;
    FlatMap<uint32_t> branchPc_; // fallback: pc -> table index
    std::vector<TakenCounts> branchTables_; // tables * (histMask_ + 1)
    std::vector<uint64_t> branchTablePc_;    // table index -> pc
    /** Long histories (> 12 bits) skip the dense tables and hash the
     *  whole (pc, history) pair, like the per-micro-trace stats. */
    bool denseBranchTables_ = true;
    FlatMap<TakenCounts> sparseBranchStats_;
    uint64_t ghist_ = 0;
    /** Hoisted (1 << historyBits) - 1 masks for the branch-key hot path. */
    uint64_t histMask_ = 0;
    uint64_t winHistMask_ = 0;
    /**
     * pc -> memOps index. Program counters cluster in a small static
     * code footprint, so a direct-indexed table over a 64 KiB pc window
     * (anchored at the first memory pc seen) resolves essentially every
     * lookup with one load; pcs outside the window fall back to the
     * hash map. Slot value is idx+1 (0 = empty).
     */
    static constexpr size_t kPcWindow = 1u << 16;
    std::vector<uint32_t> memOpDirect_;
    uint64_t memPcBase_ = ~0ULL;
    FlatMap<uint32_t> memOpIndex_; // fallback for out-of-window pcs
    /**
     * Per-static-op running state, kept separate from StaticMemProfile
     * so each memory access touches one compact struct (hot fields in
     * the leading cache line) instead of the profile's large output
     * record. Materialized into profile_.memOps at finalize.
     */
    struct OpRunning {
        static constexpr size_t kInlineStrides = 4;
        static constexpr size_t kMaxStrides = 64;

        // -- first cache line: touched on every access ------------------
        uint64_t lastAddr = 0;
        uint64_t lastUopIdx = 0;
        uint64_t count = 0;
        uint64_t gapSum = 0;
        uint64_t gapCount = 0;
        uint64_t selfDependent = 0;
        bool seen = false;
        bool isStore = false; // nominal type (first occurrence)
        uint8_t nInline = 0;

        // -- stride counts: inline entries cover the common stride
        //    classes (thesis Fig 4.7: most static loads have <= 4
        //    dominant strides); the flat map takes the overflow up to
        //    the 64-distinct cap.
        std::array<uint64_t, kInlineStrides> strideKey{};
        std::array<uint64_t, kInlineStrides> strideCount{};
        FlatMap<uint64_t> strideOverflow;
        /** Carry only: overflow strides in first-arrival order, so the
         *  head can replay the global 64-distinct admission rule. */
        std::vector<uint64_t> overflowOrder;

        /** Reuse distances of this op's accesses (combined stream). */
        LogHistogram reuse;

        bool
        strideSetFull() const
        {
            return nInline == kInlineStrides &&
                   kInlineStrides + strideOverflow.size() >= kMaxStrides;
        }

        /** Count of @p stride (0 if it was never admitted). */
        uint64_t
        strideCountOf(uint64_t stride) const
        {
            for (size_t k = 0; k < nInline; ++k)
                if (strideKey[k] == stride)
                    return strideCount[k];
            const uint64_t *c = strideOverflow.find(stride);
            return c ? *c : 0;
        }

        void
        addStride(uint64_t stride)
        {
            for (size_t k = 0; k < nInline; ++k) {
                if (strideKey[k] == stride) {
                    strideCount[k]++;
                    return;
                }
            }
            if (nInline < kInlineStrides) {
                strideKey[nInline] = stride;
                strideCount[nInline] = 1;
                nInline++;
                return;
            }
            if (kInlineStrides + strideOverflow.size() < kMaxStrides) {
                if (strideOverflow.empty())
                    strideOverflow.reserve(kMaxStrides);
                strideOverflow[stride]++;
            } else if (uint64_t *c = strideOverflow.find(stride)) {
                (*c)++;
            }
        }

        /** Carry: no admission cap (the global cap is replayed at
         *  absorb), arrival order retained. */
        void
        addStrideUncapped(uint64_t stride)
        {
            for (size_t k = 0; k < nInline; ++k) {
                if (strideKey[k] == stride) {
                    strideCount[k]++;
                    return;
                }
            }
            if (nInline < kInlineStrides) {
                strideKey[nInline] = stride;
                strideCount[nInline] = 1;
                nInline++;
                return;
            }
            if (strideOverflow.empty())
                strideOverflow.reserve(kMaxStrides);
            auto [c, fresh] = strideOverflow.tryEmplace(stride, 0);
            if (fresh)
                overflowOrder.push_back(stride);
            c += 1;
        }

        /**
         * Head, during absorb: @p n occurrences of @p stride arriving
         * at this point of the stream. Admission matches the sequential
         * per-occurrence rule exactly: if the first occurrence is
         * admitted (inline, or under the 64-distinct cap) all @p n
         * count; a stride first seen at a full cap never enters, so
         * none of its occurrences would have counted sequentially
         * either.
         */
        void
        addStrideN(uint64_t stride, uint64_t n)
        {
            for (size_t k = 0; k < nInline; ++k) {
                if (strideKey[k] == stride) {
                    strideCount[k] += n;
                    return;
                }
            }
            if (nInline < kInlineStrides) {
                strideKey[nInline] = stride;
                strideCount[nInline] = n;
                nInline++;
                return;
            }
            if (kInlineStrides + strideOverflow.size() < kMaxStrides) {
                if (strideOverflow.empty())
                    strideOverflow.reserve(kMaxStrides);
                strideOverflow[stride] += n;
            } else if (uint64_t *c = strideOverflow.find(stride)) {
                *c += n;
            }
        }

        /**
         * Head, during absorb: the Carry op @p lr's local strides
         * (distinct; arrival order is inline, then overflowOrder)
         * arriving at this point of the stream. They replay through
         * addStrideN only while the set has room. A full set is frozen:
         * from then on a stride counts iff it is a member, so each
         * member gains its local count, unless the replayed prefix
         * already added it. O(kMaxStrides) lookups instead of one
         * addStrideN per local stride.
         */
        void
        absorbStrides(const OpRunning &lr)
        {
            // Every replayed stride is admitted (the set had room), and
            // the strides are distinct: at most kMaxStrides of them.
            std::array<uint64_t, kMaxStrides> replayed;
            size_t nReplayed = 0;
            const size_t total = lr.nInline + lr.overflowOrder.size();
            size_t k = 0;
            for (; k < total && !strideSetFull(); ++k) {
                uint64_t s = k < lr.nInline ? lr.strideKey[k]
                                            : lr.overflowOrder[k - lr.nInline];
                addStrideN(s, k < lr.nInline ? lr.strideCount[k]
                                             : *lr.strideOverflow.find(s));
                replayed[nReplayed++] = s;
            }
            if (k == total)
                return;
            auto addLocal = [&](uint64_t s, uint64_t &count) {
                if (std::find(replayed.begin(),
                              replayed.begin() + nReplayed,
                              s) == replayed.begin() + nReplayed)
                    count += lr.strideCountOf(s);
            };
            for (size_t i = 0; i < nInline; ++i)
                addLocal(strideKey[i], strideCount[i]);
            strideOverflow.forEach(addLocal);
        }
    };
    std::vector<OpRunning> opRunning_;
    /** Cold loads not yet in coldWindows_, ascending uop indices. */
    std::vector<uint64_t> coldLoadUopIdx_;
    /** Cold-load burstiness (thesis §4.4) for one ROB size over the
     *  cold loads summarized so far: how many ROB-sized windows of the
     *  stream hold one, and the first and last of those windows. A
     *  segment summarizes its own cold loads on the worker; summaries
     *  join in stream order, a window split by the boundary counted
     *  once. */
    struct ColdWindows {
        uint64_t windows = 0;
        uint64_t first = 0; ///< window indices; set when windows > 0
        uint64_t last = 0;
    };
    std::vector<ColdWindows> coldWindows_; ///< per ROB size
    void summarizeColdLoads();
    /** Exact corrections for accesses whose type differs from their
     *  static op's nominal type ([0] loads, [1] stores). */
    struct TypeAdjust {
        LogHistogram add;
        LogHistogram sub;
    };
    std::array<TypeAdjust, 2> typeAdjust_;

    // --- per-micro-trace state --------------------------------------------
    // Micro-traces are contiguous runs of the feed buffer, so instead of
    // copying uops we keep a zero-copy [mtStart_, mtStart_ + mtLen_)
    // absolute-index span into the buffer being fed.
    uint64_t mtStart_ = 0;
    size_t mtLen_ = 0;
    FlatMap<TakenCounts> mtBranchStats_;
    /** Per-micro-trace occurrence counts / first positions, indexed
     *  directly by memOps index (dense small ints — no hashing). The
     *  touched list makes the end-of-micro-trace sweep and reset
     *  proportional to the ops actually seen. */
    std::vector<uint32_t> mtMemCount_;
    std::vector<uint32_t> mtFirstPos_;
    std::vector<uint32_t> mtTouched_;
    uint32_t mtColdMisses_ = 0;

    // --- carry-out boundary state (Role::Carry only) ----------------------
    static constexpr uint32_t kNoWindow = ~0u;
    /** First local touch of a data line: reuse distance unknowable
     *  until the upstream last-touch map arrives. Exactly one entry per
     *  distinct line touched by the segment, in first-touch order. */
    struct PendingLine {
        uint64_t line;
        uint64_t localMemIdx;
        uint64_t uopIndex; ///< absolute, for cold-burstiness windows
        uint32_t op;       ///< local memOps index
        uint32_t window;   ///< local windows index or kNoWindow
        bool isStore;
        uint8_t shard; ///< lineShard(line)
    };
    /** A pending line in its shard's group, built by seal(). Carries
     *  the segment's *last* touch of the line too, so resolveLines()
     *  advances the shard map in the same probe that resolves the first
     *  touch, and the result it writes. */
    struct ShardLine {
        uint64_t line;
        uint64_t firstIdx; ///< local memory index of the first touch
        uint64_t lastIdx;  ///< local memory index of the last touch
        uint32_t bin;      ///< reuse bin of the first touch, or kColdLine
    };
    static constexpr uint32_t kColdLine = ~0u;
    /** First local touch of an instruction line. Entry 0 is the
     *  segment-start access, which is *tentative*: if the previous
     *  segment ends in the same i-line, the sequential pass would see
     *  no transition there at all. */
    struct PendingILine {
        uint64_t iline;
        uint64_t localIdx;
        uint64_t lastLocalIdx = 0; ///< filled by seal()
    };
    struct PendingBranch {
        uint64_t pc;
        bool taken;
    };
    /** A micro-trace whose first branch fell into the pending-history
     *  prefix: its (pc, windowed-history) stats are recomputed at
     *  absorb from the full ordered branch list. */
    struct AffectedWindow {
        uint32_t window;
        uint64_t firstBranchOrdinal;
        std::vector<PendingBranch> branches;
    };
    /** Boundary-crossing per-op state: the first access's stride/gap
     *  joins the previous segment's last access at absorb. */
    struct OpBoundary {
        uint64_t firstAddr = 0;
        uint64_t firstUop = 0;
        bool firstSelfDep = false;
        /** Locally-resolved accesses whose type differs from the LOCAL
         *  nominal type; re-attributed against the global nominal at
         *  absorb (integer bins, so the re-attribution is exact). */
        LogHistogram minorityReuse;
    };
    /** One chain-walk observation, deferred so the head can replay the
     *  order-sensitive double accumulation in stream order. */
    struct ChainSample {
        double ap, abp, cp;
        bool hasBranch;
    };

    std::vector<PendingLine> pendingLines_;
    /** pendingLines_ grouped by shard (first-touch order within each):
     *  shard s holds [shardBegin_[s], shardBegin_[s + 1]). */
    std::vector<ShardLine> shardLines_;
    std::array<uint32_t, kLineShards + 1> shardBegin_{};
    /** Which shards resolveLines() has taken this segment through. */
    std::array<bool, kLineShards> shardResolved_{};
    bool linesFolded_ = false;
    std::vector<PendingILine> pendingILines_;
    std::vector<PendingBranch> pendingBranches_;
    std::vector<AffectedWindow> affectedWindows_;
    std::vector<OpBoundary> opBoundary_; ///< parallel to opRunning_
    std::vector<std::vector<ChainSample>> chainSamples_; ///< per rob idx
    uint64_t branchOrdinal_ = 0;
    /** Carry: number of leading branches whose global history is
     *  incomplete (max(historyBits, windowHistoryBits)); 0 for Head. */
    uint64_t pendingBranchBudget_ = 0;
    bool mtRecordBranches_ = false;
    bool sealed_ = false;
};

} // namespace mipp

#endif // MIPP_PROFILER_SEGMENT_PROFILER_HH
