/**
 * @file
 * Per-workload evaluation cache: the profile-once / evaluate-many contract.
 *
 * The paper's central economics (thesis Ch. 6): a micro-architecture
 * independent profile is collected *once* per workload and then amortized
 * over an entire design-space exploration of thousands to millions of
 * design points. Almost every intermediate of the interval model depends
 * only on the profile plus a *few discrete levels* of the configuration
 * (cache sizes, ROB sizes, the issue-port layout), not on the full design
 * point, so across a sweep it would be recomputed hundreds of times with
 * identical inputs.
 *
 * An EvalContext pins one Profile and is the model's single memo layer.
 * Every evaluation — one-off, sweep chunk, batched streaming pass, served
 * request — runs the same code through the same tables:
 *
 *  - the StatStack pair (combined data stream + instruction stream),
 *    built once per workload instead of once per design point;
 *  - the nine miss ratios of a cache hierarchy, keyed on the packed
 *    (L1D, L2, L3, L1I) line counts, over a per-(histogram, size) table;
 *  - global + per-window dispatch limits (Eq 3.10), hash-bucketed on
 *    their complete input material, assembled from port-scheduling and
 *    FU-rate sub-memos and the per-ROB-size window critical paths;
 *  - MLP estimates (thesis Ch. 4), with the stride model's virtual load
 *    stream factored once per profile in a StrideMlpCache;
 *  - serialized-LLC-hit chain weights per (L2, L3) pair, combined from
 *    per-cache-size op miss-ratio vectors;
 *  - branch resolution times (thesis Alg 3.2) over precomputed chain
 *    interpolation brackets, with a last-key shortcut;
 *  - global critical-path lengths per dependence window;
 *  - per-branch-model global miss rates and per-window miss counts.
 *
 * The context pins no ModelOptions: every key carries the option fields
 * its computation reads (ablation level, MLP mode / MSHRs / prefetcher /
 * cold injection, the branch model's coefficients by value), so one
 * context serves evaluations under any mix of options. Every key
 * captures *all* inputs of its computation and hash buckets only narrow
 * the scan — an exact key compare decides — so a hit returns the exact
 * double a fresh computation produces. `evaluateModel(profile, cfg)` is
 * a one-line compat wrapper over a throwaway context, so it is bitwise
 * identical to evaluating through any warm context.
 * tests/test_eval_kernels.cc holds each memoized kernel to its
 * unmemoized primitive and one context to the options-agnostic
 * contract.
 *
 * Contract and lifetime rules:
 *  - The Profile must outlive the EvalContext and must not be mutated
 *    while the context exists (histograms are referenced, not copied).
 *  - An EvalContext is NOT thread-safe; use one instance per thread.
 *    Sweeps create one per (workload, chunk) on the worker that
 *    processes the chunk, or borrow one from a ModelEvalPool.
 *  - Memory is bounded by the number of *distinct* levels queried, not by
 *    the number of design points evaluated.
 */

#ifndef MIPP_MODEL_EVAL_CACHE_HH
#define MIPP_MODEL_EVAL_CACHE_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "model/interval_model.hh"
#include "statstack/statstack.hh"

namespace mipp {

struct PowerParams;
class StrideMlpCache;

/**
 * Pretrained BranchMissModel interned per predictor kind: one immutable
 * process-wide instance per kind instead of a fresh construction per
 * model evaluation.
 */
const BranchMissModel &internedBranchModel(BranchPredictorKind kind);

/**
 * Average uop latency for a type-fraction mix, with the load latency
 * blended over the L1D hit/miss split (thesis §3.3).
 */
double mixAvgLatency(const std::array<double, kNumUopTypes> &frac,
                     const CoreConfig &cfg, double mrL1);

/** Dispatch limits honoring the base-component ablation level
 *  (thesis Fig 3.7). @p window truncates the dependence-limit window
 *  (0 = cfg.robSize); @p cp must be the chain length at that window.
 *  The unmemoized reference for EvalContext::limits. */
DispatchLimits ablatedLimits(
    const std::array<double, kNumUopTypes> &typeCounts, double cp,
    double avgLat, const CoreConfig &cfg, ModelOptions::BaseLevel level,
    double window = 0);

/** Memoized per-workload evaluation state (see file comment). */
class EvalContext
{
  public:
    /** @param p profile to pin; must outlive the context, unmutated. */
    explicit EvalContext(const Profile &p);
    ~EvalContext();

    EvalContext(const EvalContext &) = delete;
    EvalContext &operator=(const EvalContext &) = delete;

    const Profile &profile() const { return p_; }

    /** StatStack over the combined load+store reuse stream. */
    const StatStack &stats() const { return ss_; }
    /** StatStack over the instruction-fetch reuse stream. */
    const StatStack &instStats() const { return ssI_; }

    /** Memoized stats().missRatio(h, cacheLines). @p h must live inside
     *  the pinned profile (identity is part of the memo key). */
    double dataMissRatio(const LogHistogram &h, double cacheLines);

    /** Memoized instStats().missRatio(h, cacheLines). */
    double instMissRatio(const LogHistogram &h, double cacheLines);

    /** The nine miss ratios of a design point's cache hierarchy. */
    struct Ratios {
        double l1, l2, l3;  ///< data-load stream
        double s1, s2, s3;  ///< store stream
        double i1, i2, i3;  ///< instruction stream
    };
    const Ratios &ratios(const CoreConfig &cfg);

    /**
     * Serialized-LLC-hit chain weights for one (L2, L3) size pair
     * (thesis §4.8 extension): per static op, its LLC-hit probability
     * times its load-dependence depth clamp; plus the per-window weighted
     * sums and the global per-load expectation the model consumes.
     */
    struct ChainWeights {
        /** Per Profile::memOps entry (stores stay 0). */
        std::vector<double> opWeight;
        /** Per Profile::windows entry: sum of opWeight * window count. */
        std::vector<double> windowSerial;
        /** Expected chained LLC hits per load, whole program. */
        double globalSerialHits = 0;
    };
    const ChainWeights &chainWeights(double l2Lines, double l3Lines);

    /** Per-window critical-path lengths interpolated to @p robSize
     *  (thesis Eq 5.2), one entry per Profile::windows element. */
    const std::vector<double> &windowCp(uint32_t robSize);

    /** Global + per-window dispatch limits under one memo key. */
    struct LimitsEntry {
        DispatchLimits global;
        /** One per Profile::windows element (windows without uops get
         *  default limits). */
        std::vector<DispatchLimits> windows;
    };
    /**
     * Dispatch limits (Eq 3.10 with the ablation level applied) at the
     * dependence window @p depWindow. The key holds every input of the
     * computation verbatim — ablation level, width, ROB, the window, the
     * L1D miss ratio entering the average latency, the latency table, the
     * issue-port signature and the FU pools — so hits are bitwise-exact
     * replays of ablatedLimits().
     */
    const LimitsEntry &limits(const CoreConfig &cfg,
                              ModelOptions::BaseLevel level, double mrL1,
                              uint32_t depWindow);

    /** Memoized branchResolutionTime (thesis Alg 3.2). */
    double branchResolution(const CoreConfig &cfg, double avgLat,
                            double uopsBetweenMispredicts);

    /**
     * Memoized MLP estimate (thesis Ch. 4). The key covers exactly the
     * options and configuration fields the selected MLP model reads, so
     * e.g. a pipeline-width sweep with the prefetcher disabled hits a
     * single entry. @p windowUops is the mispredict-interval-truncated
     * overlap window (0 = full ROB; ModelCalibration::mlpWindowFrac).
     */
    const MlpEstimate &mlpEstimate(const CoreConfig &cfg,
                                   const ModelOptions &opts,
                                   uint32_t windowUops);

    /** Rates one branch model derives from the profiled entropies. */
    struct BranchRates {
        double globalRate = 0;  ///< bm.missRate(global entropy)
        /** bm.missRate(entropyEff[wi]) * branches, per window. */
        std::vector<double> windowMisses;
    };
    /** Memoized per branch model, keyed on its coefficients by value. */
    const BranchRates &branchRates(const BranchMissModel &bm);

    /**
     * Configuration-independent per-window statistics hoisted out of the
     * evaluation loop (structure-of-arrays over Profile::windows). Every
     * value is exactly the double the per-point computation would have
     * produced — these are pure functions of the pinned profile, computed
     * once.
     */
    struct WindowStatics {
        std::vector<double> uops;        ///< w.uops() per window
        std::vector<double> maxUops;     ///< max(uops, 1.0)
        std::vector<double> insts;       ///< w.insts per window
        std::vector<double> entropyEff;  ///< min(1, branchEntropy * eNorm)
        std::vector<double> uopShare;    ///< uops / profiledUops (else 0)
        std::vector<double> loadCounts;  ///< uopCounts[Load] per window
        std::vector<double> loadFrac;    ///< loadCounts / uops (else 0)
        /** Per-window uop counts / fractions by type. */
        std::vector<std::array<double, kNumUopTypes>> counts, fracs;
        double eNorm = 1.0;  ///< global / mean per-window branch entropy
        std::array<double, kNumUopTypes> globalFrac{}, globalCounts{};
        double totalUops = 0, totalInsts = 0;
        double loads = 0, stores = 0, iAccesses = 0;
        double globalBranches = 0, globalEntropy = 0;
    };
    const WindowStatics &windowStatics();

  private:
    struct RatioEntry {
        const LogHistogram *h;
        uint64_t linesBits;  ///< bit pattern of the double cacheLines
        double value;
    };
    double memoRatio(std::vector<RatioEntry> &memo, const StatStack &ss,
                     const LogHistogram &h, double cacheLines);
    /** Miss ratios keyed on the packed (L1D, L2, L3, L1I) line counts. */
    struct RatioSlot {
        uint64_t k0, k1;
        Ratios r;
    };

    struct ChainKey {
        uint64_t l2Bits, l3Bits;
        bool operator==(const ChainKey &) const = default;
    };
    struct ResolutionKey {
        uint32_t width, rob;
        uint64_t avgLatBits, niBits;
        bool operator==(const ResolutionKey &) const = default;
    };
    struct MlpKey {
        uint8_t mode;  ///< ModelOptions::MlpMode
        bool mshrs, prefetcher;
        uint32_t l3Lines, rob, mshrCount;
        /** Zero unless the prefetcher path is active (the only reader
         *  of width / memLatency / table size in the MLP models). */
        uint32_t prefetcherEntries, width, memLatency;
        /** Truncated overlap window (0 = full ROB) and the cold-miss
         *  shortfall injection fraction (bit pattern). */
        uint32_t windowUops;
        uint64_t coldInjectBits;
        bool operator==(const MlpKey &) const = default;
    };
    /** BranchMissModel coefficients by bit pattern. */
    struct BranchKey {
        int kind;
        uint64_t slope, intercept, knee, kneeSlope;
        bool operator==(const BranchKey &) const = default;
    };

    /** Port-scheduling walk results keyed on the issue-port signature:
     *  the walk reads only the per-window uop counts (profile) and the
     *  eligible-port sets, so one entry serves every width/ROB/cache
     *  variation sharing a port layout. */
    struct PortsEntry {
        std::vector<uint64_t> key;  ///< canIssue mask per port
        double globalMaxAct = 0;
        std::vector<double> windowMaxAct;
    };
    /** FU rate folds keyed on the (FU pools, latency table) signature. */
    struct FuEntry {
        std::vector<uint64_t> key;
        double globalMinRate = 0;
        std::vector<double> windowMinRate;
    };
    /**
     * Bitwise-exact replay of DependenceChains::interpolate with the
     * per-bracket fit constants precomputed: a and b are pure functions
     * of the profiled nodes, leaving one log() per evaluation. Feeds the
     * branch-resolution leaky-bucket walk (thesis Alg 3.2), whose inner
     * loop otherwise dominates cold resolution lookups.
     */
    struct ChainInterp {
        bool empty = true;
        bool single = false;
        double singleValue = 0;
        std::vector<double> hiSizes;  ///< robSizes[hi] per bracket
        struct Seg {
            double a = 0, b = 0;
            bool zero = false;  ///< y0 == 0 && y1 == 0 fallback
        };
        std::vector<Seg> segs;

        void build(const DependenceChains &chains, bool useAbp);
        double eval(double rob) const;
    };

    void buildLimitsKey(const CoreConfig &cfg,
                        ModelOptions::BaseLevel level, uint32_t depWindow,
                        uint64_t mrL1Bits);
    LimitsEntry buildLimits(const CoreConfig &cfg,
                            ModelOptions::BaseLevel level, double mrL1,
                            uint32_t depWindow);
    const PortsEntry &portsEntry(const CoreConfig &cfg);
    const FuEntry &fuEntry(const CoreConfig &cfg);
    const std::vector<double> &opRatios(double lines);
    /** Memoized profile().chains.cp(depWindow). */
    double globalCp(uint32_t depWindow);
    double resolutionTime(const CoreConfig &cfg, double avgLat,
                          double uopsBetweenMispredicts) const;

    const Profile &p_;
    StatStack ss_;
    StatStack ssI_;

    std::vector<RatioEntry> dataRatios_, instRatios_;
    std::vector<RatioSlot> ratioTable_;

    // Deques: grow-only memo tables handing out stable references.
    std::deque<std::pair<uint32_t, std::vector<double>>> windowCps_;
    std::vector<std::pair<uint32_t, double>> globalCps_;

    std::deque<std::pair<std::vector<uint64_t>, LimitsEntry>> limitsTable_;
    std::unordered_map<uint64_t, std::vector<uint32_t>> limitsBuckets_;
    std::vector<uint64_t> keyBuf_;
    const LimitsEntry *lastLimits_ = nullptr;
    std::vector<uint64_t> lastLimitsKey_;
    std::deque<PortsEntry> portsTable_;
    std::deque<FuEntry> fuTable_;

    std::unique_ptr<StrideMlpCache> strideCache_;
    std::deque<std::pair<MlpKey, MlpEstimate>> mlpTable_;

    std::deque<std::pair<ChainKey, ChainWeights>> chainTable_;
    /** Per-(cache lines) miss ratio across static ops, load ops only. */
    std::deque<std::pair<uint64_t, std::vector<double>>> opRatioTable_;
    std::vector<double> depClamp_;  ///< per static op, profile-only
    double loadsSeen_ = 0;
    bool depClampBuilt_ = false;

    ChainInterp cpInterp_, abpInterp_;
    std::vector<std::pair<ResolutionKey, double>> resTable_;
    ResolutionKey lastResKey_{};
    double lastResValue_ = 0;
    bool lastResValid_ = false;

    std::deque<std::pair<BranchKey, BranchRates>> branchTable_;

    WindowStatics statics_;
    bool staticsBuilt_ = false;
};

/**
 * Batch loop over one (EvalContext, ModelOptions) pair: evaluates a run
 * of configurations into (CPI, watts) pairs through one recycled
 * ModelResult — the engine behind the streaming sweep modes. It adds no
 * memo tables of its own: evaluateOne(cfg) is evaluateModel(ctx, cfg,
 * opts) without the result allocation. Not thread-safe; use one
 * instance per worker, like EvalContext.
 */
class BatchEval
{
  public:
    BatchEval(EvalContext &ec, const ModelOptions &opts);

    BatchEval(const BatchEval &) = delete;
    BatchEval &operator=(const BatchEval &) = delete;

    /** Sweep-facing result of one design point. */
    struct Output {
        double modelCpi = 0;
        double modelWatts = 0;
    };

    /**
     * Evaluate @p n configurations into @p out. When @p power is non-null
     * it must hold n precomputed powerParams(cfgs[i]) entries (sharing
     * them across workloads skips the voltage/leakage pow() chain);
     * otherwise the power parameters are derived per point.
     */
    void evaluate(const CoreConfig *cfgs, size_t n, Output *out,
                  const PowerParams *power = nullptr);

    /** Full single-point evaluation (parity tests / inspection). The
     *  reference stays valid until the next evaluate call. */
    const ModelResult &evaluateOne(const CoreConfig &cfg);

  private:
    EvalContext &ec_;
    ModelOptions opts_;
    ModelResult scratch_;
};

/**
 * Evaluate the interval model through a memoized per-workload context.
 * Bitwise identical to evaluateModel(ctx.profile(), cfg, opts); the
 * repeated-evaluation cost across a design-space sweep drops by the
 * memo hit rate (see bench/bench_dse_sweep.cc).
 */
ModelResult evaluateModel(EvalContext &ctx, const CoreConfig &cfg,
                          const ModelOptions &opts = {});

/**
 * The evaluation core behind every entry point: fills @p res in place
 * (clearing reused buffers) so batch loops can recycle one ModelResult.
 */
void evaluateModelInto(EvalContext &ctx, const CoreConfig &cfg,
                       const ModelOptions &opts, ModelResult &res);

} // namespace mipp

#endif // MIPP_MODEL_EVAL_CACHE_HH
