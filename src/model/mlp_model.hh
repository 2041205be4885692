/**
 * @file
 * Memory-level parallelism models (thesis Ch. 4).
 *
 * Two alternatives estimate how many long-latency loads overlap:
 *
 *  - The *cold-miss* MLP model (§4.4, Eq 4.1-4.3) assumes miss bursts are
 *    driven by cold misses, whose per-ROB burstiness is profiled directly,
 *    while capacity/conflict misses spread uniformly.
 *  - The *stride* MLP model (§4.5) rebuilds a virtual load stream per
 *    micro-trace from load-spacing and stride distributions, marks misses
 *    with StatStack, imposes inter-load dependences, and walks ROB-sized
 *    windows over it. It extends to MSHR limits (§4.6, Eq 4.4) and a
 *    per-PC stride prefetcher (§4.9, Eq 4.13).
 *
 * Both are pure functions of the micro-architecture independent profile
 * plus a core configuration.
 */

#ifndef MIPP_MODEL_MLP_MODEL_HH
#define MIPP_MODEL_MLP_MODEL_HH

#include <vector>

#include "profiler/profile.hh"
#include "statstack/statstack.hh"
#include "uarch/core_config.hh"

namespace mipp {

/** Per-window (micro-trace) memory-parallelism estimates. */
struct WindowMlp {
    double dramMisses = 0;   ///< LLC load misses in the micro-trace
    double latWeighted = 0;  ///< misses weighted by prefetch-reduced latency
    double mlp = 0;          ///< independent misses per dirty ROB window
};

/** Aggregated MLP-model output. */
struct MlpEstimate {
    /** Effective MLP >= 1 (already MSHR-capped). */
    double mlp = 1.0;
    /** Total LLC load misses across the modeled stream. */
    double dramMisses = 0;
    /** Misses weighted by residual latency after prefetching (== misses
     *  when prefetching is off). */
    double latWeighted = 0;
    /** Per profile-window detail (stride model only). */
    std::vector<WindowMlp> windows;
};

/** Knobs shared by both models. */
struct MlpOptions {
    bool modelMshrs = true;
    bool modelPrefetcher = true;  ///< honored if cfg.prefetcherEnabled
    /** Shift the StatStack-average misses towards windows with profiled
     *  cold-miss bursts (thesis §4.4 burstiness observation). */
    bool redistributeCold = false;
    /**
     * Effective instruction-window size for the overlap walk; 0 uses
     * cfg.robSize. The recalibrated model truncates it to the mispredict
     * interval: misses separated by a mispredicted branch cannot overlap
     * because the stopped front end never brings the second miss into
     * the window (ModelCalibration::mlpWindowFrac).
     */
    uint32_t windowUops = 0;
    /**
     * Fraction of the marked-miss shortfall to re-inject (stride model).
     * Per-static-op error diffusion drops expected misses that never
     * accumulate to a whole miss per op — the scattered cold/footprint
     * misses of low-miss workloads. The injected misses carry the
     * profiled cold-burst MLP (ModelCalibration::coldInject).
     */
    double coldInject = 0.0;
};

/**
 * Cold-miss MLP model (thesis §4.4). Operates on whole-profile statistics;
 * misses are scaled to profiled loads.
 */
MlpEstimate coldMissMlp(const Profile &p, const CoreConfig &cfg,
                        const StatStack &ss, const MlpOptions &opt = {});

/** Stride-MLP model (thesis §4.5-4.6, 4.9). Per-micro-trace evaluation. */
MlpEstimate strideMlp(const Profile &p, const CoreConfig &cfg,
                      const StatStack &ss, const MlpOptions &opt = {});

/**
 * Factored stride-MLP evaluator behind EvalContext. strideMlp() rebuilds
 * and sorts the virtual load stream per call, but most of that work is
 * configuration independent: the event positions and the sort permutation
 * depend only on the profile, and the StatStack miss marking depends only
 * on the LLC line count (and the cold-redistribution knob). This cache
 * builds the stream skeleton once per profile and the marked miss events
 * once per distinct (LLC lines, redistributeCold), so estimate() only
 * replays the per-window overlap walk over the *misses*.
 *
 * estimate(cfg, opt) is bitwise-identical to strideMlp(p, cfg, ss, opt):
 * every floating-point operation that feeds a result runs in the same
 * order on the same values (the bucket walk's position comparisons and
 * accumulation order are replayed exactly; skipped non-miss events never
 * contributed arithmetic).
 */
class StrideMlpCache {
  public:
    StrideMlpCache(const Profile &p, const StatStack &ss);

    MlpEstimate estimate(const CoreConfig &cfg, const MlpOptions &opt);

  private:
    /** Configuration-independent per-static-op inputs. */
    struct OpStatics {
        double depth = 1;
        double gap = 1;          ///< max(avgGap, 1)
        bool isLoad = false;
        bool chase = false;
        bool serialChain = false;
        /** Prefetchable if enabled+tracked (set by classifyStrides). */
        bool stridedInPage = false;
    };
    /** A marked LLC miss of the sorted virtual load stream. */
    struct MissEvent {
        double pos;
        uint32_t opIdx;
    };
    /** One event of the virtual load stream in sorted order. */
    struct SortedEvent {
        double pos;
        uint32_t buildIdx;  ///< index into WindowSkeleton::buildOp
    };
    /** Per-profile-window stream skeleton (positions + sort order). */
    struct WindowSkeleton {
        std::vector<uint32_t> buildOp;     ///< op per event, build order
        std::vector<SortedEvent> sorted;   ///< events by ascending pos
        double maxPos = 0;                 ///< last sorted pos + 1
    };
    /** Miss marking for one (LLC lines, redistributeCold) pair. */
    struct L3State {
        uint32_t l3Lines = 0;
        bool redistributeCold = false;
        double mrLlcGlobal = 0;
        double expTotal = 0;
        std::vector<double> mrLlc;      ///< per op
        std::vector<double> indepProb;  ///< per op
        std::vector<std::vector<MissEvent>> missEvents;  ///< per window
    };

    const L3State &l3State(uint32_t l3Lines, bool redistributeCold);
    void classifyStrides();

    const Profile &p_;
    const StatStack &ss_;
    std::vector<OpStatics> ops_;
    std::vector<WindowSkeleton> windows_;
    std::vector<L3State> l3States_;
    uint32_t staticLoads_ = 0;
    bool stridesClassified_ = false;
    double coldAvg_ = 0;
    double coldTotal_ = 0;
    double uopsTotal_ = 0;
};

/**
 * MSHR cap (thesis Eq 4.4, batch form): @p misses concurrent misses with
 * @p rawMlp dependence-limited parallelism drain in ceil(m/mshrs)
 * serialized batches.
 */
double mshrCappedMlp(double rawMlp, double misses, uint32_t mshrs);

/**
 * Average memory-bus cycles per access for MLP' concurrent accesses
 * (thesis Eq 4.5): (MLP' + 1)/2 * transfer.
 */
double busCycles(double mlpPrime, uint32_t transferCycles);

/** Store-traffic rescaled MLP' for bus contention (thesis Eq 4.6). */
double busMlp(double mlp, double llcLoadMisses, double llcStoreMisses);

} // namespace mipp

#endif // MIPP_MODEL_MLP_MODEL_HH
