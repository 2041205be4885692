#include "model/mlp_model.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace mipp {

double
mshrCappedMlp(double rawMlp, double misses, uint32_t mshrs)
{
    rawMlp = std::max(rawMlp, 1.0);
    if (mshrs == 0 || rawMlp <= mshrs)
        return rawMlp;
    // Thesis Eq 4.4, batch form: misses beyond the MSHR count wait for a
    // full access of the bursty batch ahead of them, so m misses drain in
    // ceil(m / mshrs) serialized batches. The effective overlap is the
    // miss count divided by the batch count, hard-capped by the MSHRs.
    double batches = std::ceil(std::max(misses, rawMlp) / mshrs);
    double eff = std::max(misses, rawMlp) / std::max(batches, 1.0);
    return std::clamp(eff, 1.0, std::min(rawMlp, double(mshrs)));
}

double
busCycles(double mlpPrime, uint32_t transferCycles)
{
    mlpPrime = std::max(mlpPrime, 1.0);
    return (mlpPrime + 1.0) / 2.0 * transferCycles;
}

double
busMlp(double mlp, double llcLoadMisses, double llcStoreMisses)
{
    if (llcLoadMisses <= 0)
        return mlp;
    return mlp * (llcLoadMisses + llcStoreMisses) / llcLoadMisses;
}

MlpEstimate
coldMissMlp(const Profile &p, const CoreConfig &cfg, const StatStack &ss,
            const MlpOptions &opt)
{
    MlpEstimate est;
    const uint32_t window = opt.windowUops > 0 ?
        std::min(opt.windowUops, cfg.robSize) : cfg.robSize;
    const size_t ri = p.robIndex(window);

    const double llcLines = cfg.l3.numLines();
    const double mrLlc = ss.missRatio(p.reuseLoads, llcLines);
    const double totalLoads = static_cast<double>(p.reuseLoads.total());
    const double misses = mrLlc * totalLoads;
    const double coldMisses =
        std::min<double>(p.cold.coldLoadMisses, misses);
    const double cfMisses = std::max(misses - coldMisses, 0.0);
    const double mrCf = totalLoads > 0 ? cfMisses / totalLoads : 0;
    est.dramMisses = misses;
    est.latWeighted = misses;
    if (misses <= 0)
        return est;

    // Average loads per effective instruction window.
    const double loadFrac = p.uopFraction(UopType::Load);
    const double loadsPerRob = loadFrac * window;
    const double coldPerDirtyRob = p.cold.coldPerDirtyWindow(ri);

    // Independence via the inter-load dependence distribution f(l):
    // a depth-l load miss is independent iff its l-1 predecessors hit.
    double mlpCold = 0, mlpCf = 0;
    for (int l = 1; l <= LoadDepProfile::kMaxDepth; ++l) {
        double f = p.loadDeps.f(ri, l);
        double indep = std::pow(1.0 - mrLlc, l - 1) * f;
        mlpCold += indep * coldPerDirtyRob;
        mlpCf += indep * mrCf * loadsPerRob;
    }

    double mlp = 1.0;
    if (misses > 0)
        mlp = (cfMisses * std::max(mlpCf, 1.0) +
               coldMisses * std::max(mlpCold, 1.0)) / misses;

    if (opt.modelMshrs) {
        double missesPerRob = mrLlc * loadsPerRob;
        mlp = mshrCappedMlp(mlp, std::max(missesPerRob, mlp), cfg.mshrs);
    }
    est.mlp = std::max(mlp, 1.0);
    return est;
}

namespace {

/** One event of the reconstructed virtual load stream (thesis §4.5). */
struct VirtualLoad {
    double pos;        ///< uop position within the micro-trace
    uint32_t opIdx;    ///< static-load index
    bool miss;         ///< predicted LLC miss
    double latFactor;  ///< residual latency fraction after prefetching
};

/** Per static-op modeling state reused across windows. */
struct OpModel {
    double mrLlc = 0;       ///< per-access LLC miss ratio (StatStack)
    double indepProb = 1;   ///< (1 - M_pred)^(depth-1)
    double depth = 1;       ///< average load-dependence depth
    bool chase = false;     ///< address recycled through a register chain
    bool prefetchable = false;
    double prefetchFactor = 1.0;  ///< residual latency fraction
    double missAcc = 0;     ///< error-diffusion accumulator

    /** Member of a long register-recycled chain whose misses serialize. */
    bool serialChain() const { return chase && depth >= 3.0; }
};

} // namespace

MlpEstimate
strideMlp(const Profile &p, const CoreConfig &cfg, const StatStack &ss,
          const MlpOptions &opt)
{
    MlpEstimate est;
    const double llcLines = cfg.l3.numLines();
    const double mrLlcGlobal = ss.missRatio(p.reuseLoads, llcLines);
    const double mtSize = static_cast<double>(p.sampling.microTraceSize);
    const bool prefetch = opt.modelPrefetcher && cfg.prefetcherEnabled;
    // Overlap window: the ROB, truncated to the mispredict interval when
    // the caller models the front-end stop at mispredicted branches.
    const uint32_t window = opt.windowUops > 0 ?
        std::min(opt.windowUops, cfg.robSize) : cfg.robSize;

    // Per-op derived model inputs.
    std::vector<OpModel> ops(p.memOps.size());
    uint32_t staticLoads = 0;
    for (size_t i = 0; i < p.memOps.size(); ++i) {
        const StaticMemProfile &sp = p.memOps[i];
        if (sp.isStore)
            continue;
        staticLoads++;
        OpModel &m = ops[i];
        m.mrLlc = ss.missRatio(sp.reuse, llcLines);
        m.chase = sp.isPointerChase();
        m.depth = std::max(sp.avgLoadDepth(), 1.0);
        // Independence through the load dependence chain: a miss only
        // overlaps with others if its (depth-1) predecessor loads hit
        // (thesis Eq 4.1). Predecessors of a register-recycled (chase)
        // chain are instances of the chain itself, so they miss at the
        // op's own rate; otherwise at the population rate.
        double mrPred = m.chase ?
            std::max(mrLlcGlobal, m.mrLlc) : mrLlcGlobal;
        m.indepProb = std::pow(
            std::clamp(1.0 - mrPred, 0.0, 1.0), m.depth - 1.0);

        if (prefetch && !m.chase) {
            StrideClass sc = sp.strideClass();
            bool strided = sc == StrideClass::SingleStride ||
                           sc == StrideClass::TwoStride ||
                           sc == StrideClass::ThreeStride ||
                           sc == StrideClass::FourStride;
            if (strided) {
                auto dom = sp.dominantStrides();
                bool inPage = !dom.empty() &&
                              std::llabs(dom.front()) < 4096;
                m.prefetchable = inPage;
                if (m.prefetchable) {
                    // Timeliness, thesis Eq 4.13: a prefetch launched one
                    // recurrence (avgGap uops) ahead hides gap/D cycles.
                    double gap = std::max(sp.avgGap(), 1.0);
                    if (gap >= cfg.robSize) {
                        m.prefetchFactor = 0.0;
                    } else {
                        double hidden = gap / cfg.dispatchWidth;
                        m.prefetchFactor = std::max(
                            0.0, (cfg.memLatency - hidden) /
                                     cfg.memLatency);
                    }
                }
            }
        }
    }
    // A prefetcher can only track a limited number of static loads
    // (thesis Fig 4.10): with more loads than table entries, training
    // state is evicted between recurrences and nothing is prefetched.
    bool tableHolds = staticLoads <= cfg.prefetcherEntries;

    double serialTime = 0;   // sum over windows of misses/MLP
    double totalMisses = 0;
    double totalWeighted = 0;

    // Cold misses cluster in time (thesis §4.4): per-window profiled cold
    // counts redistribute the StatStack-average misses towards the windows
    // that actually saw first touches.
    double coldAvg = 0;
    if (!p.windows.empty()) {
        for (const auto &w : p.windows)
            coldAvg += w.coldMisses;
        coldAvg /= p.windows.size();
    }
    // Two passes: first compute per-window expected misses and the
    // cold-shifted estimates, then renormalize so the whole-program miss
    // count still matches StatStack.
    std::vector<double> expMissesW(p.windows.size(), 0.0);
    std::vector<double> adjMissesW(p.windows.size(), 0.0);
    double expTotal = 0, adjTotal = 0;
    for (size_t wi = 0; wi < p.windows.size(); ++wi) {
        const WindowProfile &w = p.windows[wi];
        double exp = 0;
        for (const auto &[opIdx, count] : w.memCounts) {
            if (!p.memOps[opIdx].isStore)
                exp += count * ops[opIdx].mrLlc;
        }
        expMissesW[wi] = exp;
        adjMissesW[wi] =
            std::max(0.0, exp + (w.coldMisses - coldAvg));
        expTotal += exp;
        adjTotal += adjMissesW[wi];
    }
    const double renorm = adjTotal > 1e-9 ? expTotal / adjTotal : 1.0;

    // One stream buffer reused across windows: the rebuild runs once per
    // (profile, config) evaluation and its allocations showed up in
    // DSE-sweep profiles.
    std::vector<VirtualLoad> stream;
    est.windows.reserve(p.windows.size());
    for (size_t wi = 0; wi < p.windows.size(); ++wi) {
        const WindowProfile &w = p.windows[wi];
        double factor = (opt.redistributeCold && expMissesW[wi] > 1e-9) ?
            adjMissesW[wi] * renorm / expMissesW[wi] : 1.0;

        // (1) Rebuild the virtual load stream from spacing + counts.
        stream.clear();
        for (const auto &[opIdx, count] : w.memCounts) {
            const StaticMemProfile &sp = p.memOps[opIdx];
            if (sp.isStore)
                continue;
            OpModel &m = ops[opIdx];
            double first = std::min(sp.avgFirstPos(), mtSize - 1.0);
            double gap = std::max(sp.avgGap(), 1.0);
            double missProb = std::min(m.mrLlc * factor, 1.0);
            for (uint32_t k = 0; k < count; ++k) {
                VirtualLoad v;
                v.pos = first + k * gap;
                v.opIdx = opIdx;
                // (2) Deterministic error-diffusion miss marking keeps
                // per-op totals equal to the StatStack prediction while
                // preserving the op's periodic miss pattern.
                m.missAcc += missProb;
                v.miss = m.missAcc >= 1.0;
                if (v.miss)
                    m.missAcc -= 1.0;
                v.latFactor =
                    (m.prefetchable && tableHolds) ? m.prefetchFactor : 1.0;
                stream.push_back(v);
            }
        }
        if (stream.empty()) {
            est.windows.push_back({});
            continue;
        }
        std::sort(stream.begin(), stream.end(),
                  [](const VirtualLoad &a, const VirtualLoad &b) {
                      return a.pos < b.pos;
                  });

        // (3) Step effective-window-sized windows over the stream.
        WindowMlp wm;
        double serialTimeW = 0;
        double maxPos = stream.back().pos + 1;
        size_t cursor = 0;
        for (double lo = 0; lo < maxPos; lo += window) {
            double hi = lo + window;
            double misses = 0, weighted = 0;
            double serialMisses = 0;   // on deep dependence chains
            double indepParallel = 0;  // parallelism of the free misses
            while (cursor < stream.size() && stream[cursor].pos < hi) {
                const VirtualLoad &v = stream[cursor++];
                OpModel &m = ops[v.opIdx];
                if (!v.miss)
                    continue;
                misses += 1;
                weighted += v.latFactor;
                if (m.serialChain())
                    serialMisses += 1;
                else
                    indepParallel += m.indepProb;
            }
            if (misses <= 0)
                continue;
            // Serial-time view: misses on deep dependence chains occupy
            // one latency "slot" each, back to back; the remaining misses
            // overlap among themselves (indepParallel lanes) and with the
            // serial span. Window drain time in units of one memory
            // latency, and the effective MLP from it:
            double freeMisses = misses - serialMisses;
            double parTime = freeMisses / std::max(indepParallel, 1.0);
            double time = std::max({serialMisses, parTime, 1.0});
            double mlp = std::max(misses / time, 1.0);
            if (opt.modelMshrs)
                mlp = mshrCappedMlp(mlp, misses, cfg.mshrs);
            wm.dramMisses += misses;
            wm.latWeighted += weighted;
            serialTimeW += weighted / mlp;
        }
        // Per-window MLP as the latency-weighted harmonic mean over the
        // walked sub-windows: latWeighted / mlp then reproduces the
        // window's serialized drain time exactly (the global est.mlp has
        // always been this quotient; the per-window value used to be an
        // arithmetic miss-weighted mean, slightly over-weighting bursty
        // sub-windows).
        wm.mlp = serialTimeW > 0 ? wm.latWeighted / serialTimeW : 0;
        serialTime += serialTimeW;
        totalMisses += wm.dramMisses;
        totalWeighted += wm.latWeighted;
        est.windows.push_back(wm);
    }

    // (4) Re-inject the marking shortfall (ModelCalibration::coldInject).
    // Per-op error diffusion preserves totals op by op, but every op whose
    // expected misses in the *sampled* stream stay below one whole miss
    // contributes nothing — on low-miss-rate workloads that is the entire
    // scattered cold/footprint population and the DRAM component collapses
    // to zero. Re-inject the shortfall, spread over the profile windows by
    // their profiled cold-miss counts, at the profiled cold-burst MLP
    // (thesis §4.4), MSHR-capped like every other overlap estimate.
    double shortfall = std::max(expTotal - totalMisses, 0.0);
    double inject = opt.coldInject * shortfall;
    if (inject > 1e-9 && !est.windows.empty()) {
        double coldTotal = 0, uopsTotal = 0;
        for (const auto &w : p.windows) {
            coldTotal += w.coldMisses;
            uopsTotal += w.uops();
        }
        const size_t ri = p.robIndex(window);
        double burst = std::max(p.cold.coldPerDirtyWindow(ri), 1.0);
        double mlpInj = opt.modelMshrs ?
            mshrCappedMlp(burst, burst, cfg.mshrs) : burst;
        for (size_t wi = 0; wi < est.windows.size(); ++wi) {
            double share = coldTotal > 0 ?
                p.windows[wi].coldMisses / coldTotal :
                (uopsTotal > 0 ? p.windows[wi].uops() / uopsTotal : 0.0);
            double add = inject * share;
            if (add <= 0)
                continue;
            WindowMlp &wm = est.windows[wi];
            double timeW = wm.mlp > 0 ? wm.latWeighted / wm.mlp : 0;
            wm.dramMisses += add;
            wm.latWeighted += add;   // cold misses are not prefetchable
            timeW += add / mlpInj;
            wm.mlp = timeW > 0 ? wm.latWeighted / timeW : 0;
            totalMisses += add;
            totalWeighted += add;
            serialTime += add / mlpInj;
        }
    }

    est.dramMisses = totalMisses;
    est.latWeighted = totalWeighted;
    est.mlp = serialTime > 0 ?
        std::max(totalWeighted / serialTime, 1.0) : 1.0;
    return est;
}

StrideMlpCache::StrideMlpCache(const Profile &p, const StatStack &ss)
    : p_(p), ss_(ss)
{
    const double mtSize = static_cast<double>(p.sampling.microTraceSize);

    ops_.resize(p.memOps.size());
    for (size_t i = 0; i < p.memOps.size(); ++i) {
        const StaticMemProfile &sp = p.memOps[i];
        if (sp.isStore)
            continue;
        staticLoads_++;
        OpStatics &m = ops_[i];
        m.isLoad = true;
        m.chase = sp.isPointerChase();
        m.depth = std::max(sp.avgLoadDepth(), 1.0);
        m.gap = std::max(sp.avgGap(), 1.0);
        m.serialChain = m.chase && m.depth >= 3.0;
    }

    if (!p.windows.empty()) {
        for (const auto &w : p.windows)
            coldAvg_ += w.coldMisses;
        coldAvg_ /= p.windows.size();
    }
    for (const auto &w : p.windows) {
        coldTotal_ += w.coldMisses;
        uopsTotal_ += w.uops();
    }

    // Stream skeleton: event positions and the sorted order are pure
    // functions of the profile, so build (and sort) them exactly once.
    windows_.resize(p.windows.size());
    for (size_t wi = 0; wi < p.windows.size(); ++wi) {
        const WindowProfile &w = p.windows[wi];
        WindowSkeleton &sk = windows_[wi];
        size_t events = 0;
        for (const auto &[opIdx, count] : w.memCounts)
            if (!p.memOps[opIdx].isStore)
                events += count;
        if (events == 0)
            continue;
        sk.buildOp.reserve(events);
        sk.sorted.reserve(events);
        for (const auto &[opIdx, count] : w.memCounts) {
            const StaticMemProfile &sp = p.memOps[opIdx];
            if (sp.isStore)
                continue;
            double first = std::min(sp.avgFirstPos(), mtSize - 1.0);
            double gap = ops_[opIdx].gap;
            for (uint32_t k = 0; k < count; ++k) {
                sk.sorted.push_back({first + k * gap,
                                     static_cast<uint32_t>(
                                         sk.buildOp.size())});
                sk.buildOp.push_back(opIdx);
            }
        }
        // std::sort's swap decisions are a function of the comparison
        // outcomes alone, so sorting (pos, build index) pairs by pos
        // applies the same permutation strideMlp's sort of the full
        // events does.
        std::sort(sk.sorted.begin(), sk.sorted.end(),
                  [](const SortedEvent &a, const SortedEvent &b) {
                      return a.pos < b.pos;
                  });
        sk.maxPos = sk.sorted.back().pos + 1;
    }
}

void
StrideMlpCache::classifyStrides()
{
    // Only the prefetcher path reads the stride classes, so a cache that
    // never models a prefetcher never pays for the per-op histograms.
    if (stridesClassified_)
        return;
    for (size_t i = 0; i < ops_.size(); ++i) {
        OpStatics &m = ops_[i];
        if (!m.isLoad || m.chase)
            continue;
        const StaticMemProfile &sp = p_.memOps[i];
        StrideClass sc = sp.strideClass();
        bool strided = sc == StrideClass::SingleStride ||
                       sc == StrideClass::TwoStride ||
                       sc == StrideClass::ThreeStride ||
                       sc == StrideClass::FourStride;
        if (strided) {
            auto dom = sp.dominantStrides();
            m.stridedInPage = !dom.empty() && std::llabs(dom.front()) < 4096;
        }
    }
    stridesClassified_ = true;
}

const StrideMlpCache::L3State &
StrideMlpCache::l3State(uint32_t l3Lines, bool redistributeCold)
{
    for (const L3State &s : l3States_)
        if (s.l3Lines == l3Lines && s.redistributeCold == redistributeCold)
            return s;

    l3States_.emplace_back();
    L3State &st = l3States_.back();
    st.l3Lines = l3Lines;
    st.redistributeCold = redistributeCold;
    const double llcLines = l3Lines;

    st.mrLlcGlobal = ss_.missRatio(p_.reuseLoads, llcLines);
    st.mrLlc.assign(ops_.size(), 0.0);
    st.indepProb.assign(ops_.size(), 1.0);
    for (size_t i = 0; i < ops_.size(); ++i) {
        if (!ops_[i].isLoad)
            continue;
        st.mrLlc[i] = ss_.missRatio(p_.memOps[i].reuse, llcLines);
        double mrPred = ops_[i].chase ?
            std::max(st.mrLlcGlobal, st.mrLlc[i]) : st.mrLlcGlobal;
        st.indepProb[i] = std::pow(
            std::clamp(1.0 - mrPred, 0.0, 1.0), ops_[i].depth - 1.0);
    }

    std::vector<double> expMissesW(p_.windows.size(), 0.0);
    std::vector<double> adjMissesW(p_.windows.size(), 0.0);
    double expTotal = 0, adjTotal = 0;
    for (size_t wi = 0; wi < p_.windows.size(); ++wi) {
        const WindowProfile &w = p_.windows[wi];
        double exp = 0;
        for (const auto &[opIdx, count] : w.memCounts) {
            if (!p_.memOps[opIdx].isStore)
                exp += count * st.mrLlc[opIdx];
        }
        expMissesW[wi] = exp;
        adjMissesW[wi] =
            std::max(0.0, exp + (w.coldMisses - coldAvg_));
        expTotal += exp;
        adjTotal += adjMissesW[wi];
    }
    st.expTotal = expTotal;
    const double renorm = adjTotal > 1e-9 ? expTotal / adjTotal : 1.0;

    // Replay strideMlp's error-diffusion marking: per-op accumulators
    // persist across windows in build order, so a single pass over all
    // windows reproduces every miss flag. Store the misses in sorted
    // order — the overlap walk never reads the hits.
    std::vector<double> missAcc(ops_.size(), 0.0);
    std::vector<char> flag;
    st.missEvents.resize(p_.windows.size());
    for (size_t wi = 0; wi < p_.windows.size(); ++wi) {
        const WindowSkeleton &sk = windows_[wi];
        double factor = (redistributeCold && expMissesW[wi] > 1e-9) ?
            adjMissesW[wi] * renorm / expMissesW[wi] : 1.0;
        flag.assign(sk.buildOp.size(), 0);
        size_t misses = 0;
        for (size_t e = 0; e < sk.buildOp.size(); ++e) {
            uint32_t op = sk.buildOp[e];
            double missProb = std::min(st.mrLlc[op] * factor, 1.0);
            missAcc[op] += missProb;
            if (missAcc[op] >= 1.0) {
                missAcc[op] -= 1.0;
                flag[e] = 1;
                ++misses;
            }
        }
        std::vector<MissEvent> &mev = st.missEvents[wi];
        mev.reserve(misses);
        for (const SortedEvent &ev : sk.sorted)
            if (flag[ev.buildIdx])
                mev.push_back({ev.pos, sk.buildOp[ev.buildIdx]});
    }
    return st;
}

MlpEstimate
StrideMlpCache::estimate(const CoreConfig &cfg, const MlpOptions &opt)
{
    MlpEstimate est;
    const bool prefetch = opt.modelPrefetcher && cfg.prefetcherEnabled;
    const uint32_t window = opt.windowUops > 0 ?
        std::min(opt.windowUops, cfg.robSize) : cfg.robSize;
    const L3State &st = l3State(cfg.l3.numLines(), opt.redistributeCold);

    // Residual latency per op after prefetching; 1.0 when the prefetcher
    // is off or its table cannot hold the static loads (strideMlp's
    // latFactor, hoisted out of the event loop — it is per-op constant).
    const bool tableHolds = staticLoads_ <= cfg.prefetcherEntries;
    std::vector<double> latFactor;
    if (prefetch && tableHolds) {
        classifyStrides();
        latFactor.assign(ops_.size(), 1.0);
        for (size_t i = 0; i < ops_.size(); ++i) {
            const OpStatics &m = ops_[i];
            if (!m.isLoad || m.chase || !m.stridedInPage)
                continue;
            if (m.gap >= cfg.robSize) {
                latFactor[i] = 0.0;
            } else {
                double hidden = m.gap / cfg.dispatchWidth;
                latFactor[i] = std::max(
                    0.0, (cfg.memLatency - hidden) / cfg.memLatency);
            }
        }
    }

    double serialTime = 0;
    double totalMisses = 0;
    double totalWeighted = 0;
    est.windows.reserve(p_.windows.size());
    for (size_t wi = 0; wi < windows_.size(); ++wi) {
        const WindowSkeleton &sk = windows_[wi];
        if (sk.buildOp.empty()) {
            est.windows.push_back({});
            continue;
        }
        const std::vector<MissEvent> &mev = st.missEvents[wi];
        WindowMlp wm;
        double serialTimeW = 0;
        size_t cursor = 0;
        // Same bucket boundaries as strideMlp (lo accumulated by
        // repeated addition); buckets past the last miss contribute
        // nothing there, so stopping early is exact.
        for (double lo = 0; lo < sk.maxPos && cursor < mev.size();
             lo += window) {
            double hi = lo + window;
            double misses = 0, weighted = 0;
            double serialMisses = 0;
            double indepParallel = 0;
            while (cursor < mev.size() && mev[cursor].pos < hi) {
                const MissEvent &v = mev[cursor++];
                misses += 1;
                weighted += latFactor.empty() ? 1.0 : latFactor[v.opIdx];
                if (ops_[v.opIdx].serialChain)
                    serialMisses += 1;
                else
                    indepParallel += st.indepProb[v.opIdx];
            }
            if (misses <= 0)
                continue;
            double freeMisses = misses - serialMisses;
            double parTime = freeMisses / std::max(indepParallel, 1.0);
            double time = std::max({serialMisses, parTime, 1.0});
            double mlp = std::max(misses / time, 1.0);
            if (opt.modelMshrs)
                mlp = mshrCappedMlp(mlp, misses, cfg.mshrs);
            wm.dramMisses += misses;
            wm.latWeighted += weighted;
            serialTimeW += weighted / mlp;
        }
        wm.mlp = serialTimeW > 0 ? wm.latWeighted / serialTimeW : 0;
        serialTime += serialTimeW;
        totalMisses += wm.dramMisses;
        totalWeighted += wm.latWeighted;
        est.windows.push_back(wm);
    }

    double shortfall = std::max(st.expTotal - totalMisses, 0.0);
    double inject = opt.coldInject * shortfall;
    if (inject > 1e-9 && !est.windows.empty()) {
        const size_t ri = p_.robIndex(window);
        double burst = std::max(p_.cold.coldPerDirtyWindow(ri), 1.0);
        double mlpInj = opt.modelMshrs ?
            mshrCappedMlp(burst, burst, cfg.mshrs) : burst;
        for (size_t wi = 0; wi < est.windows.size(); ++wi) {
            double share = coldTotal_ > 0 ?
                p_.windows[wi].coldMisses / coldTotal_ :
                (uopsTotal_ > 0 ? p_.windows[wi].uops() / uopsTotal_
                                : 0.0);
            double add = inject * share;
            if (add <= 0)
                continue;
            WindowMlp &wm = est.windows[wi];
            double timeW = wm.mlp > 0 ? wm.latWeighted / wm.mlp : 0;
            wm.dramMisses += add;
            wm.latWeighted += add;
            timeW += add / mlpInj;
            wm.mlp = timeW > 0 ? wm.latWeighted / timeW : 0;
            totalMisses += add;
            totalWeighted += add;
            serialTime += add / mlpInj;
        }
    }

    est.dramMisses = totalMisses;
    est.latWeighted = totalWeighted;
    est.mlp = serialTime > 0 ?
        std::max(totalWeighted / serialTime, 1.0) : 1.0;
    return est;
}

} // namespace mipp
