#include "sim/ooo_core.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <deque>
#include <functional>
#include <queue>
#include <stdexcept>

#include "sim/branch_predictor.hh"

namespace mipp {

namespace {

/** Result-visibility cycle of an entry that has not issued. */
constexpr uint64_t kNever = ~0ULL;

/** Cycles without a commit after which the simulator reports a deadlock. */
constexpr uint64_t kDeadlockCycles = 1000000;

/** One in-flight instruction in the reorder buffer. */
struct RobEntry {
    MicroOp op;
    uint64_t seq = 0;
    bool issued = false;
    uint64_t doneCycle = 0;   ///< issued: cycle the result is produced
    /** First cycle dependents and commit see the result:
     *  max(doneCycle, issue cycle + 1), kNever until issued. */
    uint64_t readyCycle = kNever;
    int64_t src1Seq = -1;     ///< producing seq, -1 when already available
    int64_t src2Seq = -1;
    HitLevel level = HitLevel::L1;     ///< loads: where data came from
};

/** A fetched uop travelling down the front-end pipeline. */
struct PendingUop {
    MicroOp op;
    uint64_t readyCycle = 0;
    bool mispredicted = false;
};

/** An L1D miss in flight: the line, its data-ready cycle, from DRAM? */
struct OutstandingMiss {
    uint64_t line;
    uint64_t doneCycle;
    bool dram;
};

/** Why instruction delivery is currently stalled. */
enum class FetchStall { None, Branch, ICache };

/**
 * The core steps cycle by cycle while any stage changes state. After a
 * cycle in which no stage did, every later cycle repeats it until the
 * next pending event (see nextEvent()), so run() jumps straight there
 * and accounts the skipped cycles in bulk.
 */
class Core
{
  public:
    Core(const CoreConfig &cfg, const SimOptions &opts)
        : cfg_(cfg), opts_(opts), mem_(cfg),
          bp_(BranchPredictor::create(cfg.predictor, cfg.predictorBytes)),
          feBufferCap_(cfg.fetchWidth * (cfg.frontendDepth + 2))
    {
        if (cfg_.ports.size() > 64)
            throw std::invalid_argument(
                "simulator supports at most 64 issue ports");
        for (size_t p = 0; p < cfg_.ports.size(); ++p) {
            for (UopType t : cfg_.ports[p].supports)
                portMask_[static_cast<int>(t)] |= 1ULL << p;
        }
        for (int t = 0; t < kNumUopTypes; ++t) {
            if (!cfg_.fus[t].pipelined)
                fuBusyUntil_[t].assign(cfg_.fus[t].count, 0);
        }
        outstanding_.reserve(cfg_.mshrs);
    }

    SimResult run(const Trace &trace);

  private:
    // Pipeline stages, called once per simulated cycle.
    void complete();
    uint32_t commit();
    void issue();
    void dispatch();
    void fetch(const Trace &trace);
    void account(uint32_t commits);

    double &stallComponent(uint32_t commits);
    uint64_t nextEvent(uint64_t limit);

    RobEntry &entry(uint64_t seq) { return rob_[seq & robMask_]; }
    bool srcReady(int64_t seq);
    bool tryIssueOne(RobEntry &e);
    void startLoad(RobEntry &e);
    const OutstandingMiss *outstandingMiss(uint64_t line) const;

    const CoreConfig &cfg_;
    const SimOptions opts_;
    MemoryHierarchy mem_;
    std::unique_ptr<BranchPredictor> bp_;

    uint64_t now_ = 0;
    size_t fetchIndex_ = 0;
    size_t traceSize_ = 0;
    /** Set by any stage that changes state this cycle. */
    bool active_ = false;

    /** ROB ring indexed by seq: holds seqs [headSeq_, nextSeq_). */
    std::vector<RobEntry> rob_;
    uint64_t robMask_ = 0;
    uint64_t headSeq_ = 0;
    uint64_t nextSeq_ = 0;
    /** Dispatched, not yet issued seqs, oldest first (the IQ). */
    std::vector<uint64_t> waiting_;
    /** readyCycle of the issued entries whose result is not yet
     *  visible, earliest on top; complete() pops the ones that became
     *  visible. */
    std::priority_queue<uint64_t, std::vector<uint64_t>,
                        std::greater<uint64_t>> pendingReady_;

    std::deque<PendingUop> feBuffer_;
    const size_t feBufferCap_;
    uint32_t lsqOccupancy_ = 0;

    /** Rename map: architectural register -> producing seq (-1 = ready). */
    int64_t renameMap_[kNumRegs] = {};

    // Front-end stall machinery.
    uint64_t fetchStallUntil_ = 0;
    FetchStall stallReason_ = FetchStall::None;
    bool fetchBlocked_ = false;     ///< waiting on a mispredicted branch
    /** The mispredicted branch fetch waits on, once dispatched. */
    int64_t blockingSeq_ = -1;
    uint64_t lastFetchLine_ = ~0ULL;

    // Issue-stage resources.
    std::array<uint64_t, kNumUopTypes> portMask_{};  ///< ports per type
    uint64_t portsUsed_ = 0;                         ///< this cycle
    uint32_t fuIssued_[kNumUopTypes] = {};           ///< this cycle
    /** Non-pipelined units: cycle each unit frees up. */
    std::array<std::vector<uint64_t>, kNumUopTypes> fuBusyUntil_;

    /** Outstanding L1D misses (at most cfg.mshrs, one per line). */
    std::vector<OutstandingMiss> outstanding_;
    uint32_t dramOutstanding_ = 0;

    SimResult res_;
    /** The CPI component the last simulated cycle was charged to. */
    double *lastComponent_ = nullptr;
    uint64_t committedUops_ = 0;
    uint64_t committedInsts_ = 0;
    uint64_t lastWindowCycle_ = 0;
    uint64_t lastWindowUops_ = 0;
    uint64_t mlpSum_ = 0;
};

bool
Core::srcReady(int64_t seq)
{
    // Negative: no producer; below the head: the producer committed.
    if (seq < static_cast<int64_t>(headSeq_))
        return true;
    return entry(seq).readyCycle <= now_;
}

const OutstandingMiss *
Core::outstandingMiss(uint64_t line) const
{
    for (const OutstandingMiss &m : outstanding_)
        if (m.line == line)
            return &m;
    return nullptr;
}

void
Core::complete()
{
    // Retire outstanding misses whose data has arrived.
    for (size_t i = 0; i < outstanding_.size();) {
        if (outstanding_[i].doneCycle <= now_) {
            dramOutstanding_ -= outstanding_[i].dram;
            outstanding_[i] = outstanding_.back();
            outstanding_.pop_back();
            active_ = true;
        } else {
            ++i;
        }
    }
    while (!pendingReady_.empty() && pendingReady_.top() <= now_)
        pendingReady_.pop();
    // A resolved mispredicted branch restarts fetch after the refill.
    if (blockingSeq_ >= 0) {
        const RobEntry &e = entry(blockingSeq_);
        if (e.readyCycle <= now_) {
            fetchBlocked_ = false;
            fetchStallUntil_ = e.doneCycle + cfg_.frontendDepth;
            stallReason_ = FetchStall::Branch;
            blockingSeq_ = -1;
            active_ = true;
        }
    }
}

uint32_t
Core::commit()
{
    uint32_t commits = 0;
    while (headSeq_ < nextSeq_ && commits < cfg_.commitWidth) {
        RobEntry &head = entry(headSeq_);
        if (head.readyCycle > now_)
            break;
        if (head.op.type == UopType::Store) {
            // Write-back at retirement; the core does not wait for it.
            mem_.access(head.op.addr, head.op.pc, AccessKind::Store, now_);
            lsqOccupancy_--;
        } else if (head.op.type == UopType::Load) {
            lsqOccupancy_--;
        }
        res_.activity.robReads++;
        if (head.op.dst != kNoReg) {
            res_.activity.rfWrites++;
            // Clear the rename entry if this uop is still the last writer.
            if (renameMap_[head.op.dst] ==
                static_cast<int64_t>(head.seq))
                renameMap_[head.op.dst] = -1;
        }
        committedUops_++;
        committedInsts_ += head.op.instBoundary ? 1 : 0;
        headSeq_++;
        commits++;

        // Per-window CPI series for phase analysis.
        if (opts_.cpiWindowUops &&
            committedUops_ - lastWindowUops_ >= opts_.cpiWindowUops) {
            double cycles = static_cast<double>(now_ - lastWindowCycle_);
            double uops =
                static_cast<double>(committedUops_ - lastWindowUops_);
            res_.windowCpi.push_back(cycles / uops);
            lastWindowCycle_ = now_;
            lastWindowUops_ = committedUops_;
        }
    }
    if (commits > 0)
        active_ = true;
    return commits;
}

void
Core::startLoad(RobEntry &e)
{
    if (opts_.perfectDCache) {
        e.level = HitLevel::L1;
        e.doneCycle = now_ + cfg_.l1d.latency;
        return;
    }
    uint64_t line = e.op.lineAddr();
    if (const OutstandingMiss *m = outstandingMiss(line)) {
        // Coalesce with an outstanding miss to the same line.
        e.level = m->dram ? HitLevel::Dram : HitLevel::L2;
        e.doneCycle = std::max<uint64_t>(m->doneCycle,
                                         now_ + cfg_.l1d.latency);
        return;
    }
    AccessResult r = mem_.access(e.op.addr, e.op.pc, AccessKind::Load, now_);
    e.level = r.level;
    e.doneCycle = now_ + r.latency;
    if (r.level != HitLevel::L1) {
        bool dram = r.level == HitLevel::Dram;
        outstanding_.push_back({line, e.doneCycle, dram});
        dramOutstanding_ += dram;
    }
}

bool
Core::tryIssueOne(RobEntry &e)
{
    int t = static_cast<int>(e.op.type);

    // Structural check: MSHRs for loads that will miss in L1D. The
    // cheap terms go first; peekLevel() only runs when MSHRs are full.
    if (e.op.type == UopType::Load && !opts_.perfectDCache &&
        outstanding_.size() >= cfg_.mshrs &&
        !outstandingMiss(e.op.lineAddr()) &&
        mem_.peekLevel(e.op.addr) != HitLevel::L1)
        return false;

    // The lowest-numbered free issue port that feeds this uop type.
    uint64_t freePorts = portMask_[t] & ~portsUsed_;
    if (freePorts == 0)
        return false;

    // A free functional unit.
    const FuPool &pool = cfg_.fus[t];
    if (pool.pipelined) {
        if (fuIssued_[t] >= pool.count)
            return false;
    } else {
        auto &busy = fuBusyUntil_[t];
        auto unit = std::find_if(busy.begin(), busy.end(),
                                 [&](uint64_t b) { return b <= now_; });
        if (unit == busy.end())
            return false;
        *unit = now_ + cfg_.lat.of(e.op.type);
    }

    portsUsed_ |= freePorts & -freePorts;
    fuIssued_[t]++;
    e.issued = true;

    res_.activity.iqWakeups++;
    res_.activity.fuOps[t]++;
    res_.activity.rfReads +=
        (e.op.src1 != kNoReg) + (e.op.src2 != kNoReg);

    if (e.op.type == UopType::Load)
        startLoad(e);
    else
        e.doneCycle = now_ + cfg_.lat.of(e.op.type);
    // complete() of the next cycle is the first to see a result.
    e.readyCycle = std::max(e.doneCycle, now_ + 1);
    pendingReady_.push(e.readyCycle);
    return true;
}

void
Core::issue()
{
    portsUsed_ = 0;
    for (int t = 0; t < kNumUopTypes; ++t)
        fuIssued_[t] = 0;

    // Walk the IQ oldest first, compacting out the entries that issue.
    uint32_t issued = 0;
    const uint32_t issue_width = cfg_.numPorts();
    size_t kept = 0;
    size_t i = 0;
    for (; i < waiting_.size() && issued < issue_width; ++i) {
        RobEntry &e = entry(waiting_[i]);
        if (srcReady(e.src1Seq) && srcReady(e.src2Seq) && tryIssueOne(e))
            issued++;
        else
            waiting_[kept++] = waiting_[i];
    }
    if (issued == 0)
        return;
    active_ = true;
    waiting_.erase(std::move(waiting_.begin() + i, waiting_.end(),
                             waiting_.begin() + kept),
                   waiting_.end());
}

void
Core::dispatch()
{
    uint32_t dispatched = 0;
    while (dispatched < cfg_.dispatchWidth && !feBuffer_.empty()) {
        PendingUop &p = feBuffer_.front();
        if (p.readyCycle > now_)
            break;
        if (nextSeq_ - headSeq_ >= cfg_.robSize ||
            waiting_.size() >= cfg_.iqSize)
            break;
        if (isMemory(p.op.type) && lsqOccupancy_ >= cfg_.lsqSize)
            break;

        RobEntry &e = entry(nextSeq_);
        e = RobEntry{};
        e.op = p.op;
        e.seq = nextSeq_++;
        e.src1Seq = p.op.src1 != kNoReg ? renameMap_[p.op.src1] : -1;
        e.src2Seq = p.op.src2 != kNoReg ? renameMap_[p.op.src2] : -1;
        if (p.op.dst != kNoReg)
            renameMap_[p.op.dst] = static_cast<int64_t>(e.seq);
        if (p.mispredicted)
            blockingSeq_ = static_cast<int64_t>(e.seq);
        if (isMemory(p.op.type))
            lsqOccupancy_++;
        waiting_.push_back(e.seq);
        // pop_front() invalidates p; account through the ROB entry.
        feBuffer_.pop_front();
        dispatched++;

        res_.activity.robWrites++;
        res_.activity.iqWrites++;
        res_.activity.uops++;
        res_.activity.instructions += e.op.instBoundary ? 1 : 0;
    }
    if (dispatched > 0)
        active_ = true;
}

void
Core::fetch(const Trace &trace)
{
    if (fetchBlocked_ || now_ < fetchStallUntil_)
        return;
    if (stallReason_ != FetchStall::None) {
        stallReason_ = FetchStall::None;
        active_ = true;
    }

    uint32_t fetched = 0;
    while (fetched < cfg_.fetchWidth && fetchIndex_ < traceSize_ &&
           feBuffer_.size() < feBufferCap_) {
        active_ = true;
        const MicroOp &op = trace[fetchIndex_];

        // Instruction-cache lookup on line crossings.
        uint64_t line = op.pc / kLineSize;
        if (line != lastFetchLine_ && !opts_.perfectICache) {
            AccessResult r =
                mem_.access(op.pc, op.pc, AccessKind::Ifetch, now_);
            lastFetchLine_ = line;
            if (r.level != HitLevel::L1) {
                fetchStallUntil_ = now_ + r.latency;
                stallReason_ = FetchStall::ICache;
                return;
            }
        }
        lastFetchLine_ = line;

        PendingUop p;
        p.op = op;
        p.readyCycle = now_ + cfg_.frontendDepth;
        if (op.type == UopType::Branch) {
            res_.branches++;
            res_.activity.bpLookups++;
            bool correct = bp_->predictAndUpdate(op.pc, op.taken);
            if (!correct && !opts_.perfectBranch) {
                res_.branchMispredicts++;
                p.mispredicted = true;
                fetchBlocked_ = true;
                stallReason_ = FetchStall::Branch;
                feBuffer_.push_back(p);
                fetchIndex_++;
                return;
            }
        }
        feBuffer_.push_back(p);
        fetchIndex_++;
        fetched++;
    }
}

double &
Core::stallComponent(uint32_t commits)
{
    CpiStack &s = res_.stack;
    if (commits > 0)
        return s.base;
    if (headSeq_ < nextSeq_) {
        const RobEntry &head = entry(headSeq_);
        if (head.issued && head.readyCycle > now_ &&
            head.op.type == UopType::Load) {
            switch (head.level) {
              case HitLevel::Dram: return s.dram;
              case HitLevel::L3: return s.llcHit;
              case HitLevel::L2: return s.l2hit;
              default: break;
            }
        }
        return s.base;
    }
    // Empty ROB: the front end is the bottleneck.
    if (fetchBlocked_ || stallReason_ == FetchStall::Branch)
        return s.branch;
    if (stallReason_ == FetchStall::ICache)
        return s.icache;
    return s.base;
}

void
Core::account(uint32_t commits)
{
    // Memory-level parallelism bookkeeping.
    if (dramOutstanding_ > 0) {
        res_.dramCycles++;
        mlpSum_ += dramOutstanding_;
    }
    // CPI-stack attribution (one component per cycle).
    lastComponent_ = &stallComponent(commits);
    *lastComponent_ += 1;
}

/**
 * Earliest cycle after now_, capped at @p limit, at which a stage could
 * act differently than it did in this quiet cycle: an issued result
 * becoming visible, an outstanding miss completing, a fetch stall
 * ending, the front-end buffer head reaching dispatch, or a
 * non-pipelined unit freeing up. Nothing else depends on the cycle.
 */
uint64_t
Core::nextEvent(uint64_t limit)
{
    uint64_t next = limit;
    auto consider = [&](uint64_t cycle) {
        if (cycle > now_ && cycle < next)
            next = cycle;
    };
    if (!pendingReady_.empty())
        consider(pendingReady_.top());
    for (const OutstandingMiss &m : outstanding_)
        consider(m.doneCycle);
    if (!fetchBlocked_)
        consider(fetchStallUntil_);
    if (!feBuffer_.empty())
        consider(feBuffer_.front().readyCycle);
    for (const auto &busy : fuBusyUntil_)
        for (uint64_t b : busy)
            consider(b);
    return next;
}

SimResult
Core::run(const Trace &trace)
{
    traceSize_ = trace.size();
    res_ = SimResult{};
    for (auto &r : renameMap_)
        r = -1;
    // The ROB never holds more than the whole trace.
    size_t window = std::max<size_t>(
        1, std::min<size_t>(cfg_.robSize, traceSize_));
    rob_.resize(std::bit_ceil(window));
    robMask_ = rob_.size() - 1;

    uint64_t last_progress_cycle = 0;
    uint64_t last_committed = 0;
    while (committedUops_ < traceSize_) {
        active_ = false;
        complete();
        uint32_t commits = commit();
        issue();
        dispatch();
        fetch(trace);
        account(commits);

        if (committedUops_ != last_committed) {
            last_committed = committedUops_;
            last_progress_cycle = now_;
        } else if (now_ - last_progress_cycle > kDeadlockCycles) {
            throw std::logic_error("simulator deadlock at cycle " +
                                   std::to_string(now_));
        }
        if (active_) {
            ++now_;
            continue;
        }
        // Quiet cycle: the cycles up to the next event repeat it. The cap
        // lands on the cycle the deadlock check above would fire.
        uint64_t next =
            nextEvent(last_progress_cycle + kDeadlockCycles + 1);
        uint64_t skipped = next - now_ - 1;
        *lastComponent_ += static_cast<double>(skipped);
        if (dramOutstanding_ > 0) {
            res_.dramCycles += skipped;
            mlpSum_ += skipped * dramOutstanding_;
        }
        now_ = next;
    }

    res_.cycles = now_;
    res_.uops = committedUops_;
    res_.instructions = committedInsts_;
    res_.mem = mem_.stats();
    res_.avgMlp = res_.dramCycles ?
        static_cast<double>(mlpSum_) / res_.dramCycles : 1.0;

    ActivityCounts &a = res_.activity;
    a.cycles = now_;
    a.l1iAccesses = res_.mem.l1i.accesses();
    a.l1dAccesses = res_.mem.l1d.accesses();
    a.l2Accesses = res_.mem.l2.accesses();
    a.l3Accesses = res_.mem.l3.accesses();
    a.dramAccesses = res_.mem.dramAccesses;
    return res_;
}

} // namespace

SimResult
simulate(const Trace &trace, const CoreConfig &cfg, const SimOptions &opts)
{
    Core core(cfg, opts);
    return core.run(trace);
}

} // namespace mipp
