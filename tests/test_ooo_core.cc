/**
 * @file
 * Tests for the cycle-level out-of-order core, using small hand-built
 * traces with analytically known timing, plus a golden-digest identity
 * check over suite workloads and design points.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/ooo_core.hh"
#include "uarch/design_space.hh"
#include "util/hash.hh"
#include "validate/accuracy.hh"
#include "workloads/workload.hh"

namespace mipp {
namespace {

/** Small builder for hand-crafted uop traces. */
class TraceBuilder
{
  public:
    TraceBuilder &
    alu(int8_t dst, int8_t src1 = kNoReg, int8_t src2 = kNoReg)
    {
        MicroOp op;
        op.type = UopType::IntAlu;
        op.pc = nextPc();
        op.dst = dst;
        op.src1 = src1;
        op.src2 = src2;
        trace.push(op);
        return *this;
    }

    TraceBuilder &
    div(int8_t dst, int8_t src1 = kNoReg)
    {
        MicroOp op;
        op.type = UopType::IntDiv;
        op.pc = nextPc();
        op.dst = dst;
        op.src1 = src1;
        trace.push(op);
        return *this;
    }

    TraceBuilder &
    load(uint64_t addr, int8_t dst, int8_t addrReg = kNoReg)
    {
        MicroOp op;
        op.type = UopType::Load;
        op.pc = nextPc();
        op.addr = addr;
        op.dst = dst;
        op.src1 = addrReg;
        trace.push(op);
        return *this;
    }

    TraceBuilder &
    branch(bool taken, uint64_t pc = 0)
    {
        MicroOp op;
        op.type = UopType::Branch;
        op.pc = pc ? pc : nextPc();
        op.taken = taken;
        trace.push(op);
        return *this;
    }

    Trace trace;

  private:
    uint64_t
    nextPc()
    {
        return 0x400000 + 8 * trace.size();
    }
};

CoreConfig
testConfig()
{
    CoreConfig cfg = CoreConfig::nehalemReference();
    return cfg;
}

SimOptions
idealOptions()
{
    SimOptions o;
    o.perfectBranch = true;
    o.perfectICache = true;
    o.perfectDCache = true;
    return o;
}

TEST(OooCore, IndependentAluApproachWidth)
{
    TraceBuilder b;
    for (int i = 0; i < 4000; ++i)
        b.alu(static_cast<int8_t>(4 + i % 10));
    auto res = simulate(b.trace, testConfig(), idealOptions());
    // 4-wide core, fully independent single-cycle ops: IPC close to 3
    // once the pipeline is full (destination-register reuse every 10 ops
    // creates mild dependences).
    EXPECT_GT(res.ipc(), 2.4);
    EXPECT_LE(res.ipc(), 4.0);
}

TEST(OooCore, SerialChainRunsAtOneIpc)
{
    TraceBuilder b;
    for (int i = 0; i < 2000; ++i)
        b.alu(4, 4); // every op depends on the previous one
    auto res = simulate(b.trace, testConfig(), idealOptions());
    EXPECT_NEAR(res.cpiPerUop(), 1.0, 0.05);
}

TEST(OooCore, NonPipelinedDividerSerializes)
{
    CoreConfig cfg = testConfig();
    TraceBuilder b;
    for (int i = 0; i < 200; ++i)
        b.div(static_cast<int8_t>(4 + i % 8)); // independent divides
    auto res = simulate(b.trace, cfg, idealOptions());
    // One non-pipelined divider with 20-cycle latency: ~20 CPI.
    double divLat = cfg.lat.of(UopType::IntDiv);
    EXPECT_NEAR(res.cpiPerUop(), divLat, divLat * 0.15);
}

TEST(OooCore, LoadPortLimitsThroughput)
{
    // All loads, single load port: at most 1 uop/cycle.
    TraceBuilder b;
    for (int i = 0; i < 3000; ++i)
        b.load(0x1000 + (i % 64) * 8, static_cast<int8_t>(4 + i % 8));
    auto res = simulate(b.trace, testConfig(), idealOptions());
    EXPECT_GE(res.cpiPerUop(), 0.95);
    EXPECT_LT(res.cpiPerUop(), 1.3);
}

TEST(OooCore, DramMissCostsMemoryLatency)
{
    CoreConfig cfg = testConfig();
    TraceBuilder b;
    // Dependent chain: load -> 100 dependent alus -> done. The load
    // goes to DRAM (cold).
    b.load(0x40000000, 4);
    for (int i = 0; i < 100; ++i)
        b.alu(4, 4);
    auto res = simulate(b.trace, cfg);
    EXPECT_GT(res.cycles, cfg.memLatency);
    EXPECT_GT(res.stack.dram, 0.0);
}

TEST(OooCore, PerfectDCacheRemovesDramStalls)
{
    CoreConfig cfg = testConfig();
    TraceBuilder b;
    for (int i = 0; i < 500; ++i) {
        b.load(0x40000000 + i * 4096, static_cast<int8_t>(4));
        b.alu(5, 4);
    }
    SimOptions ideal = idealOptions();
    auto real = simulate(b.trace, cfg);
    auto perfect = simulate(b.trace, cfg, ideal);
    EXPECT_GT(real.cycles, 2 * perfect.cycles);
    EXPECT_DOUBLE_EQ(perfect.stack.dram, 0.0);
}

TEST(OooCore, MispredictsAddFrontendPenalty)
{
    CoreConfig cfg = testConfig();
    TraceBuilder b;
    // Random-looking branch pattern the predictor cannot learn well,
    // interleaved with a little work.
    uint32_t lfsr = 0xACE1u;
    for (int i = 0; i < 2000; ++i) {
        b.alu(static_cast<int8_t>(4 + i % 8));
        lfsr = (lfsr >> 1) ^ (-(lfsr & 1u) & 0xB400u);
        b.branch((lfsr & 1) != 0, 0x400008);
    }
    SimOptions opts;
    opts.perfectICache = true;
    opts.perfectDCache = true;
    auto real = simulate(b.trace, cfg, opts);
    auto perfect = simulate(b.trace, cfg, idealOptions());
    EXPECT_GT(real.branchMispredicts, 100u);
    EXPECT_GT(real.cycles, perfect.cycles);
    EXPECT_GT(real.stack.branch, 0.0);
    EXPECT_DOUBLE_EQ(perfect.stack.branch, 0.0);
}

TEST(OooCore, CpiStackSumsToCycles)
{
    TraceBuilder b;
    for (int i = 0; i < 1000; ++i) {
        b.load(0x2000000 + i * 256, static_cast<int8_t>(4 + i % 4));
        b.alu(8, 4);
        b.branch(i % 3 != 0, 0x400010);
    }
    auto res = simulate(b.trace, testConfig());
    EXPECT_NEAR(res.stack.total(), static_cast<double>(res.cycles),
                res.cycles * 0.01 + 2);
}

TEST(OooCore, FewerMshrsSlowParallelMisses)
{
    TraceBuilder b;
    for (int i = 0; i < 400; ++i)
        b.load(0x80000000ull + i * 65536,
               static_cast<int8_t>(4 + i % 8)); // independent DRAM misses
    CoreConfig many = testConfig();
    many.mshrs = 16;
    CoreConfig few = testConfig();
    few.mshrs = 1;
    auto fast = simulate(b.trace, many);
    auto slow = simulate(b.trace, few);
    EXPECT_GT(slow.cycles, fast.cycles * 2);
    EXPECT_LE(fast.avgMlp, 16.0);
    EXPECT_LE(slow.avgMlp, 1.01);
}

TEST(OooCore, MlpMeasuredForParallelStreams)
{
    TraceBuilder b;
    for (int i = 0; i < 600; ++i)
        b.load(0x80000000ull + i * 65536, static_cast<int8_t>(4 + i % 8));
    auto res = simulate(b.trace, testConfig());
    EXPECT_GT(res.avgMlp, 3.0);
}

TEST(OooCore, CommitWidthLowerBound)
{
    TraceBuilder b;
    for (int i = 0; i < 4000; ++i)
        b.alu(static_cast<int8_t>(4 + i % 12));
    auto res = simulate(b.trace, testConfig(), idealOptions());
    EXPECT_GE(res.cycles * testConfig().commitWidth, res.uops);
}

TEST(OooCore, WindowCpiSeriesProduced)
{
    TraceBuilder b;
    for (int i = 0; i < 50000; ++i)
        b.alu(static_cast<int8_t>(4 + i % 12));
    SimOptions opts = idealOptions();
    opts.cpiWindowUops = 10000;
    auto res = simulate(b.trace, testConfig(), opts);
    EXPECT_GE(res.windowCpi.size(), 4u);
    for (double cpi : res.windowCpi)
        EXPECT_GT(cpi, 0.0);
}

TEST(OooCore, DeterministicAcrossRuns)
{
    TraceBuilder b;
    for (int i = 0; i < 3000; ++i) {
        b.load(0x3000000 + (i * 7919) % 100000 * 8,
               static_cast<int8_t>(4 + i % 6));
        b.branch(i % 5 != 0, 0x400018);
    }
    auto r1 = simulate(b.trace, testConfig());
    auto r2 = simulate(b.trace, testConfig());
    EXPECT_EQ(r1.cycles, r2.cycles);
    EXPECT_EQ(r1.branchMispredicts, r2.branchMispredicts);
    EXPECT_EQ(r1.mem.dramAccesses, r2.mem.dramAccesses);
}

TEST(OooCore, WiderCoreIsNotSlower)
{
    TraceBuilder b;
    for (int i = 0; i < 5000; ++i)
        b.alu(static_cast<int8_t>(4 + i % 12));
    CoreConfig narrow = testConfig();
    narrow.setWidth(2);
    CoreConfig wide = testConfig();
    wide.setWidth(6);
    auto n = simulate(b.trace, narrow, idealOptions());
    auto w = simulate(b.trace, wide, idealOptions());
    EXPECT_LE(w.cycles, n.cycles);
}

TEST(OooCore, ActivityCountsConsistent)
{
    TraceBuilder b;
    for (int i = 0; i < 2000; ++i) {
        b.load(0x5000 + (i % 32) * 8, 4);
        b.alu(5, 4);
    }
    auto res = simulate(b.trace, testConfig());
    EXPECT_EQ(res.activity.uops, res.uops);
    EXPECT_EQ(res.activity.robWrites, res.uops);
    EXPECT_EQ(res.activity.robReads, res.uops);
    EXPECT_EQ(res.activity.cycles, res.cycles);
    EXPECT_EQ(res.activity.fuOps[static_cast<int>(UopType::Load)],
              res.uops / 2);
}

TEST(OooCore, DeadlockIsReportedAtTheSameCycle)
{
    // No port feeds loads, so the first load never issues and nothing
    // commits after it: the deadlock guard fires 1000001 cycles after
    // the last commit, wherever the loop skips quiet cycles.
    CoreConfig cfg = testConfig();
    for (auto &port : cfg.ports)
        std::erase(port.supports, UopType::Load);
    TraceBuilder b;
    b.load(0x1000, 4);
    b.alu(5, 4);
    try {
        simulate(b.trace, cfg);
        FAIL() << "expected a deadlock";
    } catch (const std::logic_error &e) {
        EXPECT_STREQ(e.what(), "simulator deadlock at cycle 1000001");
    }
}

TEST(OooCore, RejectsMoreThan64IssuePorts)
{
    CoreConfig cfg = testConfig();
    cfg.ports.assign(65, cfg.ports[0]);
    TraceBuilder b;
    b.alu(4);
    EXPECT_THROW(simulate(b.trace, cfg), std::invalid_argument);
    cfg.ports.resize(64);
    EXPECT_EQ(simulate(b.trace, cfg).uops, 1u);
}

/** Serializes every SimResult field, in declaration order, for a digest. */
class ResultBytes
{
  public:
    template <typename T>
    void
    put(T v)
    {
        static_assert(std::is_arithmetic_v<T>);
        char raw[sizeof(T)];
        std::memcpy(raw, &v, sizeof(T));
        bytes_.append(raw, sizeof(T));
    }

    void
    put(const LevelStats &s)
    {
        static_assert(sizeof(LevelStats) == 6 * sizeof(uint64_t),
                      "digest every LevelStats field");
        put(s.loadAccesses); put(s.loadMisses);
        put(s.storeAccesses); put(s.storeMisses);
        put(s.ifetchAccesses); put(s.ifetchMisses);
    }

    void
    put(const SimResult &r)
    {
        put(r.cycles); put(r.uops); put(r.instructions);
        put(r.branches); put(r.branchMispredicts);

        static_assert(sizeof(CpiStack) == 6 * sizeof(double),
                      "digest every CpiStack field");
        const CpiStack &s = r.stack;
        put(s.base); put(s.branch); put(s.icache);
        put(s.l2hit); put(s.llcHit); put(s.dram);

        static_assert(sizeof(MemoryStats) == 34 * sizeof(uint64_t),
                      "digest every MemoryStats field");
        const MemoryStats &m = r.mem;
        put(m.l1i); put(m.l1d); put(m.l2); put(m.l3);
        put(m.dramAccesses);
        put(m.coldLoadMisses); put(m.capacityLoadMisses);
        put(m.coldStoreMisses); put(m.capacityStoreMisses);
        put(m.writebacks); put(m.busWaitCycles);
        put(m.prefetchesIssued); put(m.prefetchHits);
        put(m.prefetchesInstalled);

        static_assert(sizeof(ActivityCounts) ==
                          (15 + kNumUopTypes) * sizeof(uint64_t),
                      "digest every ActivityCounts field");
        const ActivityCounts &a = r.activity;
        put(a.cycles); put(a.uops); put(a.instructions);
        for (uint64_t n : a.fuOps)
            put(n);
        put(a.robWrites); put(a.robReads); put(a.iqWrites);
        put(a.iqWakeups); put(a.rfReads); put(a.rfWrites);
        put(a.bpLookups); put(a.l1iAccesses); put(a.l1dAccesses);
        put(a.l2Accesses); put(a.l3Accesses); put(a.dramAccesses);

        put(r.avgMlp);
        put(r.dramCycles);
        put(static_cast<uint64_t>(r.windowCpi.size()));
        for (double c : r.windowCpi)
            put(c);
    }

    uint64_t digest() const { return xxh64(bytes_.data(), bytes_.size()); }

  private:
    std::string bytes_;
};

const CoreConfig &
designPoint(const std::string &name)
{
    static const DesignSpace space;
    for (const auto &c : space.configs())
        if (c.name == name)
            return c;
    throw std::invalid_argument("no design point " + name);
}

/**
 * The identity grid: the CI accuracy grid, design points at each ROB
 * size, the reference machine with the prefetcher, and a corner machine
 * (few MSHRs, an IQ and LSQ smaller than the ROB, a zero-latency ALU, no
 * front-end depth) that exercises the simulator's edge rules.
 */
std::vector<CoreConfig>
identityGrid()
{
    std::vector<CoreConfig> grid = accuracyGrid("ci");
    grid.push_back(designPoint("w6_rob64_l1d32k_l2256k_l38m"));
    grid.push_back(designPoint("w2_rob128_l1d64k_l2512k_l332m"));
    grid.push_back(designPoint("w4_rob256_l1d16k_l2128k_l32m"));
    CoreConfig pf = CoreConfig::nehalemReference();
    pf.prefetcherEnabled = true;
    pf.name = "nehalem_pf";
    grid.push_back(pf);
    CoreConfig corner = CoreConfig::nehalemReference();
    corner.setWidth(6);
    corner.robSize = 96;
    corner.iqSize = 20;
    corner.lsqSize = 12;
    corner.mshrs = 2;
    corner.frontendDepth = 0;
    corner.lat.of(UopType::IntAlu) = 0;
    corner.fus[static_cast<int>(UopType::FpMul)] = {2, false};
    corner.memLatency = 120;
    corner.busTransferCycles = 24;
    corner.prefetcherEnabled = true;
    corner.name = "corner";
    grid.push_back(corner);
    return grid;
}

/**
 * Every SimResult field, digested over the eight combinations of the
 * SimOptions perfect flags, for each (workload, identityGrid() config).
 * Recorded from the per-cycle simulator before it became event-driven;
 * a mismatch is a simulator change, never a reason to re-record.
 */
struct GoldenRow {
    const char *workload;
    uint64_t digest[7];
};

constexpr GoldenRow kGolden[] = {
    {"matrix_tile",
     {0xe26466db53881d83, 0xa530b9dfe3eb3e5a,
      0xf86f5d41791645d1, 0xa43d3d81965a2362,
      0x0ed1c12d271ef3f3, 0xdc6965ad9a62c6d3,
      0xf6c4cdfb2a45798d}},
    {"stencil",
     {0x301339e9382c9b55, 0xb9a730bc06221c31,
      0x5053fc5c95afa9ef, 0x5fa1d897fa7fbe76,
      0x055aa9f8d78722df, 0x58abdea7c0e0bc74,
      0xc0b5e7a8a4a6e2e0}},
    {"hash_build",
     {0xf08e402f16d79c1c, 0x1c01827d2349e9f2,
      0xd36b053702e6dc7f, 0x8045f1d2922a0424,
      0xf103383a098c619c, 0xf08e402f16d79c1c,
      0xf63bcafd3b366d4f}},
    {"branchy",
     {0x2891c55ba85ffcec, 0x33dfd842a8a26c4a,
      0x8bbeec70be344aa1, 0x6fb592dccdd1d33b,
      0x07654b8f935cbe71, 0x3cc994492c9fafa3,
      0xa5dde144cdfb184e}},
    {"ptr_chase",
     {0x6eb5cc51a41d9cfc, 0x5500d48e93ce4e01,
      0xba89d00cf0fbd8db, 0xc1f611817a1f4da8,
      0xe07f28c0626ba69a, 0x6eb5cc51a41d9cfc,
      0x616439dbfc912ca7}},
    {"div_heavy",
     {0x643dedf9ff8fbc33, 0xab3784ba1f6598e3,
      0x513eb09d8eaf1792, 0x43bddbf3f84b657a,
      0xf35150ee707a4a10, 0xc8f6e4cf64ebe18a,
      0x36849c6e2372b10b}},
    {"scatter_store",
     {0xe1399d7bfaf02deb, 0x19106d47220cc81a,
      0x7ada55f779ae3ce0, 0x7e04b807cc975eae,
      0x3c791b1c4147fb01, 0x0245156574dd320f,
      0x6efe436e634cdf1e}},
};

TEST(OooCore, EverySimResultFieldMatchesTheGoldenDigests)
{
    const std::vector<CoreConfig> grid = identityGrid();
    ASSERT_EQ(grid.size(), std::size(kGolden[0].digest));
    for (const GoldenRow &row : kGolden) {
        const Trace trace =
            generateWorkload(suiteWorkload(row.workload), 6000);
        for (size_t c = 0; c < grid.size(); ++c) {
            ResultBytes bytes;
            for (int flags = 0; flags < 8; ++flags) {
                SimOptions opts;
                opts.perfectBranch = flags & 1;
                opts.perfectICache = flags & 2;
                opts.perfectDCache = flags & 4;
                opts.cpiWindowUops = 700;
                bytes.put(simulate(trace, grid[c], opts));
            }
            EXPECT_EQ(bytes.digest(), row.digest[c])
                << row.workload << " on " << grid[c].name << ": 0x"
                << std::hex << bytes.digest();
        }
    }
}

} // namespace
} // namespace mipp
