/**
 * @file
 * Functional-with-latency cache hierarchy for the reference simulator.
 *
 * Three inclusive levels of set-associative LRU caches plus a DRAM model
 * with a single shared memory bus (queuing delay, thesis §4.7) and an
 * optional per-PC stride prefetcher (thesis §4.9). Accesses return the
 * full latency the requesting core observes; the hierarchy keeps the
 * detailed per-level statistics the evaluation benches report.
 */

#ifndef MIPP_SIM_MEMORY_HIERARCHY_HH
#define MIPP_SIM_MEMORY_HIERARCHY_HH

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "uarch/core_config.hh"

namespace mipp {

/** One set-associative LRU cache level, indexed by line (byte address /
 *  kLineSize, so below 2^58). */
class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg);

    /** Look up @p line, updating LRU state. @return hit? */
    bool lookup(uint64_t line);

    /** Check residency without disturbing LRU state. */
    bool peek(uint64_t line) const;

    /** Evicted dirty/clean line if any. */
    struct Victim {
        uint64_t line;
        bool dirty;
    };

    /** Insert @p line (possibly dirty); @return the victim if one. */
    std::optional<Victim> insert(uint64_t line, bool dirty);

    /** Mark a resident line dirty (store hit / inner-level writeback).
     *  @return whether the line was resident — a false return means the
     *  dirty data has NOT been recorded and the caller must write it
     *  back elsewhere. */
    bool markDirty(uint64_t line);

    /** Remove @p line if resident (back-invalidation).
     *  @return whether the removed copy was dirty (lost unless the
     *  caller writes it back). */
    bool invalidate(uint64_t line);

    /** All currently valid lines (test / validation introspection). */
    std::vector<uint64_t> residentLines() const;

    const CacheConfig &config() const { return cfg_; }

  private:
    /** One way in 8 bytes: the line (addresses are 64-bit, so a line
     *  index needs at most 58 bits) with the valid and dirty flags in the
     *  top bits. All zero is an empty way. */
    struct Way {
        static constexpr uint64_t kValid = 1ULL << 63;
        static constexpr uint64_t kDirty = 1ULL << 62;
        uint64_t bits = 0;

        bool valid() const { return bits & kValid; }
        bool dirty() const { return bits & kDirty; }
        uint64_t line() const { return bits & ~(kValid | kDirty); }
        bool
        holds(uint64_t l) const
        {
            return (bits & ~kDirty) == (l | kValid);
        }
    };

    size_t setIndex(uint64_t line) const { return line % numSets_; }

    CacheConfig cfg_;
    size_t numSets_;
    size_t ways_;
    /** sets_[set * ways_ + i]; index 0 is MRU. */
    std::vector<Way> sets_;
};

/** Kind of memory request. */
enum class AccessKind : uint8_t { Load, Store, Ifetch };

/** Where in the hierarchy a request was satisfied. */
enum class HitLevel : uint8_t { L1 = 1, L2 = 2, L3 = 3, Dram = 4 };

/** Outcome of one hierarchy access. */
struct AccessResult {
    uint32_t latency = 0;    ///< total cycles until data available
    HitLevel level = HitLevel::L1;
    bool coldMiss = false;   ///< DRAM access to a never-touched line
    bool prefetched = false; ///< satisfied (fully/partially) by a prefetch
};

/** Aggregate statistics per cache level. */
struct LevelStats {
    uint64_t loadAccesses = 0, loadMisses = 0;
    uint64_t storeAccesses = 0, storeMisses = 0;
    uint64_t ifetchAccesses = 0, ifetchMisses = 0;

    uint64_t accesses() const
    {
        return loadAccesses + storeAccesses + ifetchAccesses;
    }
    uint64_t misses() const
    {
        return loadMisses + storeMisses + ifetchMisses;
    }
};

/** Full memory-side statistics. */
struct MemoryStats {
    LevelStats l1i, l1d, l2, l3;
    uint64_t dramAccesses = 0;
    uint64_t coldLoadMisses = 0, capacityLoadMisses = 0;
    uint64_t coldStoreMisses = 0, capacityStoreMisses = 0;
    uint64_t writebacks = 0;
    uint64_t busWaitCycles = 0;   ///< total queueing delay behind the bus
    uint64_t prefetchesIssued = 0;
    uint64_t prefetchHits = 0;    ///< demand hits on prefetched lines
    /** Completed prefetches installed into L2/L3 before any demand use. */
    uint64_t prefetchesInstalled = 0;
};

/** Inclusive three-level hierarchy + DRAM + bus + stride prefetcher. */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const CoreConfig &cfg);

    /**
     * Perform an access for the line containing @p addr.
     *
     * @param addr byte address
     * @param pc   static pc of the requesting uop (prefetcher training)
     * @param kind load / store / ifetch
     * @param now  current core cycle
     */
    AccessResult access(uint64_t addr, uint64_t pc, AccessKind kind,
                        uint64_t now);

    /** Hit level @p addr would see right now, without any state change. */
    HitLevel peekLevel(uint64_t addr) const;

    const MemoryStats &stats() const { return stats_; }

    // Cache introspection for invariant checks (validate/accuracy, tests).
    const Cache &l1i() const { return l1i_; }
    const Cache &l1d() const { return l1d_; }
    const Cache &l2() const { return l2_; }
    const Cache &l3() const { return l3_; }

  private:
    uint32_t busCycles(uint64_t now);
    void train(uint64_t pc, uint64_t line, uint64_t now);
    void fill(uint64_t line, bool dirty, bool ifetch);
    /** L2 allocation with the never-drop-dirty-victim guarantee. */
    void insertL2(uint64_t line);
    /** Shared (L3 + L2) part of a fill; prefetches stop here. */
    void fillShared(uint64_t line);
    /** Record a dirty L1 victim in L2, else L3, else write it back. */
    void writebackInner(uint64_t line);
    /** Install prefetches whose data has arrived by @p now into L2/L3. */
    void drainPrefetches(uint64_t now);

    const CoreConfig &cfg_;
    Cache l1i_, l1d_, l2_, l3_;
    MemoryStats stats_;

    /** Every line ever brought in from DRAM (cold-miss tracking). */
    std::unordered_set<uint64_t> touched_;

    /** Memory bus: next cycle the bus is free. */
    uint64_t busFreeAt_ = 0;

    /** Per-PC stride prefetcher state. */
    struct StrideEntry {
        uint64_t lastAddr = 0;
        int64_t stride = 0;
        int confidence = 0;
        uint64_t lastUse = 0;
    };
    std::unordered_map<uint64_t, StrideEntry> strideTable_;

    /** In-flight prefetches: line -> cycle the data arrives in L2. */
    std::unordered_map<uint64_t, uint64_t> inFlight_;
    /** Min-heap of (ready cycle, line) mirroring inFlight_, so completed
     *  prefetches are installed in O(log n) without scanning the table.
     *  Entries whose (ready, line) no longer matches inFlight_ are stale
     *  (intercepted by a demand access) and skipped on pop. */
    std::vector<std::pair<uint64_t, uint64_t>> prefetchHeap_;
    /** Installed prefetched lines not yet referenced by a demand access
     *  (attributes later L2/L3 hits to the prefetcher). Entries are
     *  erased on first use or when the line leaves the L3, so the set
     *  is bounded by the L3 capacity and never goes stale. */
    std::unordered_set<uint64_t> prefetchedLines_;
};

} // namespace mipp

#endif // MIPP_SIM_MEMORY_HIERARCHY_HH
