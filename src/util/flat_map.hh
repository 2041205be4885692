/**
 * @file
 * Open-addressing hash map for u64 keys on profiling hot paths.
 *
 * The profiler performs several hash lookups per uop (reuse distances,
 * branch history counts, static-op indices); `std::unordered_map`'s
 * node-per-entry layout makes each of those a pointer chase. FlatMap keeps
 * {key, value} pairs in one flat array plus a separate occupancy byte
 * array, with power-of-two capacity and linear probing: a lookup is one
 * multiply-shift hash, one occupancy byte and one 16-byte pair — two
 * cache lines on the hit path where a node-based map chases three or
 * more. The dense occupancy bytes stay cache-resident (and memset-clear),
 * which makes miss probes and per-micro-trace resets nearly free. Any u64 key is
 * valid (including 0 and ~0ULL: occupancy is tracked in the separate byte
 * array, not with sentinel keys).
 *
 * Deliberately minimal: no erase (the profiler only inserts and updates),
 * values must be default-constructible, iteration order is unspecified.
 */

#ifndef MIPP_UTIL_FLAT_MAP_HH
#define MIPP_UTIL_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

namespace mipp {

/** Open-addressing u64 -> V hash map (insert/update only, no erase). */
template <typename V>
class FlatMap
{
  public:
    FlatMap() = default;

    /** Pre-size so that @p n entries fit without growing. */
    explicit FlatMap(size_t n) { reserve(n); }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    size_t capacity() const { return slots_.size(); }

    /** Drop all entries but keep the allocated capacity. */
    void
    clear()
    {
        if (size_ == 0)
            return;
        std::memset(used_.data(), 0, used_.size());
        size_ = 0;
    }

    /** Ensure capacity for @p n entries within the max load factor. */
    void
    reserve(size_t n)
    {
        size_t want = kMinCapacity;
        while (want * kMaxLoadNum < n * kMaxLoadDen)
            want <<= 1;
        if (want > slots_.size())
            rehash(want);
    }

    /** Pointer to the value for @p key, or nullptr if absent. */
    V *
    find(uint64_t key)
    {
        if (slots_.empty())
            return nullptr;
        size_t i = probe(key);
        return used_[i] ? &slots_[i].val : nullptr;
    }

    const V *
    find(uint64_t key) const
    {
        return const_cast<FlatMap *>(this)->find(key);
    }

    bool contains(uint64_t key) const { return find(key) != nullptr; }

    /**
     * Hint that @p key will be probed shortly: pulls the home slot's
     * cache lines. With a sequential input stream, probing a large map
     * some tens of elements ahead hides most of its random-access
     * latency (shorter distances don't beat the memory round-trip).
     */
    void
    prefetch(uint64_t key) const
    {
        if (slots_.empty())
            return;
        size_t i = static_cast<size_t>(hash(key)) & (slots_.size() - 1);
        __builtin_prefetch(&used_[i]);
        __builtin_prefetch(&slots_[i]);
    }

    /**
     * Insert `key -> value` if absent; single probe either way. The
     * grow check runs only when actually inserting, so lookups that hit
     * (the steady-state case) pay nothing for it.
     */
    std::pair<V &, bool>
    tryEmplace(uint64_t key, V value = V())
    {
        if (slots_.empty())
            rehash(kMinCapacity);
        size_t i = probe(key);
        if (used_[i])
            return {slots_[i].val, false};
        if ((size_ + 1) * kMaxLoadDen > slots_.size() * kMaxLoadNum) {
            rehash(slots_.size() * 2);
            i = probe(key);
        }
        used_[i] = 1;
        slots_[i].key = key;
        slots_[i].val = std::move(value);
        size_++;
        return {slots_[i].val, true};
    }

    /** Value for @p key, default-constructed on first access. */
    V &operator[](uint64_t key) { return tryEmplace(key).first; }

    /** Apply `fn(key, value)` to every entry (unspecified order). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (size_t i = 0; i < slots_.size(); ++i)
            if (used_[i])
                fn(slots_[i].key, slots_[i].val);
    }

    /** forEach with mutable values. */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (size_t i = 0; i < slots_.size(); ++i)
            if (used_[i])
                fn(slots_[i].key, slots_[i].val);
    }

    /**
     * Fibonacci multiplicative hash, one multiply deep. The high product
     * bits carry the mixing; the xor-shift folds them into the low bits
     * the power-of-two mask keeps. Spreads sequential keys (line
     * addresses, pcs) well, and the shallow latency beats a stronger
     * finalizer on the profiler's probe-per-uop path. Below 2^31 slots
     * the slot index never depends on the top bits, so a caller may
     * split keys across several maps by those bits without skewing any
     * map's probe chains.
     */
    static uint64_t
    hash(uint64_t x)
    {
        x *= 0x9e3779b97f4a7c15ULL;
        return x ^ (x >> 29);
    }

  private:
    struct Slot {
        uint64_t key;
        V val;
    };

    static constexpr size_t kMinCapacity = 16;
    /** Grow beyond 7/8 occupancy to keep probe chains short. */
    static constexpr size_t kMaxLoadNum = 7;
    static constexpr size_t kMaxLoadDen = 8;

    /** Index of @p key's slot, or of the first empty slot in its chain. */
    size_t
    probe(uint64_t key) const
    {
        size_t mask = slots_.size() - 1;
        size_t i = static_cast<size_t>(hash(key)) & mask;
        while (used_[i] && slots_[i].key != key)
            i = (i + 1) & mask;
        return i;
    }

    void
    rehash(size_t newCap)
    {
        std::vector<Slot> oldSlots = std::move(slots_);
        std::vector<uint8_t> oldUsed = std::move(used_);

        slots_.assign(newCap, Slot{0, V()});
        used_.assign(newCap, 0);

        for (size_t i = 0; i < oldSlots.size(); ++i) {
            if (!oldUsed[i])
                continue;
            size_t j = probe(oldSlots[i].key);
            used_[j] = 1;
            slots_[j] = std::move(oldSlots[i]);
        }
    }

    std::vector<Slot> slots_;
    std::vector<uint8_t> used_;
    size_t size_ = 0;
};

} // namespace mipp

#endif // MIPP_UTIL_FLAT_MAP_HH
