#include "util/hash.hh"

#include <cstring>

namespace mipp {

namespace {

constexpr uint64_t kP1 = 11400714785074694791ull;
constexpr uint64_t kP2 = 14029467366897019727ull;
constexpr uint64_t kP3 = 1609587929392839161ull;
constexpr uint64_t kP4 = 9650029242287828579ull;
constexpr uint64_t kP5 = 2870177450012600261ull;

inline uint64_t
rotl(uint64_t x, int r)
{
    return (x << r) | (x >> (64 - r));
}

/** Little-endian loads; memcpy keeps unaligned reads defined. */
inline uint64_t
load64(const uint8_t *p)
{
    uint64_t v;
    std::memcpy(&v, p, sizeof v);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    v = __builtin_bswap64(v);
#endif
    return v;
}

inline uint64_t
load32(const uint8_t *p)
{
    uint32_t v;
    std::memcpy(&v, p, sizeof v);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    v = __builtin_bswap32(v);
#endif
    return v;
}

inline uint64_t
xxRound(uint64_t acc, uint64_t input)
{
    acc += input * kP2;
    acc = rotl(acc, 31);
    return acc * kP1;
}

inline uint64_t
mergeRound(uint64_t acc, uint64_t lane)
{
    acc ^= xxRound(0, lane);
    return acc * kP1 + kP4;
}

} // namespace

uint64_t
xxh64(const void *data, size_t n, uint64_t seed)
{
    const uint8_t *p = static_cast<const uint8_t *>(data);
    const uint8_t *const end = p + n;
    uint64_t h;
    if (n >= 32) {
        uint64_t v1 = seed + kP1 + kP2, v2 = seed + kP2, v3 = seed,
                 v4 = seed - kP1;
        for (const uint8_t *limit = end - 32; p <= limit; p += 32) {
            v1 = xxRound(v1, load64(p));
            v2 = xxRound(v2, load64(p + 8));
            v3 = xxRound(v3, load64(p + 16));
            v4 = xxRound(v4, load64(p + 24));
        }
        h = rotl(v1, 1) + rotl(v2, 7) + rotl(v3, 12) + rotl(v4, 18);
        h = mergeRound(h, v1);
        h = mergeRound(h, v2);
        h = mergeRound(h, v3);
        h = mergeRound(h, v4);
    } else {
        h = seed + kP5;
    }
    h += n;
    for (; end - p >= 8; p += 8) {
        h ^= xxRound(0, load64(p));
        h = rotl(h, 27) * kP1 + kP4;
    }
    if (end - p >= 4) {
        h ^= load32(p) * kP1;
        h = rotl(h, 23) * kP2 + kP3;
        p += 4;
    }
    for (; p < end; ++p) {
        h ^= *p * kP5;
        h = rotl(h, 11) * kP1;
    }
    h ^= h >> 33;
    h *= kP2;
    h ^= h >> 29;
    h *= kP3;
    h ^= h >> 32;
    return h;
}

uint64_t
fnv1a64(const void *data, size_t n)
{
    const auto *p = static_cast<const uint8_t *>(data);
    uint64_t h = 14695981039346656037ull;
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace mipp
