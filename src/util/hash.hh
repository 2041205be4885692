/**
 * @file
 * Non-cryptographic 64-bit hashes for integrity checks.
 *
 * xxh64 is the XXH64 algorithm (https://github.com/Cyan4973/xxHash,
 * doc/xxhash_spec.md), written in-tree: it consumes 32-byte stripes in
 * four independent 64-bit lanes, so it runs at several bytes per cycle
 * where a byte-serial hash such as FNV-1a manages about one byte per
 * four cycles. `.mtf` v3 checksums every block and its index with it.
 *
 * fnv1a64 is 64-bit FNV-1a, the checksum of `.mtf` v1 files and of
 * profile files: cheap and plenty to catch truncation or bit rot, but
 * byte-serial.
 */

#ifndef MIPP_UTIL_HASH_HH
#define MIPP_UTIL_HASH_HH

#include <cstddef>
#include <cstdint>

namespace mipp {

/** XXH64 of @p n bytes at @p data with @p seed; e.g. xxh64("", 0, 0) ==
 *  0xEF46DB3751D8E999. */
uint64_t xxh64(const void *data, size_t n, uint64_t seed = 0);

/** FNV-1a-64 of @p n bytes at @p data; e.g. fnv1a64("", 0) ==
 *  0xCBF29CE484222325. */
uint64_t fnv1a64(const void *data, size_t n);

} // namespace mipp

#endif // MIPP_UTIL_HASH_HH
