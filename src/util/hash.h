// The engine's two general-purpose 64-bit hashes: splitmix64's finalizer
// for fixed-width keys and FNV-1a for byte strings. Exchange routing, the
// distinct-count estimator and plan-cache fingerprints all hash through
// these, so their constants live in one place.
#ifndef CCDB_UTIL_HASH_H_
#define CCDB_UTIL_HASH_H_

#include <cstdint>
#include <string_view>

namespace ccdb {

/// splitmix64's finalizer: full avalanche, so consecutive keys spread
/// across partitions and HyperLogLog registers instead of striping.
constexpr uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// FNV-1a's 64-bit offset basis: the hash of no bytes.
constexpr uint64_t kFnv1aBasis = 0xCBF29CE484222325ull;

/// FNV-1a over `bytes`, continuing from `h` (kFnv1aBasis to start).
constexpr uint64_t Fnv1a(std::string_view bytes, uint64_t h = kFnv1aBasis) {
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

}  // namespace ccdb

#endif  // CCDB_UTIL_HASH_H_
