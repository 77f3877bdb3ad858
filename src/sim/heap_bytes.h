// Heap bytes held by standard containers, for the per-structure memory
// accounting (Speaker::memory(), Testbed::memory()). Each figure is the
// size of the allocator chunks the container holds: its capacity, not
// its size, plus the allocator's per-chunk header and rounding.
#pragma once

#include <cstddef>
#include <unordered_map>
#include <utility>
#include <vector>

namespace abrr::sim {

/// Bytes one `malloc(n)` occupies in glibc's allocator: the request plus
/// an 8-byte header, rounded up to 16 bytes, 32 bytes at least; 0 for no
/// allocation.
constexpr std::size_t chunk_bytes(std::size_t n) {
  if (n == 0) return 0;
  const std::size_t rounded = (n + 8 + 15) & ~std::size_t{15};
  return rounded < 32 ? 32 : rounded;
}

template <typename T>
std::size_t heap_bytes(const std::vector<T>& v) {
  return chunk_bytes(v.capacity() * sizeof(T));
}

/// One node per element (the value plus the next pointer) and the
/// bucket array.
template <typename K, typename V, typename... Rest>
std::size_t heap_bytes(const std::unordered_map<K, V, Rest...>& m) {
  return m.size() * chunk_bytes(sizeof(std::pair<const K, V>) + sizeof(void*)) +
         chunk_bytes(m.bucket_count() * sizeof(void*));
}

}  // namespace abrr::sim
