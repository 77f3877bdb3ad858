// Open-addressing set of 64-bit keys for hot-path deduplication.
//
// Inserting into a std::unordered_set allocates a node per key; this set
// keeps its keys in one flat power-of-two table (linear probing, load
// factor at most 1/2), so inserts allocate only when the table grows and
// clear() keeps the table for the next round. A burst that grew the
// table far past what later rounds need is released at the next clear(),
// so the retained table stays bounded by recent use.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace abrr::sim {

class KeySet {
 public:
  /// The one key the set cannot hold (it marks free slots).
  static constexpr std::uint64_t kReservedKey = ~std::uint64_t{0};

  /// Inserts `key` (!= kReservedKey); true if it was not present.
  bool insert(std::uint64_t key) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = slot_of(key);; i = (i + 1) & mask) {
      if (slots_[i] == key) return false;
      if (slots_[i] == kReservedKey) {
        slots_[i] = key;
        ++size_;
        return true;
      }
    }
  }

  /// Empties the set. Keeps the table unless it is both larger than the
  /// minimum and more than 8x what this round's keys needed.
  void clear() {
    if (size_ == 0) return;
    if (slots_.size() > kMinSlots && 8 * size_ < slots_.size()) {
      std::vector<std::uint64_t>{}.swap(slots_);
    } else {
      std::fill(slots_.begin(), slots_.end(), kReservedKey);
    }
    size_ = 0;
  }

  std::size_t size() const { return size_; }

 private:
  static constexpr std::size_t kMinSlots = 16;

  std::size_t slot_of(std::uint64_t key) const {
    // Fibonacci hashing: the top bits of a multiplicative mix.
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  void grow() {
    std::vector<std::uint64_t> old;
    old.swap(slots_);
    const std::size_t n = std::max(kMinSlots, 2 * old.size());
    slots_.assign(n, kReservedKey);
    shift_ = 64;
    for (std::size_t s = n; s > 1; s >>= 1) --shift_;
    size_ = 0;
    for (const std::uint64_t key : old) {
      if (key != kReservedKey) insert(key);
    }
  }

  std::vector<std::uint64_t> slots_;
  std::size_t size_ = 0;
  int shift_ = 64;
};

}  // namespace abrr::sim
