#include "bgp/route_set_store.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <memory>
#include <new>
#include <type_traits>

#include "sim/heap_bytes.h"

namespace abrr::bgp {
namespace {

static_assert(std::is_trivially_copyable_v<Route> &&
                  std::is_trivially_destructible_v<Route>,
              "blocks copy routes in and free them without destructors");

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h = (h ^ v) * 0xff51afd7ed558ccdULL;
  return h ^ (h >> 32);
}

std::uint64_t hash_of(std::span<const Route> routes) {
  std::uint64_t h = routes.size();
  for (const Route& r : routes) {
    // The key compares attribute blocks by pointer, so the pointer is
    // what to hash; reading the block's content hash instead would cost
    // a cache miss per route when a cold set is released.
    const auto attrs = static_cast<std::uint64_t>(
        reinterpret_cast<std::uintptr_t>(r.attrs));
    h = mix(h, static_cast<std::uint64_t>(r.prefix.address()) << 8 |
                   r.prefix.length());
    h = mix(h, static_cast<std::uint64_t>(r.path_id) << 32 | r.learned_from);
    h = mix(h, attrs ^ static_cast<std::uint64_t>(r.via) << 62);
  }
  return h;
}

std::size_t block_size(std::size_t routes) {
  return sizeof(RouteSet) + routes * sizeof(Route);
}

}  // namespace

bool RouteSet::holds(std::span<const Route> other) const {
  if (size_ != other.size()) return false;
  const Route* mine = routes();
  for (std::size_t i = 0; i < size_; ++i) {
    const Route& a = mine[i];
    const Route& b = other[i];
    if (a.prefix != b.prefix || a.path_id != b.path_id ||
        a.attrs != b.attrs || a.learned_from != b.learned_from ||
        a.via != b.via) {
      return false;
    }
  }
  return true;
}

RouteSetStore::~RouteSetStore() { drop_all(); }

void RouteSetStore::drop_all() {
  // Pooled blocks go with the arena; only the large ones are freed one
  // by one, and when none is live the table is not walked.
  if (large_bytes_ != 0) {
    for (const Slot& slot : slots_) {
      if (slot.set != nullptr && slot.set->size_ > kPooledRoutes) {
        deallocate(slot.set);
      }
    }
  }
  std::vector<Slot>{}.swap(slots_);
  shift_ = 64;
  live_ = 0;
  arena_ = sim::Arena{};
  free_ = {};
  dropped_ = true;
}

void* RouteSetStore::allocate(std::size_t routes) {
  const std::size_t bytes = block_size(routes);
  if (routes > kPooledRoutes) {
    large_bytes_ += sim::chunk_bytes(bytes);
    return ::operator new(bytes);
  }
  if (void* block = free_[routes]) {
    free_[routes] = *static_cast<void**>(block);
    return block;
  }
  return arena_.allocate(bytes, alignof(Route));
}

void RouteSetStore::deallocate(RouteSet* set) {
  const std::size_t routes = set->size_;
  set->~RouteSet();
  void* block = set;
  if (routes > kPooledRoutes) {
    large_bytes_ -= sim::chunk_bytes(block_size(routes));
    ::operator delete(block);
    return;
  }
  *static_cast<void**>(block) = free_[routes];
  free_[routes] = block;
}

const RouteSet* RouteSetStore::acquire(std::span<const Route> routes) {
  assert(!dropped_ && "acquire after drop_all");
  if (routes.empty()) return nullptr;
  const std::uint64_t hash = hash_of(routes);
  if (4 * (live_ + 1) > 3 * slots_.size()) {
    rehash(std::max<std::size_t>(16, 2 * slots_.size()));
  }
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(hash);
  for (; slots_[i].set != nullptr; i = (i + 1) & mask) {
    if (slots_[i].hash == hash && slots_[i].set->holds(routes)) {
      ++slots_[i].set->refs_;
      return slots_[i].set;
    }
  }
  void* memory = allocate(routes.size());
  auto* set =
      new (memory) RouteSet{static_cast<std::uint32_t>(routes.size())};
  std::uninitialized_copy(routes.begin(), routes.end(),
                          reinterpret_cast<Route*>(set + 1));
  slots_[i] = Slot{hash, set};
  ++live_;
  return set;
}

void RouteSetStore::release(const RouteSet* set) {
  if (set == nullptr || dropped_) return;
  RouteSet* block = const_cast<RouteSet*>(set);
  if (--block->refs_ != 0) return;
  // Find the block's slot from its content hash, then close the gap by
  // backward shift: every later entry of the probe run that may move
  // into the hole does.
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = home(hash_of(*block));
  while (slots_[hole].set != block) hole = (hole + 1) & mask;
  for (std::size_t j = (hole + 1) & mask; slots_[j].set != nullptr;
       j = (j + 1) & mask) {
    const std::size_t want = home(slots_[j].hash);
    // Entry j may fill the hole unless its home lies cyclically in
    // (hole, j].
    if (((j - want) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = Slot{};
  --live_;
  deallocate(block);
}

std::size_t RouteSetStore::bytes() const {
  return arena_.bytes_reserved() + large_bytes_ + sim::heap_bytes(slots_);
}

void RouteSetStore::rehash(std::size_t capacity) {
  std::vector<Slot> previous(capacity);
  previous.swap(slots_);
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
  const std::size_t mask = capacity - 1;
  for (const Slot& slot : previous) {
    if (slot.set == nullptr) continue;
    std::size_t i = home(slot.hash);
    while (slots_[i].set != nullptr) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

}  // namespace abrr::bgp
