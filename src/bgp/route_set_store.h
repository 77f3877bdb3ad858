// Shared storage for the route sets the RIBs hold.
//
// Route reflection hands one set to many routers: every client of an ARR
// receives the same best-AS-level set for a prefix, and after stamping
// `learned_from` with the sending ARR each one would store an identical
// copy. A RouteSetStore keeps each distinct set once, as an immutable,
// refcounted block found by content hash, the way AttrsInterner keeps
// each attribute block once. A testbed shares one store between its
// speakers (as it shares its PrefixIndex); a standalone Speaker or RIB
// owns a private one.
//
// The key is the whole stored content of every route — prefix, path id,
// attribute block, `learned_from` and `via` — because the RIBs read all
// of it: two receivers share a block only when they would have stored
// equal routes. A sender-excluded receiver (one of the set's
// contributors) stores a different set and gets its own block.
//
// Lifetime: acquire() hands out one reference; the holder gives it back
// with release(), and the block is freed when its last reference goes.
// The RIBs release on replace, withdraw, withdraw_peer, clear and
// destruction; a RouteSetRef (below) holds one reference for whoever
// else keeps a set: a message in flight, a queued input, a sender's
// memo. So the store holds exactly the sets someone holds. A store whose
// holders are all about to go can be dropped wholesale (drop_all())
// instead of taking each set back through its table.
// Blocks of up to kPooledRoutes routes are carved from a sim::Arena and
// a freed one goes on a free list for its route count, where the next
// set of that size reuses it: churn allocates nothing, and the store
// keeps at most the peak of what was live per size.
//
// Single-threaded, like the speakers that share it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "bgp/route.h"
#include "sim/arena.h"

namespace abrr::bgp {

/// One stored set: an 8-byte header followed by its routes, in one
/// allocation. Immutable while stored. The content hash lives in the
/// store's table, not here: the header stays one word, which keeps a
/// one-route block in a 48-byte allocator chunk instead of 64.
class RouteSet {
 public:
  RouteSet(const RouteSet&) = delete;
  RouteSet& operator=(const RouteSet&) = delete;

  std::size_t size() const { return size_; }
  const Route* begin() const { return routes(); }
  const Route* end() const { return routes() + size_; }
  const Route& front() const { return routes()[0]; }
  const Route& operator[](std::size_t i) const { return routes()[i]; }
  operator std::span<const Route>() const { return {routes(), size_}; }

 private:
  friend class RouteSetStore;
  explicit RouteSet(std::uint32_t size) : size_(size) {}
  ~RouteSet() = default;

  /// True when this set stores exactly `routes`: every field of every
  /// route, the attribute block by pointer (the store's key).
  bool holds(std::span<const Route> routes) const;

  const Route* routes() const {
    return reinterpret_cast<const Route*>(this + 1);
  }

  std::uint32_t size_;
  std::uint32_t refs_ = 1;
};

static_assert(sizeof(RouteSet) % alignof(Route) == 0,
              "routes follow the header without padding");

class RouteSetStore {
 public:
  RouteSetStore() = default;
  /// Frees whatever is still stored.
  ~RouteSetStore();
  RouteSetStore(const RouteSetStore&) = delete;
  RouteSetStore& operator=(const RouteSetStore&) = delete;

  /// The stored set equal to `routes`, element by element, with one more
  /// reference; a new block when none is stored. Empty `routes` returns
  /// nullptr (nothing is stored for an empty set).
  const RouteSet* acquire(std::span<const Route> routes);

  /// One more reference to stored `set` (not null).
  void retain(const RouteSet* set) { ++const_cast<RouteSet*>(set)->refs_; }

  /// Gives back one reference; frees the set with its last one. Null is
  /// a no-op, and so is every call after drop_all().
  void release(const RouteSet* set);

  /// Frees every stored set at once, without reading a block or probing
  /// the table per set: for a store whose holders are all about to be
  /// destroyed. Their handles dangle from here on and may only be
  /// dropped (release() ignores them); acquire() must not be called
  /// again.
  void drop_all();
  bool dropped() const { return dropped_; }

  /// Distinct sets currently stored.
  std::size_t live_blocks() const { return live_; }

  /// Heap bytes: the arena (live and free blocks), the blocks too large
  /// for it, and the table.
  std::size_t bytes() const;

  /// Sets of up to this many routes are pooled.
  static constexpr std::size_t kPooledRoutes = 32;

 private:
  // Open-addressing (hash -> block) table with linear probing, at most
  // three quarters full; release() removes by backward shift, so there
  // are no tombstones. A slot carries its block's hash, so probing past
  // other blocks reads only the table.
  struct Slot {
    std::uint64_t hash = 0;
    RouteSet* set = nullptr;  // null = empty
  };

  std::size_t home(std::uint64_t hash) const {
    return static_cast<std::size_t>((hash * 0x9e3779b97f4a7c15ULL) >>
                                    shift_);
  }
  void rehash(std::size_t capacity);
  /// Storage for a block of `routes` routes.
  void* allocate(std::size_t routes);
  /// Destroys `set` and frees or pools its storage.
  void deallocate(RouteSet* set);

  std::vector<Slot> slots_;  // size 0 or a power of two
  unsigned shift_ = 64;      // 64 - log2(slots_.size())
  std::size_t live_ = 0;
  sim::Arena arena_;
  /// Free pooled blocks by route count, linked through their first word.
  std::array<void*, kPooledRoutes + 1> free_{};
  std::size_t large_bytes_ = 0;  // allocator chunks of the unpooled blocks
  bool dropped_ = false;
};

/// An owning handle to one stored set: it holds one reference and gives
/// it back when destroyed. Move-only; share() takes another reference to
/// the same set. A null handle holds nothing and reads as the empty set.
/// The store must outlive the handle.
class RouteSetRef {
 public:
  RouteSetRef() = default;
  /// Stores `routes` in `store` and holds the reference (null for an
  /// empty set).
  RouteSetRef(RouteSetStore& store, std::span<const Route> routes)
      : store_(&store), set_(store.acquire(routes)) {}
  RouteSetRef(RouteSetRef&& other) noexcept
      : store_(other.store_), set_(std::exchange(other.set_, nullptr)) {}
  RouteSetRef& operator=(RouteSetRef&& other) noexcept {
    if (this != &other) {
      reset();
      store_ = other.store_;
      set_ = std::exchange(other.set_, nullptr);
    }
    return *this;
  }
  RouteSetRef(const RouteSetRef&) = delete;
  RouteSetRef& operator=(const RouteSetRef&) = delete;
  ~RouteSetRef() { reset(); }

  /// Another reference to the same set.
  RouteSetRef share() const {
    RouteSetRef copy;
    copy.store_ = store_;
    copy.set_ = set_;
    if (set_ != nullptr) store_->retain(set_);
    return copy;
  }

  const RouteSet* get() const { return set_; }
  RouteSetStore* store() const { return store_; }
  explicit operator bool() const { return set_ != nullptr; }
  std::size_t size() const { return set_ != nullptr ? set_->size() : 0; }
  std::span<const Route> routes() const {
    return set_ != nullptr ? std::span<const Route>{*set_}
                           : std::span<const Route>{};
  }

  /// Hands the reference to the caller, who must release it; the handle
  /// is left null.
  const RouteSet* release() { return std::exchange(set_, nullptr); }

  /// Gives the reference back now; the handle is left null.
  void reset() {
    if (set_ != nullptr) store_->release(std::exchange(set_, nullptr));
  }

 private:
  RouteSetStore* store_ = nullptr;
  const RouteSet* set_ = nullptr;
};

}  // namespace abrr::bgp
