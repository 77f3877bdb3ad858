// Canonical path-attribute storage (BIRD/Quagga-style "attrhash").
//
// Identical attribute sets — which route reflection multiplies across
// every client session — are stored once per interner. Interning gives
// two hot-path wins: (1) memory: an ARR reflecting one attribute block
// to hundreds of clients shares a single allocation, and (2) time:
// every block carries a precomputed 64-bit content hash, so route-set
// hashing and announcement comparison degrade from deep struct walks to
// one pointer compare (canonical blocks with equal content are the
// *same* block) or one integer compare.
//
// Storage model: each block is one compact AttrBlock, bump-allocated
// from an arena the interner owns, with its lists inline; it owns no
// heap memory, so nothing runs per block when the arena is dropped.
// Nothing is refcounted — a block stays valid until the owning interner
// is reset, which the experiment runner does at the *start* of each
// trial (via TrialScope), when no route of the previous trial can still
// be alive.
//
// The simulator is single-threaded; the interner is not synchronized.
// global() is THREAD-LOCAL: each worker thread of the parallel
// experiment runner gets its own table, keeping trials thread-confined
// without locks (interning only folds equal allocations, so per-thread
// tables cannot change any result).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bgp/attributes.h"
#include "sim/arena.h"

namespace abrr::bgp {

/// 64-bit content hash over every semantic field of an attribute set
/// (everything operator== compares). Never returns 0.
std::uint64_t attrs_content_hash(const AttrsView& attrs);

/// Canonicalization table + arena storage for AttrBlocks.
///
/// Blocks are arena-allocated and never individually freed: the table
/// is an index over live arena storage, not an owner of refcounts. The
/// interner stays bounded because every trial starts by resetting its
/// thread's trial interner (TrialScope below), reusing the arena chunks
/// the previous trial on that worker warmed up.
class AttrsInterner {
 public:
  /// The calling thread's ACTIVE interner, used by make_attrs(): the
  /// trial interner while a TrialScope is open, otherwise a default
  /// per-thread instance (tests, CLI tools, benches).
  static AttrsInterner& global();

  /// Canonicalizes `attrs`: returns the existing block when an equal one
  /// is live, otherwise copies `attrs` into a fresh arena block.
  AttrsPtr intern(const PathAttrs& attrs) {
    return intern(attrs, attrs_content_hash(attrs));
  }

  /// intern() with the content hash already known. `hash` must be
  /// attrs_content_hash(attrs), except in tests that force collisions.
  AttrsPtr intern(const PathAttrs& attrs, std::uint64_t hash);

  /// Arena bytes a typical block takes (header plus a few ASNs), which
  /// reserve() sizes the arena by.
  static constexpr std::size_t kTypicalBlockBytes = 64;

  /// Pre-sizes table and arena for an expected number of distinct
  /// blocks (ScenarioSpec scale hint); avoids rehash/arena growth mid-trial.
  void reserve(std::size_t expected_blocks);

  /// Drops every block and rewinds the arena for reuse. All
  /// previously returned AttrsPtr values become dangling — callers
  /// (TrialScope) must only reset when no Route can still be alive.
  void reset();

  /// Distinct canonical blocks currently indexed.
  std::size_t live_blocks() const { return live_; }

  // Telemetry for benches, tests and the runner's allocation columns.
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  void reset_stats() { hits_ = misses_ = 0; }
  std::size_t arena_bytes() const { return arena_.bytes_used(); }
  /// Heap bytes the interner holds: its arena (every block, lists
  /// included) and its table.
  std::size_t bytes() const;
  std::uint64_t arena_allocations() const { return arena_.allocations(); }
  std::uint64_t slab_resets() const { return arena_.resets(); }

  /// RAII trial scope: makes a dedicated per-thread trial interner the
  /// active one, resetting it ON ENTRY (the only moment no route from
  /// the previous trial on this worker can be alive) and pre-sizing it
  /// from the scenario's scale hint. Leaving the scope restores the
  /// previous active interner but deliberately does NOT reset — the
  /// caller may still be holding stats or (for the inline jobs<=1 path)
  /// the trial's last routes; the next trial's entry does the reset.
  /// Not reentrant: nesting trials on one thread would alias the pool.
  class TrialScope {
   public:
    explicit TrialScope(std::size_t expected_blocks);
    ~TrialScope();
    TrialScope(const TrialScope&) = delete;
    TrialScope& operator=(const TrialScope&) = delete;

    AttrsInterner& interner() const { return pool_; }

   private:
    AttrsInterner& pool_;
    AttrsInterner* prev_;
  };

 private:
  // Open-addressing table of blocks with linear probing: one flat
  // array of block pointers (null = empty), no node per block. A probe
  // compares the block's own content_hash first, so a slot needs no
  // copy of the hash. Equal hashes with unequal content simply occupy
  // neighbouring slots. Blocks are never removed one by one, so there
  // are no tombstones; reset() empties every slot.

  /// Index of `hash`'s first probe slot.
  std::size_t home(std::uint64_t hash) const {
    return static_cast<std::size_t>((hash * 0x9e3779b97f4a7c15ULL) >>
                                    shift_);
  }
  /// Rebuilds the table with `capacity` slots (a power of two).
  void rehash(std::size_t capacity);

  // Size 0 or a power of two, at most half full.
  std::vector<const AttrBlock*> slots_;
  unsigned shift_ = 64;  // 64 - log2(slots_.size())
  std::size_t live_ = 0;
  sim::Arena arena_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace abrr::bgp
