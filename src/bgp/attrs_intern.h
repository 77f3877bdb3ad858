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
// Storage model: blocks live in arena-backed slabs owned by the
// interner and are handed out as stable `const PathAttrs*`. Nothing is
// refcounted — a block stays valid until the owning interner is reset,
// which the experiment runner does at the *start* of each trial (via
// TrialScope), when no route of the previous trial can still be alive.
// Compared with the earlier shared_ptr/weak_ptr design this removes the
// per-block control-block allocation, the atomic refcount traffic on
// every Route copy, and the weak-table sweeps.
//
// The simulator is single-threaded; the interner is not synchronized.
// global() is THREAD-LOCAL: each worker thread of the parallel
// experiment runner gets its own table, keeping trials thread-confined
// without locks (interning only folds equal allocations, so per-thread
// tables cannot change any result).
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "bgp/attributes.h"
#include "sim/arena.h"

namespace abrr::bgp {

/// 64-bit content hash over every semantic field of an attribute set
/// (everything operator== compares). Never returns 0, so 0 can serve as
/// the "not yet computed" sentinel on PathAttrs::content_hash.
std::uint64_t attrs_content_hash(const PathAttrs& attrs);

/// Canonicalization table + slab storage for PathAttrs blocks.
///
/// Blocks are arena-allocated and never individually freed: the table
/// is an index over live slab storage, not an owner of refcounts. The
/// interner stays bounded because every trial starts by resetting its
/// thread's trial interner (TrialScope below), reusing the slabs the
/// previous trial on that worker warmed up.
class AttrsInterner {
 public:
  /// The calling thread's ACTIVE interner, used by make_attrs(): the
  /// trial interner while a TrialScope is open, otherwise a default
  /// per-thread instance (tests, CLI tools, benches).
  static AttrsInterner& global();

  /// Canonicalizes `attrs`: returns the existing block when an equal one
  /// is live, otherwise moves `attrs` into a fresh slab-backed block.
  /// Always returns a block with content_hash and encoded_size set.
  AttrsPtr intern(PathAttrs&& attrs);

  /// Pre-sizes table and slabs for an expected number of distinct
  /// blocks (ScenarioSpec scale hint); avoids rehash/slab growth mid-trial.
  void reserve(std::size_t expected_blocks);

  /// Destroys every block and rewinds the slabs for reuse. All
  /// previously returned AttrsPtr values become dangling — callers
  /// (TrialScope) must only reset when no Route can still be alive.
  void reset();

  /// Distinct canonical blocks currently indexed.
  std::size_t live_blocks() const { return table_.size(); }

  // Telemetry for benches, tests and the runner's allocation columns.
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  void reset_stats() { hits_ = misses_ = 0; }
  std::size_t arena_bytes() const { return arena_.bytes_used(); }
  std::uint64_t arena_allocations() const { return arena_.allocations(); }
  std::uint64_t slab_resets() const { return arena_.resets(); }

  /// Kill switch: with interning disabled, intern() places every block in
  /// a fresh slab slot without canonicalizing (content hash still
  /// computed). Used by the equivalence tests and the legacy-path
  /// benchmarks. Per-thread, like the table itself.
  static void set_enabled(bool enabled);
  static bool enabled();

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
  // hash -> canonical blocks with that content hash (almost always one).
  std::unordered_multimap<std::uint64_t, const PathAttrs*> table_;
  sim::Arena arena_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// RAII guard for tests/benches that need the legacy (non-interned)
/// allocation behaviour.
class ScopedInterningDisabled {
 public:
  ScopedInterningDisabled() : prev_(AttrsInterner::enabled()) {
    AttrsInterner::set_enabled(false);
  }
  ~ScopedInterningDisabled() { AttrsInterner::set_enabled(prev_); }
  ScopedInterningDisabled(const ScopedInterningDisabled&) = delete;
  ScopedInterningDisabled& operator=(const ScopedInterningDisabled&) = delete;

 private:
  bool prev_;
};

}  // namespace abrr::bgp
