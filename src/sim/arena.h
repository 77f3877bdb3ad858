// Trial-owned bump allocator.
//
// Every hot-path allocation a trial makes (interned attribute blocks,
// pooled scheduler slabs) is supposed to come from memory the trial owns
// exclusively, so parallel trials never meet on the global heap — no
// allocator locks, no freed-block reuse across threads, no atomic
// refcount traffic. An Arena hands out pointers from large chunks and
// frees nothing individually: reset() rewinds, keeping the chunks for
// the next trial on the same worker thread. Nothing is destroyed, so an
// arena holds only trivially destructible objects.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace abrr::sim {

/// Chunked bump allocator.
///
/// Not synchronized: an Arena is owned by exactly one trial (and thus one
/// thread) at a time, the same confinement contract as the Scheduler.
class Arena {
 public:
  static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;

  explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes)
      : chunk_bytes_(chunk_bytes < 64 ? 64 : chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&&) = default;
  Arena& operator=(Arena&&) = default;

  ~Arena() { reset(); }

  /// Raw storage of `size` bytes at `align`. Never returns nullptr
  /// (throws std::bad_alloc on exhaustion like operator new).
  void* allocate(std::size_t size, std::size_t align) {
    ++allocations_;
    if (current_ < chunks_.size()) {
      if (void* p = chunks_[current_].bump(size, align)) {
        bytes_used_ += size;
        return p;
      }
    }
    return allocate_slow(size, align);
  }

  /// Constructs a `T` in arena storage.
  template <typename T, typename... Args>
  T* create(Args&&... args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "reset() drops arena objects without destroying them");
    return ::new (allocate(sizeof(T), alignof(T)))
        T(std::forward<Args>(args)...);
  }

  /// Rewinds all chunks: everything allocated since the last reset is
  /// gone. The chunk memory itself is retained for reuse — the whole
  /// point: trial N+1 on this worker re-fills the pages trial N warmed.
  void reset() {
    for (Chunk& c : chunks_) c.used = 0;
    current_ = 0;
    bytes_used_ = 0;
    ++resets_;
  }

  /// Pre-grows capacity so the first `bytes` of allocation never hit the
  /// system allocator mid-trial. Idempotent; existing chunks count.
  void reserve(std::size_t bytes) {
    std::size_t have = bytes_reserved();
    while (have < bytes) {
      const std::size_t want = bytes - have;
      add_chunk(want > chunk_bytes_ ? want : chunk_bytes_);
      have = bytes_reserved();
    }
  }

  // -- Introspection (bench/test telemetry) --------------------------------
  std::size_t bytes_used() const { return bytes_used_; }
  std::size_t bytes_reserved() const {
    std::size_t n = 0;
    for (const Chunk& c : chunks_) n += c.size;
    return n;
  }
  std::uint64_t allocations() const { return allocations_; }
  std::size_t chunk_count() const { return chunks_.size(); }
  std::uint64_t resets() const { return resets_; }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> mem;
    std::size_t size = 0;
    std::size_t used = 0;

    void* bump(std::size_t n, std::size_t align) {
      const std::uintptr_t base = reinterpret_cast<std::uintptr_t>(mem.get());
      const std::size_t aligned =
          ((base + used + align - 1) & ~(static_cast<std::uintptr_t>(align) - 1)) -
          base;
      if (aligned + n > size) return nullptr;
      used = aligned + n;
      return mem.get() + aligned;
    }
  };

  void add_chunk(std::size_t size) {
    chunks_.push_back(Chunk{std::make_unique<std::byte[]>(size), size, 0});
  }

  void* allocate_slow(std::size_t size, std::size_t align) {
    // Advance through retained (already-rewound) chunks before growing.
    while (current_ + 1 < chunks_.size()) {
      ++current_;
      if (void* p = chunks_[current_].bump(size, align)) {
        bytes_used_ += size;
        return p;
      }
    }
    // Oversized requests get a dedicated chunk; normal ones a fresh slab.
    add_chunk(size + align > chunk_bytes_ ? size + align : chunk_bytes_);
    current_ = chunks_.size() - 1;
    void* p = chunks_[current_].bump(size, align);
    if (p == nullptr) throw std::bad_alloc{};
    bytes_used_ += size;
    return p;
  }

  std::size_t chunk_bytes_;
  std::vector<Chunk> chunks_;
  std::size_t current_ = 0;
  std::size_t bytes_used_ = 0;
  std::uint64_t allocations_ = 0;
  std::uint64_t resets_ = 0;
};

}  // namespace abrr::sim
