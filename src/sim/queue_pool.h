// Many FIFO queues threaded through one shared pool of fixed-size chunks.
//
// A queue is a linked list of chunks, each holding up to kChunk
// consecutive elements, so walking a queue reads memory in order. A
// drained chunk goes to an idle list shared by every queue, which keeps
// at most kMaxIdleChunks of them; past that, the chunk is freed. Steady
// traffic therefore pushes and pops without allocating, while a burst's
// chunks go back to the allocator once it has drained: the pool holds
// the queues' current total length (plus at most two part-filled chunks
// per queue and the idle list), not the sum of each queue's own peak,
// which is what one ring buffer per queue would keep, nor its own peak.
// net::Network keeps every directed channel's in-flight messages here.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "sim/heap_bytes.h"

namespace abrr::sim {

/// Pool of FIFO queues of default-constructible, move-assignable `T`.
/// Popping resets the element to `T{}`, so whatever a popped element
/// owned is released at pop time, not when its storage is reused.
template <typename T>
class QueuePool {
  static constexpr std::uint32_t kChunk = 16;

  struct Chunk {
    T items[kChunk]{};
    Chunk* next = nullptr;  // next chunk of its queue, or on the idle list
    // Every allocated chunk, so the pool frees the ones still queued.
    Chunk* live_prev = nullptr;
    Chunk* live_next = nullptr;
  };

 public:
  /// Drained chunks kept for reuse; any chunk drained past these is freed.
  static constexpr std::size_t kMaxIdleChunks = 32;
  /// Heap bytes one chunk occupies.
  static constexpr std::size_t kChunkBytes = chunk_bytes(sizeof(Chunk));

  /// One FIFO's handle. Only the pool that pushed into a queue may read
  /// or pop it.
  class Queue {
   public:
    bool empty() const { return head_ == nullptr; }

   private:
    friend class QueuePool;
    Chunk* head_ = nullptr;   // chunk holding the oldest element
    Chunk* tail_ = nullptr;   // chunk holding the newest element
    std::uint32_t begin_ = 0;  // oldest element's index in head_
    std::uint32_t end_ = 0;    // one past the newest's index in tail_
  };

  QueuePool() = default;
  QueuePool(const QueuePool&) = delete;
  QueuePool& operator=(const QueuePool&) = delete;
  ~QueuePool() {
    while (live_ != nullptr) destroy(live_);
  }

  void push(Queue& q, T&& value) {
    if (q.empty()) {
      q.head_ = q.tail_ = acquire();
      q.begin_ = q.end_ = 0;
    } else if (q.end_ == kChunk) {
      Chunk* c = acquire();
      q.tail_->next = c;
      q.tail_ = c;
      q.end_ = 0;
    }
    q.tail_->items[q.end_++] = std::move(value);
  }

  /// The oldest element of non-empty `q`.
  T& front(const Queue& q) { return q.head_->items[q.begin_]; }

  /// Removes the oldest element of non-empty `q`.
  void pop(Queue& q) {
    Chunk* c = q.head_;
    c->items[q.begin_++] = T{};
    if (c == q.tail_ && q.begin_ == q.end_) {
      release(c);
      q.head_ = q.tail_ = nullptr;
    } else if (q.begin_ == kChunk) {
      q.head_ = c->next;
      q.begin_ = 0;
      release(c);
    }
  }

  /// Element slots the pool has held at once (high-water capacity).
  std::size_t capacity() const { return peak_chunks_ * kChunk; }

  /// Heap bytes of the chunks held now, queued or idle (not of what the
  /// elements own).
  std::size_t bytes() const { return chunks_ * kChunkBytes; }

 private:
  Chunk* acquire() {
    if (Chunk* c = idle_; c != nullptr) {
      idle_ = c->next;
      --idle_count_;
      c->next = nullptr;
      return c;
    }
    auto* c = new Chunk;
    c->live_next = live_;
    if (live_ != nullptr) live_->live_prev = c;
    live_ = c;
    peak_chunks_ = std::max(peak_chunks_, ++chunks_);
    return c;
  }

  void release(Chunk* c) {
    if (idle_count_ == kMaxIdleChunks) {
      destroy(c);
      return;
    }
    c->next = idle_;
    idle_ = c;
    ++idle_count_;
  }

  /// Unlinks `c` from the live list and frees it.
  void destroy(Chunk* c) {
    if (c->live_prev != nullptr) {
      c->live_prev->live_next = c->live_next;
    } else {
      live_ = c->live_next;
    }
    if (c->live_next != nullptr) c->live_next->live_prev = c->live_prev;
    --chunks_;
    delete c;
  }

  Chunk* live_ = nullptr;  // every allocated chunk
  Chunk* idle_ = nullptr;  // drained chunks kept for reuse
  std::size_t idle_count_ = 0;
  std::size_t chunks_ = 0;
  std::size_t peak_chunks_ = 0;
};

}  // namespace abrr::sim
