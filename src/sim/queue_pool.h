// Many FIFO queues threaded through one shared pool of fixed-size chunks.
//
// A queue is a linked list of chunks, each holding up to kChunk
// consecutive elements, so walking a queue reads memory in order. Empty
// chunks go back to a free list shared by every queue: once the pool
// has seen its peak occupancy, pushing and popping allocate nothing, and
// the pool holds about the peak of the queues' total length (plus at
// most two part-filled chunks per queue), not the sum of each queue's
// own peak, which is what one ring buffer per queue would keep.
// net::Network keeps every directed channel's in-flight messages here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/heap_bytes.h"

namespace abrr::sim {

/// Pool of FIFO queues of default-constructible, move-assignable `T`.
/// Popping resets the element to `T{}`, so whatever a popped element
/// owned is released at pop time, not when its storage is reused.
template <typename T>
class QueuePool {
  static constexpr std::uint32_t kNil = 0xffff'ffffu;
  static constexpr std::uint32_t kChunk = 16;

 public:
  /// One FIFO's handle. Only the pool that pushed into a queue may read
  /// or pop it.
  class Queue {
   public:
    bool empty() const { return head_ == kNil; }

   private:
    friend class QueuePool;
    std::uint32_t head_ = kNil;  // chunk holding the oldest element
    std::uint32_t tail_ = kNil;  // chunk holding the newest element
    std::uint32_t begin_ = 0;    // oldest element's index in head_
    std::uint32_t end_ = 0;      // one past the newest's index in tail_
  };

  QueuePool() = default;
  QueuePool(const QueuePool&) = delete;
  QueuePool& operator=(const QueuePool&) = delete;

  void push(Queue& q, T&& value) {
    if (q.empty()) {
      q.head_ = q.tail_ = acquire();
      q.begin_ = q.end_ = 0;
    } else if (q.end_ == kChunk) {
      const std::uint32_t c = acquire();
      chunk(q.tail_).next = c;
      q.tail_ = c;
      q.end_ = 0;
    }
    chunk(q.tail_).items[q.end_++] = std::move(value);
  }

  /// The oldest element of non-empty `q`.
  T& front(const Queue& q) { return chunk(q.head_).items[q.begin_]; }

  /// Removes the oldest element of non-empty `q`.
  void pop(Queue& q) {
    Chunk& c = chunk(q.head_);
    c.items[q.begin_++] = T{};
    if (q.head_ == q.tail_ && q.begin_ == q.end_) {
      release(q.head_);
      q.head_ = q.tail_ = kNil;
    } else if (q.begin_ == kChunk) {
      const std::uint32_t next = c.next;
      release(q.head_);
      q.head_ = next;
      q.begin_ = 0;
    }
  }

  /// Element slots allocated (high-water capacity).
  std::size_t capacity() const { return chunks_.size() * kChunk; }

  /// Heap bytes of the chunks (not of what the elements own).
  std::size_t bytes() const {
    return chunks_.size() * chunk_bytes(sizeof(Chunk)) + heap_bytes(chunks_);
  }

 private:
  struct Chunk {
    T items[kChunk]{};
    std::uint32_t next = kNil;
  };

  Chunk& chunk(std::uint32_t i) { return *chunks_[i]; }

  std::uint32_t acquire() {
    if (free_head_ == kNil) {
      chunks_.push_back(std::make_unique<Chunk>());
      return static_cast<std::uint32_t>(chunks_.size() - 1);
    }
    const std::uint32_t c = free_head_;
    free_head_ = chunk(c).next;
    chunk(c).next = kNil;
    return c;
  }

  void release(std::uint32_t c) {
    chunk(c).next = free_head_;
    free_head_ = c;
  }

  // Chunks never move once allocated; indices into this vector name them.
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::uint32_t free_head_ = kNil;
};

}  // namespace abrr::sim
