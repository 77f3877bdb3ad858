// Deterministic discrete-event scheduler.
//
// The whole testbed (routers, sessions, the route regenerator) runs on one
// of these. Determinism: ties in time are broken by insertion sequence
// number, so a given seed always produces the same run.
//
// Allocation model: event state lives in pooled slabs owned by the
// scheduler, recycled through a free list — steady-state scheduling does
// zero heap allocations. Callbacks are InplaceFunction<kCallbackCapacity>
// so typical capture lists (including the message-delivery lambda, the
// hottest one) are stored inline in the pooled node instead of behind a
// per-event std::function heap box.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/inplace_function.h"
#include "sim/thread_confined.h"
#include "sim/time.h"

namespace abrr::sim {

/// Handle for a scheduled event; lets the owner cancel it later.
///
/// Encodes (pool slot, slot generation); the generation is bumped every
/// time a slot is recycled, so a stale handle to a fired event can never
/// alias a later event reusing the same slot. Ids are opaque: only
/// cancel() interprets them. 0 is never a valid id.
using EventId = std::uint64_t;

/// Deterministic discrete-event loop.
///
/// Events are callbacks ordered by (time, insertion sequence). The loop is
/// single-threaded; callbacks may schedule further events. The loop is
/// also thread-CONFINED: whichever thread first schedules or steps owns
/// the scheduler for its whole life (asserted in debug builds) — the
/// contract the parallel experiment runner builds on.
class Scheduler {
 public:
  /// Inline capture budget for event callbacks. Sized for the largest
  /// hot-path capture list (the message-delivery lambda in
  /// net/network.cpp, which static_asserts it fits); anything bigger
  /// still works via a heap box, it just loses the pooling win.
  static constexpr std::size_t kCallbackCapacity = 112;
  using Callback = InplaceFunction<kCallbackCapacity>;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time.
  Time now() const { return now_; }

  /// Schedules `fn` at absolute time `at` (clamped to now()).
  EventId schedule_at(Time at, Callback fn);

  /// Schedules `fn` after a relative delay (>= 0).
  EventId schedule_after(Time delay, Callback fn);

  /// Schedules a WEAK event at absolute time `at`. Weak events fire like
  /// any other while strong work is pending, but never keep the loop
  /// alive on their own: has_pending() ignores them and
  /// run_to_quiescence() stops (successfully) when only weak events
  /// remain. Intended for passive recurring work — samplers, probes —
  /// that must not change when a simulation is considered quiet.
  EventId schedule_weak_at(Time at, Callback fn);

  /// Weak counterpart of schedule_after().
  EventId schedule_weak_after(Time delay, Callback fn);

  /// Cancels a pending event. Cancelling an already-fired or unknown
  /// event is a harmless no-op: the generation encoded in the id no
  /// longer matches the recycled slot, so stale handles are rejected
  /// without any tombstone bookkeeping.
  void cancel(EventId id);

  /// True if any non-cancelled STRONG event is pending; weak events do
  /// not count.
  bool has_pending() const { return strong_pending_ != 0; }

  /// Non-cancelled pending events of both strengths.
  std::size_t pending_count() const { return strong_pending_ + weak_pending_; }

  /// Non-cancelled pending weak events.
  std::size_t weak_pending_count() const { return weak_pending_; }

  /// Runs a single event. Returns false if the queue was empty.
  bool step();

  /// Runs events until the queue drains or simulated time would pass
  /// `deadline`. Returns the number of events executed.
  std::size_t run_until(Time deadline);

  /// Runs until no strong event remains ("the network is quiet"), or
  /// until `max_events` executed. Returns true if it quiesced. Weak
  /// events fire along the way but are abandoned once only they remain.
  bool run_to_quiescence(std::size_t max_events = SIZE_MAX);

  /// Total events executed since construction.
  std::uint64_t events_executed() const { return executed_; }

  // -- Pool introspection (bench/test telemetry) ---------------------------

  /// Event nodes allocated across all slabs (high-water capacity).
  std::size_t pool_capacity() const { return slabs_.size() * kSlabSize; }

  /// Event nodes currently scheduled (live, not yet fired/cancelled).
  std::size_t pool_in_use() const { return strong_pending_ + weak_pending_; }

 private:
  // Nodes are pooled in fixed slabs so they never move (heap items refer
  // to them by slot index) and recycling is a free-list push/pop.
  static constexpr std::uint32_t kSlabSize = 256;
  static constexpr std::uint32_t kNilSlot = 0xffff'ffffu;

  struct Node {
    Callback fn;
    Time at = 0;
    std::uint64_t seq = 0;
    std::uint32_t gen = 1;       // bumped on every recycle; never 0
    std::uint32_t next_free = kNilSlot;
    bool scheduled = false;      // false: free or cancelled-awaiting-pop
    bool weak = false;
  };

  // The priority queue holds plain-old-data mirrors of (at, seq) plus the
  // slot; sift operations move 24 bytes instead of a full closure.
  struct HeapItem {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;

    bool before(const HeapItem& o) const {
      return at != o.at ? at < o.at : seq < o.seq;
    }
  };

  // 4-ary min-heap: half the levels of a binary heap and all four
  // children of a node share at most two cache lines, which measurably
  // cuts the pop cost that dominates scheduler throughput.
  class EventHeap {
   public:
    bool empty() const { return items_.empty(); }
    std::size_t size() const { return items_.size(); }
    const HeapItem& top() const { return items_.front(); }
    /// Grows capacity to at least `n`, geometrically.
    void reserve_at_least(std::size_t n) {
      if (n > items_.capacity()) {
        items_.reserve(std::max(n, 2 * items_.capacity()));
      }
    }

    void push(const HeapItem& item) {
      std::size_t i = items_.size();
      items_.push_back(item);
      while (i != 0) {
        const std::size_t parent = (i - 1) / 4;
        if (!items_[i].before(items_[parent])) break;
        std::swap(items_[i], items_[parent]);
        i = parent;
      }
    }

    void pop() {
      const HeapItem last = items_.back();
      items_.pop_back();
      if (items_.empty()) return;
      const std::size_t n = items_.size();
      std::size_t i = 0;
      for (;;) {
        const std::size_t first_child = 4 * i + 1;
        if (first_child >= n) break;
        const std::size_t end =
            first_child + 4 < n ? first_child + 4 : n;
        std::size_t best = first_child;
        for (std::size_t c = first_child + 1; c < end; ++c) {
          if (items_[c].before(items_[best])) best = c;
        }
        if (!items_[best].before(last)) break;
        items_[i] = items_[best];
        i = best;
      }
      items_[i] = last;
    }

   private:
    std::vector<HeapItem> items_;
  };

  EventId schedule_impl(Time at, Callback&& fn, bool weak);

  Node& node(std::uint32_t slot) {
    return slabs_[slot / kSlabSize][slot % kSlabSize];
  }

  std::uint32_t acquire_slot();
  // Bumps the generation and returns the slot to the free list. The
  // node's callback must already be destroyed/moved out.
  void release_slot(std::uint32_t slot);

  // True when the heap item still refers to the scheduling it was pushed
  // for (the global seq uniquely identifies one schedule_* call).
  bool is_live(const HeapItem& item) {
    const Node& n = node(item.slot);
    return n.scheduled && n.seq == item.seq;
  }

  // Pops heap entries whose event was cancelled (slot recycled or marked
  // unscheduled); their slots were already released by cancel().
  void drop_stale();

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t strong_pending_ = 0;
  std::size_t weak_pending_ = 0;
  EventHeap queue_;
  std::vector<std::unique_ptr<Node[]>> slabs_;
  std::uint32_t free_head_ = kNilSlot;
  ThreadConfined confined_;
};

}  // namespace abrr::sim
