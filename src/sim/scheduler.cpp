#include "sim/scheduler.h"

#include <stdexcept>
#include <utility>

namespace abrr::sim {

std::uint32_t Scheduler::acquire_slot() {
  if (free_head_ == kNilSlot) {
    // Grow by one slab; existing nodes never move (slot indices and the
    // heap items referring to them stay valid).
    const std::uint32_t base =
        static_cast<std::uint32_t>(slabs_.size()) * kSlabSize;
    slabs_.push_back(std::make_unique<Node[]>(kSlabSize));
    // Live events are bounded by pool capacity, so keeping the heap's
    // capacity at least the pool's keeps pushes free of vector growth on
    // the hot path. Doubling (rather than reserving exactly the new
    // capacity) re-copies the heap O(log n) times instead of once per
    // slab.
    queue_.reserve_at_least(pool_capacity());
    for (std::uint32_t i = kSlabSize; i-- > 0;) {
      Node& n = slabs_.back()[i];
      n.next_free = free_head_;
      free_head_ = base + i;
    }
  }
  const std::uint32_t slot = free_head_;
  free_head_ = node(slot).next_free;
  return slot;
}

void Scheduler::release_slot(std::uint32_t slot) {
  Node& n = node(slot);
  n.scheduled = false;
  ++n.gen;
  if (n.gen == 0) n.gen = 1;  // 0 would make slot 0's id collide with "invalid"
  n.next_free = free_head_;
  free_head_ = slot;
}

EventId Scheduler::schedule_impl(Time at, std::uint64_t seq, Callback&& fn,
                                 bool weak) {
  if (!fn) throw std::invalid_argument{"schedule_at: empty callback"};
  const std::uint32_t slot = acquire_slot();
  Node& n = node(slot);
  n.fn = std::move(fn);
  n.at = at;
  n.seq = seq;
  n.scheduled = true;
  n.weak = weak;
  if (weak) {
    ++weak_pending_;
  } else {
    ++strong_pending_;
  }
  queue_.push(HeapItem{n.at, n.seq, slot});
  return (static_cast<EventId>(slot) << 32) | n.gen;
}

EventId Scheduler::schedule_at(Time at, Callback fn) {
  confined_.check();
  return schedule_impl(std::max(at, now_), next_seq_++, std::move(fn),
                       /*weak=*/false);
}

EventId Scheduler::schedule_after(Time delay, Callback fn) {
  if (delay < 0) throw std::invalid_argument{"schedule_after: negative delay"};
  return schedule_at(now_ + delay, std::move(fn));
}

EventId Scheduler::schedule_weak_at(Time at, Callback fn) {
  confined_.check();
  return schedule_impl(std::max(at, now_), next_seq_++, std::move(fn),
                       /*weak=*/true);
}

EventId Scheduler::schedule_weak_after(Time delay, Callback fn) {
  if (delay < 0) {
    throw std::invalid_argument{"schedule_weak_after: negative delay"};
  }
  return schedule_weak_at(now_ + delay, std::move(fn));
}

EventId Scheduler::schedule_reserved(Time at, std::uint64_t seq,
                                     Callback fn) {
  confined_.check();
  // Clamping would move the event off its reserved position; a past
  // time means the caller pushed it too late.
  if (at < now_) throw std::invalid_argument{"schedule_reserved: past time"};
  if (seq >= next_seq_) {
    throw std::invalid_argument{"schedule_reserved: seq was not reserved"};
  }
  return schedule_impl(at, seq, std::move(fn), /*weak=*/false);
}

void Scheduler::cancel(EventId id) {
  confined_.check();
  const std::uint32_t slot = static_cast<std::uint32_t>(id >> 32);
  const std::uint32_t gen = static_cast<std::uint32_t>(id);
  if (gen == 0 || slot >= pool_capacity()) return;
  Node& n = node(slot);
  // A fired, cancelled or recycled slot carries a newer generation, so
  // stale ids fall out here — no tombstone set to maintain.
  if (!n.scheduled || n.gen != gen) return;
  if (n.weak) {
    --weak_pending_;
  } else {
    --strong_pending_;
  }
  n.fn = Callback{};  // drop captured state eagerly
  release_slot(slot);  // the heap item is discarded lazily via drop_stale()
}

void Scheduler::drop_stale() {
  while (!queue_.empty() && !is_live(queue_.top())) queue_.pop();
}

bool Scheduler::step() {
  confined_.check();
  drop_stale();
  if (queue_.empty()) return false;
  const HeapItem item = queue_.top();
  queue_.pop();
  // The next event's node is often not in cache (heap order and slot
  // order are unrelated); start loading it while this callback runs.
  if (!queue_.empty()) __builtin_prefetch(&node(queue_.top().slot));
  Node& n = node(item.slot);
  // Move the callback out and recycle the slot *before* invoking, so the
  // callback is free to schedule into (or cancel within) the pool.
  Callback fn = std::move(n.fn);
  if (n.weak) {
    --weak_pending_;
  } else {
    --strong_pending_;
  }
  release_slot(item.slot);
  now_ = item.at;
  ++executed_;
  fn();
  return true;
}

std::size_t Scheduler::run_until(Time deadline) {
  std::size_t n = 0;
  for (;;) {
    drop_stale();
    if (queue_.empty() || queue_.top().at > deadline) break;
    step();
    ++n;
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

bool Scheduler::run_to_quiescence(std::size_t max_events) {
  // Quiescence means "no strong work left": weak events (sampler ticks)
  // execute while strong events exist but are abandoned, unfired, once
  // only they remain — otherwise a recurring sampler would keep the
  // queue alive forever.
  for (std::size_t n = 0; n < max_events; ++n) {
    if (!has_pending()) return true;
    step();
  }
  return !has_pending();
}

}  // namespace abrr::sim
