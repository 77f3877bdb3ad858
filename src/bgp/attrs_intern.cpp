#include "bgp/attrs_intern.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <new>
#include <utility>

#include "sim/heap_bytes.h"

namespace abrr::bgp {
namespace {

// The active interner for this thread. Null means "use the default
// per-thread instance"; a TrialScope points it at the trial pool.
thread_local AttrsInterner* g_active_interner = nullptr;

AttrsInterner& default_interner() {
  static thread_local AttrsInterner interner;
  return interner;
}

// The per-worker trial pool TrialScope activates. Separate from the
// default instance so a surrounding test/CLI context holding routes is
// never invalidated by a trial's entry reset.
AttrsInterner& trial_pool() {
  static thread_local AttrsInterner pool;
  return pool;
}

void mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
}

}  // namespace

std::uint64_t attrs_content_hash(const AttrsView& attrs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  mix(h, static_cast<std::uint64_t>(attrs.origin) + 1);
  mix(h, attrs.next_hop);
  mix(h, attrs.local_pref);
  mix(h, attrs.med ? *attrs.med + 1ULL : 0ULL);
  mix(h, attrs.as_path.length());
  for (const Asn asn : attrs.as_path.asns()) mix(h, asn);
  mix(h, attrs.communities.size());
  for (const Community c : attrs.communities) mix(h, c);
  mix(h, attrs.ext_communities.size());
  for (const ExtCommunity c : attrs.ext_communities) mix(h, c);
  mix(h, attrs.originator_id ? *attrs.originator_id + 1ULL : 0ULL);
  mix(h, attrs.cluster_list.size());
  for (const std::uint32_t c : attrs.cluster_list) mix(h, c);
  return h == 0 ? 1 : h;
}

AttrsInterner& AttrsInterner::global() {
  // Thread-local, not process-wide: the parallel experiment runner runs
  // fully independent trials on worker threads, and the interner is the
  // one piece of hot-path state make_attrs() reaches implicitly. A
  // per-thread table keeps every trial thread-confined with zero
  // synchronization; interning never changes results (only folds equal
  // allocations), so per-thread tables cannot affect determinism.
  AttrsInterner* active = g_active_interner;
  return active != nullptr ? *active : default_interner();
}

AttrsPtr AttrsInterner::intern(const PathAttrs& attrs, std::uint64_t hash) {
  if (2 * (live_ + 1) > slots_.size()) {
    rehash(std::max<std::size_t>(16, 2 * slots_.size()));
  }
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(hash);
  for (; slots_[i] != nullptr; i = (i + 1) & mask) {
    const AttrBlock* block = slots_[i];
    if (block->content_hash == hash && AttrsView{*block} == attrs) {
      ++hits_;
      return block;
    }
  }
  ++misses_;
  void* mem = arena_.allocate(AttrBlock::bytes_for(attrs), alignof(AttrBlock));
  const AttrBlock* block = ::new (mem) AttrBlock(attrs, hash);
  slots_[i] = block;
  ++live_;
  return block;
}

void AttrsInterner::rehash(std::size_t capacity) {
  std::vector<const AttrBlock*> previous(capacity, nullptr);
  previous.swap(slots_);
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
  const std::size_t mask = capacity - 1;
  for (const AttrBlock* block : previous) {
    if (block == nullptr) continue;
    std::size_t i = home(block->content_hash);
    while (slots_[i] != nullptr) i = (i + 1) & mask;
    slots_[i] = block;
  }
}

void AttrsInterner::reserve(std::size_t expected_blocks) {
  if (2 * expected_blocks > slots_.size()) {
    rehash(std::bit_ceil(std::max<std::size_t>(16, 2 * expected_blocks)));
  }
  arena_.reserve(expected_blocks * kTypicalBlockBytes);
}

std::size_t AttrsInterner::bytes() const {
  return arena_.bytes_reserved() + sim::heap_bytes(slots_);
}

void AttrsInterner::reset() {
  std::fill(slots_.begin(), slots_.end(), nullptr);
  live_ = 0;
  arena_.reset();
}

AttrsInterner::TrialScope::TrialScope(std::size_t expected_blocks)
    : pool_(trial_pool()), prev_(g_active_interner) {
  assert(prev_ != &pool_ && "TrialScope is not reentrant");
  // Reset on entry: the only routes ever allocated from the trial pool
  // belong to the previous trial on this worker, which has completed.
  pool_.reset();
  pool_.reset_stats();
  if (expected_blocks != 0) pool_.reserve(expected_blocks);
  g_active_interner = &pool_;
}

AttrsInterner::TrialScope::~TrialScope() { g_active_interner = prev_; }

}  // namespace abrr::bgp
