#include "bgp/attrs_intern.h"

#include <cassert>
#include <utility>

namespace abrr::bgp {
namespace {

thread_local bool g_interning_enabled = true;

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

// Every stored block carries its exact wire length, so byte accounting
// on the send path reads a field instead of walking the block.
void store_encoded_size(PathAttrs& attrs) {
  const std::size_t size = encoded_attrs_size(attrs);
  attrs.encoded_size = size <= 0xffff ? static_cast<std::uint16_t>(size) : 0;
}

}  // namespace

std::uint64_t attrs_content_hash(const PathAttrs& attrs) {
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

void AttrsInterner::set_enabled(bool enabled) { g_interning_enabled = enabled; }
bool AttrsInterner::enabled() { return g_interning_enabled; }

AttrsPtr AttrsInterner::intern(PathAttrs&& attrs) {
  if (attrs.content_hash == 0) attrs.content_hash = attrs_content_hash(attrs);
  if (!g_interning_enabled) {
    // Legacy mode: fresh slab slot per block, no canonicalization. The
    // slot is still reclaimed by the next reset, not by refcounts.
    store_encoded_size(attrs);
    return arena_.create<PathAttrs>(std::move(attrs));
  }

  const auto [begin, end] = table_.equal_range(attrs.content_hash);
  for (auto it = begin; it != end; ++it) {
    if (*it->second == attrs) {
      ++hits_;
      return it->second;
    }
  }
  ++misses_;
  store_encoded_size(attrs);
  const PathAttrs* block = arena_.create<PathAttrs>(std::move(attrs));
  table_.emplace(block->content_hash, block);
  return block;
}

void AttrsInterner::reserve(std::size_t expected_blocks) {
  table_.reserve(expected_blocks);
  arena_.reserve(expected_blocks * sizeof(PathAttrs));
}

void AttrsInterner::reset() {
  table_.clear();
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
