#include "ibgp/speaker.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "sim/heap_bytes.h"

namespace abrr::ibgp {
namespace {

// Route as (re-)advertised by a client into iBGP: the path id becomes the
// advertising client's RouterId (see bgp/types.h).
Route client_export_copy(const Route& best, RouterId self) {
  Route out = best;
  out.path_id = self;
  return out;
}

// Retention bound (elements) for the reused buffers. Typical drains,
// flushes and route sets fit; a burst (the initial table load) grows a
// buffer past it once, and recycle() then releases the storage.
constexpr std::size_t kKeptCapacity = 64;

// Empties a reused buffer; frees its storage when it grew past
// kKeptCapacity.
template <typename T>
void recycle(std::vector<T>& v) {
  if (v.capacity() > kKeptCapacity) {
    std::vector<T>{}.swap(v);
  } else {
    v.clear();
  }
}

// Deduplicates a reflected set by path id (redundant RRs can deliver the
// same client route twice via different sessions).
void dedup_by_path_id(std::vector<Route>& routes) {
  std::sort(routes.begin(), routes.end(), [](const Route& a, const Route& b) {
    if (a.path_id != b.path_id) return a.path_id < b.path_id;
    return a.learned_from < b.learned_from;
  });
  routes.erase(std::unique(routes.begin(), routes.end(),
                           [](const Route& a, const Route& b) {
                             return a.path_id == b.path_id;
                           }),
               routes.end());
}

}  // namespace

PrefixApTable::PrefixApTable(const bgp::PrefixIndex& index,
                             const ApOfFn& ap_of) {
  begin_.reserve(index.size() + 1);
  for (const Ipv4Prefix& prefix : index.prefixes()) {
    begin_.push_back(static_cast<std::uint32_t>(aps_.size()));
    for (const ApId ap : ap_of(prefix)) {
      const auto a = static_cast<std::size_t>(ap);
      if (ap_size_.size() <= a) ap_size_.resize(a + 1, 0);
      aps_.push_back(ap);
      ranks_.push_back(ap_size_[a]++);
    }
  }
  begin_.push_back(static_cast<std::uint32_t>(aps_.size()));
}

std::uint32_t PrefixApTable::slot(std::uint32_t id, ApId ap) const {
  if (id >= size()) {  // tail slots follow the AP's ranks
    const auto a = static_cast<std::size_t>(ap);
    return (a < ap_size_.size() ? ap_size_[a] : 0) +
           static_cast<std::uint32_t>(id - size());
  }
  for (std::uint32_t i = begin_[id]; i < begin_[id + 1]; ++i) {
    if (aps_[i] == ap) return ranks_[i];
  }
  throw std::logic_error{"prefix is not in the AP"};
}

Speaker::Speaker(SpeakerConfig config, sim::Scheduler& scheduler,
                 net::Network& network, obs::MetricsRegistry* metrics,
                 std::shared_ptr<const PrefixApTable> aps)
    : config_(std::move(config)),
      scheduler_(&scheduler),
      network_(&network),
      prefix_index_(network.prefix_index()),
      prefix_aps_(std::move(aps)),
      route_sets_(network.route_sets()),
      adj_rib_in_(prefix_index_, route_sets_),
      loc_rib_(prefix_index_),
      metrics_(metrics) {
  if (config_.id == bgp::kNoRouter) {
    throw std::invalid_argument{"speaker needs a non-zero id"};
  }
  if ((config_.mode == IbgpMode::kAbrr || config_.mode == IbgpMode::kDual ||
       !config_.managed_aps.empty()) &&
      !config_.ap_of) {
    throw std::invalid_argument{"ABRR speaker needs an ap_of mapping"};
  }
  if (metrics_ == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  register_metrics();
}

void Speaker::register_metrics() {
  const obs::Labels labels{{"speaker", std::to_string(config_.id)},
                           {"role", is_rr() ? "rr" : "client"}};
  const auto c = [&](std::string_view name) {
    return metrics_->counter(name, labels);
  };
  c_.updates_received = c("speaker.updates_received");
  c_.routes_received = c("speaker.routes_received");
  c_.updates_generated = c("speaker.updates_generated");
  c_.generated_to_clients = c("speaker.generated_to_clients");
  c_.generated_to_rrs = c("speaker.generated_to_rrs");
  c_.updates_transmitted = c("speaker.updates_transmitted");
  c_.wire_bytes_transmitted = c("speaker.wire_bytes_transmitted");
  c_.routes_transmitted = c("speaker.routes_transmitted");
  c_.loops_suppressed = c("speaker.loops_suppressed");
  c_.misdirected = c("speaker.misdirected");
  c_.ebgp_updates_sent = c("speaker.ebgp_updates_sent");
  c_.best_changes = c("speaker.best_changes");
  c_.keepalives_sent = c("speaker.keepalives_sent");
  c_.keepalives_received = c("speaker.keepalives_received");
  c_.hold_expirations = c("speaker.hold_expirations");
  c_.sessions_reestablished = c("speaker.sessions_reestablished");
  c_.update_routes =
      metrics_->histogram("speaker.update_routes", obs::size_buckets());
  c_.drain_batch =
      metrics_->histogram("speaker.drain_batch", obs::size_buckets());
}

SpeakerCounters Speaker::counters() const {
  SpeakerCounters v;
  v.updates_received = c_.updates_received->value();
  v.routes_received = c_.routes_received->value();
  v.updates_generated = c_.updates_generated->value();
  v.generated_to_clients = c_.generated_to_clients->value();
  v.generated_to_rrs = c_.generated_to_rrs->value();
  v.updates_transmitted = c_.updates_transmitted->value();
  v.wire_bytes_transmitted = c_.wire_bytes_transmitted->value();
  v.routes_transmitted = c_.routes_transmitted->value();
  v.loops_suppressed = c_.loops_suppressed->value();
  v.misdirected = c_.misdirected->value();
  v.ebgp_updates_sent = c_.ebgp_updates_sent->value();
  v.best_changes = c_.best_changes->value();
  v.keepalives_sent = c_.keepalives_sent->value();
  v.keepalives_received = c_.keepalives_received->value();
  v.hold_expirations = c_.hold_expirations->value();
  v.sessions_reestablished = c_.sessions_reestablished->value();
  return v;
}

SpeakerMemory Speaker::memory() const {
  SpeakerMemory m;
  m.rib_in = adj_rib_in_.bytes();
  m.loc_rib = loc_rib_.bytes();
  m.rib_out = sim::heap_bytes(groups_);
  for (const auto& [key, g] : groups_) {
    m.rib_out += g.rib.bytes() + sim::heap_bytes(g.members) +
                 sim::heap_bytes(g.memo);
  }
  m.pending = sim::heap_bytes(input_queue_) + sim::heap_bytes(drain_batch_);
  for (const auto& [id, ps] : peers_) {
    m.sent_hashes += sim::heap_bytes(ps.sent_hashes);
    for (const auto& stripe : ps.sent_hashes) {
      m.sent_hashes += sim::heap_bytes(stripe);
    }
    m.pending +=
        sim::heap_bytes(ps.pending) + sim::heap_bytes(ps.pending_bits);
    for (const auto& stripe : ps.pending_bits) {
      m.pending += sim::heap_bytes(stripe);
    }
  }
  for (const auto& [id, state] : ebgp_neighbors_) {
    m.sent_hashes += sim::heap_bytes(state.advertised);
  }
  return m;
}

void Speaker::for_each_held_set(
    const std::function<void(const bgp::RouteSet&)>& fn) const {
  adj_rib_in_.for_each_set(fn);
  for (const auto& [key, g] : groups_) {
    g.rib.for_each([&](const Ipv4Prefix&, const bgp::RouteSet& set) {
      fn(set);
    });
    for (const TxMemo& m : g.memo) {
      if (m.routes) fn(*m.routes.get());
    }
  }
  for (const Incoming& in : input_queue_) {
    if (in.routes) fn(*in.routes.get());
  }
}

void Speaker::add_peer(const PeerInfo& peer) {
  if (peer.id == config_.id) throw std::invalid_argument{"peer == self"};
  auto [it, inserted] = peers_.emplace(peer.id, PeerState{});
  if (inserted) {
    it->second.info = peer;
    it->second.last_heard = scheduler_->now();
    peer_order_.push_back(peer.id);
  } else {
    // Roles are additive: re-adding a peer merges the new roles into the
    // existing ones (an ARR pair wired from both ends ends up with both
    // the client and the reflector relationship).
    PeerInfo& existing = it->second.info;
    existing.rr_client |= peer.rr_client;
    existing.rr_peer |= peer.rr_peer;
    existing.reflector_tbrr |= peer.reflector_tbrr;
    for (const ApId ap : peer.reflector_for) {
      if (std::find(existing.reflector_for.begin(),
                    existing.reflector_for.end(),
                    ap) == existing.reflector_for.end()) {
        existing.reflector_for.push_back(ap);
      }
    }
  }
  PeerState& ps = it->second;
  const PeerInfo& merged = ps.info;

  const auto join = [&](int key) {
    auto& g = group(key);
    if (std::find(g.members.begin(), g.members.end(), &ps) ==
        g.members.end()) {
      g.members.push_back(&ps);
      ps.groups.push_back(key);
    }
  };

  // Group membership is role-driven so that kDual speakers participate
  // in both planes at once.
  if (config_.mode == IbgpMode::kFullMesh) join(kGroupMesh);
  if (config_.cluster_id != 0) {
    if (merged.rr_client) join(kGroupClients);
    if (merged.rr_peer) join(kGroupRrPeers);
  }
  if (merged.reflector_tbrr) join(kGroupUplink);
  if (merged.rr_client) {
    for (const ApId ap : config_.managed_aps) join(arr_group(ap));
  }
  for (const ApId ap : merged.reflector_for) join(client_group(ap));
}

void Speaker::start() {
  network_->register_endpoint(
      config_.id,
      [this](RouterId from, net::Message&& msg) {
        receive(from, std::move(msg));
      });
  if (config_.hold_time > 0 && !keepalive_armed_) {
    keepalive_armed_ = true;
    keepalive_timer_ = scheduler_->schedule_after(
        keepalive_interval(), [this] { keepalive_tick(); });
  }
}

sim::Time Speaker::keepalive_interval() const {
  return std::max<sim::Time>(1, config_.hold_time / 3);
}

void Speaker::keepalive_tick() {
  keepalive_armed_ = false;
  if (!alive_ || config_.hold_time <= 0) return;
  const sim::Time now = scheduler_->now();
  // Expiry first: a peer silent for a full hold time is declared down,
  // which runs the bulk-withdraw path — detection by timeout, not by
  // oracle (the fault injector never tells the survivors).
  for (const RouterId id : peer_order_) {
    PeerState& ps = peers_.at(id);
    if (!ps.up) continue;
    if (now - ps.last_heard >= config_.hold_time) {
      c_.hold_expirations->inc();
      if (tracer_ != nullptr) {
        tracer_->record(obs::TraceEventKind::kHoldExpiry, config_.id, id);
      }
      session_down(id);
    }
  }
  // Keepalive every session still considered up.
  for (const RouterId id : peer_order_) {
    if (!peers_.at(id).up) continue;
    c_.keepalives_sent->inc();
    network_->send(config_.id, id, net::Message{.keepalive = true});
  }
  keepalive_armed_ = true;
  keepalive_timer_ = scheduler_->schedule_after(
      keepalive_interval(), [this] { keepalive_tick(); });
}

void Speaker::receive(RouterId from, net::Message&& msg) {
  if (!alive_) return;  // a crashed process hears nothing
  const auto pit = peers_.find(from);
  PeerState* sender = pit != peers_.end() ? &pit->second : nullptr;
  if (sender != nullptr) {
    sender->last_heard = scheduler_->now();
    // Traffic from a peer we consider down proves the transport works:
    // treat it as session (re-)establishment and resync toward it.
    if (!sender->up) {
      c_.sessions_reestablished->inc();
      session_up(from);
    }
  }
  if (msg.keepalive) {
    c_.keepalives_received->inc();
    return;
  }
  const std::size_t routes = msg.routes.size();
  c_.updates_received->inc();
  c_.routes_received->inc(routes);
  c_.update_routes->record(static_cast<double>(routes));
  if (tracer_ != nullptr) {
    tracer_->record(obs::TraceEventKind::kUpdateRx, config_.id, from, routes);
  }
  enqueue(Incoming{from, msg.prefix, msg.prefix_id, std::move(msg.routes),
                   /*ebgp=*/false, Route{}, sender});
}

void Speaker::enqueue(Incoming&& incoming) {
  if (!alive_) return;  // eBGP injections towards a dead router are lost
  input_queue_.push_back(std::move(incoming));
  if (!drain_scheduled_) {
    drain_scheduled_ = true;
    const sim::Time at = std::max(scheduler_->now() + config_.proc_delay,
                                  busy_until_ + config_.proc_delay);
    drain_event_ = scheduler_->schedule_at(at, [this] { drain_input(); });
  }
}

void Speaker::drain_input() {
  drain_scheduled_ = false;
  if (!alive_) return;
  // drain_batch_ is empty between drains; the swap hands the queue's
  // storage to the batch and the batch's to the queue.
  drain_batch_.swap(input_queue_);
  busy_until_ =
      std::max(busy_until_, scheduler_->now()) +
      static_cast<sim::Time>(drain_batch_.size()) * config_.proc_per_update;

  // Coalesce the batch's dirty prefixes: they dedup in O(1) via
  // per-PrefixId epoch stamps, so the sort below only sees uniques. The
  // sorted order keeps downstream message generation independent of the
  // order in which prefixes were first seen.
  ++dirty_epoch_;
  scratch_dirty_.clear();
  for (Incoming& incoming : drain_batch_) apply(incoming, scratch_dirty_);
  drain_batch_.clear();

  std::sort(scratch_dirty_.begin(), scratch_dirty_.end(),
            [](const bgp::IndexedPrefix& a, const bgp::IndexedPrefix& b) {
              return a.prefix < b.prefix;
            });
  c_.drain_batch->record(static_cast<double>(scratch_dirty_.size()));
  if (tracer_ != nullptr) {
    tracer_->record(obs::TraceEventKind::kDecision, config_.id, 0,
                    scratch_dirty_.size());
  }
  for (const auto& [prefix, pid] : scratch_dirty_) run_pipeline(prefix, pid);
  trim_scratch();
}

void Speaker::trim_scratch() {
  recycle(drain_batch_);
  if (input_queue_.empty()) recycle(input_queue_);
  recycle(scratch_dirty_);
  recycle(scratch_out_);
  recycle(scratch_to_rrs_);
  recycle(scratch_tx_);
  recycle(scratch_rx_);
}

void Speaker::mark_dirty(const Ipv4Prefix& prefix, PrefixId pid,
                         std::vector<bgp::IndexedPrefix>& dirty) {
  if (dirty_mark_.size() <= pid) dirty_mark_.resize(prefix_index_->size(), 0);
  if (dirty_mark_[pid] == dirty_epoch_) return;
  dirty_mark_[pid] = dirty_epoch_;
  dirty.push_back({prefix, pid});
}

bool Speaker::accept_route(const Route& route, const PeerState*) const {
  if (route.attrs->originator_id() == config_.id) {
    return false;  // RFC 4456: our own route came back
  }
  if (config_.cluster_id != 0) {
    const std::span<const std::uint32_t> cl = route.attrs->cluster_list();
    if (std::find(cl.begin(), cl.end(), config_.cluster_id) != cl.end()) {
      return false;  // RFC 4456: cluster loop
    }
  }
  return true;
}

void Speaker::apply(Incoming& incoming,
                    std::vector<bgp::IndexedPrefix>& dirty) {
  const Ipv4Prefix prefix = incoming.prefix;
  const PrefixId pid =
      incoming.pid != net::kNoPrefixId ? incoming.pid : prefix_id(prefix);

  if (incoming.ebgp) {
    // eBGP injection / withdrawal, already policy-filtered.
    const Route& route = incoming.ebgp_route;
    adj_rib_in_.replace(incoming.from, {prefix, pid},
                        route.valid() ? std::span<const Route>{&route, 1}
                                      : std::span<const Route>{});
    mark_dirty(prefix, pid, dirty);
    return;
  }

  const PeerState* sender = incoming.peer;
  if (sender == nullptr) {  // unknown on receipt; it may have been added
    const auto pit = peers_.find(incoming.from);
    if (pit == peers_.end()) return;  // stale message from a removed peer
    sender = &pit->second;
  }
  const PeerState& peer = *sender;

  // Is this message an ABRR reflection towards us (sender is our ARR for
  // one of the prefix's APs)?
  bool from_abrr_reflector = false;
  if (!peer.info.reflector_for.empty()) {
    const std::span<const ApId> aps = aps_of(prefix, pid);
    for (const ApId ap : peer.info.reflector_for) {
      if (std::find(aps.begin(), aps.end(), ap) != aps.end()) {
        from_abrr_reflector = true;
        break;
      }
    }
  }

  // The delivered set is kept as it is when the sender built it in the
  // form this RIB stores (learned from the sender via iBGP, sorted by
  // path id with unique ids) and no route is dropped as a loop. Otherwise
  // the routes are stamped and filtered into a copy, from the first
  // route that needs it on.
  const std::span<const Route> delivered = incoming.routes.routes();
  std::vector<Route>& copy = scratch_rx_;
  bool copied = false;
  for (std::size_t i = 0; i < delivered.size(); ++i) {
    const Route& r = delivered[i];
    const bool accepted = accept_route(r, &peer);
    if (!accepted) c_.loops_suppressed->inc();
    if (!copied) {
      const bool as_stored =
          accepted && r.prefix == prefix && r.learned_from == incoming.from &&
          r.via == bgp::LearnedVia::kIbgp &&
          (i == 0 || delivered[i - 1].path_id < r.path_id);
      if (as_stored) continue;
      copy.assign(delivered.begin(), delivered.begin() + i);
      copied = true;
    }
    if (!accepted) continue;
    Route& stamped = copy.emplace_back(r);
    stamped.learned_from = incoming.from;
    stamped.via = bgp::LearnedVia::kIbgp;
  }
  const std::span<const Route> received =
      copied ? std::span<const Route>{copy} : delivered;
  const auto store_received = [&] {
    if (copied) {
      adj_rib_in_.replace(incoming.from, {prefix, pid}, received);
    } else {
      adj_rib_in_.take(incoming.from, {prefix, pid},
                       std::move(incoming.routes));
    }
  };

  if (from_abrr_reflector) {
    // §3.4 storage: pure control-plane speakers (ARRs in their client
    // role) reduce the reflected best-AS-level set to their own best
    // and store one entry per redundant ARR session — they own no eBGP
    // routes, so the reduction is lossless for them (Appendix A's
    // unmanaged-route accounting). Data-plane border routers keep the
    // whole set by default: a reflected low-MED route must stay visible
    // to keep suppressing the router's own higher-MED route from the
    // same neighbor AS (deterministic-MED group elimination), which is
    // what makes ABRR match full-mesh exactly.
    const bool reduce =
        !config_.data_plane || config_.abrr_force_client_reduction;
    if (reduce && !received.empty()) {
      scratch_candidates_.clear();
      for (const Route& r : received) scratch_candidates_.push_back(&r);
      const Route* best =
          bgp::select_best_from(scratch_candidates_, config_.id, igp_,
                                config_.decision, scratch_select_);
      adj_rib_in_.replace(incoming.from, {prefix, pid},
                          best != nullptr ? std::span<const Route>{best, 1}
                                          : std::span<const Route>{});
    } else {
      store_received();
    }
    mark_dirty(prefix, pid, dirty);
    return;
  }

  if (!config_.managed_aps.empty() && config_.cluster_id == 0 &&
      peer.info.rr_client && !manages_prefix(prefix, pid)) {
    // A client sent us a route outside our Address Partitions: a
    // misconfiguration (§2.3.2). Never absorb it into the reflection
    // state.
    c_.misdirected->inc();
    return;
  }

  // Replacement semantics per (sender, prefix): store the announced set.
  // Covers client->ARR, client->TRR, TRR->TRR, full-mesh, and the
  // multi-path TBRR full sets (which clients/TRRs store whole).
  if (peer.info.rr_client && manages_prefix(prefix, pid)) {
    // §2.3.2: a "client" handing us an already-reflected route means the
    // ARR/client configuration is inconsistent somewhere. The reflected
    // bit keeps such routes out of re-reflection (enforced again in
    // reflect_abrr); surface the event for operators.
    for (const Route& r : received) {
      if (r.attrs->has_ext_community(bgp::kAbrrReflectedCommunity)) {
        c_.loops_suppressed->inc();
      }
    }
  }
  store_received();
  mark_dirty(prefix, pid, dirty);
}

void Speaker::run_pipeline(const Ipv4Prefix& prefix, PrefixId pid) {
  // Candidates are pointers into the Adj-RIB-In, valid across the whole
  // pipeline (decide_local only touches the Loc-RIB; the reflectors only
  // touch Adj-RIB-Outs).
  adj_rib_in_.routes_for({prefix, pid}, scratch_candidates_);

  // Every speaker (including control-plane RRs) maintains a Loc-RIB;
  // only data-plane clients export their best into iBGP.
  decide_local(prefix, pid, scratch_candidates_);
  if (config_.cluster_id != 0) {
    reflect_tbrr(prefix, pid, scratch_candidates_);
  }
  if (!config_.managed_aps.empty() && manages_prefix(prefix, pid)) {
    reflect_abrr(prefix, pid, scratch_candidates_);
  }
}

void Speaker::refresh_all() {
  if (!alive_) return;
  std::vector<Ipv4Prefix> seen;
  adj_rib_in_.for_each([&](const Route& r) { seen.push_back(r.prefix); });
  loc_rib_.for_each([&](const Route& r) { seen.push_back(r.prefix); });
  std::sort(seen.begin(), seen.end());
  seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
  for (const Ipv4Prefix& prefix : seen) {
    run_pipeline(prefix, prefix_id(prefix));
  }
}

void Speaker::decide_local(const Ipv4Prefix& prefix, PrefixId pid,
                           std::span<const Route* const> candidates) {
  const std::span<const Route* const> accepted =
      filter_accepted(prefix, candidates);
  const Route* best = bgp::select_best_from(accepted, config_.id, igp_,
                                            config_.decision, scratch_select_);
  bool changed;
  if (best != nullptr) {
    changed = loc_rib_.install({prefix, pid}, *best);
  } else {
    changed = loc_rib_.remove({prefix, pid});
  }
  if (!changed) return;
  c_.best_changes->inc();
  if (best_change_hook_) best_change_hook_(prefix, best);
  if (config_.data_plane) {
    export_own_best(prefix, pid, best);
    export_ebgp(prefix, pid, best);
  }
}

void Speaker::export_ebgp(const Ipv4Prefix& prefix, PrefixId pid,
                          const Route* best) {
  for (auto& [neighbor, state] : ebgp_neighbors_) {
    std::optional<Route> out;
    if (best != nullptr) {
      out = export_to_ebgp(*best, config_.asn, state.asn, neighbor,
                           state.policy);
    }
    std::uint64_t h = 0;
    if (out) {
      const Route* p = &*out;
      h = bgp::route_set_hash(std::span<const Route* const>{&p, 1});
    }
    if (state.advertised.size() <= pid) {
      state.advertised.resize(prefix_index_->size(), 0);
    }
    std::uint64_t& last = state.advertised[pid];
    if (h == last) continue;
    last = h;
    c_.ebgp_updates_sent->inc();
    if (ebgp_send_hook_) ebgp_send_hook_(neighbor, prefix, out);
  }
}

void Speaker::add_ebgp_neighbor(RouterId neighbor, Asn neighbor_as,
                                const EbgpExportPolicy& policy) {
  EbgpNeighborState state;
  state.asn = neighbor_as;
  state.policy = policy;
  ebgp_neighbors_.emplace(neighbor, std::move(state));
  // Initial table sync: everything currently best goes out.
  loc_rib_.for_each(
      [&](const Route& r) { export_ebgp(r.prefix, prefix_id(r.prefix), &r); });
}

void Speaker::reset_peer_tx_state(PeerState& ps) {
  if (ps.mrai_armed) {
    scheduler_->cancel(ps.mrai_timer);
    ps.mrai_armed = false;
  }
  clear_pending(ps, ps.pending);
  ps.pending.clear();
  // The peer lost our state with the TCP session.
  for (std::vector<std::uint64_t>& stripe : ps.sent_hashes) {
    std::fill(stripe.begin(), stripe.end(), 0);
  }
}

void Speaker::session_down(RouterId peer) {
  const auto pit = peers_.find(peer);
  if (pit != peers_.end()) {
    PeerState& ps = pit->second;
    // Idempotent: the failover path may learn about one failure from
    // several sources (hold expiry, injector, operator); the first one
    // already purged everything.
    if (!ps.up) return;
    ps.up = false;
    if (tracer_ != nullptr) {
      tracer_->record(obs::TraceEventKind::kSessionDown, config_.id, peer);
    }
    reset_peer_tx_state(ps);
    // The connection reset loses whatever the transport still held.
    if (network_->connected(config_.id, peer)) {
      network_->session_reset(config_.id, peer);
    }
  }
  const std::vector<Ipv4Prefix> affected = adj_rib_in_.withdraw_peer(peer);
  for (const Ipv4Prefix& prefix : affected) {
    run_pipeline(prefix, prefix_id(prefix));
  }
}

void Speaker::session_up(RouterId peer) {
  if (!alive_) return;  // a crashed router cannot open sessions
  const auto pit = peers_.find(peer);
  if (pit == peers_.end()) return;
  PeerState& ps = pit->second;
  ps.up = true;
  ps.last_heard = scheduler_->now();
  if (tracer_ != nullptr) {
    tracer_->record(obs::TraceEventKind::kSessionUp, config_.id, peer);
  }
  for (const auto& [key, g] : groups_) {
    if (std::find(g.members.begin(), g.members.end(), &ps) ==
        g.members.end()) {
      continue;
    }
    g.rib.for_each(
        [&, k = key](const Ipv4Prefix& prefix, const bgp::RouteSet&) {
          schedule_send(ps, k, prefix, prefix_id(prefix));
        });
  }
}

bool Speaker::peer_up(RouterId peer) const {
  const auto pit = peers_.find(peer);
  return pit != peers_.end() && pit->second.up;
}

void Speaker::crash() {
  if (!alive_) return;
  alive_ = false;
  if (tracer_ != nullptr) {
    tracer_->record(obs::TraceEventKind::kCrash, config_.id);
  }
  if (keepalive_armed_) {
    scheduler_->cancel(keepalive_timer_);
    keepalive_armed_ = false;
  }
  if (drain_scheduled_) {
    scheduler_->cancel(drain_event_);
    drain_scheduled_ = false;
  }
  input_queue_.clear();
  busy_until_ = 0;
  for (const RouterId id : peer_order_) {
    PeerState& ps = peers_.at(id);
    ps.up = false;
    reset_peer_tx_state(ps);
  }
  // All RIB state dies with the process. The best-change hook is not
  // fired: a crash is not a decision-process outcome, and the monitors
  // observe the survivors' reactions instead.
  adj_rib_in_.clear();
  loc_rib_.clear();
  if (rib_cleared_hook_) rib_cleared_hook_();
  for (auto& [key, g] : groups_) {
    g.rib.clear();
    g.memo.clear();
  }
  for (auto& [neighbor, state] : ebgp_neighbors_) {
    std::fill(state.advertised.begin(), state.advertised.end(), 0);
  }
}

void Speaker::restart() {
  if (alive_) return;
  alive_ = true;
  if (tracer_ != nullptr) {
    tracer_->record(obs::TraceEventKind::kRestart, config_.id);
  }
  // Sessions stay down until re-established; hold/keepalive processing
  // resumes immediately.
  if (config_.hold_time > 0 && !keepalive_armed_) {
    for (const RouterId id : peer_order_) {
      peers_.at(id).last_heard = scheduler_->now();
    }
    keepalive_armed_ = true;
    keepalive_timer_ = scheduler_->schedule_after(
        keepalive_interval(), [this] { keepalive_tick(); });
  }
}

void Speaker::export_own_best(const Ipv4Prefix& prefix, PrefixId pid,
                              const Route* best) {
  // Table 1, client rows: advertise the best route into iBGP iff it is
  // eBGP-learned or locally originated; otherwise advertise nothing
  // (withdraw any previous advertisement).
  std::vector<Route>& out = scratch_out_;
  out.clear();
  if (best != nullptr && best->via != bgp::LearnedVia::kIbgp) {
    out.push_back(client_export_copy(*best, config_.id));
  }

  // Role-driven: a kDual client advertises on every plane it has
  // sessions for (§2.4: routers run both TBRR and ABRR).
  if (config_.mode == IbgpMode::kFullMesh) {
    set_group_routes(kGroupMesh, prefix, pid, out);
    return;
  }
  // Plain clients advertise up to their TRRs; a TRR's own advertisement
  // is folded into its reflection logic instead.
  if (groups_.count(kGroupUplink) != 0 && config_.cluster_id == 0) {
    set_group_routes(kGroupUplink, prefix, pid, out);
  }
  for (const ApId ap : aps_of(prefix, pid)) {
    if (manages_ap(ap)) continue;  // internal hand-off to our ARR role
    if (groups_.count(client_group(ap)) != 0) {
      set_group_routes(client_group(ap), prefix, pid, out);
    }
  }
}

bool Speaker::uses_abrr(const Ipv4Prefix& prefix) const {
  switch (config_.mode) {
    case IbgpMode::kAbrr:
      return true;
    case IbgpMode::kDual:
      return accept_abrr_ && accept_abrr_(prefix);
    default:
      return false;
  }
}

std::span<const Route* const> Speaker::filter_accepted(
    const Ipv4Prefix& prefix, std::span<const Route* const> in) {
  if (config_.mode != IbgpMode::kDual) return in;
  const bool abrr = uses_abrr(prefix);
  scratch_accepted_.clear();
  scratch_accepted_.reserve(in.size());
  for (const Route* r : in) {
    if (r->via != bgp::LearnedVia::kIbgp) {
      scratch_accepted_.push_back(r);
      continue;
    }
    const auto it = peers_.find(r->learned_from);
    if (it == peers_.end()) continue;
    const PeerInfo& info = it->second.info;
    const bool from_abrr_plane = !info.reflector_for.empty();
    const bool from_tbrr_plane = info.reflector_tbrr || info.rr_peer;
    if (from_abrr_plane && !abrr) continue;
    if (from_tbrr_plane && abrr) continue;
    scratch_accepted_.push_back(r);
  }
  return scratch_accepted_;
}

void Speaker::reflect_tbrr(const Ipv4Prefix& prefix, PrefixId pid,
                           std::span<const Route* const> candidates) {
  // Reflection copy: append our CLUSTER_ID and pin ORIGINATOR_ID when
  // reflecting an iBGP-learned route (RFC 4456).
  const auto reflect_copy = [&](const Route& r) {
    Route out = r;
    if (r.via == bgp::LearnedVia::kIbgp) {
      out.attrs = bgp::with_attrs(r.attrs, [&](bgp::PathAttrs& a) {
        if (!a.originator_id) a.originator_id = r.learned_from;
        a.cluster_list.insert(a.cluster_list.begin(), config_.cluster_id);
      });
    }
    return out;
  };
  const auto learned_from_client = [&](const Route& r) {
    if (r.via != bgp::LearnedVia::kIbgp) return true;  // own eBGP/local
    const auto it = peers_.find(r.learned_from);
    return it != peers_.end() && it->second.info.rr_client;
  };

  if (!config_.multipath) {
    const Route* best = bgp::select_best_from(
        candidates, config_.id, igp_, config_.decision, scratch_select_);
    std::vector<Route>& to_clients = scratch_out_;
    std::vector<Route>& to_rrs = scratch_to_rrs_;
    to_clients.clear();
    to_rrs.clear();
    if (best != nullptr) {
      const Route reflected = reflect_copy(*best);
      to_clients.push_back(reflected);
      // RFC 4456: client routes (and our own) go to everyone; routes
      // learned from other TRRs (or from our parents in a multi-level
      // hierarchy) are reflected to clients only.
      if (learned_from_client(*best)) to_rrs.push_back(reflected);
    }
    set_group_routes(kGroupClients, prefix, pid, to_clients);
    set_group_routes(kGroupRrPeers, prefix, pid, to_rrs);
    // Multi-level hierarchy: a mid-level TRR is itself a client of its
    // parents and advertises its client-learned best upward.
    if (groups_.count(kGroupUplink) != 0) {
      set_group_routes(kGroupUplink, prefix, pid, to_rrs);
    }
    return;
  }

  // Multi-path TBRR (Appendix A.3): maintain and advertise all best
  // AS-level routes. Client-learned survivors go to both groups; the
  // full set goes to clients.
  bgp::best_as_level_into(candidates, config_.decision, scratch_bal_);
  std::vector<Route>& to_clients = scratch_out_;
  std::vector<Route>& to_rrs = scratch_to_rrs_;
  to_clients.clear();
  to_rrs.clear();
  for (const Route* r : scratch_bal_) {
    const Route reflected = reflect_copy(*r);
    to_clients.push_back(reflected);
    if (learned_from_client(*r)) to_rrs.push_back(reflected);
  }
  dedup_by_path_id(to_clients);
  dedup_by_path_id(to_rrs);
  set_group_routes(kGroupClients, prefix, pid, to_clients);
  set_group_routes(kGroupRrPeers, prefix, pid, to_rrs);
  if (groups_.count(kGroupUplink) != 0) {
    set_group_routes(kGroupUplink, prefix, pid, to_rrs);
  }
}

void Speaker::reflect_abrr(const Ipv4Prefix& prefix, PrefixId pid,
                           std::span<const Route* const> candidates) {
  // Eligible inputs to the ARR role: client advertisements that have not
  // been reflected before (§2.3.2 single-bit loop prevention), plus our
  // own best when we are a data-plane router whose best is other-learned
  // (the internal client->ARR hand-off of Figure 2).
  scratch_eligible_.clear();
  for (const Route* r : candidates) {
    if (r->via != bgp::LearnedVia::kIbgp) continue;  // own routes added below
    if (r->attrs->has_ext_community(bgp::kAbrrReflectedCommunity)) continue;
    const auto it = peers_.find(r->learned_from);
    if (it == peers_.end() || !it->second.info.rr_client) continue;
    scratch_eligible_.push_back(r);
  }
  // Storage for the internal client->ARR hand-off copy; must outlive the
  // best-AS-level elimination below.
  Route own_export;
  if (config_.data_plane) {
    const Route* own = loc_rib_.best({prefix, pid});
    if (own != nullptr && own->via != bgp::LearnedVia::kIbgp) {
      own_export = client_export_copy(*own, config_.id);
      scratch_eligible_.push_back(&own_export);
    }
  }

  bgp::best_as_level_into(scratch_eligible_, config_.decision, scratch_bal_);
  std::vector<Route>& set = scratch_out_;
  set.clear();
  for (const Route* r : scratch_bal_) set.push_back(*r);
  for (Route& r : set) {
    if (!r.attrs->has_ext_community(bgp::kAbrrReflectedCommunity)) {
      r.attrs = bgp::with_attrs(r.attrs, [&](bgp::PathAttrs& a) {
        a.ext_communities.push_back(bgp::kAbrrReflectedCommunity);
        if (!a.originator_id) a.originator_id = r.path_id;
      });
    }
  }
  dedup_by_path_id(set);

  for (const ApId ap : aps_of(prefix, pid)) {
    if (manages_ap(ap)) set_group_routes(arr_group(ap), prefix, pid, set);
  }
}

void Speaker::set_group_routes(int key, const Ipv4Prefix& prefix,
                               PrefixId pid, std::span<Route> routes) {
  OutGroup& g = group(key);
  if (!g.rib.set({prefix, pid}, routes)) return;
  if (!g.memo.empty()) {  // a memo built for the old set is stale
    const std::uint32_t at = group_slot(key, pid);
    if (at < g.memo.size()) g.memo[at] = TxMemo{};
  }
  c_.updates_generated->inc();
  if (key == kGroupClients || (key >= 0 && key % 2 == 0)) {
    c_.generated_to_clients->inc();  // reflections toward clients
  } else if (key == kGroupRrPeers) {
    c_.generated_to_rrs->inc();
  }
  for (PeerState* member : g.members) {
    schedule_send(*member, key, prefix, pid);
  }
}

void Speaker::schedule_send(PeerState& ps, int key, const Ipv4Prefix& prefix,
                            PrefixId pid) {
  // Nothing is sent into a torn-down session; session_up replays the
  // whole Adj-RIB-Out when it comes back, so nothing is lost either.
  if (!ps.up) return;
  if (config_.mrai <= 0) {
    transmit(ps, key, prefix, pid);
    return;
  }
  if (!ps.mrai_armed) {
    transmit(ps, key, prefix, pid);
    ps.mrai_armed = true;
    ps.mrai_timer = scheduler_->schedule_after(
        config_.mrai, [this, p = &ps] { flush_peer(*p); });
    return;
  }
  if (mark_pending(ps, key, pid)) ps.pending.push_back({key, prefix, pid});
}

void Speaker::flush_peer(PeerState& ps) {
  if (ps.pending.empty()) {
    ps.mrai_armed = false;
    return;
  }
  // flush_batch_ is empty between flushes; the peer's list takes its
  // storage, which recycle() keeps bounded.
  flush_batch_.swap(ps.pending);
  clear_pending(ps, flush_batch_);
  for (const PendingTx& tx : flush_batch_) {
    transmit(ps, tx.group, tx.prefix, tx.pid);
  }
  recycle(flush_batch_);
  ps.mrai_timer = scheduler_->schedule_after(
      config_.mrai, [this, p = &ps] { flush_peer(*p); });
}

void Speaker::transmit(PeerState& ps, int key, const Ipv4Prefix& prefix,
                       PrefixId pid) {
  if (!ps.up) return;
  OutGroup& g = group(key);
  const bgp::RouteSet* current = g.rib.get({prefix, pid});
  const std::span<const Route> advertised =
      current != nullptr ? std::span<const Route>{*current}
                         : std::span<const Route>{};

  // "Not returned to sender": a peer that advertised one of the routes
  // itself is sent the set without it.
  const auto returned = [&](const Route& r) {
    return r.learned_from == ps.info.id ||
           r.attrs->originator_id() == ps.info.id;
  };
  const bool whole = std::none_of(advertised.begin(), advertised.end(),
                                  returned);

  // A member that gets the whole set shares the slot's memo: the set is
  // hashed, stored and sized once per change for the whole group.
  TxMemo* m = whole && !advertised.empty() ? memo(g, key, pid) : nullptr;
  std::uint64_t h = 0;
  if (m != nullptr) {
    if (m->hash == 0) m->hash = bgp::route_set_hash(advertised);
    h = m->hash;
  } else {
    // Filter and hash over pointers first; the set is built only when
    // the peer actually needs an update.
    scratch_target_.clear();
    for (const Route& r : advertised) {
      if (!returned(r)) scratch_target_.push_back(&r);
    }
    if (!scratch_target_.empty()) {
      h = bgp::route_set_hash(
          std::span<const Route* const>{scratch_target_});
    }
  }
  std::uint64_t& last = sent_hash(ps, key, pid);
  if (h == last) return;  // peer already has exactly this
  last = h;

  net::Message msg{prefix, {}, /*keepalive=*/false, pid};
  std::uint64_t bytes = 0;
  if (m != nullptr) {
    const bool built = static_cast<bool>(m->routes);
    if (!built) {
      scratch_tx_.assign(advertised.begin(), advertised.end());
      m->routes = receiver_form();
    }
    msg.routes = m->routes.share();
    if (!built) m->bytes = network_->measure(msg);
    bytes = m->bytes;
  } else {
    scratch_tx_.clear();
    for (const Route* r : scratch_target_) scratch_tx_.push_back(*r);
    msg.routes = receiver_form();
    bytes = network_->measure(msg);
  }
  const std::size_t routes = msg.routes.size();
  c_.updates_transmitted->inc();
  c_.routes_transmitted->inc(routes);
  c_.wire_bytes_transmitted->inc(bytes);
  if (tracer_ != nullptr) {
    tracer_->record(obs::TraceEventKind::kUpdateTx, config_.id, ps.info.id,
                    routes);
  }
  network_->send(config_.id, ps.info.id, std::move(msg), bytes);
}

bgp::RouteSetRef Speaker::receiver_form() {
  // An Adj-RIB-Out set is sorted by path id with unique ids (the
  // reflectors dedup theirs), and so is any subset of it: that is what
  // lets a receiver keep the set as it is.
  assert(std::adjacent_find(scratch_tx_.begin(), scratch_tx_.end(),
                            [](const Route& a, const Route& b) {
                              return a.path_id >= b.path_id;
                            }) == scratch_tx_.end());
  for (Route& r : scratch_tx_) {
    r.learned_from = config_.id;
    r.via = bgp::LearnedVia::kIbgp;
  }
  return bgp::RouteSetRef{*route_sets_, scratch_tx_};
}

Speaker::TxMemo* Speaker::memo(OutGroup& g, int key, PrefixId pid) {
  if (g.members.size() <= kMemoMembers) return nullptr;
  const std::uint32_t at = group_slot(key, pid);
  if (g.memo.size() <= at) g.memo.resize(group_slots(key));
  return &g.memo[at];
}

std::size_t Speaker::stripe_of(PeerState& ps, int key) {
  // Stripes exist only for the groups the peer belongs to.
  auto it = std::find(ps.groups.begin(), ps.groups.end(), key);
  if (it == ps.groups.end()) it = ps.groups.insert(it, key);  // appends
  return static_cast<std::size_t>(it - ps.groups.begin());
}

std::uint64_t& Speaker::sent_hash(PeerState& ps, int key, PrefixId pid) {
  const std::size_t at = stripe_of(ps, key);
  if (ps.sent_hashes.size() <= at) ps.sent_hashes.resize(at + 1);
  std::vector<std::uint64_t>& stripe = ps.sent_hashes[at];
  const std::uint32_t slot = group_slot(key, pid);
  if (stripe.size() <= slot) stripe.resize(group_slots(key), 0);
  return stripe[slot];
}

bool Speaker::mark_pending(PeerState& ps, int key, PrefixId pid) {
  const std::size_t at = stripe_of(ps, key);
  if (ps.pending_bits.size() <= at) ps.pending_bits.resize(at + 1);
  std::vector<std::uint64_t>& stripe = ps.pending_bits[at];
  const std::uint32_t slot = group_slot(key, pid);
  if (stripe.size() <= slot / 64) {
    stripe.resize((group_slots(key) + 63) / 64, 0);
  }
  std::uint64_t& word = stripe[slot / 64];
  const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
  if ((word & bit) != 0) return false;
  word |= bit;
  return true;
}

void Speaker::clear_pending(PeerState& ps, std::span<const PendingTx> txs) {
  // Every listed pair was marked, so its stripe and word exist.
  for (const PendingTx& tx : txs) {
    const std::uint32_t slot = group_slot(tx.group, tx.pid);
    ps.pending_bits[stripe_of(ps, tx.group)][slot / 64] &=
        ~(std::uint64_t{1} << (slot % 64));
  }
}

std::uint32_t Speaker::group_slot(int key, PrefixId pid) const {
  if (key < 0 || !prefix_aps_) return pid;
  return prefix_aps_->slot(pid, key / 2);
}

std::size_t Speaker::group_slots(int key) const {
  if (key < 0 || !prefix_aps_) return prefix_index_->size();
  return prefix_aps_->slots(key / 2, prefix_index_->size());
}

void Speaker::inject_ebgp(RouterId neighbor, Route route) {
  route.learned_from = neighbor;
  route.via = bgp::LearnedVia::kEbgp;
  route.path_id = 0;
  if (route.attrs->next_hop != config_.id) {
    // next-hop-self on the iBGP edge (§ Design: types.h).
    route.attrs = bgp::with_attrs(
        route.attrs, [&](bgp::PathAttrs& a) { a.next_hop = config_.id; });
  }
  if (import_) {
    const auto filtered = import_(route);
    if (!filtered) return;
    route = *filtered;
    route.learned_from = neighbor;
    route.via = bgp::LearnedVia::kEbgp;
  }
  enqueue(Incoming{neighbor, route.prefix, net::kNoPrefixId, {},
                   /*ebgp=*/true, route});
}

void Speaker::withdraw_ebgp(RouterId neighbor, const Ipv4Prefix& prefix) {
  enqueue(Incoming{neighbor, prefix, net::kNoPrefixId, {}, /*ebgp=*/true,
                   Route{}});
}

void Speaker::originate(Route route) {
  route.learned_from = bgp::kNoRouter;
  route.via = bgp::LearnedVia::kLocal;
  route.path_id = 0;
  if (route.attrs->next_hop != config_.id) {
    route.attrs = bgp::with_attrs(
        route.attrs, [&](bgp::PathAttrs& a) { a.next_hop = config_.id; });
  }
  enqueue(Incoming{bgp::kNoRouter, route.prefix, net::kNoPrefixId, {},
                   /*ebgp=*/true, route});
}

std::size_t Speaker::rib_out_size() const {
  std::size_t total = 0;
  for (const auto& [key, g] : groups_) total += g.rib.size();
  return total;
}

const bgp::AdjRibOut* Speaker::out_group(int key) const {
  const auto it = groups_.find(key);
  return it == groups_.end() ? nullptr : &it->second.rib;
}

Speaker::OutGroup& Speaker::group(int key) {
  // Look up first: emplace would build (and free) a whole OutGroup node
  // on every hit.
  if (const auto it = groups_.find(key); it != groups_.end()) {
    return it->second;
  }
  return groups_
      .emplace(key,
               OutGroup{bgp::AdjRibOut{prefix_index_, route_sets_}, {}})
      .first->second;
}

std::span<const ApId> Speaker::aps_of(const Ipv4Prefix& prefix, PrefixId pid) {
  if (prefix_aps_ && pid < prefix_aps_->size()) return prefix_aps_->aps(pid);
  if (!config_.ap_of) return {};
  scratch_aps_ = config_.ap_of(prefix);
  return scratch_aps_;
}

bool Speaker::manages_ap(ApId ap) const {
  return std::find(config_.managed_aps.begin(), config_.managed_aps.end(),
                   ap) != config_.managed_aps.end();
}

bool Speaker::manages_prefix(const Ipv4Prefix& prefix, PrefixId pid) {
  for (const ApId ap : aps_of(prefix, pid)) {
    if (manages_ap(ap)) return true;
  }
  return false;
}

}  // namespace abrr::ibgp
