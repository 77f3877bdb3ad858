#include "harness/testbed.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "bgp/attrs_intern.h"

namespace abrr::harness {

Testbed::Testbed(topo::Topology topology, const TestbedConfig& config,
                 std::span<const Ipv4Prefix> prefixes)
    : topology_(std::move(topology)),
      config_(config),
      rng_(config.seed),
      network_(scheduler_, rng_),
      obs_(std::make_unique<obs::Obs>(scheduler_, config.obs)) {
  network_.set_metrics(&obs_->metrics());
  network_.set_tracer(obs_->tracer());
  for (const Ipv4Prefix& p : prefixes) network_.prefix_index()->add(p);

  switch (config_.mode) {
    case ibgp::IbgpMode::kFullMesh:
      spf_ = std::make_unique<igp::SpfCache>(topology_.graph);
      wire_full_mesh();
      break;
    case ibgp::IbgpMode::kTbrr:
      spf_ = std::make_unique<igp::SpfCache>(topology_.graph);
      wire_tbrr(/*dual=*/false);
      break;
    case ibgp::IbgpMode::kAbrr:
      wire_abrr(/*dual=*/false, prefixes);
      break;
    case ibgp::IbgpMode::kDual:
      wire_abrr(/*dual=*/true, prefixes);
      break;
  }

  for (const auto& [id, speaker] : speakers_) {
    speaker->set_igp(spf_->distance_fn(id));
    speaker->start();
  }

  if (obs_->enabled()) start_sampler();
}

Testbed::~Testbed() {
  // Every holder of a stored set goes with the bed: the speakers' RIBs
  // and memos, their input queues and the messages in flight. Free the
  // sets at once instead of handing each back through the store's table.
  network_.route_sets()->drop_all();
}

void Testbed::start_sampler() {
  auto& m = obs_->metrics();
  obs::Gauge* loc = m.gauge("rib.loc_total");
  obs::Gauge* adj_in = m.gauge("rib.adj_in_total");
  obs::Gauge* adj_out = m.gauge("rib.adj_out_total");
  obs::Gauge* queued = m.gauge("queue.input_total");
  obs::Gauge* sessions = m.gauge("net.sessions");
  obs::Gauge* alive = m.gauge("speakers.alive");
  obs::Sampler& sampler = *obs_->sampler();
  // The refresh recomputes every gauge from live state right before each
  // sample; iteration over all_ids_ keeps it deterministic (not that it
  // matters for sums, but it keeps the callback boring).
  sampler.set_refresh([this, loc, adj_in, adj_out, queued, sessions, alive] {
    double l = 0, ai = 0, ao = 0, q = 0, up = 0;
    for (const RouterId id : all_ids_) {
      const auto& sp = *speakers_.at(id);
      l += static_cast<double>(sp.loc_rib().size());
      ai += static_cast<double>(sp.rib_in_size());
      ao += static_cast<double>(sp.rib_out_size());
      q += static_cast<double>(sp.input_queue_size());
      if (sp.alive()) up += 1;
    }
    loc->set(l);
    adj_in->set(ai);
    adj_out->set(ao);
    queued->set(q);
    sessions->set(static_cast<double>(network_.session_count()));
    alive->set(up);
  });
  sampler.track("loc_rib", loc);
  sampler.track("adj_rib_in", adj_in);
  sampler.track("adj_rib_out", adj_out);
  sampler.track("input_queue", queued);
  sampler.track("sessions", sessions);
  sampler.track("speakers_alive", alive);
  sampler.start();
}

ibgp::Speaker& Testbed::make_speaker(ibgp::SpeakerConfig cfg) {
  cfg.decision = config_.decision;
  cfg.mrai = config_.timing.mrai;
  cfg.proc_delay = config_.timing.proc_delay;
  cfg.proc_per_update = config_.timing.proc_per_update;
  cfg.abrr_force_client_reduction = config_.abrr.force_client_reduction;
  cfg.hold_time = config_.timing.hold_time;
  // Every ABRR speaker of the bed maps prefixes through ap_of_: resolve
  // each prefix's APs once, for all of them.
  if (cfg.ap_of && !prefix_aps_) {
    prefix_aps_ = std::make_shared<const ibgp::PrefixApTable>(
        prefix_index(), ap_of_);
  }
  auto speaker = std::make_unique<ibgp::Speaker>(
      cfg, scheduler_, network_, &obs_->metrics(),
      cfg.ap_of ? prefix_aps_ : nullptr);
  speaker->set_tracer(obs_->tracer());
  auto& ref = *speaker;
  speakers_.emplace(cfg.id, std::move(speaker));
  all_ids_.push_back(cfg.id);
  if (ref.is_rr()) rr_ids_.push_back(cfg.id);
  if (cfg.data_plane) client_ids_.push_back(cfg.id);
  return ref;
}

void Testbed::connect(RouterId a, RouterId b) {
  if (network_.connected(a, b)) return;
  const auto metric = spf_->distance(a, b);
  sim::Time latency = sim::msec(1);
  if (metric != bgp::kIgpInfinity) {
    latency += metric * config_.timing.latency_per_metric;
  }
  network_.connect(a, b, latency, config_.timing.latency_jitter);
}

void Testbed::wire_full_mesh() {
  for (const auto& r : topology_.clients) {
    ibgp::SpeakerConfig cfg;
    cfg.id = r.id;
    cfg.asn = topology_.local_as;
    cfg.mode = ibgp::IbgpMode::kFullMesh;
    make_speaker(cfg);
  }
  for (std::size_t i = 0; i < topology_.clients.size(); ++i) {
    for (std::size_t j = i + 1; j < topology_.clients.size(); ++j) {
      const RouterId a = topology_.clients[i].id;
      const RouterId b = topology_.clients[j].id;
      connect(a, b);
      speakers_.at(a)->add_peer(ibgp::PeerInfo{.id = b});
      speakers_.at(b)->add_peer(ibgp::PeerInfo{.id = a});
    }
  }
}

void Testbed::wire_tbrr(bool dual) {
  const auto mode = dual ? ibgp::IbgpMode::kDual : ibgp::IbgpMode::kTbrr;
  // Clients.
  for (const auto& r : topology_.clients) {
    ibgp::SpeakerConfig cfg;
    cfg.id = r.id;
    cfg.asn = topology_.local_as;
    cfg.mode = mode;
    if (dual) cfg.ap_of = ap_of_;
    make_speaker(cfg);
  }
  // TRRs: control-plane boxes, CLUSTER_ID = cluster + 1 (non-zero).
  // In dual mode the freshly created ARR nodes are already in
  // topology_.reflectors; skip them here (they have no cluster).
  for (const auto& rr : topology_.reflectors) {
    if (rr.cluster == std::numeric_limits<std::uint32_t>::max()) continue;
    ibgp::SpeakerConfig cfg;
    cfg.id = rr.id;
    cfg.asn = topology_.local_as;
    cfg.mode = mode;
    if (dual) cfg.ap_of = ap_of_;
    cfg.cluster_id = rr.cluster + 1;
    cfg.multipath = config_.multipath;
    cfg.data_plane = false;
    make_speaker(cfg);
  }
  // Client <-> own-cluster TRRs.
  for (const auto& r : topology_.clients) {
    for (const auto* rr : topology_.cluster_reflectors(r.cluster)) {
      connect(r.id, rr->id);
      speakers_.at(r.id)->add_peer(
          ibgp::PeerInfo{.id = rr->id, .reflector_tbrr = true});
      speakers_.at(rr->id)->add_peer(
          ibgp::PeerInfo{.id = r.id, .rr_client = true});
    }
  }
  // TRR full mesh.
  std::vector<RouterId> trrs;
  for (const auto& rr : topology_.reflectors) {
    if (rr.cluster != std::numeric_limits<std::uint32_t>::max()) {
      trrs.push_back(rr.id);
    }
  }
  for (std::size_t i = 0; i < trrs.size(); ++i) {
    for (std::size_t j = i + 1; j < trrs.size(); ++j) {
      connect(trrs[i], trrs[j]);
      speakers_.at(trrs[i])->add_peer(
          ibgp::PeerInfo{.id = trrs[j], .rr_peer = true});
      speakers_.at(trrs[j])->add_peer(
          ibgp::PeerInfo{.id = trrs[i], .rr_peer = true});
    }
  }
}

void Testbed::wire_abrr(bool dual, std::span<const Ipv4Prefix> prefixes) {
  partition_ = config_.abrr.balanced_aps
                   ? core::PartitionScheme::balanced(
                         config_.abrr.num_aps,
                         std::vector<Ipv4Prefix>(prefixes.begin(),
                                                 prefixes.end()))
                   : core::PartitionScheme::uniform(config_.abrr.num_aps);
  ap_of_ = partition_->mapper();
  const auto& ap_of = ap_of_;

  // ARR nodes: reuse the topology's control-plane boxes first. In dual
  // (transition) mode those boxes stay TRRs, so all ARRs are new nodes.
  std::vector<RouterId> arr_pool;
  if (!dual) {
    for (const auto& rr : topology_.reflectors) arr_pool.push_back(rr.id);
  }
  const std::size_t needed = config_.abrr.num_aps * config_.abrr.arrs_per_ap;
  RouterId next_id = 1;
  for (const auto& r : topology_.clients) next_id = std::max(next_id, r.id);
  for (const auto& r : topology_.reflectors) next_id = std::max(next_id, r.id);
  ++next_id;
  while (arr_pool.size() < needed) {
    // Placement freedom (§2.3.3): attach anywhere; we pick a random PoP.
    const auto pop =
        static_cast<std::uint32_t>(rng_.index(topology_.params.pops));
    const RouterId id = next_id++;
    topology_.graph.add_link(id, topo::hub_of(pop), 2);
    topology_.reflectors.push_back(topo::ReflectorSpec{
        id, pop, std::numeric_limits<std::uint32_t>::max()});
    arr_pool.push_back(id);
  }
  // The graph may have grown: (re)build the SPF cache now.
  spf_ = std::make_unique<igp::SpfCache>(topology_.graph);

  if (dual) wire_tbrr(/*dual=*/true);

  // Clients (pure ABRR; in dual mode wire_tbrr made them already).
  if (!dual) {
    for (const auto& r : topology_.clients) {
      ibgp::SpeakerConfig cfg;
      cfg.id = r.id;
      cfg.asn = topology_.local_as;
      cfg.mode = ibgp::IbgpMode::kAbrr;
      cfg.ap_of = ap_of;
      make_speaker(cfg);
    }
  }

  // ARRs.
  std::vector<RouterId> arr_ids;
  for (std::size_t ap = 0; ap < config_.abrr.num_aps; ++ap) {
    for (std::size_t k = 0; k < config_.abrr.arrs_per_ap; ++k) {
      const RouterId id = arr_pool[ap * config_.abrr.arrs_per_ap + k];
      ibgp::SpeakerConfig cfg;
      cfg.id = id;
      cfg.asn = topology_.local_as;
      cfg.mode = dual ? ibgp::IbgpMode::kDual : ibgp::IbgpMode::kAbrr;
      cfg.ap_of = ap_of;
      cfg.managed_aps = {static_cast<ibgp::ApId>(ap)};
      cfg.data_plane = false;
      make_speaker(cfg);
      arr_ap_.emplace(id, static_cast<ibgp::ApId>(ap));
      arr_directory_.assign(static_cast<ibgp::ApId>(ap), id);
      arr_ids.push_back(id);
    }
  }

  // Sessions: every ARR <-> every client, and ARR <-> ARR across APs.
  const auto link = [&](RouterId arr, RouterId other) {
    connect(arr, other);
    // The ARR reflects to `other`; `other` is a client of `arr`'s AP.
    speakers_.at(arr)->add_peer(ibgp::PeerInfo{.id = other, .rr_client = true});
    auto& peer = *speakers_.at(other);
    ibgp::PeerInfo info;
    info.id = arr;
    info.reflector_for = {arr_ap_.at(arr)};
    // Cross-ARR sessions are symmetric client relationships.
    if (arr_ap_.count(other) != 0) info.rr_client = true;
    peer.add_peer(info);
  };
  for (const RouterId arr : arr_ids) {
    for (const auto& r : topology_.clients) link(arr, r.id);
    for (const RouterId other : arr_ids) {
      if (other == arr) continue;
      if (arr_ap_.at(other) == arr_ap_.at(arr)) continue;  // same AP: none
      if (other < arr) continue;  // wire each pair once, both directions
      connect(arr, other);
      ibgp::PeerInfo a_view;  // how `arr` sees `other`
      a_view.id = other;
      a_view.rr_client = true;
      a_view.reflector_for = {arr_ap_.at(other)};
      speakers_.at(arr)->add_peer(a_view);
      ibgp::PeerInfo b_view;
      b_view.id = arr;
      b_view.rr_client = true;
      b_view.reflector_for = {arr_ap_.at(arr)};
      speakers_.at(other)->add_peer(b_view);
    }
  }
}

ibgp::Speaker& Testbed::speaker(RouterId id) {
  const auto it = speakers_.find(id);
  if (it == speakers_.end()) {
    throw std::out_of_range{"Testbed::speaker: unknown router id " +
                            std::to_string(id) + " (testbed knows " +
                            std::to_string(speakers_.size()) +
                            " speaker ids)"};
  }
  return *it->second;
}

const ibgp::Speaker& Testbed::speaker(RouterId id) const {
  return const_cast<Testbed*>(this)->speaker(id);
}

trace::InjectFn Testbed::inject_fn() {
  return [this](RouterId router, RouterId neighbor, const Ipv4Prefix& prefix,
                const std::optional<bgp::Route>& route) {
    auto& s = speaker(router);
    if (route) {
      s.inject_ebgp(neighbor, *route);
    } else {
      s.withdraw_ebgp(neighbor, prefix);
    }
  };
}

void Testbed::attach_rib_listener(
    std::function<void(RouterId, const Ipv4Prefix&, const bgp::Route*)>
        on_change,
    std::function<void(RouterId)> on_cleared) {
  for (const RouterId id : all_ids_) {
    ibgp::Speaker& s = *speakers_.at(id);
    s.set_best_change_hook(
        [id, on_change](const Ipv4Prefix& prefix, const bgp::Route* best) {
          on_change(id, prefix, best);
        });
    s.set_rib_cleared_hook([id, on_cleared] { on_cleared(id); });
  }
}

bool Testbed::run_to_quiescence(std::size_t max_events) {
  return scheduler_.run_to_quiescence(max_events);
}

void Testbed::igp_event(const std::function<void(igp::Graph&)>& mutate) {
  mutate(topology_.graph);
  spf_->invalidate();
  for (const auto& [id, speaker] : speakers_) speaker->refresh_all();
}

void Testbed::reset_counters() {
  counter_baseline_ = obs_->metrics().counter_snapshot();
}

std::uint64_t Testbed::counter_delta(std::string_view name,
                                     const obs::Labels& filter) const {
  return obs_->metrics().sum_counters(name, filter, &counter_baseline_);
}

ibgp::ApId Testbed::arr_ap(RouterId id) const {
  const auto it = arr_ap_.find(id);
  return it == arr_ap_.end() ? -1 : it->second;
}

namespace {

Aggregate aggregate(const std::vector<double>& values) {
  Aggregate a;
  if (values.empty()) return a;
  a.min = a.max = values.front();
  double sum = 0;
  for (const double v : values) {
    a.min = std::min(a.min, v);
    a.max = std::max(a.max, v);
    sum += v;
  }
  a.avg = sum / static_cast<double>(values.size());
  return a;
}

}  // namespace

MemoryBreakdown Testbed::memory() const {
  MemoryBreakdown m;
  for (const auto& [id, speaker] : speakers_) {
    const ibgp::SpeakerMemory s = speaker->memory();
    m.rib_in += s.rib_in;
    m.loc_rib += s.loc_rib;
    m.rib_out += s.rib_out;
    m.sent_hashes += s.sent_hashes;
    m.pending += s.pending;
  }
  m.route_sets = route_sets().bytes();
  m.attr_arena = bgp::AttrsInterner::global().bytes();
  m.channel_queues = network_.queue_bytes();
  m.events = scheduler_.bytes();
  return m;
}

Aggregate Testbed::rr_rib_in() const {
  std::vector<double> v;
  for (const RouterId id : rr_ids_) {
    v.push_back(static_cast<double>(speakers_.at(id)->rib_in_size()));
  }
  return aggregate(v);
}

Aggregate Testbed::rr_rib_out() const {
  std::vector<double> v;
  for (const RouterId id : rr_ids_) {
    v.push_back(static_cast<double>(speakers_.at(id)->rib_out_size()));
  }
  return aggregate(v);
}

RoleTotals Testbed::role_totals(const obs::Labels& filter,
                                std::size_t speakers) const {
  RoleTotals t;
  t.received = counter_delta("speaker.updates_received", filter);
  t.generated = counter_delta("speaker.updates_generated", filter);
  t.transmitted = counter_delta("speaker.updates_transmitted", filter);
  t.wire_bytes = counter_delta("speaker.wire_bytes_transmitted", filter);
  t.speakers = speakers;
  return t;
}

RoleTotals Testbed::rr_counters() const {
  return role_totals(obs::Labels{{"role", "rr"}}, rr_ids_.size());
}

RoleTotals Testbed::client_counters() const {
  // Every data-plane client carries role=client (RR boxes are pure
  // control plane in this harness), so the label filter matches
  // client_ids_ exactly.
  return role_totals(obs::Labels{{"role", "client"}}, client_ids_.size());
}

}  // namespace abrr::harness
