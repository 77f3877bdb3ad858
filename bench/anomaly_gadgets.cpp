// §2.3 correctness table: the three anomaly gadgets run under TBRR and
// ABRR. Expected output — TBRR: topology gadget oscillates, adversarial
// MED gadget oscillates (with vendor order-dependent MED), data-plane
// gadget converges INTO a stable forwarding loop with inefficient paths;
// ABRR: converges, loop-free, hot-potato optimal, on the very same
// (badly placed) reflector boxes.
#include <cstdio>
#include <map>
#include <memory>

#include "core/address_partition.h"
#include "harness/testbed.h"
#include "ibgp/speaker.h"
#include "verify/efficiency.h"
#include "verify/forwarding.h"
#include "verify/oscillation.h"

namespace {

using namespace abrr;
using ibgp::IbgpMode;
using ibgp::PeerInfo;
using ibgp::RouterId;
using ibgp::Speaker;
using ibgp::SpeakerConfig;

const bgp::Ipv4Prefix kPfx = bgp::Ipv4Prefix::parse("10.0.0.0/8");

// A self-contained mini-lab: scheduler + network + speakers.
struct Lab {
  sim::Scheduler sched;
  sim::Rng rng{1};
  net::Network net{sched, rng};
  std::map<RouterId, std::unique_ptr<Speaker>> speakers;
  verify::OscillationMonitor monitor{20};

  Speaker& add(SpeakerConfig cfg) {
    cfg.asn = 65000;
    cfg.mrai = 0;
    cfg.proc_delay = sim::msec(1);
    auto s = std::make_unique<Speaker>(cfg, sched, net);
    auto& ref = *s;
    speakers.emplace(cfg.id, std::move(s));
    return ref;
  }
  Speaker& at(RouterId id) { return *speakers.at(id); }
  void start() {
    for (auto& [id, s] : speakers) {
      monitor.attach(*s);
      s->start();
    }
  }
  static bgp::IgpDistanceFn table(std::map<RouterId, std::int64_t> d) {
    return [d = std::move(d)](RouterId nh) -> std::int64_t {
      const auto it = d.find(nh);
      return it == d.end() ? 1000 : it->second;
    };
  }
};

bgp::Route route(bgp::Asn neighbor_as,
                 std::optional<std::uint32_t> med = {}) {
  bgp::RouteBuilder b{kPfx};
  b.local_pref(100).as_path({neighbor_as, 65100});
  if (med) b.med(*med);
  return b.build();
}

// --- gadget 1: cyclic-IGP topology oscillation ------------------------
bool topology_gadget_oscillates(bool abrr) {
  Lab lab;
  const auto scheme = core::PartitionScheme::uniform(1);
  for (RouterId c = 1; c <= 3; ++c) {
    SpeakerConfig cfg;
    cfg.id = c;
    cfg.mode = abrr ? IbgpMode::kAbrr : IbgpMode::kTbrr;
    if (abrr) cfg.ap_of = scheme.mapper();
    lab.add(cfg);
  }
  const int n_rr = abrr ? 2 : 3;
  for (int i = 0; i < n_rr; ++i) {
    const RouterId id = 11 + static_cast<RouterId>(i);
    SpeakerConfig cfg;
    cfg.id = id;
    cfg.mode = abrr ? IbgpMode::kAbrr : IbgpMode::kTbrr;
    cfg.data_plane = false;
    if (abrr) {
      cfg.ap_of = scheme.mapper();
      cfg.managed_aps = {0};
    } else {
      cfg.cluster_id = static_cast<std::uint32_t>(i + 1);
    }
    lab.add(cfg);
  }
  lab.at(11).set_igp(Lab::table({{1, 10}, {2, 1}, {3, 100}}));
  lab.at(12).set_igp(Lab::table({{1, 100}, {2, 10}, {3, 1}}));
  if (!abrr) lab.at(13).set_igp(Lab::table({{1, 1}, {2, 100}, {3, 10}}));

  if (abrr) {
    for (RouterId c = 1; c <= 3; ++c) {
      for (RouterId r = 11; r <= 12; ++r) {
        lab.net.connect(c, r, sim::msec(2));
        lab.at(c).add_peer(PeerInfo{.id = r, .reflector_for = {0}});
        lab.at(r).add_peer(PeerInfo{.id = c, .rr_client = true});
      }
    }
  } else {
    for (RouterId c = 1; c <= 3; ++c) {
      const RouterId rr = c + 10;
      lab.net.connect(c, rr, sim::msec(2));
      lab.at(c).add_peer(PeerInfo{.id = rr, .reflector_tbrr = true});
      lab.at(rr).add_peer(PeerInfo{.id = c, .rr_client = true});
    }
    for (RouterId a = 11; a <= 13; ++a) {
      for (RouterId b = a + 1; b <= 13; ++b) {
        lab.net.connect(a, b, sim::msec(2));
        lab.at(a).add_peer(PeerInfo{.id = b, .rr_peer = true});
        lab.at(b).add_peer(PeerInfo{.id = a, .rr_peer = true});
      }
    }
  }
  lab.start();
  for (RouterId c = 1; c <= 3; ++c) {
    lab.at(c).inject_ebgp(0x80000000 + c,
                          route(65000 + c));
  }
  const bool quiesced = lab.sched.run_to_quiescence(300000);
  return !quiesced || lab.monitor.oscillating();
}

// --- gadget 2: RFC 3345-style MED oscillation -------------------------
bool med_gadget_oscillates(bool abrr, bool deterministic_med) {
  Lab lab;
  bgp::DecisionConfig dec;
  dec.deterministic_med = deterministic_med;
  const auto scheme = core::PartitionScheme::uniform(1);

  const auto add_node = [&](RouterId id, bool rr, std::uint32_t cluster) {
    SpeakerConfig cfg;
    cfg.id = id;
    cfg.decision = dec;
    cfg.mode = abrr ? IbgpMode::kAbrr : IbgpMode::kTbrr;
    cfg.data_plane = !rr;
    if (abrr) {
      cfg.ap_of = scheme.mapper();
      if (rr) cfg.managed_aps = {0};
    } else if (rr) {
      cfg.cluster_id = cluster;
    }
    lab.add(cfg);
  };
  add_node(3, false, 0);
  add_node(4, false, 0);
  add_node(5, false, 0);
  add_node(1, true, 1);
  add_node(2, true, 2);
  lab.at(1).set_igp(Lab::table({{3, 1}, {4, 5}, {5, 50}}));
  lab.at(2).set_igp(Lab::table({{3, 1}, {4, 5}, {5, 10}}));

  if (abrr) {
    for (RouterId c : {3u, 4u, 5u}) {
      for (RouterId r : {1u, 2u}) {
        lab.net.connect(c, r, sim::msec(2));
        lab.at(c).add_peer(PeerInfo{.id = r, .reflector_for = {0}});
        lab.at(r).add_peer(PeerInfo{.id = c, .rr_client = true});
      }
    }
  } else {
    lab.net.connect(3, 1, sim::msec(2));
    lab.at(3).add_peer(PeerInfo{.id = 1, .reflector_tbrr = true});
    lab.at(1).add_peer(PeerInfo{.id = 3, .rr_client = true});
    for (RouterId c : {4u, 5u}) {
      lab.net.connect(c, 2, sim::msec(2));
      lab.at(c).add_peer(PeerInfo{.id = 2, .reflector_tbrr = true});
      lab.at(2).add_peer(PeerInfo{.id = c, .rr_client = true});
    }
    lab.net.connect(1, 2, sim::msec(2));
    lab.at(1).add_peer(PeerInfo{.id = 2, .rr_peer = true});
    lab.at(2).add_peer(PeerInfo{.id = 1, .rr_peer = true});
  }
  lab.start();
  lab.at(3).inject_ebgp(0x80000001, route(65001, 1));
  lab.at(4).inject_ebgp(0x80000002, route(65002));
  lab.at(5).inject_ebgp(0x80000003, route(65001, 0));
  const bool quiesced = lab.sched.run_to_quiescence(300000);
  return !quiesced || lab.monitor.oscillating();
}

// --- gadget 3: stable data-plane deflection loop ----------------------
topo::Topology loop_topology() {
  topo::Topology t;
  t.params.pops = 2;
  t.clients = {
      {1, topo::RouterRole::kPeering, 0, 1},
      {2, topo::RouterRole::kAccess, 0, 0},
      {3, topo::RouterRole::kAccess, 1, 1},
      {4, topo::RouterRole::kPeering, 1, 0},
  };
  t.reflectors = {{11, 1, 0}, {12, 0, 1}};
  t.graph.add_link(1, 2, 1);
  t.graph.add_link(2, 3, 1);
  t.graph.add_link(3, 4, 1);
  t.graph.add_link(11, 4, 1);
  t.graph.add_link(12, 1, 1);
  return t;
}

struct DataPlaneResult {
  bool converged = false;
  std::size_t loops = 0;
  double extra_metric = 0;
};

DataPlaneResult data_plane_gadget(IbgpMode mode) {
  harness::TestbedConfig config;
  config.mode = mode;
  config.abrr.num_aps = 1;
  config.timing.mrai = 0;
  config.timing.proc_delay = sim::msec(1);
  config.timing.latency_jitter = 0;
  harness::Testbed bed{loop_topology(), config,
                       std::vector<bgp::Ipv4Prefix>{kPfx}};
  bed.speaker(1).inject_ebgp(0x80000001, route(65001));
  bed.speaker(4).inject_ebgp(0x80000002, route(65002));

  DataPlaneResult result;
  result.converged = bed.run_to_quiescence(500000);
  verify::ForwardingChecker checker{bed};
  const std::vector<bgp::Ipv4Prefix> prefixes{kPfx};
  result.loops = checker.audit(prefixes).loops;

  trace::PrefixEntry entry;
  entry.prefix = kPfx;
  entry.from_peers = true;
  trace::Announcement a1;
  a1.router = 1;
  a1.neighbor = 0x80000001;
  a1.first_as = 65001;
  a1.path_length = 2;
  a1.local_pref = 100;
  trace::Announcement a2 = a1;
  a2.router = 4;
  a2.neighbor = 0x80000002;
  a2.first_as = 65002;
  entry.anns = {a1, a2};
  const auto edge = trace::Workload::from_parts({}, {entry});
  result.extra_metric =
      verify::audit_efficiency(bed, edge).total_extra_metric;
  return result;
}

const char* yesno(bool b) { return b ? "YES" : "no"; }

}  // namespace

int main() {
  std::printf("# §2.3 anomaly gadgets: TBRR vs ABRR\n\n");
  std::printf("%-34s %-10s %-10s\n", "gadget", "TBRR", "ABRR");

  std::printf("%-34s %-10s %-10s\n", "topology oscillation",
              yesno(topology_gadget_oscillates(false)),
              yesno(topology_gadget_oscillates(true)));
  std::printf("%-34s %-10s %-10s\n", "MED oscillation (vendor med)",
              yesno(med_gadget_oscillates(false, false)),
              yesno(med_gadget_oscillates(true, false)));
  std::printf("%-34s %-10s %-10s\n", "MED oscillation (deterministic)",
              yesno(med_gadget_oscillates(false, true)),
              yesno(med_gadget_oscillates(true, true)));

  const auto tbrr = data_plane_gadget(IbgpMode::kTbrr);
  const auto abrr = data_plane_gadget(IbgpMode::kAbrr);
  std::printf("%-34s %-10zu %-10zu\n", "forwarding loops (stable state)",
              tbrr.loops, abrr.loops);
  std::printf("%-34s %-10.0f %-10.0f\n", "extra IGP metric (inefficiency)",
              tbrr.extra_metric, abrr.extra_metric);

  std::printf("\n# paper: ABRR has no oscillations, no loops, and no\n");
  std::printf("# path inefficiency, with no constraint on RR placement.\n");
  return 0;
}
