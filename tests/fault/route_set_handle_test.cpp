// Route sets cross the network by handle: a sender stores the set its
// receivers keep once per peer-group change, every member gets a
// reference to it, and a receiver that filters nothing keeps the set it
// was handed. These tests check both halves. The store frees exactly
// what nobody holds any more, through every fault the network models
// and the bed's destruction (the sanitizer builds check the frees); and
// a handed set is stored exactly as the copy path stores the same
// routes.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "fault/injector.h"
#include "fault/recovery.h"
#include "fault/schedule.h"
#include "harness/testbed.h"
#include "topo/topology.h"
#include "trace/regenerator.h"
#include "trace/workload.h"

namespace abrr::fault {
namespace {

using bgp::RouterId;

// Large enough that reflection groups have more than two members, so
// the senders' memos are in play.
struct Inputs {
  topo::Topology topology;
  trace::Workload workload;
  std::vector<bgp::Ipv4Prefix> prefixes;
};

const Inputs& inputs() {
  static const Inputs* in = [] {
    sim::Rng rng{17};
    topo::TopologyParams tp;
    tp.pops = 3;
    tp.clients_per_pop = 3;
    tp.peer_ases = 4;
    tp.peering_points_per_as = 2;
    auto topology = topo::make_tier1(tp, rng);
    trace::WorkloadParams wp;
    wp.prefixes = 80;
    auto workload = trace::Workload::generate(wp, topology, rng);
    auto* out = new Inputs{std::move(topology), std::move(workload), {}};
    out->prefixes = out->workload.prefixes();
    return out;
  }();
  return *in;
}

harness::TestbedConfig config(ibgp::IbgpMode mode) {
  harness::TestbedConfig o;
  o.mode = mode;
  o.abrr.num_aps = 2;
  o.timing.mrai = sim::msec(500);
  o.timing.proc_delay = sim::msec(5);
  o.seed = 9;
  return o;
}

struct Bed {
  std::unique_ptr<harness::Testbed> bed;
  std::unique_ptr<trace::RouteRegenerator> regen;
};

/// A bed with its snapshot load scheduled over 2 s; no event run yet.
Bed make_bed(const harness::TestbedConfig& o) {
  const Inputs& in = inputs();
  Bed out;
  out.bed = std::make_unique<harness::Testbed>(in.topology, o, in.prefixes);
  out.regen = std::make_unique<trace::RouteRegenerator>(
      out.bed->scheduler(), in.workload, out.bed->inject_fn());
  out.regen->load_snapshot(0, sim::sec(2));
  return out;
}

/// Distinct sets the bed's speakers hold references to.
std::size_t held_sets(const harness::Testbed& bed) {
  std::set<const bgp::RouteSet*> held;
  for (const RouterId id : bed.all_ids()) {
    bed.speaker(id).for_each_held_set(
        [&](const bgp::RouteSet& set) { held.insert(&set); });
  }
  return held.size();
}

TEST(RouteSetHandles, StoreHoldsExactlyWhatTheSpeakersHoldThroughFaults) {
  harness::TestbedConfig o = config(ibgp::IbgpMode::kAbrr);
  o.timing.hold_time = sim::sec(3);
  Bed b = make_bed(o);
  harness::Testbed& bed = *b.bed;
  const RouterId arr = bed.rr_ids().front();
  const std::vector<std::pair<RouterId, RouterId>> sessions =
      bed.network().sessions();
  ASSERT_GE(sessions.size(), 3u);

  // Every fault lands while the snapshot load is still in flight.
  FaultSchedule schedule;
  const auto add = [&](FaultKind kind, sim::Time at, sim::Time duration,
                       std::pair<RouterId, RouterId> ab) {
    FaultEvent ev;
    ev.kind = kind;
    ev.at = at;
    ev.duration = duration;
    ev.a = ab.first;
    ev.b = ab.second;
    ev.loss_prob = 0.5;
    schedule.add(ev);
  };
  add(FaultKind::kRouterCrash, sim::msec(300), sim::sec(4), {arr, 0});
  add(FaultKind::kSessionReset, sim::msec(500), 0, sessions[0]);
  add(FaultKind::kLinkDown, sim::msec(700), sim::sec(2), sessions[1]);
  add(FaultKind::kLossBurst, sim::msec(900), sim::sec(1), sessions[2]);
  FaultInjector injector{bed, schedule};
  injector.set_resync(make_workload_resync(bed, *b.regen));
  injector.arm();

  // Part-way: the crashed ARR holds nothing, and the store holds at
  // least what the speakers hold (the rest is in flight).
  bed.run_until(sim::sec(1));
  EXPECT_GE(bed.route_sets().live_blocks(), held_sets(bed));
  EXPECT_FALSE(bed.speaker(arr).alive());

  bed.run_until(sim::sec(40));
  EXPECT_GT(bed.network().total_dropped(), 0u);
  EXPECT_TRUE(bed.speaker(arr).alive());
  // Between keepalives nothing that carries a set is in flight or queued.
  EXPECT_GT(held_sets(bed), 0u);
  EXPECT_EQ(bed.route_sets().live_blocks(), held_sets(bed));

  // Crashing every speaker gives every set back.
  for (const RouterId id : bed.all_ids()) bed.speaker(id).crash();
  EXPECT_EQ(bed.route_sets().live_blocks(), 0u);
}

TEST(RouteSetHandles, DestroyingABedMidLoadFreesEveryHandle) {
  // Messages in flight and buffered behind a downed link, queued inputs,
  // RIBs and memos all hold handles when the bed goes; the store is
  // dropped first, so none of them reads a freed set (ASan) and nothing
  // leaks (LSan).
  Bed b = make_bed(config(ibgp::IbgpMode::kAbrr));
  harness::Testbed& bed = *b.bed;
  const auto session = bed.network().sessions().front();
  bed.run_until(sim::msec(400));
  bed.network().set_link(session.first, session.second, false);
  bed.run_until(sim::msec(900));
  EXPECT_GT(bed.route_sets().live_blocks(), 0u);
  b.regen.reset();
  b.bed.reset();
}

/// Interposes on every speaker's deliveries: each delivered set is
/// replaced by an unstamped copy in reverse order, so no receiver can
/// keep what it was handed and every one stores through the copy path.
void force_copy_path(harness::Testbed& bed) {
  net::Network& net = bed.network();
  for (const RouterId id : bed.all_ids()) {
    net.register_endpoint(
        id, [inner = net.receiver(id), &net](RouterId from,
                                             net::Message&& m) {
          if (m.routes) {
            const std::span<const bgp::Route> sent = m.routes.routes();
            std::vector<bgp::Route> copy(sent.rbegin(), sent.rend());
            for (bgp::Route& r : copy) {
              r.learned_from = bgp::kNoRouter;
              r.via = bgp::LearnedVia::kLocal;
            }
            m.routes = bgp::RouteSetRef{*net.route_sets(), copy};
          }
          inner(from, std::move(m));
        });
  }
}

bool same_route(const bgp::Route& a, const bgp::Route& b) {
  return a.prefix == b.prefix && a.path_id == b.path_id &&
         a.attrs == b.attrs && a.learned_from == b.learned_from &&
         a.via == b.via;
}

struct ModeCase {
  const char* name;
  ibgp::IbgpMode mode;
  bool multipath = false;
  bool force_reduction = false;
};

const ModeCase kModes[] = {
    {"fullmesh", ibgp::IbgpMode::kFullMesh},
    {"tbrr", ibgp::IbgpMode::kTbrr},
    {"tbrr-multi", ibgp::IbgpMode::kTbrr, /*multipath=*/true},
    {"abrr", ibgp::IbgpMode::kAbrr},
    {"dual", ibgp::IbgpMode::kDual},
    {"abrr-reduced", ibgp::IbgpMode::kAbrr, false, /*force_reduction=*/true},
};

harness::TestbedConfig config(const ModeCase& c) {
  harness::TestbedConfig o = config(c.mode);
  o.multipath = c.multipath;
  o.abrr.force_client_reduction = c.force_reduction;
  return o;
}

TEST(RouteSetHandles, TakenSetsEqualTheCopyPathInEveryMode) {
  for (const ModeCase& c : kModes) {
    SCOPED_TRACE(c.name);
    Bed taken = make_bed(config(c));
    Bed copied = make_bed(config(c));
    force_copy_path(*copied.bed);
    ASSERT_TRUE(taken.bed->run_to_quiescence());
    ASSERT_TRUE(copied.bed->run_to_quiescence());

    EXPECT_EQ(rib_fingerprint(*taken.bed), rib_fingerprint(*copied.bed));
    // Equal sets are one block in a store, so both beds hold as many.
    EXPECT_EQ(taken.bed->route_sets().live_blocks(),
              copied.bed->route_sets().live_blocks());
    for (const RouterId id : taken.bed->all_ids()) {
      const ibgp::Speaker& a = taken.bed->speaker(id);
      const ibgp::Speaker& b = copied.bed->speaker(id);
      std::vector<bgp::Route> in_a;
      std::vector<bgp::Route> in_b;
      a.adj_rib_in().for_each([&](const bgp::Route& r) { in_a.push_back(r); });
      b.adj_rib_in().for_each([&](const bgp::Route& r) { in_b.push_back(r); });
      ASSERT_EQ(in_a.size(), in_b.size()) << "speaker " << id;
      for (std::size_t i = 0; i < in_a.size(); ++i) {
        EXPECT_TRUE(same_route(in_a[i], in_b[i]))
            << "speaker " << id << ": " << in_a[i].to_string() << " vs "
            << in_b[i].to_string();
      }
      const ibgp::SpeakerCounters ca = a.counters();
      const ibgp::SpeakerCounters cb = b.counters();
      EXPECT_EQ(ca.updates_received, cb.updates_received);
      EXPECT_EQ(ca.routes_received, cb.routes_received);
      EXPECT_EQ(ca.loops_suppressed, cb.loops_suppressed);
      EXPECT_EQ(ca.misdirected, cb.misdirected);
      EXPECT_EQ(ca.wire_bytes_transmitted, cb.wire_bytes_transmitted);
    }
  }
}

TEST(RouteSetHandles, AdvertisedSetsAreSortedByUniquePathIds) {
  // What lets a receiver keep a handed set without re-sorting it: every
  // Adj-RIB-Out set is in strictly increasing path-id order.
  std::vector<int> keys = {ibgp::Speaker::kGroupClients,
                           ibgp::Speaker::kGroupRrPeers,
                           ibgp::Speaker::kGroupMesh,
                           ibgp::Speaker::kGroupUplink};
  for (ibgp::ApId ap = 0; ap < 2; ++ap) {
    keys.push_back(ibgp::Speaker::arr_group(ap));
    keys.push_back(ibgp::Speaker::client_group(ap));
  }
  for (const ModeCase& c : kModes) {
    SCOPED_TRACE(c.name);
    Bed b = make_bed(config(c));
    ASSERT_TRUE(b.bed->run_to_quiescence());
    std::size_t multi_route_sets = 0;
    for (const RouterId id : b.bed->all_ids()) {
      for (const int key : keys) {
        const bgp::AdjRibOut* out = b.bed->speaker(id).out_group(key);
        if (out == nullptr) continue;
        out->for_each([&](const bgp::Ipv4Prefix& prefix,
                          const bgp::RouteSet& set) {
          if (set.size() > 1) ++multi_route_sets;
          for (std::size_t i = 1; i < set.size(); ++i) {
            EXPECT_LT(set[i - 1].path_id, set[i].path_id)
                << prefix.to_string() << " at " << id << " group " << key;
          }
        });
      }
    }
    if (c.mode == ibgp::IbgpMode::kAbrr || c.multipath) {
      EXPECT_GT(multi_route_sets, 0u);
    }
  }
}

}  // namespace
}  // namespace abrr::fault
