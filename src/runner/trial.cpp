#include "runner/trial.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <utility>
#include <vector>

#include "bgp/attrs_intern.h"
#include "fault/injector.h"
#include "fault/recovery.h"
#include "fault/schedule.h"
#include "topo/topology.h"
#include "trace/update_trace.h"
#include "trace/workload.h"
#include "verify/equivalence.h"

namespace abrr::runner {
namespace {

// Fault-episode measurement cadence (mirrors bench/fault_resilience,
// which this executor replaces).
constexpr sim::Time kPollStep = sim::msec(100);
constexpr sim::Time kFingerprintStep = sim::msec(500);

std::uint64_t total_hold_expirations(harness::Testbed& bed) {
  std::uint64_t n = 0;
  for (const bgp::RouterId id : bed.all_ids()) {
    n += bed.speaker(id).counters().hold_expirations;
  }
  return n;
}

/// Crash/chaos episode against a converged bed. Fills the fault fields
/// of `r`; leaves the bed in its post-episode state for collection.
void run_fault_episode(const ScenarioSpec& spec, std::uint64_t seed,
                       harness::Testbed& bed, trace::RouteRegenerator& regen,
                       TrialResult& r) {
  using Scenario = harness::FaultOptions::Scenario;
  r.fault_ran = true;

  const std::uint64_t fp0 = fault::rib_fingerprint(bed);
  std::vector<std::pair<bgp::RouterId, std::size_t>> steady_sizes;
  for (const bgp::RouterId id : bed.client_ids()) {
    steady_sizes.emplace_back(id, bed.speaker(id).loc_rib().size());
  }
  bed.reset_counters();
  const std::uint64_t dropped0 = bed.network().total_dropped();
  const std::uint64_t expirations0 = total_hold_expirations(bed);

  fault::FaultSchedule schedule;
  sim::Time t_crash = 0;
  sim::Time t_restart = 0;
  if (spec.fault.scenario == Scenario::kChaos) {
    fault::ChaosParams chaos;
    chaos.events = spec.fault.chaos_events;
    chaos.start = bed.scheduler().now() + sim::sec(1);
    chaos.horizon = bed.scheduler().now() + sim::sec(40);
    sim::Rng chaos_rng{seed + spec.fault.chaos_seed_offset};
    schedule = fault::FaultSchedule::chaos(chaos, bed.all_ids(),
                                           bed.network().sessions(),
                                           chaos_rng);
  } else {
    r.victim = spec.fault.scenario == Scenario::kRrCrash
                   ? bed.rr_ids().front()
                   : bed.client_ids().front();
    fault::FaultEvent ev;
    ev.kind = fault::FaultKind::kRouterCrash;
    ev.at = bed.scheduler().now() + sim::sec(1);
    ev.duration = spec.fault.outage;
    ev.a = r.victim;
    schedule.add(ev);
    t_crash = ev.at;
    t_restart = ev.at + ev.duration;
  }

  fault::FaultInjector injector{bed, schedule};
  injector.set_resync(fault::make_workload_resync(bed, regen));
  injector.arm();

  if (spec.fault.scenario == Scenario::kChaos) {
    // No single victim to time: run past the last repair and check the
    // bed reconverged to its pre-fault RIB state.
    bed.run_until(injector.last_event_end() + sim::sec(60));
    r.fingerprint_restored = fault::rib_fingerprint(bed) == fp0;
  } else {
    const sim::Time deadline = t_restart + sim::sec(180);
    sim::Time next_fingerprint = t_restart;
    sim::Time recovered_at = -1;
    sim::Time detected_at = -1;
    while (bed.scheduler().now() < deadline) {
      bed.run_until(bed.scheduler().now() + kPollStep);
      const sim::Time now = bed.scheduler().now();
      if (detected_at < 0 && total_hold_expirations(bed) > expirations0) {
        detected_at = now;
      }
      // Blackout: any surviving client below its steady-state count.
      bool missing = false;
      for (const auto& [id, want] : steady_sizes) {
        if (id == r.victim) continue;
        if (bed.speaker(id).loc_rib().size() < want) {
          missing = true;
          break;
        }
      }
      if (missing) r.blackout_ms += sim::to_msec(kPollStep);
      if (now >= next_fingerprint) {
        next_fingerprint = now + kFingerprintStep;
        if (fault::rib_fingerprint(bed) == fp0) {
          recovered_at = now;
          break;
        }
      }
    }
    if (detected_at >= 0) {
      r.detection_ms = sim::to_msec(detected_at - t_crash);
    }
    if (recovered_at >= 0) {
      r.recovery_ms = sim::to_msec(recovered_at - t_restart);
      r.fingerprint_restored = true;
    }
  }

  r.churn_updates = bed.counter_delta("speaker.updates_received");
  r.churn_routes = bed.counter_delta("speaker.routes_received");
  r.dropped_messages = bed.network().total_dropped() - dropped0;
}

}  // namespace

topo::Topology make_trial_topology(const TopologyOptions& t, sim::Rng& rng) {
  topo::TopologyParams tp;
  tp.pops = t.pops;
  tp.clients_per_pop = t.clients_per_pop;
  tp.peering_router_fraction = t.peering_router_fraction;
  tp.peer_ases = t.peer_ases;
  tp.peering_points_per_as = t.points_per_as;
  tp.peering_skew = t.peering_skew;
  return topo::make_tier1(tp, rng);
}

trace::Workload make_trial_workload(const WorkloadOptions& w,
                                    const topo::Topology& topology,
                                    sim::Rng& rng) {
  trace::WorkloadParams wp;
  wp.prefixes = w.prefixes;
  wp.per_point_meds = w.per_point_meds;
  return trace::Workload::generate(wp, topology, rng);
}

World build_world(const ScenarioSpec& spec, std::uint64_t seed) {
  sim::Rng rng{seed};
  topo::Topology topology = make_trial_topology(spec.topology, rng);
  trace::Workload workload = make_trial_workload(spec.workload, topology, rng);
  auto bed = std::make_unique<harness::Testbed>(
      std::move(topology), spec.testbed_config(seed), workload.prefixes());
  auto regen = std::make_unique<trace::RouteRegenerator>(
      bed->scheduler(), std::move(workload), bed->inject_fn());
  regen->load_snapshot(0, sim::sec_f(spec.workload.snapshot_seconds));
  return World{std::move(bed), std::move(regen)};
}

bool converge(harness::Testbed& bed, sim::Time inputs_end) {
  if (bed.config().timing.hold_time > 0) {
    // The same events run as in one run to +40 s; the split only reads
    // the UPDATE count at +30 s.
    bed.run_until(inputs_end + sim::sec(30));
    const std::uint64_t updates =
        bed.metrics().sum_counters("speaker.updates_received");
    bed.run_until(inputs_end + sim::sec(40));
    return bed.metrics().sum_counters("speaker.updates_received") == updates;
  }
  return bed.run_to_quiescence(500'000'000);
}

TrialResult run_trial(const ScenarioSpec& spec, std::uint64_t seed,
                      std::size_t index) {
  TrialResult r;
  r.scenario = spec.name;
  r.mode = mode_name(spec.mode);
  r.seed = seed;
  r.index = index;

  // Heap isolation: every make_attrs() below goes to this worker's trial
  // interner, reset+pre-sized now (no route of the previous trial on
  // this thread can still be alive) and reused slab-for-slab by the next
  // trial. Parallel trials therefore never contend on attribute storage.
  bgp::AttrsInterner::TrialScope attrs_scope{spec.expected_attr_blocks()};

  // Everything below is regenerated from (spec, seed): the trial shares
  // no state with any other trial and never leaves this thread.
  World world = build_world(spec, seed);
  harness::Testbed& bed = *world.bed;
  r.converged = converge(bed, sim::sec_f(spec.workload.snapshot_seconds));
  r.memory = bed.memory();

  if (r.converged && spec.workload.trace_seconds > 0) {
    bed.reset_counters();
    trace::TraceParams tparams;
    tparams.duration = sim::sec_f(spec.workload.trace_seconds);
    tparams.events_per_second = spec.workload.trace_events_per_second;
    sim::Rng trace_rng{seed + 1};
    const auto trace =
        trace::UpdateTrace::generate(tparams, world.workload(), trace_rng);
    r.trace_events = trace.events().size();
    world.regen->play(trace, bed.scheduler().now());
    r.converged = converge(bed, bed.scheduler().now() + tparams.duration);
  }

  if (r.converged && spec.fault.enabled) {
    run_fault_episode(spec, seed, bed, *world.regen, r);
    if (spec.fault.verify_fullmesh) {
      // An untouched full-mesh reference built from the same
      // (spec, seed), inside this trial so the comparison stays
      // thread-confined.
      ScenarioSpec reference = spec;
      reference.mode = ibgp::IbgpMode::kFullMesh;
      reference.multipath = false;
      reference.timing.hold_time = 0;
      reference.obs.enabled = false;
      reference.fault.enabled = false;
      World baseline = build_world(reference, seed);
      if (converge(*baseline.bed,
                   sim::sec_f(spec.workload.snapshot_seconds))) {
        r.fullmesh_equivalent =
            verify::compare_loc_ribs(bed, *baseline.bed,
                                     world.workload().prefixes())
                .equivalent();
      }
    }
  }

  r.speakers = bed.all_ids().size();
  r.rrs = bed.rr_ids().size();
  r.clients = bed.client_ids().size();
  r.sessions = bed.session_count();
  r.rib_in = bed.rr_rib_in();
  r.rib_out = bed.rr_rib_out();
  r.rr_totals = bed.rr_counters();
  r.client_totals = bed.client_counters();
  r.fingerprint = fault::rib_fingerprint(bed);
  r.metrics_json = bed.metrics().to_json(/*aggregate=*/true);

  // Allocation telemetry, collected while the bed is still alive. Every
  // field is simulation-determined (see TrialResult), so it serializes.
  const bgp::AttrsInterner& interner = attrs_scope.interner();
  r.attr_blocks = interner.live_blocks();
  r.attr_hits = interner.hits();
  r.attr_misses = interner.misses();
  r.attr_arena_bytes = interner.arena_bytes();
  r.sched_events = bed.scheduler().events_executed();
  r.sched_pool_capacity = bed.scheduler().pool_capacity();
  return r;
}

namespace {

void append(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  out += buf;
}

void append_aggregate(std::string& out, const char* key,
                      const harness::Aggregate& a) {
  append(out, "\"%s\":{\"min\":%.4f,\"avg\":%.4f,\"max\":%.4f}", key, a.min,
         a.avg, a.max);
}

void append_totals(std::string& out, const char* key,
                   const harness::RoleTotals& t) {
  append(out,
         "\"%s\":{\"received\":%" PRIu64 ",\"generated\":%" PRIu64
         ",\"transmitted\":%" PRIu64 ",\"wire_bytes\":%" PRIu64
         ",\"speakers\":%zu}",
         key, t.received, t.generated, t.transmitted, t.wire_bytes,
         t.speakers);
}

}  // namespace

std::string TrialResult::serialize() const {
  // Canonical form: every simulated-outcome field, nothing real-time
  // (no wall_ms) and no submission bookkeeping (no index), so the same
  // (spec, seed) serializes identically at any --jobs and any
  // submission order.
  std::string out;
  out.reserve(512 + metrics_json.size());
  out += "{";
  append(out, "\"scenario\":\"%s\",\"mode\":\"%s\",\"seed\":%" PRIu64 ",",
         scenario.c_str(), mode.c_str(), seed);
  append(out, "\"error\":\"%s\",\"converged\":%s,", error.c_str(),
         converged ? "true" : "false");
  append(out, "\"speakers\":%zu,\"rrs\":%zu,\"clients\":%zu,\"sessions\":%zu,",
         speakers, rrs, clients, sessions);
  append_aggregate(out, "rib_in", rib_in);
  out += ",";
  append_aggregate(out, "rib_out", rib_out);
  out += ",";
  append_totals(out, "rr", rr_totals);
  out += ",";
  append_totals(out, "clients", client_totals);
  out += ",";
  append(out, "\"fingerprint\":\"%016" PRIx64 "\",", fingerprint);
  append(out, "\"trace_events\":%" PRIu64 ",", trace_events);
  append(out,
         "\"alloc\":{\"attr_blocks\":%" PRIu64 ",\"attr_hits\":%" PRIu64
         ",\"attr_misses\":%" PRIu64 ",\"attr_arena_bytes\":%" PRIu64
         ",\"sched_events\":%" PRIu64 ",\"sched_pool_capacity\":%" PRIu64
         "},",
         attr_blocks, attr_hits, attr_misses, attr_arena_bytes, sched_events,
         sched_pool_capacity);
  append(out,
         "\"fault\":{\"ran\":%s,\"victim\":%u,\"detection_ms\":%.3f,"
         "\"blackout_ms\":%.3f,\"recovery_ms\":%.3f,"
         "\"fingerprint_restored\":%s,\"fullmesh_equivalent\":%s,"
         "\"churn_updates\":%" PRIu64 ",\"churn_routes\":%" PRIu64
         ",\"dropped_messages\":%" PRIu64 "},",
         fault_ran ? "true" : "false", victim, detection_ms, blackout_ms,
         recovery_ms, fingerprint_restored ? "true" : "false",
         fullmesh_equivalent ? "true" : "false", churn_updates, churn_routes,
         dropped_messages);
  out += "\"metrics\":";
  out += metrics_json.empty() ? "{}" : metrics_json;
  out += "}";
  return out;
}

}  // namespace abrr::runner
