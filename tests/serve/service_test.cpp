// RouteService contract tests: every published snapshot is a state of
// the virtual world — its fingerprint must be bit-identical to a batch
// run of the same (spec, seed) stopped at the same virtual time, in
// every iBGP mode; reclamation must bound resident snapshots under a
// stuck reader instead of crashing or leaking.
#include "serve/service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "fault/recovery.h"
#include "harness/testbed.h"
#include "runner/scenario.h"
#include "runner/trial.h"

namespace abrr::serve {
namespace {

using namespace std::chrono_literals;

/// Tiny but real serving world: 3 PoPs, churn + session/delay/loss
/// chaos, frequent publishes so tests observe several snapshots.
runner::ScenarioSpec serve_tiny(ibgp::IbgpMode mode) {
  runner::ScenarioSpec spec;
  spec.name = std::string{"serve_"} + runner::mode_name(mode);
  spec.mode = mode;
  spec.topology.pops = 3;
  spec.topology.clients_per_pop = 2;
  spec.topology.peer_ases = 4;
  spec.topology.points_per_as = 2;
  spec.workload.prefixes = 48;
  spec.workload.snapshot_seconds = 5.0;
  spec.abrr.num_aps = 2;
  spec.serve.enabled = true;
  spec.serve.churn_seconds = 4.0;
  spec.serve.churn_events_per_second = 40.0;
  spec.serve.chaos_events = 4;
  spec.serve.publish_period_seconds = 0.25;
  return spec;
}

std::vector<ibgp::IbgpMode> modes_under_test() {
#if defined(__SANITIZE_THREAD__)
  // TSan runs ~10x slower; one mode is enough for the race check (the
  // fingerprint matrix runs in the plain preset).
  return {ibgp::IbgpMode::kAbrr};
#else
  return {ibgp::IbgpMode::kFullMesh, ibgp::IbgpMode::kTbrr,
          ibgp::IbgpMode::kAbrr, ibgp::IbgpMode::kDual};
#endif
}

TEST(RouteService, SnapshotsMatchBatchRunsAtSameVirtualTime) {
  constexpr std::uint64_t kSeed = 11;
  for (const ibgp::IbgpMode mode : modes_under_test()) {
    const runner::ScenarioSpec spec = serve_tiny(mode);
    SCOPED_TRACE(spec.name);

    std::map<sim::Time, std::uint64_t> observed;  // virtual_time -> fp
    {
      RouteService service{spec, kSeed};
      service.start();
      RouteService::Reader reader{service};
      while (!service.done()) {
        {
          const RouteService::Reader::PinGuard snap{reader};
          ASSERT_TRUE(snap);
          EXPECT_GE(snap->version, 1u);
          const auto [it, inserted] =
              observed.emplace(snap->virtual_time, snap->fingerprint);
          // Two snapshots at one virtual time would have to be the same
          // world state; conflicting fingerprints mean nondeterminism.
          EXPECT_EQ(it->second, snap->fingerprint);
        }
        std::this_thread::yield();
      }
      {
        const RouteService::Reader::PinGuard last{reader};
        observed.emplace(last->virtual_time, last->fingerprint);
      }
      service.stop();
    }
    // The final pin guarantees at least one observation; the aggressive
    // sampler typically catches several mid-churn snapshots too, but
    // that is scheduling-dependent.
    ASSERT_GE(observed.size(), 1u);

    // The converged v1 snapshot must be among the observations (the
    // sampler pins before any churn step can retire it... it may have
    // missed it; check the batch-converged time is <= every sample).
    const sim::Time t0 = batch_converged_time(spec, kSeed);
    EXPECT_GE(observed.begin()->first, t0);

    // Verify a bounded sample: first, last, and up to three middles.
    std::vector<std::pair<sim::Time, std::uint64_t>> picks;
    picks.push_back(*observed.begin());
    picks.push_back(*observed.rbegin());
    std::size_t i = 0;
    const std::size_t stride = observed.size() / 4 + 1;
    for (const auto& sample : observed) {
      if (++i % stride == 0) picks.push_back(sample);
    }
    for (const auto& [at, fp] : picks) {
      EXPECT_EQ(batch_fingerprint_at(spec, kSeed, at), fp)
          << "virtual_time=" << at;
    }
  }
}

TEST(RouteService, StuckReaderBoundsResidentSnapshotsAndDefers) {
  runner::ScenarioSpec spec = serve_tiny(ibgp::IbgpMode::kTbrr);
  spec.serve.max_resident_snapshots = 3;
  RouteService service{spec, 11};
  // Pin BEFORE the writer starts (live is still null, so the guard
  // holds no snapshot): pinning after start() races the writer, which
  // can replay the whole horizon before this thread runs again.
  RouteService::Reader stuck{service};
  std::optional<RouteService::Reader::PinGuard> stuck_pin;
  stuck_pin.emplace(stuck);
  service.start();

  while (!service.done()) std::this_thread::sleep_for(2ms);
  ServiceStats stats = service.stats();
  // cap=3 => at most cap-1 = 2 retired snapshots can sit unreclaimable
  // (live + new + 1 retiree reaches the cap), then every further
  // publish defers. v1 + two more publishes fit under that bound.
  EXPECT_LE(stats.retired_peak, 2u);
  EXPECT_LE(stats.retired_pending, 2u);
  EXPECT_GT(stats.publishes_deferred, 0u);
  EXPECT_LE(stats.publishes, 3u);
  // The live snapshot stays fully readable for other readers.
  {
    RouteService::Reader reader{service};
    const RouteService::Reader::PinGuard live{reader};
    ASSERT_TRUE(live);
    EXPECT_GE(live->version, 1u);
    EXPECT_GE(live->router_ids.size(), 1u);
  }

  stuck_pin.reset();
  // The parked writer reclaims once the pin is gone.
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (service.stats().retired_pending > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(2ms);
  }
  EXPECT_EQ(service.stats().retired_pending, 0u);
  service.stop();
}

// The horizon snapshot equals a batch run to the end of the churn plan
// even while two reader threads call lookup_batch through the churn.
TEST(RouteService, ServeTrialReportsAndFinalStateMatchesBatch) {
  const runner::ScenarioSpec spec = serve_tiny(ibgp::IbgpMode::kDual);
  constexpr std::uint64_t kSeed = 12;
  RouteService service{spec, kSeed};
  service.start();

  std::atomic<bool> readers_stop{false};
  std::uint64_t lookups[2] = {0, 0};
  std::vector<std::thread> threads;
  for (std::uint32_t r = 0; r < 2; ++r) {
    threads.emplace_back([&service, &readers_stop, &lookups, r] {
      RouteService::Reader reader{service};
      std::shared_ptr<const bgp::LpmIndex> index;
      std::vector<bgp::RouterId> routers;
      {
        const RouteService::Reader::PinGuard pin{reader};
        index = pin->index;
        routers = pin->router_ids;
      }
      std::vector<LookupRequest> reqs(16);
      std::vector<LookupResponse> resps(reqs.size());
      std::uint32_t probe = 0x9e3779b9u * (r + 1) + 1;
      std::size_t router_i = r;
      // do-while: a reader scheduled only after the writer finished
      // still answers one batch against the final snapshot.
      do {
        for (LookupRequest& req : reqs) {
          probe = probe * 2654435761u + 12345;
          const bgp::Ipv4Prefix& p = index->prefix_at(probe % index->size());
          req.router = routers[router_i % routers.size()];
          req.addr = p.first() | (probe & (p.last() - p.first()));
        }
        reader.lookup_batch(reqs, resps);
        lookups[r] += reqs.size();
        ++router_i;
      } while (!readers_stop.load(std::memory_order_acquire));
    });
  }
  while (!service.done()) std::this_thread::sleep_for(1ms);
  readers_stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  // Every reader has unpinned, so the parked writer's horizon publish
  // can no longer defer.
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (!service.horizon_published() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(service.horizon_published());

  EXPECT_GT(lookups[0], 0u);
  EXPECT_GT(lookups[1], 0u);
  const ServiceStats stats = service.stats();
  EXPECT_GE(stats.publishes, 2u);
  EXPECT_GE(stats.version, stats.publishes);
  const sim::Time t_end = batch_converged_time(spec, kSeed) +
                          sim::sec_f(spec.serve.churn_seconds);
  EXPECT_EQ(stats.virtual_time, t_end);
  EXPECT_EQ(stats.fingerprint, batch_fingerprint_at(spec, kSeed, t_end));
  service.stop();
}

TEST(RouteService, LookupBatchAnswersUnderOneSnapshotAndMatchesSingleShot) {
  const runner::ScenarioSpec spec = serve_tiny(ibgp::IbgpMode::kAbrr);
  RouteService service{spec, 7};
  service.start();
  RouteService::Reader reader{service};

  // Probe plan from the service-wide stable views.
  std::shared_ptr<const bgp::LpmIndex> index;
  std::vector<bgp::RouterId> routers;
  {
    const RouteService::Reader::PinGuard pin{reader};
    index = pin->index;
    routers = pin->router_ids;
  }
  std::vector<LookupRequest> reqs;
  std::uint32_t probe = 0x9e3779b9u;
  for (std::size_t i = 0; i < 64; ++i) {
    probe = probe * 2654435761u + 12345;
    const bgp::Ipv4Prefix& p = index->prefix_at(probe % index->size());
    reqs.push_back(LookupRequest{routers[i % routers.size()],
                                 p.first() | (probe & (p.last() - p.first()))});
  }

  std::vector<LookupResponse> resps(reqs.size());
  const BatchResult res = reader.lookup_batch(reqs, resps);
  EXPECT_GE(res.snapshot_version, 1u);
  EXPECT_GT(res.hits, 0u);  // hit-biased probes against a converged bed

  std::uint64_t hits = 0;
  for (const LookupResponse& r : resps) {
    // One pin, one snapshot: every response carries the batch's version.
    EXPECT_EQ(r.snapshot_version, res.snapshot_version);
    EXPECT_EQ(r.fingerprint, res.fingerprint);
    hits += r.hit;
  }
  EXPECT_EQ(hits, res.hits);

  // After the horizon the snapshot is stable, so single-shot lookups
  // (a batch of one) must reproduce the batch responses exactly.
  while (!service.done()) std::this_thread::sleep_for(2ms);
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (!service.horizon_published() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(2ms);
  }
  ASSERT_TRUE(service.horizon_published());
  reader.lookup_batch(reqs, resps);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(reader.lookup(reqs[i].router, reqs[i].addr), resps[i]);
  }
  service.stop();
}

// Serve's batch comparators and run_trial build their worlds with the
// same runner::build_world: with no churn to replay, the converged serve
// world is the batch trial's converged bed, in every iBGP mode.
TEST(RouteService, SnapshotOnlyBatchWorldEqualsRunTrial) {
  constexpr std::uint64_t kSeed = 13;
  for (const ibgp::IbgpMode mode : modes_under_test()) {
    runner::ScenarioSpec spec = serve_tiny(mode);
    SCOPED_TRACE(spec.name);
    spec.serve.churn_events_per_second = 0;
    spec.serve.chaos_events = 0;
    const std::uint64_t served =
        batch_fingerprint_at(spec, kSeed, batch_converged_time(spec, kSeed));

    spec.serve.enabled = false;
    const runner::TrialResult batch = runner::run_trial(spec, kSeed, 0);
    ASSERT_TRUE(batch.converged);
    EXPECT_EQ(served, batch.fingerprint);
  }
}

TEST(RouteService, RejectsInvalidServeSpecs) {
  {
    runner::ScenarioSpec spec = serve_tiny(ibgp::IbgpMode::kAbrr);
    spec.fault.enabled = true;
    EXPECT_THROW((RouteService{spec, 1}), std::invalid_argument);
  }
  {
    runner::ScenarioSpec spec = serve_tiny(ibgp::IbgpMode::kAbrr);
    spec.serve.publish_period_seconds = 0;
    EXPECT_THROW((RouteService{spec, 1}), std::invalid_argument);
  }
  {
    runner::ScenarioSpec spec = serve_tiny(ibgp::IbgpMode::kAbrr);
    spec.serve.max_resident_snapshots = 1;
    EXPECT_THROW((RouteService{spec, 1}), std::invalid_argument);
  }
}

// The mirror's slots are the bed's prefix ids at init: a prefix the bed
// first sees later changes the bed's Loc-RIBs but not what is served.
TEST(RibMirror, PrefixFirstSeenAfterInitLeavesFingerprintUnchanged) {
  const runner::ScenarioSpec spec = serve_tiny(ibgp::IbgpMode::kAbrr);
  const runner::World world = runner::build_world(spec, 5);
  harness::Testbed& bed = *world.bed;
  const topo::PeeringPoint point = bed.topology().peering_points.front();
  RibMirror mirror;
  mirror.init(bed);
  bed.attach_rib_listener(
      [&](bgp::RouterId id, const bgp::Ipv4Prefix& prefix,
          const bgp::Route* best) { mirror.on_change(id, prefix, best); },
      [&](bgp::RouterId id) { mirror.on_cleared(id); });
  ASSERT_TRUE(
      runner::converge(bed, sim::sec_f(spec.workload.snapshot_seconds)));
  const std::uint64_t served = mirror.fingerprint();
  EXPECT_EQ(served, fault::rib_fingerprint(bed));

  const bgp::Ipv4Prefix fresh = bgp::Ipv4Prefix::parse("198.18.0.0/24");
  ASSERT_FALSE(bed.prefix_index().id_of(fresh).has_value());
  bed.inject_fn()(point.router, point.neighbor_id, fresh,
                  bgp::RouteBuilder{fresh}.as_path({point.peer_as}).build());
  mirror.any_dirty = false;
  ASSERT_TRUE(bed.run_to_quiescence());
  ASSERT_NE(bed.speaker(point.router).loc_rib().best(fresh), nullptr);
  EXPECT_NE(fault::rib_fingerprint(bed), served);
  EXPECT_EQ(mirror.fingerprint(), served);
  EXPECT_FALSE(mirror.any_dirty);
}

}  // namespace
}  // namespace abrr::serve
