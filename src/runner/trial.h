// One trial = one (ScenarioSpec, seed) pair executed end to end:
// build_world (topology, workload, testbed, scheduled snapshot load),
// converge, optionally replay an update trace and/or a fault episode,
// and collect every number the benches report. Trials are fully
// self-contained — they own their Scheduler, Network, MetricsRegistry
// and Rng — so the runner can execute them on any worker thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "harness/testbed.h"
#include "runner/scenario.h"
#include "trace/regenerator.h"
#include "trace/workload.h"

namespace abrr::runner {

/// Everything one trial produced. serialize() is the canonical
/// byte-exact form used by the determinism matrix and BENCH_sweep.json:
/// two runs of the same (spec, seed) must serialize identically no
/// matter which worker executed them — wall_ms is therefore NOT part of
/// the serialization (it is real time, not simulated time).
struct TrialResult {
  std::string scenario;  // spec name
  std::string mode;      // mode_name(spec.mode)
  std::uint64_t seed = 0;
  std::size_t index = 0;  // position in the runner's expanded order

  /// Non-empty when the trial threw; every other field is then
  /// whatever was collected before the failure (usually defaults).
  std::string error;

  bool converged = false;
  std::size_t speakers = 0;
  std::size_t rrs = 0;
  std::size_t clients = 0;
  std::size_t sessions = 0;
  harness::Aggregate rib_in;
  harness::Aggregate rib_out;
  harness::RoleTotals rr_totals;
  harness::RoleTotals client_totals;
  std::uint64_t fingerprint = 0;
  std::uint64_t trace_events = 0;  // update-trace events replayed (0 = none)

  /// Fault episode results (fault_ran == spec.fault.enabled).
  bool fault_ran = false;
  bgp::RouterId victim = 0;
  double detection_ms = -1;  // crash -> first hold expiration
  double blackout_ms = 0;    // surviving client missing a route
  double recovery_ms = -1;   // restart -> pre-fault RIB fingerprint
  bool fingerprint_restored = false;
  bool fullmesh_equivalent = false;
  std::uint64_t churn_updates = 0;
  std::uint64_t churn_routes = 0;
  std::uint64_t dropped_messages = 0;

  /// Aggregated metrics-registry dump of the trial's testbed
  /// (MetricsRegistry::to_json(aggregate=true)).
  std::string metrics_json;

  /// Allocation telemetry of the trial's heap-isolated pools. All of it
  /// is a function of the simulated run alone, so it is PART of
  /// serialize(): a trial that allocates differently across --jobs
  /// levels would trip the determinism matrix, not just the perf report.
  std::uint64_t attr_blocks = 0;       // distinct interned attribute sets
  std::uint64_t attr_hits = 0;         // intern() canonicalization hits
  std::uint64_t attr_misses = 0;       // intern() fresh blocks
  std::uint64_t attr_arena_bytes = 0;  // slab bytes the blocks occupy
  std::uint64_t sched_events = 0;      // scheduler events executed
  std::uint64_t sched_pool_capacity = 0;  // event-pool high-water, nodes

  /// Heap bytes by structure once the snapshot load has converged.
  /// Excluded from serialize(): it measures this build's layout, not the
  /// simulated outcome.
  harness::MemoryBreakdown memory;

  /// Real (wall-clock) execution time of the trial on its worker.
  /// Excluded from serialize().
  double wall_ms = 0;

  /// Thread CPU time consumed by the trial (CLOCK_THREAD_CPUTIME_ID).
  /// Excluded from serialize(). On a host with fewer cores than --jobs,
  /// wall_ms inflates with timesharing while cpu_ms stays flat — the
  /// honest signal that parallelism is contention-free.
  double cpu_ms = 0;

  /// Canonical deterministic JSON rendering (no wall-clock content).
  std::string serialize() const;
};

/// Executes one trial. `seed` overrides the spec's seed list (the
/// runner expands one call per seed); `index` is echoed into the
/// result. Throws only on internal errors — the runner catches and
/// records them in TrialResult::error.
TrialResult run_trial(const ScenarioSpec& spec, std::uint64_t seed,
                      std::size_t index);

/// One (ScenarioSpec, seed) testbed with its snapshot load scheduled.
/// The regenerator's pending events point into itself and inject into
/// the bed, so it is declared last: it is destroyed first.
struct World {
  std::unique_ptr<harness::Testbed> bed;
  std::unique_ptr<trace::RouteRegenerator> regen;

  /// The workload, held once: the regenerator's copy. The snapshot load
  /// leaves it as generated; replayed trace events then mark
  /// announcements down and up again, never adding or removing a prefix.
  const trace::Workload& workload() const { return regen->current(); }
};

/// The only code that turns (spec, seed) into a paper testbed. It draws
/// the topology, then the workload, from Rng{seed}, builds the bed from
/// spec.testbed_config(seed) and schedules the snapshot load over
/// spec.workload.snapshot_seconds. It runs no event, so a caller may
/// attach hooks to the bed before converge(). run_trial, the serving
/// mode and the hand-driven benches all start here, which is what keeps
/// a serve snapshot equal to a batch trial of the same (spec, seed).
World build_world(const ScenarioSpec& spec, std::uint64_t seed);

/// run_trial's convergence rule. A bed without hold timers runs until
/// its event queue drains (false when 500M events did not drain it). A
/// bed with hold timers never drains, since keepalives tick forever: it
/// runs to 40 s past `inputs_end`, the time of its last scheduled
/// input, and counts as converged when no speaker received an UPDATE in
/// the last 10 s of that run (keepalives do not count).
bool converge(harness::Testbed& bed, sim::Time inputs_end);

/// build_world's generators. Only build_world and the callers that need
/// the pieces without a loaded bed use them directly.
topo::Topology make_trial_topology(const TopologyOptions& t, sim::Rng& rng);
trace::Workload make_trial_workload(const WorkloadOptions& w,
                                    const topo::Topology& topology,
                                    sim::Rng& rng);

}  // namespace abrr::runner
