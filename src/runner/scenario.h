// ScenarioSpec: the declarative description of one experiment trial (or,
// via its seed list and sweep(), a whole family of trials).
//
// A spec is pure data — topology scale, workload shape, iBGP mode, the
// nested AP/timing/fault/obs option groups, and the seeds to run — plus
// a validate() that turns misconfiguration into structured errors
// instead of silently nonsensical runs. The ExperimentRunner
// (runner/runner.h) executes specs; everything a trial needs (topology,
// workload, testbed) is regenerated deterministically from the spec and
// seed inside the trial, so trials are fully independent and
// thread-confined.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bgp/decision.h"
#include "harness/options.h"
#include "ibgp/speaker.h"
#include "obs/obs.h"

namespace abrr::runner {

/// Topology scale: the §4 testbed generator's knobs. Defaults reproduce
/// the paper's 13-cluster Tier-1 subset (peering routers only).
struct TopologyOptions {
  std::uint32_t pops = 13;
  std::uint32_t clients_per_pop = 8;
  std::uint32_t peer_ases = 25;
  std::uint32_t points_per_as = 8;
  double peering_router_fraction = 1.0;  // §4: peering routers only
  double peering_skew = 0.8;  // gateway-PoP concentration (§4.1 variance)
};

/// Workload shape: snapshot size and the optional update-trace replay.
struct WorkloadOptions {
  std::size_t prefixes = 4000;
  /// Simulated seconds the snapshot load is paced over.
  double snapshot_seconds = 30.0;
  /// > 0 schedules an update-trace replay after the snapshot converges
  /// (counters reset in between, as in §4.2); 0 = snapshot only.
  double trace_seconds = 0.0;
  double trace_events_per_second = 20.0;
  /// Diverse per-peering-point MEDs on peer routes
  /// (trace::WorkloadParams::per_point_meds): the MED ablations' regime.
  bool per_point_meds = false;
};

/// Serving mode (src/serve): keep the converged trial resident on a
/// writer thread that replays churn and publishes immutable RIB
/// snapshots through epoch-based reclamation, while lock-free readers
/// answer longest-prefix-match queries against the latest snapshot.
struct ServeOptions {
  bool enabled = false;
  /// Virtual seconds of churn the writer replays after convergence.
  double churn_seconds = 10.0;
  /// Update-trace churn rate (events per virtual second); 0 disables
  /// the trace component of the churn mix.
  double churn_events_per_second = 50.0;
  /// Seeded fault churn on top of the trace: session resets, delay and
  /// loss bursts only (crash/link faults stay weighted off so
  /// hold_time=0 beds remain valid). 0 = no fault churn.
  std::size_t chaos_events = 0;
  /// Virtual seconds between publish attempts: the writer advances the
  /// simulation in steps of this period and republishes whenever the
  /// step dirtied at least one (router, prefix).
  double publish_period_seconds = 0.25;
  /// Cap on retired-but-unreclaimed snapshots. A stuck reader pins its
  /// epoch forever; once the retire backlog reaches this cap the writer
  /// defers publishing (counts serve.publishes_deferred) instead of
  /// growing memory without bound.
  std::size_t max_resident_snapshots = 8;
};

/// One structured validation failure: the offending field (dotted path)
/// and a human-readable reason.
struct ValidationError {
  std::string field;
  std::string message;
};

/// Renders "field: message; field: message" for error reporting.
std::string render_errors(const std::vector<ValidationError>& errors);

/// Sweep axes for ScenarioSpec::sweep(): the cross-product dimensions.
/// Empty axis = keep the base spec's value.
struct SweepAxes {
  std::vector<ibgp::IbgpMode> modes;
  std::vector<std::size_t> num_aps;          // ABRR scale axis
  std::vector<std::size_t> prefix_counts;    // workload scale axis
  std::vector<std::uint64_t> seeds;
};

/// Parses "fullmesh" / "tbrr" / "abrr" / "dual" (case-sensitive).
std::optional<ibgp::IbgpMode> parse_mode(std::string_view name);
/// The inverse of parse_mode().
const char* mode_name(ibgp::IbgpMode mode);

struct ScenarioSpec {
  /// Row label in reports; sweep() derives child names from it.
  std::string name = "scenario";

  ibgp::IbgpMode mode = ibgp::IbgpMode::kAbrr;
  /// TBRR-multi (Appendix A.3); only meaningful when mode covers TBRR.
  bool multipath = false;

  TopologyOptions topology;
  WorkloadOptions workload;
  harness::AbrrOptions abrr;
  harness::TimingOptions timing;
  harness::FaultOptions fault;
  ServeOptions serve;
  obs::ObsOptions obs;
  bgp::DecisionConfig decision{};

  /// Seeds to run; every seed is one independent trial.
  std::vector<std::uint64_t> seeds = {42};

  /// Structured misconfiguration check. Empty vector = valid. The
  /// runner refuses invalid specs up front (std::invalid_argument with
  /// render_errors()), so nonsense never reaches a simulation.
  std::vector<ValidationError> validate() const;

  /// Cross-product expansion over the given axes. Every returned spec
  /// carries exactly ONE seed and a derived name
  /// (`base/mode/apN[/pfxN]/seedS`), in deterministic declared-axis
  /// order: modes outermost, then num_aps, then prefix_counts, then
  /// seeds innermost. Empty axes reuse the base spec's value(s). Modes
  /// without ABRR (full mesh, TBRR) never read `abrr.*`, so they skip
  /// the num_aps axis: one child per (prefix count, seed), named
  /// without the `/apN` segment and keeping the base spec's abrr group.
  std::vector<ScenarioSpec> sweep(const SweepAxes& axes) const;

  /// The testbed configuration for one trial of this spec. Applies the
  /// fault episode's hold time when the episode is enabled.
  harness::TestbedConfig testbed_config(std::uint64_t seed) const;

  /// Scale hint for pre-sizing the trial's attribute interner (see
  /// AttrsInterner::TrialScope): distinct attribute blocks grow with the
  /// prefix count (each prefix's paths × the reflection variants ARRs
  /// and border routers derive), largely independent of topology size
  /// because interning folds the per-session copies. The constant floor
  /// covers small workloads; over-estimating only rounds slab reserve up.
  std::size_t expected_attr_blocks() const {
    return workload.prefixes * 12 + 1024;
  }

  /// The §4 testbed recipe: 2 ARRs per AP, 5 s MRAI, 50 ms + 20 us per
  /// update processing, 20 ms latency jitter. The one place the paper's
  /// defaults are spelled; every bench modelling the §4 testbed starts
  /// from it (bench::paper_spec) and tweaks the returned groups.
  static ScenarioSpec paper(ibgp::IbgpMode mode, std::size_t num_aps,
                            std::uint64_t seed);
};

}  // namespace abrr::runner
