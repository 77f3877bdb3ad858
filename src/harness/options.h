// Testbed configuration, the one vocabulary every experiment speaks:
// runner::ScenarioSpec embeds these sub-structs and derives a
// TestbedConfig per trial (ScenarioSpec::testbed_config), and
// harness::Testbed is built from that TestbedConfig. Hand-built beds
// (tests, gadgets with their own topologies) fill a TestbedConfig
// directly; the §4 paper defaults live in ScenarioSpec::paper.
#pragma once

#include <cstddef>
#include <cstdint>

#include "bgp/decision.h"
#include "ibgp/speaker.h"
#include "obs/obs.h"
#include "sim/time.h"

namespace abrr::harness {

/// Control-plane timing: pacing, processing and propagation delays.
struct TimingOptions {
  sim::Time mrai = sim::sec(5);
  sim::Time proc_delay = sim::msec(50);
  sim::Time proc_per_update = sim::usec(50);
  /// Session latency = 1ms + IGP distance x this (+ uniform jitter).
  sim::Time latency_per_metric = sim::usec(100);
  sim::Time latency_jitter = sim::msec(10);
  /// iBGP hold time for failure detection (RFC 4271 §6.5 semantics);
  /// 0 disables timers entirely — peers only go down via explicit
  /// session_down — preserving the fault-free behavior bit for bit.
  sim::Time hold_time = 0;
};

/// ABRR partitioning knobs (ignored by kFullMesh / kTbrr beds).
struct AbrrOptions {
  std::size_t num_aps = 8;
  std::size_t arrs_per_ap = 2;
  /// Balance APs on the experiment's prefix set instead of uniform
  /// address ranges.
  bool balanced_aps = false;
  /// §3.4 ablation: force client-side reduction on data-plane routers.
  bool force_client_reduction = false;
};

/// A fault episode run against the trial after it converges. Pure data:
/// the runner (src/runner) interprets it via the fault subsystem, the
/// testbed itself never reads it. Kept beside the other sub-structs so
/// ScenarioSpec composes one options vocabulary.
struct FaultOptions {
  bool enabled = false;

  enum class Scenario {
    kRrCrash,      // first reflector dies for `outage`, restarts
    kBorderCrash,  // first border router dies, restarts with state loss
    kChaos,        // seeded chaos schedule (chaos_events faults)
  };
  Scenario scenario = Scenario::kRrCrash;

  /// Hold time armed for the episode (failure detection). Must be > 0
  /// when enabled; overrides TimingOptions::hold_time for the trial.
  sim::Time hold_time = sim::sec(3);
  /// Crash outage length (kRrCrash / kBorderCrash).
  sim::Time outage = sim::sec(10);
  /// Also build an untouched full-mesh bed (same topology/workload/seed)
  /// and verify the recovered bed is full-mesh-equivalent.
  bool verify_fullmesh = true;
  /// kChaos: number of generated fault events and the offset added to
  /// the trial seed for the chaos stream.
  std::size_t chaos_events = 12;
  std::uint64_t chaos_seed_offset = 99;
};

/// The grouped testbed configuration (what Testbed actually consumes).
struct TestbedConfig {
  ibgp::IbgpMode mode = ibgp::IbgpMode::kFullMesh;
  /// TBRR-multi (Appendix A.3) when mode covers TBRR.
  bool multipath = false;
  AbrrOptions abrr;
  TimingOptions timing;
  bgp::DecisionConfig decision{};
  std::uint64_t seed = 7;
  /// Observability. The metrics registry always exists (counters are the
  /// single source of truth either way); `obs.enabled` additionally
  /// attaches the event tracer and starts the virtual-time RIB sampler.
  obs::ObsOptions obs{};
};

}  // namespace abrr::harness
