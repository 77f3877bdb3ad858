#include "runner/scenario.h"

namespace abrr::runner {

std::string render_errors(const std::vector<ValidationError>& errors) {
  std::string out;
  for (const ValidationError& e : errors) {
    if (!out.empty()) out += "; ";
    out += e.field + ": " + e.message;
  }
  return out;
}

std::optional<ibgp::IbgpMode> parse_mode(std::string_view name) {
  if (name == "fullmesh") return ibgp::IbgpMode::kFullMesh;
  if (name == "tbrr") return ibgp::IbgpMode::kTbrr;
  if (name == "abrr") return ibgp::IbgpMode::kAbrr;
  if (name == "dual") return ibgp::IbgpMode::kDual;
  return std::nullopt;
}

const char* mode_name(ibgp::IbgpMode mode) {
  switch (mode) {
    case ibgp::IbgpMode::kFullMesh:
      return "fullmesh";
    case ibgp::IbgpMode::kTbrr:
      return "tbrr";
    case ibgp::IbgpMode::kAbrr:
      return "abrr";
    case ibgp::IbgpMode::kDual:
      return "dual";
  }
  return "?";
}

namespace {

bool uses_abrr(ibgp::IbgpMode mode) {
  return mode == ibgp::IbgpMode::kAbrr || mode == ibgp::IbgpMode::kDual;
}

bool uses_tbrr(ibgp::IbgpMode mode) {
  return mode == ibgp::IbgpMode::kTbrr || mode == ibgp::IbgpMode::kDual;
}

}  // namespace

std::vector<ValidationError> ScenarioSpec::validate() const {
  std::vector<ValidationError> errors;
  const auto err = [&](std::string field, std::string message) {
    errors.push_back({std::move(field), std::move(message)});
  };

  if (name.empty()) err("name", "must not be empty");
  if (seeds.empty()) err("seeds", "at least one seed is required");

  if (topology.pops == 0) err("topology.pops", "must be >= 1");
  if (topology.clients_per_pop == 0) {
    err("topology.clients_per_pop", "must be >= 1");
  }
  if (workload.prefixes == 0) err("workload.prefixes", "must be >= 1");
  if (workload.snapshot_seconds <= 0) {
    err("workload.snapshot_seconds", "must be > 0");
  }
  if (workload.trace_seconds < 0) {
    err("workload.trace_seconds", "must be >= 0");
  }
  if (workload.trace_seconds > 0 && workload.trace_events_per_second <= 0) {
    err("workload.trace_events_per_second",
        "must be > 0 when a trace replay is requested");
  }

  if (multipath && !uses_tbrr(mode)) {
    err("multipath", std::string{"TBRR-multi requires a TBRR-bearing mode; "
                                 "mode is "} +
                         mode_name(mode));
  }
  if (uses_abrr(mode)) {
    if (abrr.num_aps == 0) {
      err("abrr.num_aps", "ABRR needs at least one address partition");
    }
    if (abrr.arrs_per_ap == 0) {
      err("abrr.arrs_per_ap",
          "every AP needs at least one ARR (paper runs 2 for redundancy)");
    }
    if (abrr.balanced_aps && workload.prefixes == 0) {
      err("abrr.balanced_aps",
          "balancing partitions on prefix mass requires a non-empty "
          "prefix set");
    }
  } else {
    if (abrr.balanced_aps) {
      err("abrr.balanced_aps", std::string{"only meaningful for ABRR-bearing "
                                           "modes; mode is "} +
                                   mode_name(mode));
    }
    if (abrr.force_client_reduction) {
      err("abrr.force_client_reduction",
          std::string{"§3.4 ablation only applies to ABRR-bearing modes; "
                      "mode is "} +
              mode_name(mode));
    }
  }

  if (timing.mrai < 0) err("timing.mrai", "must be >= 0");
  if (timing.proc_delay < 0) err("timing.proc_delay", "must be >= 0");
  if (timing.proc_per_update < 0) {
    err("timing.proc_per_update", "must be >= 0");
  }
  if (timing.latency_jitter < 0) err("timing.latency_jitter", "must be >= 0");
  if (timing.hold_time < 0) err("timing.hold_time", "must be >= 0");

  if (fault.enabled) {
    if (fault.hold_time <= 0) {
      err("fault.hold_time",
          "a fault episode needs an armed hold timer (> 0) for failure "
          "detection");
    }
    if (fault.scenario != harness::FaultOptions::Scenario::kChaos &&
        fault.outage <= 0) {
      err("fault.outage", "crash scenarios need a positive outage length");
    }
    if (fault.scenario == harness::FaultOptions::Scenario::kChaos &&
        fault.chaos_events == 0) {
      err("fault.chaos_events", "a chaos episode needs at least one event");
    }
    if (fault.scenario == harness::FaultOptions::Scenario::kRrCrash &&
        mode == ibgp::IbgpMode::kFullMesh) {
      err("fault.scenario",
          "rr_crash needs a reflector; full-mesh beds have none");
    }
  }

  if (serve.enabled) {
    if (serve.churn_seconds <= 0) {
      err("serve.churn_seconds", "a serving run needs a positive horizon");
    }
    if (serve.churn_events_per_second < 0) {
      err("serve.churn_events_per_second", "must be >= 0");
    }
    if (serve.publish_period_seconds <= 0) {
      err("serve.publish_period_seconds", "must be > 0");
    }
    if (serve.max_resident_snapshots < 2) {
      err("serve.max_resident_snapshots",
          "needs room for the live snapshot plus at least one retired one");
    }
    if (fault.enabled) {
      err("serve.enabled",
          "serving churn and the batch fault episode are mutually "
          "exclusive (serve runs its own restricted chaos plan)");
    }
    if (timing.hold_time > 0) {
      err("serve.enabled",
          "the serving writer converges via quiescence; hold timers tick "
          "forever, so timing.hold_time must stay 0");
    }
  }

  if (obs.enabled && obs.sample_period <= 0) {
    err("obs.sample_period", "must be > 0 when observability is enabled");
  }

  return errors;
}

std::vector<ScenarioSpec> ScenarioSpec::sweep(const SweepAxes& axes) const {
  // Missing axes fall back to the base spec's values so the expansion
  // below is always a plain triple-nested cross-product.
  std::vector<ibgp::IbgpMode> modes =
      axes.modes.empty() ? std::vector<ibgp::IbgpMode>{mode} : axes.modes;
  std::vector<std::size_t> aps = axes.num_aps.empty()
                                     ? std::vector<std::size_t>{abrr.num_aps}
                                     : axes.num_aps;
  std::vector<std::size_t> prefix_counts =
      axes.prefix_counts.empty()
          ? std::vector<std::size_t>{workload.prefixes}
          : axes.prefix_counts;
  std::vector<std::uint64_t> seed_list = axes.seeds.empty() ? seeds
                                                            : axes.seeds;

  std::vector<ScenarioSpec> out;
  out.reserve(modes.size() * aps.size() * prefix_counts.size() *
              seed_list.size());
  for (const ibgp::IbgpMode m : modes) {
    // A mode without ABRR never reads abrr.*: one pass, no /apN segment.
    const std::size_t ap_passes = uses_abrr(m) ? aps.size() : 1;
    for (std::size_t a = 0; a < ap_passes; ++a) {
      for (const std::size_t pfx : prefix_counts) {
        for (const std::uint64_t seed : seed_list) {
          ScenarioSpec child = *this;
          child.mode = m;
          child.workload.prefixes = pfx;
          child.seeds = {seed};
          child.name = name + "/" + mode_name(m);
          if (uses_abrr(m)) {
            child.abrr.num_aps = aps[a];
            child.name += "/ap" + std::to_string(aps[a]);
          }
          if (prefix_counts.size() > 1) {
            child.name += "/pfx" + std::to_string(pfx);
          }
          child.name += "/seed" + std::to_string(seed);
          out.push_back(std::move(child));
        }
      }
    }
  }
  return out;
}

harness::TestbedConfig ScenarioSpec::testbed_config(
    std::uint64_t seed) const {
  harness::TestbedConfig c;
  c.mode = mode;
  c.multipath = multipath;
  c.abrr = abrr;
  c.timing = timing;
  if (fault.enabled) c.timing.hold_time = fault.hold_time;
  c.decision = decision;
  c.seed = seed;
  c.obs = obs;
  return c;
}

ScenarioSpec ScenarioSpec::paper(ibgp::IbgpMode mode, std::size_t num_aps,
                                 std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = mode_name(mode);
  spec.mode = mode;
  spec.abrr.num_aps = num_aps;
  spec.abrr.arrs_per_ap = 2;  // paper: 2 ARRs per AP, 2 TRRs per cluster
  spec.timing.mrai = sim::sec(5);
  spec.timing.proc_delay = sim::msec(50);
  spec.timing.proc_per_update = sim::usec(20);
  spec.timing.latency_jitter = sim::msec(20);
  spec.seeds = {seed};
  return spec;
}

}  // namespace abrr::runner
