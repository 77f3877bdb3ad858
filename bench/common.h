// Shared experiment plumbing for the figure/table benches.
//
// Every bench models the paper's §4 testbed: the peering routers of a
// 13-cluster Tier-1 subset, 25 peer ASes at ~8 peering points each, and
// a synthetic RIB calibrated to 10.2 best AS-level routes per peer
// prefix. Absolute sizes are scaled (the paper used 315K peer prefixes;
// we default to a few thousand — pass --prefixes=N to change), so
// compare SHAPES against the paper, not absolute numbers.
//
// Flag parsing is runner::ArgParser: flags are declared once below,
// unknown flags fail loudly, and every bench shares the same spelling
// (--prefixes, --seed/--seeds, --jobs, --metrics-out, --out-dir, ...).
// Experiments are runner::ScenarioSpec values (paper_spec): run by
// runner::ExperimentRunner, or, for a bench that drives its testbed by
// hand, built by runner::build_world (snapshot paced over
// spec.workload.snapshot_seconds) and settled by runner::converge or,
// where a bench needs its own event cap (ablation_med_policy's
// oscillating TBRR rows), by Testbed::run_to_quiescence. Every §4 bed
// a bench builds comes from build_world; only anomaly_gadgets wires its
// own gadget topologies. fig3 and fig6 also draw a topology and
// workload with runner::make_trial_* for their #BAL overlay, which
// needs the Rng state after generation; they build no bed of their own.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "build_stamp.h"
#include "harness/testbed.h"
#include "runner/arg_parser.h"
#include "runner/runner.h"
#include "runner/scenario.h"
#include "runner/trial.h"
#include "topo/topology.h"
#include "trace/regenerator.h"
#include "trace/update_trace.h"
#include "trace/workload.h"

namespace abrr::bench {

/// How many of the --seeds values a bench runs.
enum class Seeds { kOne, kMany };

/// Whether a bench filters its iBGP modes by --mode. Most benches print
/// a fixed set of rows and refuse the flag rather than ignore it.
enum class ModeFilter { kRefused, kHonoured };

/// The flags every bench shares. A bench with other defaults passes them
/// to from_args (or sets them before register_flags), so a flag given on
/// the command line always wins. The topology knobs without a flag
/// (clients per PoP, peer ASes, points per AS) stay at the paper values
/// of runner::TopologyOptions; a bench that changes one sets it on its
/// ScenarioSpec.
struct ExperimentConfig {
  std::size_t prefixes = 4000;
  std::uint32_t pops = 13;  // the paper's 13-cluster testbed subset
  std::uint64_t seed = 42;
  /// All seeds to run (multi-trial benches); defaults to {seed}.
  std::vector<std::uint64_t> seeds;
  /// Worker threads for ExperimentRunner-backed benches.
  std::size_t jobs = 1;
  /// Optional iBGP-mode filter ("fullmesh"/"tbrr"/"abrr"/"dual");
  /// empty = bench default set. Only benches that pass
  /// ModeFilter::kHonoured to finish() accept it.
  std::string mode;
  double trace_seconds = 120.0;       // compressed two-week update feed
  double trace_events_per_second = 20.0;
  /// When non-empty, the bench dumps each testbed's aggregated metrics
  /// registry as a section of a JSON report here (see MetricsSink).
  std::string metrics_out;
  /// Directory for additional bench artifacts (BENCH_*.json).
  std::string out_dir = ".";

  /// Declares the shared flags on `p`. Benches with extra flags build
  /// their own parser, call this, add their flags, then parse.
  void register_flags(runner::ArgParser& p) {
    p.add("prefixes", "peer prefixes in the synthetic RIB", &prefixes);
    p.add("pops", "PoPs/clusters in the Tier-1 topology", &pops);
    p.add("seed", "base RNG seed", &seed);
    p.add("seeds", "comma-separated seed list (overrides --seed)", &seeds);
    p.add("jobs", "worker threads for runner-backed benches", &jobs);
    p.add("mode", "iBGP mode filter: fullmesh|tbrr|abrr|dual", &mode);
    p.add("trace-seconds", "update-replay length (simulated seconds)",
          &trace_seconds);
    p.add("metrics-out", "write per-run metrics-registry JSON here",
          &metrics_out);
    p.add("out-dir", "directory for bench artifacts", &out_dir);
  }

  /// Reconciles --seed/--seeds and validates --mode and the scale. Exits
  /// 2 on a bad mode name, on --mode for a bench that does not filter by
  /// it, when a bench that runs one seed is given several --seeds
  /// values, and on a scale flag ScenarioSpec::validate refuses, such as
  /// --prefixes=0 (parse() already exited on unknown flags).
  void finish(Seeds accepts = Seeds::kOne,
              ModeFilter modes = ModeFilter::kRefused) {
    if (modes == ModeFilter::kRefused && !mode.empty()) {
      std::fprintf(stderr, "error: this bench prints a fixed set of modes "
                   "and does not take --mode\n");
      std::exit(2);
    }
    if (accepts == Seeds::kOne && seeds.size() > 1) {
      std::fprintf(stderr, "error: this bench runs one seed, but --seeds "
                   "lists %zu (use --seed=N)\n", seeds.size());
      std::exit(2);
    }
    if (seeds.empty()) {
      seeds = {seed};
    } else {
      seed = seeds.front();
    }
    if (!mode.empty() && !runner::parse_mode(mode)) {
      std::fprintf(stderr, "error: unknown --mode '%s' (expected "
                   "fullmesh|tbrr|abrr|dual)\n", mode.c_str());
      std::exit(2);
    }
    // The scale by the spec's own rules: a zero scale would otherwise
    // abort deep inside the generators.
    runner::ScenarioSpec scale;
    scale.topology.pops = pops;
    scale.workload.prefixes = prefixes;
    scale.workload.trace_seconds = trace_seconds;
    scale.workload.trace_events_per_second = trace_events_per_second;
    static constexpr std::pair<const char*, const char*> kScaleFlags[] = {
        {"topology.pops", "--pops"},
        {"workload.prefixes", "--prefixes"},
        {"workload.trace_seconds", "--trace-seconds"}};
    for (const runner::ValidationError& e : scale.validate()) {
      for (const auto& [field, flag] : kScaleFlags) {
        if (e.field != field) continue;
        std::fprintf(stderr, "error: %s %s\n", flag, e.message.c_str());
        std::exit(2);
      }
    }
  }

  static ExperimentConfig from_args(int argc, char** argv,
                                    const char* program,
                                    Seeds accepts = Seeds::kOne) {
    return from_args(argc, argv, program, ExperimentConfig{}, accepts);
  }

  /// Parses the shared flags over `cfg`, the bench's defaults.
  static ExperimentConfig from_args(int argc, char** argv,
                                    const char* program,
                                    ExperimentConfig cfg,
                                    Seeds accepts = Seeds::kOne) {
    runner::ArgParser parser{program};
    cfg.register_flags(parser);
    parser.parse(argc, argv);
    cfg.finish(accepts);
    return cfg;
  }
};

/// The §4 paper scenario for one (mode, num_aps) cell at this config's
/// scale. Benches tweak the returned spec (trace replay, faults, obs)
/// and hand a batch to runner::ExperimentRunner.
inline runner::ScenarioSpec paper_spec(ibgp::IbgpMode mode,
                                       std::size_t num_aps,
                                       const ExperimentConfig& cfg) {
  auto spec = runner::ScenarioSpec::paper(mode, num_aps, cfg.seed);
  spec.topology.pops = cfg.pops;
  spec.workload.prefixes = cfg.prefixes;
  spec.seeds = cfg.seeds.empty() ? std::vector<std::uint64_t>{cfg.seed}
                                 : cfg.seeds;
  return spec;
}

/// Collects the aggregated metrics-registry dump of every testbed a
/// bench runs and writes one JSON report on destruction, opening with
/// the build stamp (build_stamp.h):
///   {"bench": "...", "host_cpus": N, ..., "git": "...",
///    "sections": [{"label": "...", "metrics": {...}}]}
/// With an empty path every call is a no-op, so benches can capture
/// unconditionally. Construct it before the bench writes any file into
/// the checkout: it reads the git revision then.
class MetricsSink {
 public:
  MetricsSink(std::string bench, std::string path)
      : bench_(std::move(bench)), path_(std::move(path)) {
    if (enabled()) revision_ = git_revision();
  }

  MetricsSink(const MetricsSink&) = delete;
  MetricsSink& operator=(const MetricsSink&) = delete;

  bool enabled() const { return !path_.empty(); }

  /// Snapshots `bed`'s registry (counters/gauges summed over labels,
  /// histograms merged) under `label`. Call right after the run whose
  /// metrics the section should describe.
  void capture(const std::string& label, const harness::Testbed& bed) {
    capture(label, bed.metrics().to_json(/*aggregate=*/true));
  }

  /// Same, from an already-rendered registry dump (e.g.
  /// runner::TrialResult::metrics_json).
  void capture(const std::string& label, std::string metrics_json) {
    if (!enabled()) return;
    sections_.emplace_back(label, std::move(metrics_json));
  }

  ~MetricsSink() {
    if (!enabled() || sections_.empty()) return;
    FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", path_.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n", bench_.c_str());
    write_build_stamp(f, revision_);
    std::fprintf(f, "  \"sections\": [\n");
    for (std::size_t i = 0; i < sections_.size(); ++i) {
      std::fprintf(f, "{\"label\": \"%s\", \"metrics\": %s}%s\n",
                   sections_[i].first.c_str(), sections_[i].second.c_str(),
                   i + 1 < sections_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path_.c_str());
  }

 private:
  std::string bench_;
  std::string path_;
  std::string revision_;
  std::vector<std::pair<std::string, std::string>> sections_;
};

}  // namespace abrr::bench
