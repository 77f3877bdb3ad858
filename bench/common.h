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
// runner::ExperimentRunner, or built into a hand-driven Testbed via
// runner::make_trial_topology/make_trial_workload and testbed_config().
#pragma once

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/testbed.h"
#include "obs/metrics.h"
#include "runner/arg_parser.h"
#include "runner/runner.h"
#include "runner/scenario.h"
#include "runner/trial.h"
#include "serve/service.h"
#include "topo/topology.h"
#include "trace/regenerator.h"
#include "trace/update_trace.h"
#include "trace/workload.h"

namespace abrr::bench {

/// How many of the --seeds values a bench runs.
enum class Seeds { kOne, kMany };

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
  /// empty = bench default set.
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

  /// Reconciles --seed/--seeds and validates --mode. Exits 2 on a bad
  /// mode name, and when a bench that runs one seed is given several
  /// --seeds values (parse() already exited on unknown flags).
  void finish(Seeds accepts = Seeds::kOne) {
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
/// bench runs and writes one JSON report on destruction:
///   {"bench": "...", "sections": [{"label": "...", "metrics": {...}}]}
/// With an empty path every call is a no-op, so benches can capture
/// unconditionally.
class MetricsSink {
 public:
  MetricsSink(std::string bench, std::string path)
      : bench_(std::move(bench)), path_(std::move(path)) {}

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
    std::fprintf(f, "{\"bench\": \"%s\", \"sections\": [\n", bench_.c_str());
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
  std::vector<std::pair<std::string, std::string>> sections_;
};

// --- serving-mode shared plumbing (serve_bench / frontend_bench) -----

/// Churn-plan flags common to the serving benches; both benches must
/// drive the SAME spec shape so their numbers compare.
struct ServingBenchParams {
  double churn_seconds = 10.0;
  double churn_events_per_second = 50.0;
  unsigned long chaos_events = 8;
  double publish_period_seconds = 0.25;

  void register_flags(runner::ArgParser& p) {
    p.add("churn-seconds", "virtual churn horizon per trial",
          &churn_seconds);
    p.add("churn-eps", "update-trace churn events per virtual second",
          &churn_events_per_second);
    p.add("chaos-events", "session/delay/loss fault events mixed in",
          &chaos_events);
    p.add("publish-period", "virtual seconds between publish attempts",
          &publish_period_seconds);
  }
};

/// One serving-mode scenario cell at this config's scale, on a mid-size
/// bed (4 clients per PoP, 8 peer ASes at 3 points each).
inline runner::ScenarioSpec serving_spec(ibgp::IbgpMode mode,
                                         const ExperimentConfig& cfg,
                                         const ServingBenchParams& params,
                                         const char* name_prefix) {
  runner::ScenarioSpec spec;
  spec.name = std::string{name_prefix} + "/" + runner::mode_name(mode);
  spec.mode = mode;
  spec.topology.pops = cfg.pops;
  spec.topology.clients_per_pop = 4;
  spec.topology.peer_ases = 8;
  spec.topology.points_per_as = 3;
  spec.workload.prefixes = cfg.prefixes;
  spec.abrr.num_aps = 2;
  spec.serve.enabled = true;
  spec.serve.churn_seconds = params.churn_seconds;
  spec.serve.churn_events_per_second = params.churn_events_per_second;
  spec.serve.chaos_events = params.chaos_events;
  spec.serve.publish_period_seconds = params.publish_period_seconds;
  return spec;
}

/// Deterministic hit-biased probe plan over a service's stable views
/// (the LPM universe and router list are shared across every snapshot,
/// so requests are generated once, outside any pin — the idiom every
/// read-path driver uses).
inline std::vector<serve::LookupRequest> serving_probe_plan(
    serve::RouteService& service, std::size_t n, std::uint32_t salt = 0) {
  serve::RouteService::Reader reader{service};
  std::shared_ptr<const bgp::LpmIndex> index;
  std::vector<bgp::RouterId> routers;
  {
    const serve::RouteService::Reader::PinGuard pin{reader};
    index = pin->index;
    routers = pin->router_ids;
  }
  std::vector<serve::LookupRequest> reqs;
  reqs.reserve(n);
  std::uint32_t probe = 0x9e3779b9u + salt;
  for (std::size_t i = 0; i < n; ++i) {
    probe = probe * 2654435761u + 12345;
    const bgp::Ipv4Prefix& p = index->prefix_at(probe % index->size());
    reqs.push_back(
        serve::LookupRequest{routers[i % routers.size()],
                             p.first() | (probe & (p.last() - p.first()))});
  }
  return reqs;
}

/// What one loadgen fan-out measured: operation/lookup counts and the
/// per-operation latency histogram, merged across worker threads.
struct LoadgenResult {
  std::uint64_t ops = 0;      // completed operations (batches / RTTs)
  std::uint64_t lookups = 0;  // individual lookups answered
  std::uint64_t errors = 0;   // workers that died (exceptions)
  obs::Histogram latency_ns{obs::latency_buckets_ns()};
  double wall_ms = 0;

  void merge(const LoadgenResult& other) {
    ops += other.ops;
    lookups += other.lookups;
    errors += other.errors;
    latency_ns.merge(other.latency_ns);
  }
  double lookups_per_sec() const {
    return wall_ms > 0 ? static_cast<double>(lookups) / (wall_ms / 1e3) : 0;
  }
};

/// Runs `fn(thread_index)` on `threads` workers and merges their
/// results; wall_ms spans the whole fan-out (start to last join). A
/// worker that throws counts as one error and contributes nothing —
/// the caller decides whether errors fail the bench. One-CPU caveat:
/// workers time-slice a single core here, so judge added concurrency
/// by per-op latency, not wall speedup (see EXPERIMENTS.md).
template <typename Fn>
LoadgenResult run_loadgen_threads(std::size_t threads, Fn fn) {
  std::vector<LoadgenResult> results(threads);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  const auto t_begin = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < threads; ++i) {
    workers.emplace_back([i, &results, &fn] {
      try {
        results[i] = fn(i);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "loadgen worker %zu: %s\n", i, e.what());
        results[i] = LoadgenResult{};
        results[i].errors = 1;
      }
    });
  }
  for (std::thread& t : workers) t.join();
  LoadgenResult merged;
  for (const LoadgenResult& r : results) merged.merge(r);
  merged.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t_begin)
                       .count();
  return merged;
}

/// Minimal ordered JSON emitter for BENCH_*.json reports: tracks comma
/// state per nesting level so benches build reports field by field
/// instead of via one giant fprintf format string. Writes the document
/// (plus a trailing newline) on close()/destruction.
class JsonWriter {
 public:
  explicit JsonWriter(std::string path) : path_(std::move(path)) {}
  ~JsonWriter() { close(); }
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void begin_object(const char* key = nullptr) { open('{', key); }
  void end_object() { close_scope(); }
  void begin_array(const char* key = nullptr) { open('[', key); }
  void end_array() { close_scope(); }

  void field(const char* key, const char* v) {
    item(key);
    buf_ += '"';
    buf_ += v;
    buf_ += '"';
  }
  void field(const char* key, const std::string& v) { field(key, v.c_str()); }
  void field(const char* key, double v) {
    item(key);
    char tmp[32];
    std::snprintf(tmp, sizeof(tmp), "%.3f", v);
    buf_ += tmp;
  }
  void field(const char* key, std::uint64_t v) {
    item(key);
    char tmp[32];
    std::snprintf(tmp, sizeof(tmp), "%" PRIu64, v);
    buf_ += tmp;
  }
  void field(const char* key, unsigned v) {
    field(key, static_cast<std::uint64_t>(v));
  }
  void field(const char* key, long v) {
    item(key);
    char tmp[32];
    std::snprintf(tmp, sizeof(tmp), "%ld", v);
    buf_ += tmp;
  }
  /// 16-digit hex string — the fingerprint convention of BENCH_*.json.
  void field_hex(const char* key, std::uint64_t v) {
    item(key);
    char tmp[32];
    std::snprintf(tmp, sizeof(tmp), "\"%016" PRIx64 "\"", v);
    buf_ += tmp;
  }

  /// Writes the document; returns false (and complains) on I/O error.
  bool close() {
    if (path_.empty()) return true;
    FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", path_.c_str());
      path_.clear();
      return false;
    }
    std::fputs(buf_.c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote %s\n", path_.c_str());
    path_.clear();
    return true;
  }

 private:
  void item(const char* key) {
    if (!first_.empty() && !first_.back()) buf_ += ", ";
    if (!first_.empty()) first_.back() = false;
    if (key != nullptr) {
      buf_ += '"';
      buf_ += key;
      buf_ += "\": ";
    }
  }
  void open(char c, const char* key) {
    item(key);
    buf_ += c;
    first_.push_back(true);
    closers_.push_back(c == '{' ? '}' : ']');
  }
  void close_scope() {
    buf_ += closers_.back();
    closers_.pop_back();
    first_.pop_back();
  }

  std::string path_;
  std::string buf_;
  std::vector<bool> first_;
  std::vector<char> closers_;
};

/// Loads the snapshot paced over `seconds` of simulated time and runs to
/// quiescence. Returns false on non-convergence.
inline bool load_snapshot(harness::Testbed& bed,
                          const trace::Workload& workload, double seconds) {
  trace::RouteRegenerator regen{bed.scheduler(), workload, bed.inject_fn()};
  regen.load_snapshot(0, sim::sec_f(seconds));
  return bed.run_to_quiescence(500'000'000);
}

}  // namespace abrr::bench
