// paper_sweep: the simulated §4 pipeline in bulk.
//
// A fixed list of 8 batch trials through runner::ExperimentRunner at
// jobs=2: ABRR (8 APs x 2 ARRs) and TBRR, each at 4 trial seeds derived
// from the workload seed, on the paper's §4 topology (13 PoPs x 8
// clients, 25 peer ASes x 8 points) at 1000 prefixes. Every trial loads
// the snapshot to quiescence, then replays a §4.2 update trace. No
// serving code runs.
//
// Untraced: the list is run pass after pass for --seconds.
//   setup_s    median time to generate and check the trial inputs
//   work_s     median wall time of one pass (sweep_s)
//   ops_per_s  simulator events per trial-CPU second (median of passes)
//   op_p50_us  median TrialResult::cpu_ms (trial_cpu_s), in us
//   op_p99_us  the slowest trial's CPU (median over passes): 8 trials
//              are too few for a p99
// Traced: one jobs=2 pass, one jobs=1 pass, then a serial replica of
// run_trial built from public calls with one span per step.
#include <algorithm>
#include <cinttypes>
#include <memory>
#include <string>
#include <vector>

#include "bgp/attrs_intern.h"
#include "fault/recovery.h"
#include "harness/testbed.h"
#include "perfbench.h"
#include "runner/runner.h"
#include "runner/trial.h"
#include "spans.h"
#include "trace/regenerator.h"
#include "trace/update_trace.h"
#include "trace/workload.h"

namespace perfbench {
using namespace abrr;
namespace {

constexpr std::size_t kPrefixes = 1000;
constexpr std::size_t kTrialSeeds = 4;
constexpr std::size_t kJobs = 2;
constexpr double kChurnSeconds = 30;  // §4.2 update trace, virtual s
constexpr int kSetupRepeats = 5;
constexpr int kMinPasses = 2;

std::vector<runner::ScenarioSpec> trial_specs(std::uint64_t seed) {
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < kTrialSeeds; ++i) {
    seeds.push_back(derive_seed(seed, i) % 1'000'000);
  }
  std::vector<runner::ScenarioSpec> specs;
  for (const ibgp::IbgpMode mode : {ibgp::IbgpMode::kAbrr,
                                    ibgp::IbgpMode::kTbrr}) {
    runner::ScenarioSpec spec = runner::ScenarioSpec::paper(mode, 8, 0);
    spec.name = std::string{"paper_sweep/"} + runner::mode_name(mode);
    spec.workload.prefixes = kPrefixes;
    spec.workload.trace_seconds = kChurnSeconds;
    spec.seeds = seeds;
    specs.push_back(spec);
  }
  return specs;
}

/// (spec, seed) in the runner's expanded order.
struct Trial {
  const runner::ScenarioSpec* spec;
  std::uint64_t seed;
};
std::vector<Trial> expand(const std::vector<runner::ScenarioSpec>& specs) {
  std::vector<Trial> out;
  for (const runner::ScenarioSpec& s : specs) {
    for (const std::uint64_t seed : s.seeds) out.push_back({&s, seed});
  }
  return out;
}

/// Set-up: generate every trial's inputs and check that they build —
/// the specs validate, each (spec, seed) yields the full prefix
/// universe, and its testbed wires every speaker.
bool generate_inputs(const std::vector<runner::ScenarioSpec>& specs) {
  bool ok = true;
  for (const runner::ScenarioSpec& s : specs) {
    ok = ok && s.validate().empty();
    for (const std::uint64_t seed : s.seeds) {
      bgp::AttrsInterner::TrialScope attrs_scope{s.expected_attr_blocks()};
      sim::Rng rng{seed};
      topo::Topology topology = runner::make_trial_topology(s.topology, rng);
      const trace::Workload workload =
          runner::make_trial_workload(s.workload, topology, rng);
      const std::vector<bgp::Ipv4Prefix> prefixes = workload.prefixes();
      const harness::Testbed bed{std::move(topology), s.testbed_config(seed),
                                 prefixes};
      ok = ok && prefixes.size() == s.workload.prefixes &&
           !bed.client_ids().empty() && !bed.rr_ids().empty();
    }
  }
  return ok;
}

struct Pass {
  double wall_s = 0;
  std::vector<runner::TrialResult> results;
};

Pass run_pass(const std::vector<runner::ScenarioSpec>& specs,
              std::size_t jobs) {
  const runner::ExperimentRunner runner{{.jobs = jobs}};
  Pass p;
  const std::int64_t t0 = wall_ns();
  p.results = runner.run(specs);
  p.wall_s = seconds_between(t0, wall_ns());
  return p;
}

bool trial_ok(const runner::TrialResult& r) {
  return r.error.empty() && r.converged;
}

// --- traced replica ----------------------------------------------------

struct ReplicaResult {
  std::uint64_t fingerprint = 0;
  bool converged = false;
  std::uint64_t events = 0;
  std::uint64_t updates_rx = 0;
  std::uint64_t updates_tx = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t attr_hits = 0;
  std::uint64_t attr_misses = 0;
};

/// runner::run_trial's steps for a spec without hold timers or fault
/// episodes, rebuilt from public calls with one span per step.
ReplicaResult replica_trial(const runner::ScenarioSpec& spec,
                            std::uint64_t seed, std::uint64_t request,
                            SpanLog& log) {
  ReplicaResult r;
  ScopedSpan trial_span{log, "trial", request};
  bgp::AttrsInterner::TrialScope attrs_scope{spec.expected_attr_blocks()};
  sim::Rng rng{seed};

  std::optional<topo::Topology> topology;
  {
    ScopedSpan s{log, "topo.build", request};
    topology.emplace(runner::make_trial_topology(spec.topology, rng));
  }
  std::optional<trace::Workload> workload;
  std::vector<bgp::Ipv4Prefix> prefixes;
  {
    ScopedSpan s{log, "trace.workload", request};
    workload.emplace(
        runner::make_trial_workload(spec.workload, *topology, rng));
    prefixes = workload->prefixes();
  }
  std::unique_ptr<harness::Testbed> bed;
  {
    ScopedSpan s{log, "harness.build", request};
    bed = std::make_unique<harness::Testbed>(
        *topology, spec.testbed_config(seed), prefixes);
  }
  std::unique_ptr<trace::RouteRegenerator> regen;
  {
    ScopedSpan s{log, "sim.load", request};
    regen = std::make_unique<trace::RouteRegenerator>(
        bed->scheduler(), *workload, bed->inject_fn());
    regen->load_snapshot(0, sim::sec_f(spec.workload.snapshot_seconds));
    r.converged = bed->run_to_quiescence(500'000'000);
  }
  if (r.converged && spec.workload.trace_seconds > 0) {
    std::optional<trace::UpdateTrace> trace;
    {
      ScopedSpan s{log, "trace.churn_gen", request};
      bed->reset_counters();
      trace::TraceParams tparams;
      tparams.duration = sim::sec_f(spec.workload.trace_seconds);
      tparams.events_per_second = spec.workload.trace_events_per_second;
      sim::Rng trace_rng{seed + 1};
      trace.emplace(trace::UpdateTrace::generate(tparams, *workload,
                                                 trace_rng));
    }
    {
      ScopedSpan s{log, "sim.churn", request};
      regen->play(*trace, bed->scheduler().now());
      r.converged = bed->run_to_quiescence(500'000'000);
    }
  }
  {
    ScopedSpan s{log, "fault.fingerprint", request};
    r.fingerprint = fault::rib_fingerprint(*bed);
  }
  {
    ScopedSpan s{log, "harness.collect", request};
    // What run_trial collects into its TrialResult, kept only so the
    // step costs the same.
    runner::TrialResult collected;
    collected.rib_in = bed->rr_rib_in();
    collected.rib_out = bed->rr_rib_out();
    collected.rr_totals = bed->rr_counters();
    collected.client_totals = bed->client_counters();
    collected.metrics_json = bed->metrics().to_json(/*aggregate=*/true);
    const obs::MetricsRegistry& m = bed->metrics();
    r.updates_rx = m.sum_counters("speaker.updates_received");
    r.updates_tx = m.sum_counters("speaker.updates_transmitted");
    r.wire_bytes = m.sum_counters("net.bytes");
  }
  r.events = bed->scheduler().events_executed();
  r.attr_hits = attrs_scope.interner().hits();
  r.attr_misses = attrs_scope.interner().misses();
  {
    // run_trial frees its world on return; that is trial CPU too.
    ScopedSpan s{log, "harness.teardown", request};
    regen.reset();
    bed.reset();
    workload.reset();
    topology.reset();
  }
  return r;
}

double total_cpu_ms(const Pass& p) {
  double t = 0;
  for (const runner::TrialResult& r : p.results) t += r.cpu_ms;
  return t;
}

void run_traced(const Options& opt, Report& report,
                const std::vector<runner::ScenarioSpec>& specs) {
  const std::vector<Trial> trials = expand(specs);
  const Pass parallel = run_pass(specs, kJobs);
  const Pass serial = run_pass(specs, 1);
  std::uint64_t failed = 0;
  bool deterministic = true;
  for (std::size_t i = 0; i < trials.size(); ++i) {
    if (!trial_ok(parallel.results[i]) || !trial_ok(serial.results[i])) {
      ++failed;
    }
    deterministic = deterministic && parallel.results[i].fingerprint ==
                                         serial.results[i].fingerprint;
  }

  SpanLog log{0, /*record_cpu=*/true};
  std::vector<ReplicaResult> replica;
  bool replica_matches = true;
  for (std::size_t i = 0; i < trials.size(); ++i) {
    replica.push_back(replica_trial(*trials[i].spec, trials[i].seed, i, log));
    if (!replica.back().converged) ++failed;
    replica_matches = replica_matches && replica.back().fingerprint ==
                                             parallel.results[i].fingerprint;
  }
  report.count(3 * trials.size(), failed);
  report.check(deterministic,
               "run_trial fingerprints equal at jobs=1 and jobs=2");
  report.check(replica_matches,
               "traced replica fingerprint equals run_trial's for every "
               "(spec, seed)");

  const auto layers = self_times({&log});
  const double n = static_cast<double>(trials.size());
  const auto step_ms = [&](const char* span) {
    const auto it = layers.find(span);
    return it == layers.end() ? 0.0 : it->second.total_self_cpu_ns() / 1e6 / n;
  };
  double events = 0;
  double rx = 0;
  double tx = 0;
  double bytes = 0;
  double hits = 0;
  double interns = 0;
  for (const ReplicaResult& r : replica) {
    events += static_cast<double>(r.events);
    rx += static_cast<double>(r.updates_rx);
    tx += static_cast<double>(r.updates_tx);
    bytes += static_cast<double>(r.wire_bytes);
    hits += static_cast<double>(r.attr_hits);
    interns += static_cast<double>(r.attr_hits + r.attr_misses);
  }
  const char* steps[] = {"topo.build",        "trace.workload",
                         "harness.build",     "sim.load",
                         "trace.churn_gen",   "sim.churn",
                         "fault.fingerprint", "harness.collect",
                         "harness.teardown"};
  double step_cpu_ms = 0;
  for (const char* step : steps) {
    const double ms = step_ms(step);
    step_cpu_ms += ms;
    report.metric(std::string{step} + "_ms", ms);
    report.say("layer %-22s %10.3f ms self CPU per trial (n=%zu)", step, ms,
               trials.size());
  }
  // Trial CPU = the root spans' CPU: their own time plus every step's.
  const double trial_cpu_ms = step_ms("trial") + step_cpu_ms;
  const double cover = trial_cpu_ms > 0 ? step_cpu_ms / trial_cpu_ms : 0;
  const double sim_ms = step_ms("sim.load") + step_ms("sim.churn");
  const double serial_cpu_ms = total_cpu_ms(serial) / n;
  const double overhead_pct =
      serial_cpu_ms > 0 ? (trial_cpu_ms - serial_cpu_ms) / serial_cpu_ms * 100
                        : 0;
  const double parallel_ratio =
      total_cpu_ms(serial) > 0 ? total_cpu_ms(parallel) / total_cpu_ms(serial)
                               : 0;
  report.metric("sim.events", events / n);
  report.metric("sim.ns_per_event", events > 0 ? sim_ms * 1e6 * n / events : 0);
  report.metric("ibgp.updates_rx", rx / n);
  report.metric("ibgp.updates_tx", tx / n);
  report.metric("net.wire_bytes", bytes / n);
  report.metric("bgp.attr_hit_ratio", interns > 0 ? hits / interns : 0);
  report.metric("runner.parallel_cpu_ratio", parallel_ratio);
  report.metric("trace.span_cover", cover);
  report.metric("trace.overhead_pct", overhead_pct);
  report.say("layer sim.events %.0f per trial, %.1f ns/event; ibgp rx %.0f "
             "tx %.0f; net %.0f B; attr hit ratio %.4f",
             events / n, events > 0 ? sim_ms * 1e6 * n / events : 0, rx / n,
             tx / n, bytes / n, interns > 0 ? hits / interns : 0);
  report.say("trial CPU: replica %.1f ms (traced) vs run_trial %.1f ms "
             "(untraced, jobs=1) -> tracing overhead %.2f%%; jobs=2 / jobs=1 "
             "CPU %.3f",
             trial_cpu_ms, serial_cpu_ms, overhead_pct, parallel_ratio);
  report.check(cover >= 0.95,
               "trace.span_cover " + std::to_string(cover) + " >= 0.95");
  if (!opt.trace_out.empty()) {
    report.check(write_spans(opt.trace_out, {&log}),
                 "spans written to " + opt.trace_out);
  }
}

}  // namespace

void run_paper_sweep(const Options& opt, Report& report) {
  // Set-up, repeated: the median is setup_s.
  std::vector<runner::ScenarioSpec> specs;
  std::vector<double> setups;
  bool inputs_ok = true;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::int64_t t0 = wall_ns();
    specs = trial_specs(opt.seed);
    inputs_ok = inputs_ok && generate_inputs(specs);
    setups.push_back(seconds_between(t0, wall_ns()));
  }
  report.check(inputs_ok, "trial inputs valid (8 specs x seeds, " +
                              std::to_string(kPrefixes) + " prefixes each)");
  if (opt.trace) {
    run_traced(opt, report, specs);
    return;
  }

  std::vector<Pass> passes;
  const std::int64_t t_start = wall_ns();
  while (static_cast<int>(passes.size()) < kMinPasses ||
         seconds_between(t_start, wall_ns()) < opt.seconds) {
    passes.push_back(run_pass(specs, kJobs));
  }

  std::vector<double> walls;
  std::vector<double> rates;
  std::vector<double> trial_cpu_us;
  std::vector<double> slowest_us;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool stable = true;
  for (const Pass& p : passes) {
    std::string cpus;
    for (const runner::TrialResult& r : p.results) {
      cpus += " " + std::to_string(static_cast<int>(r.cpu_ms)) + "/" +
              std::to_string(r.sched_events / 1000) + "k";
    }
    report.say("pass: %.3f s wall; trial CPU ms / events:%s", p.wall_s,
               cpus.c_str());
    walls.push_back(p.wall_s);
    double events = 0;
    double cpu_s = 0;
    double slowest = 0;
    for (std::size_t i = 0; i < p.results.size(); ++i) {
      const runner::TrialResult& r = p.results[i];
      ++attempted;
      if (!trial_ok(r)) ++failed;
      events += static_cast<double>(r.sched_events);
      cpu_s += r.cpu_ms / 1e3;
      slowest = std::max(slowest, r.cpu_ms * 1e3);
      trial_cpu_us.push_back(r.cpu_ms * 1e3);
      stable = stable && r.fingerprint == passes[0].results[i].fingerprint;
    }
    rates.push_back(events / cpu_s);
    slowest_us.push_back(slowest);
  }
  report.count(attempted, failed);
  report.check(failed == 0, "every trial converged without error (" +
                                std::to_string(attempted - failed) + "/" +
                                std::to_string(attempted) + ")");
  report.check(stable, "every pass reproduces the same trial fingerprints");

  const std::size_t samples = trial_cpu_us.size();
  const double setup_s = median(setups);
  const double sweep_s = median(walls);
  const double rate = median(rates);
  const double cpu_p50 = quantile(trial_cpu_us, 0.5);
  const double cpu_p99 = median(slowest_us);
  const double rss = peak_rss_mb();
  report.say("metric setup_s       %12.6f s   (median of %d input "
             "generations)", setup_s, kSetupRepeats);
  report.say("metric sweep_s       %12.6f s   (median of %zu passes, "
             "%zu trials each, jobs=%zu)",
             sweep_s, passes.size(), passes[0].results.size(), kJobs);
  report.say("metric trial_cpu_s   %12.6f s   (median, n=%zu trials)",
             cpu_p50 / 1e6, samples);
  report.say("metric trial_cpu_max %12.6f s   (median over passes of the "
             "slowest trial; %zu trials are too few for a p99)",
             cpu_p99 / 1e6, passes[0].results.size());
  report.say("metric events_per_s  %12.1f 1/s (simulator events per trial "
             "CPU second, median of %zu passes)",
             rate, passes.size());
  report.say("metric peak_rss_mb   %12.3f MB", rss);
  report.say("metric fail_frac     %12.6f     (%" PRIu64 " of %" PRIu64
             " trials)",
             attempted ? static_cast<double>(failed) / attempted : 0.0,
             failed, attempted);
  report.metric("setup_s", setup_s);
  report.metric("peak_rss_mb", rss);
  report.metric("work_s", sweep_s);
  report.metric("ops_per_s", rate);
  report.metric("op_p50_us", cpu_p50);
  report.metric("op_p99_us", cpu_p99);
}

}  // namespace perfbench
