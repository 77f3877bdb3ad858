// Parallel sweep bench: the ExperimentRunner's showcase and its
// determinism proof.
//
// Expands a 12-trial cross-product by default (ABRR x 2 AP counts x 4
// seeds, plus TBRR x 4 seeds: TBRR ignores the AP count), runs it
// twice — once with --jobs=1 and once with --jobs=N — verifies every
// trial's canonical serialization is BYTE-IDENTICAL between the two
// runs, and writes BENCH_sweep.json with per-trial wall, CPU,
// allocation and heap-by-structure (mem_*_mb, taken once the snapshot
// load has converged) columns, the observed speedup, and the host and
// build it ran on (CPUs, compiler, build type, git revision).
//
// --repeat=N runs both passes N times (every run must serialize
// identically) and adds a per-trial `spread` object: the median, min and
// max over the repetitions of the trial's CPU at each --jobs setting and
// of each mem_*_mb column (from the --jobs=1 runs). The other per-trial
// columns are the first repetition's. Trial CPU moves by tens of
// percent between runs of one binary on a shared host, so one run
// cannot show a CPU side effect.
//
// Reading the numbers: wall-clock speedup is bounded by the host's core
// count (reported as host_cpus); with --jobs > cores, per-trial wall_ms
// inflates with timesharing while cpu_ms stays flat. cpu_efficiency
// (total CPU at jobs=1 / total CPU at jobs=N) is the scheduling-
// independent signal: ~1.0 means the trials run contention-free — no
// allocator locks, no refcount ping-pong — and parallel speedup is
// limited only by the hardware the sweep happens to run on.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "build_stamp.h"
#include "common.h"

namespace {

double mb(std::size_t bytes) { return static_cast<double>(bytes) / 1e6; }

struct Spread {
  double median = 0;
  double min = 0;
  double max = 0;
};

Spread spread_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const double median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  return Spread{median, v.front(), v.back()};
}

/// A trial's mem_*_mb columns, in the order the JSON writes them.
std::vector<double> mem_columns(const abrr::harness::MemoryBreakdown& m) {
  return {mb(m.rib_in),         mb(m.loc_rib),     mb(m.rib_out),
          mb(m.route_sets),     mb(m.sent_hashes), mb(m.pending),
          mb(m.attr_arena),     mb(m.channel_queues), mb(m.events),
          mb(m.total())};
}

constexpr const char* kMemColumns[] = {
    "mem_rib_in_mb",     "mem_loc_rib_mb",        "mem_rib_out_mb",
    "mem_route_sets_mb", "mem_sent_hashes_mb",    "mem_pending_mb",
    "mem_attr_arena_mb", "mem_channel_queues_mb", "mem_events_mb",
    "mem_total_mb"};

}  // namespace

int main(int argc, char** argv) {
  using namespace abrr;
  using namespace abrr::bench;

  ExperimentConfig cfg;
  cfg.prefixes = 1000;  // 12 trials; keep each one modest by default
  cfg.jobs = 4;
  std::size_t repeat = 1;
  runner::ArgParser parser{"sweep"};
  cfg.register_flags(parser);
  parser.add("repeat",
             "run both passes N times; adds per-trial median/min/max",
             &repeat);
  parser.parse(argc, argv);
  if (repeat == 0) {
    std::fprintf(stderr, "error: --repeat must be at least 1\n");
    return 2;
  }
  const bool seeds_given = !cfg.seeds.empty();  // before finish() fills it
  cfg.finish(Seeds::kMany, ModeFilter::kHonoured);
  const std::size_t jobs = cfg.jobs == 0 ? 1 : cfg.jobs;
  // Read before anything is written: rewriting BENCH_sweep.json in a
  // checkout would itself make the tree dirty.
  const std::string revision = git_revision();

  runner::ScenarioSpec base = paper_spec(ibgp::IbgpMode::kAbrr, 8, cfg);
  base.name = "sweep";
  runner::SweepAxes axes;
  axes.modes = {ibgp::IbgpMode::kAbrr, ibgp::IbgpMode::kTbrr};
  if (!cfg.mode.empty()) axes.modes = {*runner::parse_mode(cfg.mode)};
  axes.num_aps = {4, 8};
  // Four consecutive seeds from --seed unless --seeds lists them.
  axes.seeds = {cfg.seed, cfg.seed + 1, cfg.seed + 2, cfg.seed + 3};
  if (seeds_given) axes.seeds = cfg.seeds;
  const auto specs = base.sweep(axes);

  std::printf("sweep: %zu trials (%zu prefixes each), --jobs=1 then "
              "--jobs=%zu\n",
              specs.size(), cfg.prefixes, jobs);

  const auto timed = [](const runner::ExperimentRunner& run,
                        std::span<const runner::ScenarioSpec> s,
                        double* elapsed_ms) {
    const auto t0 = std::chrono::steady_clock::now();
    auto results = run.run(s);
    *elapsed_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    return results;
  };

  runner::ExperimentRunner serial{{.jobs = 1}};
  runner::ExperimentRunner pooled{{.jobs = jobs}};
  // runs1[k] / runsn[k]: repetition k at --jobs=1 / --jobs=N.
  std::vector<std::vector<runner::TrialResult>> runs1;
  std::vector<std::vector<runner::TrialResult>> runsn;
  double elapsed1 = 0;
  double elapsedn = 0;
  for (std::size_t k = 0; k < repeat; ++k) {
    double ms1 = 0;
    runs1.push_back(timed(serial, specs, &ms1));
    std::printf("  --jobs=1: %.0fms\n", ms1);
    double msn = 0;
    runsn.push_back(timed(pooled, specs, &msn));
    std::printf("  --jobs=%zu: %.0fms\n", jobs, msn);
    if (k == 0) {
      elapsed1 = ms1;
      elapsedn = msn;
    }
  }
  const auto& r1 = runs1.front();
  const auto& rn = runsn.front();

  // The acceptance gate: every run's canonical serializations must match
  // the first --jobs=1 run's.
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < r1.size(); ++i) {
    const std::string want = r1[i].serialize();
    bool same = true;
    for (std::size_t k = 0; k < repeat; ++k) {
      same = same && runs1[k][i].serialize() == want &&
             runsn[k][i].serialize() == want;
    }
    if (!same) {
      ++mismatches;
      std::fprintf(stderr, "MISMATCH trial %zu (%s seed=%llu)\n", i,
                   r1[i].scenario.c_str(),
                   static_cast<unsigned long long>(r1[i].seed));
    }
  }
  std::printf("  determinism: %zu/%zu trials byte-identical\n",
              r1.size() - mismatches, r1.size());

  const double speedup = elapsedn > 0 ? elapsed1 / elapsedn : 1.0;
  std::printf("  speedup at --jobs=%zu: %.2fx\n", jobs, speedup);

  double cpu1_total = 0;
  double cpun_total = 0;
  for (std::size_t i = 0; i < r1.size(); ++i) {
    cpu1_total += r1[i].cpu_ms;
    cpun_total += rn[i].cpu_ms;
  }
  // Contention shows up as CPU *inflation* at jobs=N (threads burning
  // cycles on locks/refcounts/cache misses they don't burn serially).
  const double cpu_efficiency = cpun_total > 0 ? cpu1_total / cpun_total : 1.0;
  const unsigned host_cpus = std::thread::hardware_concurrency();
  std::printf("  cpu: %.0fms at --jobs=1 vs %.0fms at --jobs=%zu "
              "(efficiency %.3f, host_cpus=%u)\n",
              cpu1_total, cpun_total, jobs, cpu_efficiency, host_cpus);

  const std::string path = cfg.out_dir + "/BENCH_sweep.json";
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"sweep\",\n  \"jobs\": %zu,\n"
               "  \"repeat\": %zu,\n",
               jobs, repeat);
  write_build_stamp(f, revision);
  std::fprintf(f, "  \"trials\": %zu,\n  \"identical\": %s,\n", r1.size(),
               mismatches == 0 ? "true" : "false");
  std::fprintf(f,
               "  \"elapsed_ms_jobs1\": %.3f,\n"
               "  \"elapsed_ms_jobsN\": %.3f,\n"
               "  \"speedup\": %.3f,\n",
               elapsed1, elapsedn, speedup);
  std::fprintf(f,
               "  \"cpu_ms_jobs1\": %.3f,\n"
               "  \"cpu_ms_jobsN\": %.3f,\n"
               "  \"cpu_efficiency\": %.3f,\n",
               cpu1_total, cpun_total, cpu_efficiency);
  std::fprintf(f, "  \"per_trial\": [\n");
  for (std::size_t i = 0; i < r1.size(); ++i) {
    const harness::MemoryBreakdown& m = r1[i].memory;
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"seed\": %llu, "
                 "\"wall_ms_jobs1\": %.3f, \"wall_ms_jobsN\": %.3f, "
                 "\"cpu_ms_jobs1\": %.3f, \"cpu_ms_jobsN\": %.3f, "
                 "\"attr_blocks\": %llu, \"attr_hits\": %llu, "
                 "\"attr_misses\": %llu, \"attr_arena_bytes\": %llu, "
                 "\"sched_events\": %llu, \"sched_pool_capacity\": %llu, "
                 "\"mem_rib_in_mb\": %.3f, \"mem_loc_rib_mb\": %.3f, "
                 "\"mem_rib_out_mb\": %.3f, \"mem_route_sets_mb\": %.3f, "
                 "\"mem_sent_hashes_mb\": %.3f, "
                 "\"mem_pending_mb\": %.3f, \"mem_attr_arena_mb\": %.3f, "
                 "\"mem_channel_queues_mb\": %.3f, \"mem_events_mb\": %.3f, "
                 "\"mem_total_mb\": %.3f, "
                 "\"converged\": %s,\n      \"spread\": {",
                 r1[i].scenario.c_str(),
                 static_cast<unsigned long long>(r1[i].seed), r1[i].wall_ms,
                 rn[i].wall_ms, r1[i].cpu_ms, rn[i].cpu_ms,
                 static_cast<unsigned long long>(r1[i].attr_blocks),
                 static_cast<unsigned long long>(r1[i].attr_hits),
                 static_cast<unsigned long long>(r1[i].attr_misses),
                 static_cast<unsigned long long>(r1[i].attr_arena_bytes),
                 static_cast<unsigned long long>(r1[i].sched_events),
                 static_cast<unsigned long long>(r1[i].sched_pool_capacity),
                 mb(m.rib_in), mb(m.loc_rib), mb(m.rib_out),
                 mb(m.route_sets), mb(m.sent_hashes), mb(m.pending),
                 mb(m.attr_arena), mb(m.channel_queues), mb(m.events),
                 mb(m.total()),
                 r1[i].converged ? "true" : "false");
    // Median, min and max over the repetitions.
    std::vector<double> cpu1;
    std::vector<double> cpun;
    std::vector<std::vector<double>> mem(std::size(kMemColumns));
    for (std::size_t k = 0; k < repeat; ++k) {
      cpu1.push_back(runs1[k][i].cpu_ms);
      cpun.push_back(runsn[k][i].cpu_ms);
      const std::vector<double> cols = mem_columns(runs1[k][i].memory);
      for (std::size_t c = 0; c < cols.size(); ++c) mem[c].push_back(cols[c]);
    }
    const auto put = [&](const char* name, const std::vector<double>& v,
                         bool last) {
      const Spread s = spread_of(v);
      std::fprintf(f,
                   "\"%s\": {\"median\": %.3f, \"min\": %.3f, "
                   "\"max\": %.3f}%s",
                   name, s.median, s.min, s.max, last ? "" : ", ");
    };
    put("cpu_ms_jobs1", cpu1, false);
    put("cpu_ms_jobsN", cpun, false);
    for (std::size_t c = 0; c < mem.size(); ++c) {
      put(kMemColumns[c], mem[c], c + 1 == mem.size());
    }
    std::fprintf(f, "}}%s\n", i + 1 < r1.size() ? "," : "");
    if (repeat > 1) {
      const Spread s = spread_of(cpu1);
      const Spread t = spread_of(mem.back());
      std::printf("  %s: cpu %.0f ms [%.0f, %.0f], mem_total %.2f MB "
                  "[%.2f, %.2f] over %zu runs\n",
                  r1[i].scenario.c_str(), s.median, s.min, s.max, t.median,
                  t.min, t.max, repeat);
    }
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return mismatches == 0 ? 0 : 1;
}
