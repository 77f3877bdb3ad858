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
// Reading the numbers: wall-clock speedup is bounded by the host's core
// count (reported as host_cpus); with --jobs > cores, per-trial wall_ms
// inflates with timesharing while cpu_ms stays flat. cpu_efficiency
// (total CPU at jobs=1 / total CPU at jobs=N) is the scheduling-
// independent signal: ~1.0 means the trials run contention-free — no
// allocator locks, no refcount ping-pong — and parallel speedup is
// limited only by the hardware the sweep happens to run on.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "build_stamp.h"
#include "common.h"

namespace {

double mb(std::size_t bytes) { return static_cast<double>(bytes) / 1e6; }

}  // namespace

int main(int argc, char** argv) {
  using namespace abrr;
  using namespace abrr::bench;

  ExperimentConfig cfg;
  cfg.prefixes = 1000;  // 12 trials; keep each one modest by default
  cfg.jobs = 4;
  runner::ArgParser parser{"sweep"};
  cfg.register_flags(parser);
  parser.parse(argc, argv);
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
  double elapsed1 = 0;
  const auto r1 = timed(serial, specs, &elapsed1);
  std::printf("  --jobs=1: %.0fms\n", elapsed1);

  runner::ExperimentRunner pooled{{.jobs = jobs}};
  double elapsedn = 0;
  const auto rn = timed(pooled, specs, &elapsedn);
  std::printf("  --jobs=%zu: %.0fms\n", jobs, elapsedn);

  // The acceptance gate: canonical serializations must match pairwise.
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < r1.size(); ++i) {
    if (r1[i].serialize() != rn[i].serialize()) {
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
  std::fprintf(f, "{\n  \"bench\": \"sweep\",\n  \"jobs\": %zu,\n", jobs);
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
                 "\"converged\": %s}%s\n",
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
                 r1[i].converged ? "true" : "false",
                 i + 1 < r1.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return mismatches == 0 ? 0 : 1;
}
