// Seeded observability fault drill: one deterministic chaos run with
// the full observability stack enabled, exporting every src/obs
// artifact for offline inspection (--out-dir is created if missing):
//
//   <out-dir>/metrics.json  aggregated registry dump (counters, gauges,
//                           histograms with p50/p95/p99)
//   <out-dir>/series.csv    RIB/queue/session gauges sampled on the
//                           virtual-time cadence
//   <out-dir>/trace.json    chrome://tracing timeline of the drill
//                           (load via chrome://tracing or Perfetto)
//   <out-dir>/capture.pcap  every control-plane message the drill sent,
//                           as RFC 4271 wire bytes in a classic pcap
//                           (open in Wireshark; sessions reassemble as
//                           BGP streams on port 179)
//
// The run is pure virtual time: two invocations with the same --seed
// produce bit-identical files. bench/export_trace.sh wraps this binary.
#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>

#include "common.h"
#include "fault/injector.h"
#include "fault/schedule.h"

int main(int argc, char** argv) {
  using namespace abrr;
  // A drill wants a small bed: the artifacts are for reading, not for
  // scale.
  const auto cfg = bench::ExperimentConfig::from_args(
      argc, argv, "obs_drill", {.prefixes = 200, .pops = 3});
  const std::string& out_dir = cfg.out_dir;
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "error: cannot create --out-dir %s: %s\n",
                 out_dir.c_str(), ec.message().c_str());
    return 1;
  }

  auto spec = bench::paper_spec(ibgp::IbgpMode::kAbrr, 2, cfg);
  spec.workload.snapshot_seconds = 10.0;
  spec.timing.hold_time = sim::sec(3);  // arm failure detection
  spec.obs.enabled = true;
  spec.obs.sample_period = sim::msec(500);
  spec.obs.pcap_frames = std::size_t{1} << 18;  // keep the whole drill
  const runner::World world = runner::build_world(spec, cfg.seed);
  harness::Testbed& bed = *world.bed;
  // Hold timers keep the queue alive forever, so run to a deadline. It
  // is 20 s past the load, not runner::converge's 40 s: the drill's
  // artifacts are pinned to this timeline.
  bed.run_until(sim::sec(30));

  fault::ChaosParams chaos;
  chaos.events = 12;
  chaos.start = bed.scheduler().now() + sim::sec(1);
  chaos.horizon = bed.scheduler().now() + sim::sec(40);
  sim::Rng chaos_rng{cfg.seed + 99};
  const auto sessions = bed.network().sessions();
  const auto schedule =
      fault::FaultSchedule::chaos(chaos, bed.all_ids(), sessions, chaos_rng);

  fault::FaultInjector injector{bed, schedule};
  injector.set_resync(fault::make_workload_resync(bed, *world.regen));
  injector.arm();
  bed.run_until(chaos.horizon + sim::sec(30));

  const std::string metrics_path = out_dir + "/metrics.json";
  const std::string series_path = out_dir + "/series.csv";
  const std::string trace_path = out_dir + "/trace.json";
  const std::string pcap_path = out_dir + "/capture.pcap";
  bed.metrics().write_json(metrics_path, /*aggregate=*/true);
  bed.sampler()->write_csv(series_path);
  bed.tracer()->write_chrome_json(trace_path);
  bed.tracer()->write_pcap(pcap_path);

  std::printf("obs drill: seed=%llu faults=%zu (fired=%llu repairs=%llu) "
              "sim-time=%.1fs\n",
              static_cast<unsigned long long>(cfg.seed), schedule.size(),
              static_cast<unsigned long long>(injector.counters().events_fired),
              static_cast<unsigned long long>(injector.counters().repairs),
              sim::to_seconds(bed.scheduler().now()));
  std::printf("  metrics: %zu names -> %s\n", bed.metrics().name_count(),
              metrics_path.c_str());
  std::printf("  series:  %zu rows x %zu gauges -> %s\n",
              bed.sampler()->rows(), bed.sampler()->columns(),
              series_path.c_str());
  std::printf("  trace:   %zu events (%zu dropped) -> %s\n",
              bed.tracer()->size(), bed.tracer()->dropped(),
              trace_path.c_str());
  const obs::PacketCapture* cap = bed.tracer()->packets();
  std::printf("  pcap:    %zu frames (%llu dropped, %zu payload bytes) -> "
              "%s\n",
              cap->size(), static_cast<unsigned long long>(cap->dropped()),
              cap->payload_bytes(), pcap_path.c_str());
  return 0;
}
