// §4.2 transmitted-updates experiment: the full 27-cluster iBGP topology
// emulated for TBRR, and a corresponding 27-AP ABRR topology (--pops
// scales both). The paper measured that each TRR TRANSMITS ~2.5x more
// updates than an ARR, while each ABRR update carries ~10 routes and is
// ~10x longer, so an ARR transmits roughly 4x more BYTES: ABRR trades a
// modest bandwidth loss for a large processing win.
#include <cstdio>
#include <utility>

#include "common.h"

int main(int argc, char** argv) {
  using namespace abrr;
  // The full 27-cluster AS of §4.2; 27 PoPs cost more, so fewer prefixes.
  const auto cfg = bench::ExperimentConfig::from_args(
      argc, argv, "t42_transmitted_updates", {.prefixes = 2000, .pops = 27});
  const auto paper = bench::paper_spec(ibgp::IbgpMode::kAbrr, cfg.pops, cfg);
  const auto spec_for = [&](ibgp::IbgpMode mode) {
    auto spec = paper;
    spec.mode = mode;
    // §4: the paper's feed ran up to 20x realtime with <3% change in
    // update counts, so MRAI pacing was not the bottleneck there; what
    // separates the schemes is input-batch coalescing (ARRs absorb a
    // routing event's client updates in one processing pass) versus
    // TBRR's staggered inter-TRR races. Model that regime directly.
    spec.timing.mrai = 0;
    spec.timing.proc_delay = sim::msec(100);
    spec.timing.latency_jitter = sim::msec(150);
    return spec;
  };
  // Both modes' worlds hold the same workload: the ABRR world's serves
  // for the trace and the header.
  const auto abrr_spec = spec_for(ibgp::IbgpMode::kAbrr);
  runner::World abrr_world = runner::build_world(abrr_spec, cfg.seed);
  const std::size_t clients = abrr_world.bed->topology().clients.size();

  trace::TraceParams tparams;
  tparams.duration = sim::sec_f(cfg.trace_seconds);
  tparams.events_per_second = cfg.trace_events_per_second;
  sim::Rng trace_rng{cfg.seed + 1};
  const auto trace =
      trace::UpdateTrace::generate(tparams, abrr_world.workload(), trace_rng);

  std::printf("# §4.2: transmitted updates and bytes, %u clusters vs %u APs\n",
              cfg.pops, cfg.pops);
  std::printf("# prefixes=%zu clients=%zu trace_events=%zu\n\n",
              cfg.prefixes, clients, trace.events().size());

  struct Result {
    double tx_per_rr_sec = 0;
    double wire_bytes_per_rr_sec = 0;
    double routes_per_update = 0;
    double generated_per_rr = 0;
    double peers_per_rr = 0;
    double gen_clients = 0;
    double gen_rrs = 0;
  };
  bench::MetricsSink sink{"t42_transmitted_updates", cfg.metrics_out};
  const auto run = [&](const runner::ScenarioSpec& spec,
                       runner::World world) -> Result {
    harness::Testbed& bed = *world.bed;
    runner::converge(bed, sim::sec_f(spec.workload.snapshot_seconds));
    bed.reset_counters();
    world.regen->play(trace, bed.scheduler().now());
    bed.run_to_quiescence(500'000'000);

    Result r;
    const obs::Labels rrs{{"role", "rr"}};
    const std::uint64_t updates =
        bed.counter_delta("speaker.updates_transmitted", rrs);
    const std::uint64_t routes =
        bed.counter_delta("speaker.routes_transmitted", rrs);
    const auto rr = bed.rr_counters();
    r.tx_per_rr_sec = rr.avg_transmitted() / cfg.trace_seconds;
    r.wire_bytes_per_rr_sec = rr.avg_wire_bytes() / cfg.trace_seconds;
    r.routes_per_update =
        updates ? static_cast<double>(routes) / updates : 0;
    r.generated_per_rr = rr.avg_generated();
    double peers = 0;
    for (const auto id : bed.rr_ids()) {
      peers += static_cast<double>(bed.speaker(id).peer_count());
    }
    const auto n_rrs = static_cast<double>(bed.rr_ids().size());
    r.peers_per_rr = peers / n_rrs;
    r.gen_clients = static_cast<double>(bed.counter_delta(
                        "speaker.generated_to_clients", rrs)) /
                    n_rrs;
    r.gen_rrs =
        static_cast<double>(bed.counter_delta("speaker.generated_to_rrs", rrs)) /
        n_rrs;
    sink.capture(spec.mode == ibgp::IbgpMode::kAbrr ? "ABRR" : "TBRR", bed);
    return r;
  };

  const Result abrr = run(abrr_spec, std::move(abrr_world));
  const auto tbrr_spec = spec_for(ibgp::IbgpMode::kTbrr);
  const Result tbrr = run(tbrr_spec, runner::build_world(tbrr_spec, cfg.seed));

  // wire-bytes is the measured RFC 4271 length of every transmitted
  // message.
  std::printf("%-8s %16s %15s %14s %13s %10s\n", "scheme",
              "tx-updates/RR/s", "wire-bytes/RR/s", "routes/update",
              "generated/RR", "peers/RR");
  std::printf("%-8s %16.1f %15.0f %14.2f %13.0f %10.0f\n", "ABRR",
              abrr.tx_per_rr_sec, abrr.wire_bytes_per_rr_sec,
              abrr.routes_per_update, abrr.generated_per_rr,
              abrr.peers_per_rr);
  std::printf("%-8s %16.1f %15.0f %14.2f %13.0f %10.0f\n", "TBRR",
              tbrr.tx_per_rr_sec, tbrr.wire_bytes_per_rr_sec,
              tbrr.routes_per_update, tbrr.generated_per_rr,
              tbrr.peers_per_rr);
  std::printf("\n# measured at this scale (%zu clients):\n", clients);
  std::printf("#   TRR/ARR transmitted-updates ratio: %.2fx (paper ~2.5x)\n",
              tbrr.tx_per_rr_sec / abrr.tx_per_rr_sec);
  std::printf("#   ARR/TRR transmitted-bytes ratio:  %.2fx (paper ~4x)\n",
              abrr.wire_bytes_per_rr_sec / tbrr.wire_bytes_per_rr_sec);
  std::printf("#   ABRR routes per update: %.1f (paper ~10.2)\n",
              abrr.routes_per_update);

  // The paper computed transmissions "that would have been required to
  // send updates to all clients" of the FULL >1000-router AS. Project
  // our measured per-group generation onto that geometry: 27 clusters
  // of ~37 clients (TRR also meshes with 53 TRRs), ARRs peering with
  // all 1000 clients plus 52 fellow ARRs.
  const double kFullClients = 1000;
  const double kPerCluster = kFullClients / 27.0;
  const double arr_full =
      abrr.gen_clients * (kFullClients + 52.0);
  const double trr_full =
      tbrr.gen_clients * kPerCluster + tbrr.gen_rrs * 53.0;
  std::printf("#\n# projected onto the paper's full 1000-router AS:\n");
  std::printf("#   TRR/ARR transmitted-updates ratio: %.2fx\n",
              trr_full / arr_full);
  std::printf("# The transmission ratio is geometry-dependent: it grows\n");
  std::printf("# with the TRR generation multiplicity produced by inter-\n");
  std::printf("# TRR races, which scales with real trace burstiness.\n");
  return 0;
}
