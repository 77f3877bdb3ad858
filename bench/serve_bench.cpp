// Serving-mode benchmark: one RouteService trial per iBGP mode, the
// read path hammered by --readers lookup threads while the writer
// replays churn and republishes RCU snapshots. Emits BENCH_serve.json
// with the read-path numbers (lookups/sec, per-lookup latency), the
// writer-side publish latency, reclamation stats and peak RSS.
//
// One-CPU caveat (this host): readers and the writer time-slice one
// core, so aggregate lookups/sec does NOT scale with --readers and
// wall_ms mostly measures the simulation replay. Judge the read path
// by per-lookup latency at --readers=1; see EXPERIMENTS.md.
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "serve/service.h"

namespace abrr::bench {
namespace {

struct ServeBenchConfig {
  ExperimentConfig base;
  ServingBenchParams serving;
  unsigned long readers = 2;
  unsigned long lookup_batch = 64;
  std::string json_out = "BENCH_serve.json";
};

ServeBenchConfig parse_args(int argc, char** argv) {
  ServeBenchConfig cfg;
  // The full §4 scale takes minutes per mode on this host; default to a
  // mid-size bed and let --prefixes/--pops scale it up.
  cfg.base.prefixes = 2000;
  cfg.base.pops = 6;
  runner::ArgParser parser{"serve_bench"};
  cfg.base.register_flags(parser);
  cfg.serving.register_flags(parser);
  parser.add("readers", "concurrent lookup threads", &cfg.readers);
  parser.add("lookup-batch", "lookups per reader timing sample",
             &cfg.lookup_batch);
  parser.add("json_out", "write the report here", &cfg.json_out);
  parser.parse(argc, argv);
  cfg.base.finish();
  return cfg;
}

struct Row {
  std::string mode;
  serve::ServeReport report;
};

void print_row(const Row& row) {
  std::printf(
      "%-8s %12.0f lookups/s  p50=%7.1fns p99=%7.1fns  "
      "publish p50=%8.0fns p99=%8.0fns  pubs=%" PRIu64 " def=%" PRIu64
      "  rss=%ldKB\n",
      row.mode.c_str(), row.report.lookups_per_sec, row.report.lookup_p50_ns,
      row.report.lookup_p99_ns, row.report.publish_p50_ns,
      row.report.publish_p99_ns, row.report.publishes,
      row.report.publishes_deferred, row.report.peak_rss_kb);
}

void write_json(const std::string& path, const ServeBenchConfig& cfg,
                const std::vector<Row>& rows) {
  JsonWriter json{path};
  json.begin_object();
  json.field("bench", "serve");
  json.begin_object("config");
  json.field("prefixes", cfg.base.prefixes);
  json.field("pops", cfg.base.pops);
  json.field("seed", cfg.base.seed);
  json.field("readers", static_cast<std::uint64_t>(cfg.readers));
  json.field("lookup_batch", static_cast<std::uint64_t>(cfg.lookup_batch));
  json.field("churn_seconds", cfg.serving.churn_seconds);
  json.field("churn_eps", cfg.serving.churn_events_per_second);
  json.field("chaos_events",
             static_cast<std::uint64_t>(cfg.serving.chaos_events));
  json.field("publish_period", cfg.serving.publish_period_seconds);
  json.end_object();
  json.begin_array("results");
  for (const Row& row : rows) {
    const serve::ServeReport& r = row.report;
    json.begin_object();
    json.field("mode", row.mode);
    json.field("lookups", r.lookups);
    json.field("lookups_per_sec", r.lookups_per_sec);
    json.field("lookup_p50_ns", r.lookup_p50_ns);
    json.field("lookup_p99_ns", r.lookup_p99_ns);
    json.field("publish_p50_ns", r.publish_p50_ns);
    json.field("publish_p99_ns", r.publish_p99_ns);
    json.field("publishes", r.publishes);
    json.field("publishes_deferred", r.publishes_deferred);
    json.field("reclaimed", r.reclaimed);
    json.field("retired_peak", r.retired_peak);
    json.field("final_version", r.final_version);
    json.field_hex("final_fingerprint", r.final_fingerprint);
    json.field("virtual_seconds", r.virtual_seconds);
    json.field("wall_ms", r.wall_ms);
    json.field("peak_rss_kb", r.peak_rss_kb);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  json.close();
}

}  // namespace
}  // namespace abrr::bench

int main(int argc, char** argv) {
  using namespace abrr;
  using namespace abrr::bench;

  const ServeBenchConfig cfg = parse_args(argc, argv);
  std::vector<ibgp::IbgpMode> modes{
      ibgp::IbgpMode::kFullMesh, ibgp::IbgpMode::kTbrr, ibgp::IbgpMode::kAbrr,
      ibgp::IbgpMode::kDual};
  if (!cfg.base.mode.empty()) modes = {*runner::parse_mode(cfg.base.mode)};

  serve::ServeTrialOptions opt;
  opt.readers = cfg.readers;
  opt.lookup_batch = cfg.lookup_batch;

  std::vector<Row> rows;
  for (const ibgp::IbgpMode mode : modes) {
    const runner::ScenarioSpec spec =
        serving_spec(mode, cfg.base, cfg.serving, "serve");
    rows.push_back(
        Row{runner::mode_name(mode),
            serve::run_serve_trial(spec, cfg.base.seed, opt)});
    print_row(rows.back());
  }
  write_json(cfg.json_out, cfg, rows);
  return 0;
}
