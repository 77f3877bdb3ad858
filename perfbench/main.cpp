// abrr_perfbench: the repository benchmark's driver binary.
//
//   abrr_perfbench --workload <paper_sweep|serve_churn|tcp_query>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-out <spans.json>]
//
// perfbench/run.py builds this binary from the checkout's sources and
// runs it; see perfbench/README.md for the workloads and metrics.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <string_view>

#include "perfbench.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The contract: these names and units are what BENCHMARK.json lists.
// Every workload emits every end-to-end metric.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},       {"peak_rss_mb", "MB"}, {"work_s", "s"},
    {"ops_per_s", "1/s"},   {"op_p50_us", "us"},   {"op_p99_us", "us"},
};

// Per-layer metrics of the traced run. A workload that bypasses a
// layer reports 0 for it (no work done there).
constexpr MetricDef kPerLayer[] = {
    // paper_sweep: serial replica of run_trial, mean per trial.
    {"topo.build_ms", "ms"},
    {"trace.workload_ms", "ms"},
    {"harness.build_ms", "ms"},
    {"sim.load_ms", "ms"},
    {"trace.churn_gen_ms", "ms"},
    {"sim.churn_ms", "ms"},
    {"fault.fingerprint_ms", "ms"},
    {"harness.collect_ms", "ms"},
    {"harness.teardown_ms", "ms"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"ibgp.updates_rx", "count"},
    {"ibgp.updates_tx", "count"},
    {"net.wire_bytes", "B"},
    {"bgp.attr_hit_ratio", "ratio"},
    {"runner.parallel_cpu_ratio", "ratio"},
    {"trace.span_cover", "ratio"},
    // serve_churn (serve.lookup_batch_ns is also tcp_query's lookup step).
    {"serve.start_ms", "ms"},
    {"serve.lookup_batch_ns", "ns"},
    {"serve.pin_ns", "ns"},
    {"serve.snapshot_lookup_ns", "ns"},
    {"bgp.leaf_ns", "ns"},
    {"serve.hit_ratio", "ratio"},
    {"serve.publishes", "count"},
    {"serve.publishes_deferred", "count"},
    {"serve.reclaimed", "count"},
    {"serve.retired_peak", "count"},
    {"serve.publish_p50_ms", "ms"},
    {"serve.snapshot_mb", "MB"},
    // tcp_query.
    {"frontend.send_us", "us"},
    {"frontend.recv_wait_us", "us"},
    {"frontend.decode_ns", "ns"},
    {"frontend.encode_ns", "ns"},
    {"frontend.transport_us", "us"},
    {"frontend.rtt_p50_us", "us"},
    {"frontend.handle_us", "us"},
    {"frontend.bytes_per_lookup", "B"},
    {"frontend.lookups_per_frame", "count"},
    {"frontend.drops", "count"},
    {"frontend.gen_lag_us", "us"},
    // every workload: traced minus untraced result of the same run.
    {"trace.overhead_pct", "%"},
};

void usage() {
  std::fprintf(stderr,
               "usage: abrr_perfbench --workload "
               "<paper_sweep|serve_churn|tcp_query> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>]\n");
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      opt.trace = std::string_view{value} == "1";
    } else if (key == "--trace-out") {
      opt.trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt.workload.empty() && opt.seconds > 0;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The result line: every metric of the run's set, in table order.
std::string result_line(const Options& opt, const Report& report) {
  const std::map<std::string, double> got(report.metrics().begin(),
                                          report.metrics().end());
  std::string metrics;
  const bool correct = report.correct();
  if (correct) {
    const auto emit = [&](const MetricDef& d, double v) {
      if (!metrics.empty()) metrics += ", ";
      metrics += "\"" + std::string{d.name} + "\": {\"value\": " +
                 json_number(v) + ", \"unit\": \"" + d.unit + "\"}";
    };
    if (opt.trace) {
      for (const MetricDef& d : kPerLayer) {
        const auto it = got.find(d.name);
        emit(d, it == got.end() ? 0.0 : it->second);
      }
    } else {
      for (const MetricDef& d : kEndToEnd) emit(d, got.at(d.name));
    }
  }
  return std::string{"{\"correct\": "} + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(report.attempted()) +
         ", \"failed\": " + std::to_string(report.failed()) +
         ", \"metrics\": {" + metrics + "}}";
}

}  // namespace

double quantile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (const double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

void window_quantiles(const std::vector<double>& samples, std::size_t window,
                      double q, std::vector<double>& out) {
  if (samples.empty()) return;
  const std::size_t n = samples.size();
  const std::size_t windows = std::max<std::size_t>(1, n / window);
  for (std::size_t w = 0; w < windows; ++w) {
    std::vector<double> part(samples.begin() + w * (n / windows),
                             w + 1 == windows
                                 ? samples.end()
                                 : samples.begin() + (w + 1) * (n / windows));
    out.push_back(quantile(part, q));
  }
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

namespace {

/// The process's CPUs, read once, before the first pin narrows them.
const std::vector<int>& process_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

void set_cpus(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

}  // namespace

void pin_to_cpu(std::size_t k) {
  const std::vector<int>& cpus = process_cpus();
  if (!cpus.empty()) set_cpus({cpus[k % cpus.size()]});
}

void unpin_cpu() { set_cpus(process_cpus()); }

void Report::say(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::putchar('\n');
  std::fflush(stdout);
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) checks_ok_ = false;
  say("check %s: %s", ok ? "ok" : "FAILED", what.c_str());
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  if (!parse(argc, argv, opt)) {
    usage();
    return 2;
  }
  Report report;
  report.say("stamp {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
             "\"trace\": %d, \"cpus\": %ld, \"compiler\": \"g++ %s\", "
             "\"build_type\": \"%s\"}",
             opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
             opt.seconds, opt.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
             __VERSION__, PERFBENCH_BUILD_TYPE);
  try {
    if (opt.workload == "paper_sweep") {
      run_paper_sweep(opt, report);
    } else if (opt.workload == "serve_churn") {
      run_serve_churn(opt, report);
    } else if (opt.workload == "tcp_query") {
      run_tcp_query(opt, report);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    report.check(false, std::string{"workload threw: "} + e.what());
  }
  std::printf("%s\n", result_line(opt, report).c_str());
  return report.correct() ? 0 : 1;
}
