// Shared pieces of the benchmark driver: options, clocks, exact
// quantiles over raw samples, and the Report every workload fills.
//
// A run prints human-readable lines (host stamp, every metric with its
// unit and sample count, every output check) and then, as its LAST
// stdout line, one JSON object:
//   {"correct": ..., "attempted": N, "failed": M, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set (metric_tables() in main.cpp). A run whose checks fail
// reports correct=false and no numbers.
#pragma once

#include <chrono>
#include <cstdint>
#include <ctime>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where a traced run writes its spans at exit (empty = nowhere).
  std::string trace_out;
};

inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

inline double seconds_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

/// splitmix64 over (seed, stream): independent, reproducible input
/// seeds derived from the one workload seed.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Nearest-rank quantile of raw samples; sorts `samples` in place.
/// Returns 0 for an empty set.
double quantile(std::vector<double>& samples, double q);
inline double median(std::vector<double> samples) {
  return quantile(samples, 0.5);
}
double mean(const std::vector<double>& samples);

/// Splits `samples` (in the order they were taken) into consecutive
/// windows of about `window` samples (at least one window; the last one
/// absorbs the remainder) and appends each window's q-quantile to `out`.
///
/// The serve workloads' latency metrics are means of these window
/// quantiles. A shared host runs this process at different speeds for
/// stretches of seconds, so the pooled samples mix shifted
/// distributions: their median jumps from one speed to the other as the
/// mix passes one half, while the mean of the window quantiles moves in
/// proportion to the mix.
void window_quantiles(const std::vector<double>& samples, std::size_t window,
                      double q, std::vector<double>& out);

/// ru_maxrss of this process, in MB.
double peak_rss_mb();

/// Keeps the calling thread, and the threads it creates from now on, on
/// the k-th CPU (modulo their count) of those the process may run on.
/// The serve workloads pin their threads so runs do not differ by where
/// the scheduler put them, and move to the next CPUs with each
/// repetition: a shared host slows some of its CPUs for seconds to
/// minutes at a time, and a run that uses them all sees their average.
void pin_to_cpu(std::size_t k);
/// Lets the calling thread, and the threads it creates from now on, run
/// on every CPU the process may run on again.
void unpin_cpu();

class Report {
 public:
  /// Records a metric for the result line; its unit is the one
  /// BENCHMARK.json lists (the tables in main.cpp).
  void metric(const std::string& name, double value) {
    metrics_.emplace_back(name, value);
  }
  /// Prints one human-readable line immediately (stdout, flushed).
  void say(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
  /// An output check. Every check is printed; one failure voids the
  /// run's numbers.
  void check(bool ok, const std::string& what);
  /// Counts operations: `failed` of `attempted` missed (fail_frac).
  void count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const { return checks_ok_ && failed_ == 0 && attempted_ > 0; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::pair<std::string, double>>& metrics() const {
    return metrics_;
  }

 private:
  std::vector<std::pair<std::string, double>> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool checks_ok_ = true;
};

// One entry point per workload (paper_sweep.cpp, serve_churn.cpp,
// tcp_query.cpp). Each runs its own set-up, timed phase and checks.
void run_paper_sweep(const Options& opt, Report& report);
void run_serve_churn(const Options& opt, Report& report);
void run_tcp_query(const Options& opt, Report& report);

}  // namespace perfbench
