// Metrics registry: named counters, gauges and fixed-bucket histograms
// with label support and cheap handle-based hot-path access.
//
// A handle (Counter*, Gauge*, Histogram*) is looked up once — by name and
// label set — and then incremented directly on the hot path; the registry
// owns the cells (in deques, so handles stay stable as metrics are added)
// and provides the cold-path views: filtered sums, snapshots for
// delta-style accounting, and a JSON dump with per-histogram quantiles.
//
// Everything here is passive with respect to the simulation: recording a
// sample never schedules events, touches the RNG, or observes wall-clock
// time, so instrumented runs stay bit-identical to uninstrumented ones.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/thread_confined.h"

namespace abrr::obs {

/// An ordered (sorted by key) set of key=value pairs identifying one
/// series of a metric, e.g. {speaker=17, role=rr}.
class Labels {
 public:
  Labels() = default;
  Labels(std::initializer_list<std::pair<std::string, std::string>> kv);

  /// Inserts or replaces one label.
  void set(std::string key, std::string value);

  const std::vector<std::pair<std::string, std::string>>& items() const {
    return kv_;
  }
  bool empty() const { return kv_.empty(); }

  /// True when every (key, value) of `subset` appears here.
  bool contains(const Labels& subset) const;

  /// Canonical text form `{k1=v1,k2=v2}` (empty labels -> `{}`); doubles
  /// as the registry's lookup key suffix.
  std::string render() const;

  bool operator==(const Labels& other) const { return kv_ == other.kv_; }

 private:
  std::vector<std::pair<std::string, std::string>> kv_;
};

/// Monotonic counter cell. inc() is the hot path: one add through a
/// pointer the owner cached at registration time.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }
  /// Position in the registry's counter snapshot vector.
  std::size_t index() const { return index_; }

 private:
  friend class MetricsRegistry;
  std::uint64_t value_ = 0;
  std::uint32_t index_ = 0;
};

/// Point-in-time value cell (RIB sizes, queue depths, ...).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double d) { value_ += d; }
  double value() const { return value_; }
  std::size_t index() const { return index_; }

 private:
  friend class MetricsRegistry;
  double value_ = 0;
  std::uint32_t index_ = 0;
};

/// Fixed-bucket histogram. `bounds` are ascending upper bounds with
/// INCLUSIVE semantics: a value v lands in the first bucket whose bound
/// is >= v; values above the last bound land in the implicit overflow
/// bucket. quantile() reports the upper bound of the bucket holding the
/// requested rank, clamped to the observed max (the overflow bucket
/// reports the max directly) — a deterministic, platform-independent
/// estimate.
class Histogram {
 public:
  /// Registry histograms are created via MetricsRegistry::histogram();
  /// this default state (no buckets) is only valid as a merge target.
  Histogram() = default;

  /// Free-standing histogram for thread-local recording (the serving
  /// mode's reader threads: the registry is thread-confined, so each
  /// reader records locally and the owner merge()s after join). Bounds
  /// must be ascending and non-empty.
  explicit Histogram(std::vector<double> bounds);

  void record(double v);

  /// Folds `other` into this histogram. Equal bucket bounds merge
  /// bucket-wise; an empty target adopts the source's shape; mismatched
  /// shapes fold into the overflow bucket (same policy as aggregate
  /// JSON dumps).
  void merge(const Histogram& other);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ ? min_ : 0; }
  double max() const { return count_ ? max_ : 0; }
  /// q in [0, 1]. An empty histogram reports 0 for every quantile.
  double quantile(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  const std::vector<std::uint64_t>& buckets() const { return buckets_; }

 private:
  friend class MetricsRegistry;
  std::vector<double> bounds_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Power-of-two size buckets 1, 2, 4, ..., 65536 — the default for
/// "how many routes / how many bytes / how big a batch" histograms.
std::vector<double> size_buckets();

/// Latency buckets in nanoseconds: 1-2-5 decades from 1ns to 10s —
/// the default for lookup/publish latency histograms.
std::vector<double> latency_buckets_ns();

struct MetricInfo {
  std::string name;
  Labels labels;
};

/// Dense snapshot of every counter cell, indexed by Counter::index().
/// Cells registered after the snapshot read as 0 (implicit baseline).
using CounterSnapshot = std::vector<std::uint64_t>;

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registration doubles as lookup: the same (name, labels) always
  /// returns the same cell. Distinct registries never share cells, so
  /// equal metric names in two registries cannot collide.
  Counter* counter(std::string_view name, const Labels& labels = {});
  Gauge* gauge(std::string_view name, const Labels& labels = {});
  /// `bounds` must be ascending and non-empty; on re-lookup of an
  /// existing histogram the bounds argument is ignored.
  Histogram* histogram(std::string_view name, std::vector<double> bounds,
                       const Labels& labels = {});

  std::size_t counter_count() const { return counters_.size(); }
  std::size_t gauge_count() const { return gauges_.size(); }
  std::size_t histogram_count() const { return histograms_.size(); }
  /// Distinct metric names across all three kinds.
  std::size_t name_count() const;

  CounterSnapshot counter_snapshot() const;

  /// Sum of every counter named `name` whose labels contain `filter`,
  /// minus the same cells' values in `baseline` (when given).
  std::uint64_t sum_counters(std::string_view name,
                             const Labels& filter = {},
                             const CounterSnapshot* baseline = nullptr) const;

  void for_each_counter(
      const std::function<void(const MetricInfo&, const Counter&)>& fn) const;
  void for_each_gauge(
      const std::function<void(const MetricInfo&, const Gauge&)>& fn) const;
  void for_each_histogram(
      const std::function<void(const MetricInfo&, const Histogram&)>& fn)
      const;

  /// JSON dump of every metric (with p50/p95/p99 per histogram).
  /// `aggregate` merges series sharing a name: counters/gauges sum,
  /// histograms merge bucket-wise (the compact form benches embed in
  /// their reports; the full form is the export tool's).
  std::string to_json(bool aggregate = false) const;
  /// Writes to_json() to `path`; throws std::runtime_error on I/O error.
  void write_json(const std::string& path, bool aggregate = false) const;

 private:
  static std::string key_of(std::string_view name, const Labels& labels);

  std::deque<Counter> counters_;
  std::vector<MetricInfo> counter_info_;
  std::unordered_map<std::string, std::size_t> counter_index_;

  std::deque<Gauge> gauges_;
  std::vector<MetricInfo> gauge_info_;
  std::unordered_map<std::string, std::size_t> gauge_index_;

  std::deque<Histogram> histograms_;
  std::vector<MetricInfo> histogram_info_;
  std::unordered_map<std::string, std::size_t> histogram_index_;
  /// A registry belongs to one trial, hence one thread (debug assert on
  /// the registration paths; handle-based inc/set stays unchecked).
  sim::ThreadConfined confined_;
};

}  // namespace abrr::obs
