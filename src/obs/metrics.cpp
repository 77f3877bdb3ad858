#include "obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <stdexcept>

namespace abrr::obs {
namespace {

void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
}

void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out += buf;
}

void append_labels_json(std::string& out, const Labels& labels) {
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels.items()) {
    if (!first) out += ',';
    first = false;
    out += '"';
    append_escaped(out, k);
    out += "\":\"";
    append_escaped(out, v);
    out += '"';
  }
  out += '}';
}

/// Merged view of the histograms sharing one name (aggregate dumps).
struct HistAccum {
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;

  void merge(const Histogram& h) {
    if (buckets.empty()) {
      bounds = h.bounds();
      buckets = h.buckets();
    } else if (bounds == h.bounds()) {
      for (std::size_t i = 0; i < buckets.size(); ++i) {
        buckets[i] += h.buckets()[i];
      }
    } else {
      // Same name, different bucketing: keep the first shape and fold
      // everything into its overflow rather than silently mis-binning.
      buckets.back() += h.count();
    }
    if (count == 0) {
      min = h.min();
      max = h.max();
    } else if (h.count() > 0) {
      min = std::min(min, h.min());
      max = std::max(max, h.max());
    }
    count += h.count();
    sum += h.sum();
  }

  double quantile(double q) const {
    if (count == 0) return 0;
    q = std::clamp(q, 0.0, 1.0);
    const std::uint64_t rank =
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(
                                       q * static_cast<double>(count) + 0.5));
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      cum += buckets[i];
      if (cum >= rank) {
        // A bucket bound can exceed the largest observed value; never
        // report a quantile above the true max.
        return i < bounds.size() ? std::min(bounds[i], max) : max;
      }
    }
    return max;
  }
};

void append_hist_json(std::string& out, const HistAccum& h) {
  out += "\"count\":";
  append_u64(out, h.count);
  out += ",\"sum\":";
  append_double(out, h.sum);
  out += ",\"min\":";
  append_double(out, h.min);
  out += ",\"max\":";
  append_double(out, h.max);
  out += ",\"p50\":";
  append_double(out, h.quantile(0.50));
  out += ",\"p95\":";
  append_double(out, h.quantile(0.95));
  out += ",\"p99\":";
  append_double(out, h.quantile(0.99));
  out += ",\"buckets\":[";
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    if (i) out += ',';
    out += "{\"le\":";
    if (i < h.bounds.size()) {
      append_double(out, h.bounds[i]);
    } else {
      out += "\"+inf\"";
    }
    out += ",\"n\":";
    append_u64(out, h.buckets[i]);
    out += '}';
  }
  out += ']';
}

}  // namespace

Labels::Labels(
    std::initializer_list<std::pair<std::string, std::string>> kv) {
  for (const auto& [k, v] : kv) set(k, v);
}

void Labels::set(std::string key, std::string value) {
  const auto it = std::lower_bound(
      kv_.begin(), kv_.end(), key,
      [](const auto& pair, const std::string& k) { return pair.first < k; });
  if (it != kv_.end() && it->first == key) {
    it->second = std::move(value);
  } else {
    kv_.insert(it, {std::move(key), std::move(value)});
  }
}

bool Labels::contains(const Labels& subset) const {
  for (const auto& [k, v] : subset.kv_) {
    const auto it = std::lower_bound(
        kv_.begin(), kv_.end(), k,
        [](const auto& pair, const std::string& key) {
          return pair.first < key;
        });
    if (it == kv_.end() || it->first != k || it->second != v) return false;
  }
  return true;
}

std::string Labels::render() const {
  std::string out = "{";
  for (std::size_t i = 0; i < kv_.size(); ++i) {
    if (i) out += ',';
    out += kv_[i].first;
    out += '=';
    out += kv_[i].second;
  }
  out += '}';
  return out;
}

Histogram::Histogram(std::vector<double> bounds) {
  if (bounds.empty() || !std::is_sorted(bounds.begin(), bounds.end())) {
    throw std::invalid_argument{"histogram: bounds must be ascending"};
  }
  bounds_ = std::move(bounds);
  buckets_.assign(bounds_.size() + 1, 0);
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0 && other.bounds_.empty()) return;
  if (buckets_.empty()) {
    bounds_ = other.bounds_;
    buckets_ = other.buckets_;
  } else if (bounds_ == other.bounds_) {
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      buckets_[i] += other.buckets_[i];
    }
  } else {
    // Mismatched bucketing: fold into overflow, never silently mis-bin.
    buckets_.back() += other.count_;
  }
  if (other.count_ > 0) {
    if (count_ == 0) {
      min_ = other.min_;
      max_ = other.max_;
    } else {
      min_ = std::min(min_, other.min_);
      max_ = std::max(max_, other.max_);
    }
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

void Histogram::record(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++buckets_[static_cast<std::size_t>(it - bounds_.begin())];
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
}

double Histogram::quantile(double q) const {
  HistAccum a;
  a.merge(*this);
  return a.quantile(q);
}

std::vector<double> size_buckets() {
  std::vector<double> b;
  for (double v = 1; v <= 65536; v *= 2) b.push_back(v);
  return b;
}

std::vector<double> latency_buckets_ns() {
  std::vector<double> b;
  for (double decade = 1; decade <= 1e9; decade *= 10) {
    b.push_back(decade);
    b.push_back(decade * 2);
    b.push_back(decade * 5);
  }
  b.push_back(1e10);
  return b;
}

std::string MetricsRegistry::key_of(std::string_view name,
                                    const Labels& labels) {
  std::string key{name};
  key += '|';
  key += labels.render();
  return key;
}

Counter* MetricsRegistry::counter(std::string_view name,
                                  const Labels& labels) {
  confined_.check();
  const std::string key = key_of(name, labels);
  const auto it = counter_index_.find(key);
  if (it != counter_index_.end()) return &counters_[it->second];
  counters_.emplace_back();
  Counter& c = counters_.back();
  c.index_ = static_cast<std::uint32_t>(counters_.size() - 1);
  counter_info_.push_back({std::string{name}, labels});
  counter_index_.emplace(key, counters_.size() - 1);
  return &c;
}

Gauge* MetricsRegistry::gauge(std::string_view name, const Labels& labels) {
  confined_.check();
  const std::string key = key_of(name, labels);
  const auto it = gauge_index_.find(key);
  if (it != gauge_index_.end()) return &gauges_[it->second];
  gauges_.emplace_back();
  Gauge& g = gauges_.back();
  g.index_ = static_cast<std::uint32_t>(gauges_.size() - 1);
  gauge_info_.push_back({std::string{name}, labels});
  gauge_index_.emplace(key, gauges_.size() - 1);
  return &g;
}

Histogram* MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds,
                                      const Labels& labels) {
  confined_.check();
  const std::string key = key_of(name, labels);
  const auto it = histogram_index_.find(key);
  if (it != histogram_index_.end()) return &histograms_[it->second];
  if (bounds.empty() || !std::is_sorted(bounds.begin(), bounds.end())) {
    throw std::invalid_argument{"histogram: bounds must be ascending"};
  }
  histograms_.emplace_back();
  Histogram& h = histograms_.back();
  h.bounds_ = std::move(bounds);
  h.buckets_.assign(h.bounds_.size() + 1, 0);
  histogram_info_.push_back({std::string{name}, labels});
  histogram_index_.emplace(key, histograms_.size() - 1);
  return &h;
}

std::size_t MetricsRegistry::name_count() const {
  std::vector<std::string_view> names;
  names.reserve(counter_info_.size() + gauge_info_.size() +
                histogram_info_.size());
  for (const auto& i : counter_info_) names.push_back(i.name);
  for (const auto& i : gauge_info_) names.push_back(i.name);
  for (const auto& i : histogram_info_) names.push_back(i.name);
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names.size();
}

CounterSnapshot MetricsRegistry::counter_snapshot() const {
  CounterSnapshot snap;
  snap.reserve(counters_.size());
  for (const Counter& c : counters_) snap.push_back(c.value_);
  return snap;
}

std::uint64_t MetricsRegistry::sum_counters(
    std::string_view name, const Labels& filter,
    const CounterSnapshot* baseline) const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    const MetricInfo& info = counter_info_[i];
    if (info.name != name || !info.labels.contains(filter)) continue;
    std::uint64_t v = counters_[i].value_;
    if (baseline != nullptr && i < baseline->size()) v -= (*baseline)[i];
    total += v;
  }
  return total;
}

void MetricsRegistry::for_each_counter(
    const std::function<void(const MetricInfo&, const Counter&)>& fn) const {
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    fn(counter_info_[i], counters_[i]);
  }
}

void MetricsRegistry::for_each_gauge(
    const std::function<void(const MetricInfo&, const Gauge&)>& fn) const {
  for (std::size_t i = 0; i < gauges_.size(); ++i) {
    fn(gauge_info_[i], gauges_[i]);
  }
}

void MetricsRegistry::for_each_histogram(
    const std::function<void(const MetricInfo&, const Histogram&)>& fn)
    const {
  for (std::size_t i = 0; i < histograms_.size(); ++i) {
    fn(histogram_info_[i], histograms_[i]);
  }
}

std::string MetricsRegistry::to_json(bool aggregate) const {
  std::string out = "{\n  \"counters\": [";

  if (aggregate) {
    // std::map: deterministic name order in the dump.
    std::map<std::string, std::uint64_t> csums;
    for (std::size_t i = 0; i < counters_.size(); ++i) {
      csums[counter_info_[i].name] += counters_[i].value_;
    }
    bool first = true;
    for (const auto& [name, value] : csums) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "    {\"name\":\"";
      append_escaped(out, name);
      out += "\",\"value\":";
      append_u64(out, value);
      out += '}';
    }
    out += "\n  ],\n  \"gauges\": [";
    std::map<std::string, double> gsums;
    for (std::size_t i = 0; i < gauges_.size(); ++i) {
      gsums[gauge_info_[i].name] += gauges_[i].value_;
    }
    first = true;
    for (const auto& [name, value] : gsums) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "    {\"name\":\"";
      append_escaped(out, name);
      out += "\",\"value\":";
      append_double(out, value);
      out += '}';
    }
    out += "\n  ],\n  \"histograms\": [";
    std::map<std::string, HistAccum> hsums;
    for (std::size_t i = 0; i < histograms_.size(); ++i) {
      hsums[histogram_info_[i].name].merge(histograms_[i]);
    }
    first = true;
    for (const auto& [name, accum] : hsums) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "    {\"name\":\"";
      append_escaped(out, name);
      out += "\",";
      append_hist_json(out, accum);
      out += '}';
    }
    out += "\n  ]\n}\n";
    return out;
  }

  for (std::size_t i = 0; i < counters_.size(); ++i) {
    out += i ? ",\n" : "\n";
    out += "    {\"name\":\"";
    append_escaped(out, counter_info_[i].name);
    out += "\",\"labels\":";
    append_labels_json(out, counter_info_[i].labels);
    out += ",\"value\":";
    append_u64(out, counters_[i].value_);
    out += '}';
  }
  out += "\n  ],\n  \"gauges\": [";
  for (std::size_t i = 0; i < gauges_.size(); ++i) {
    out += i ? ",\n" : "\n";
    out += "    {\"name\":\"";
    append_escaped(out, gauge_info_[i].name);
    out += "\",\"labels\":";
    append_labels_json(out, gauge_info_[i].labels);
    out += ",\"value\":";
    append_double(out, gauges_[i].value_);
    out += '}';
  }
  out += "\n  ],\n  \"histograms\": [";
  for (std::size_t i = 0; i < histograms_.size(); ++i) {
    out += i ? ",\n" : "\n";
    out += "    {\"name\":\"";
    append_escaped(out, histogram_info_[i].name);
    out += "\",\"labels\":";
    append_labels_json(out, histogram_info_[i].labels);
    out += ',';
    HistAccum a;
    a.merge(histograms_[i]);
    append_hist_json(out, a);
    out += '}';
  }
  out += "\n  ]\n}\n";
  return out;
}

void MetricsRegistry::write_json(const std::string& path,
                                 bool aggregate) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error{"metrics: cannot write " + path};
  }
  const std::string json = to_json(aggregate);
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
}

}  // namespace abrr::obs
