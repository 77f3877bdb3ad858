// In-memory spans for traced runs (--trace 1).
//
// The benchmark records spans around its own calls into the program's
// public functions: a span has a name, start and end (steady clock),
// the thread CPU it consumed, its parent (the span open on the same
// thread when it started) and a request id shared by every span of one
// request (one trial, one lookup batch, one frame). Spans stay in
// memory and are written at exit as Chrome trace-event JSON.
//
// A layer's self time is its span's duration minus the time its
// direct children cover. Children of one span run on its thread, one
// after another, so that is the sum of their durations.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;  // steady clock
  std::int64_t end_ns = 0;
  std::int64_t cpu_ns = 0;    // thread CPU inside the span (if recorded)
  std::int32_t parent = -1;   // index into the same log, -1 = root
  std::uint64_t request = 0;
};

/// One thread's spans. Not shared between threads. Spans past `cap`
/// are not recorded (dropped() counts them), which bounds memory.
class SpanLog {
 public:
  SpanLog(std::uint32_t thread, bool record_cpu, std::size_t cap = 1u << 20);

  /// Opens a span under the innermost open one; returns its index, or
  /// -1 when the log is full.
  std::int32_t open(const char* name, std::uint64_t request);
  void close(std::int32_t index);

  const std::vector<Span>& spans() const { return spans_; }
  std::uint32_t thread() const { return thread_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::uint32_t thread_;
  bool record_cpu_;
  std::size_t cap_;
  std::uint64_t dropped_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;  // open spans, innermost last
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, std::uint64_t request)
      : log_(log), index_(log.open(name, request)) {}
  ~ScopedSpan() { log_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  std::int32_t index_;
};

/// Per-span-name self times over a set of logs.
struct LayerTimes {
  std::vector<double> self_ns;      // one entry per span
  std::vector<double> self_cpu_ns;  // same order; 0 when not recorded
  double total_self_cpu_ns() const;
};
std::map<std::string, LayerTimes> self_times(
    const std::vector<const SpanLog*>& logs);

/// Writes every span of `logs` to `path` (Chrome trace-event JSON);
/// returns false when the file cannot be written.
bool write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs);

}  // namespace perfbench
