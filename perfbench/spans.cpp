#include "spans.h"

#include <cinttypes>
#include <cstdio>

#include "perfbench.h"

namespace perfbench {

SpanLog::SpanLog(std::uint32_t thread, bool record_cpu, std::size_t cap)
    : thread_(thread), record_cpu_(record_cpu), cap_(cap) {
  spans_.reserve(cap_ < 4096 ? cap_ : 4096);
}

std::int32_t SpanLog::open(const char* name, std::uint64_t request) {
  if (spans_.size() >= cap_) {
    ++dropped_;
    return -1;
  }
  Span s;
  s.name = name;
  s.request = request;
  s.parent = stack_.empty() ? -1 : stack_.back();
  if (record_cpu_) s.cpu_ns = -thread_cpu_ns();
  s.start_ns = wall_ns();
  spans_.push_back(s);
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void SpanLog::close(std::int32_t index) {
  if (index < 0) return;
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end_ns = wall_ns();
  if (record_cpu_) s.cpu_ns += thread_cpu_ns();
  stack_.pop_back();
}

double LayerTimes::total_self_cpu_ns() const {
  double t = 0;
  for (const double v : self_cpu_ns) t += v;
  return t;
}

std::map<std::string, LayerTimes> self_times(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, LayerTimes> out;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<double> child_ns(spans.size(), 0.0);
    std::vector<double> child_cpu(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent < 0) continue;
      const auto p = static_cast<std::size_t>(s.parent);
      child_ns[p] += static_cast<double>(s.end_ns - s.start_ns);
      child_cpu[p] += static_cast<double>(s.cpu_ns);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      LayerTimes& t = out[spans[i].name];
      t.self_ns.push_back(
          static_cast<double>(spans[i].end_ns - spans[i].start_ns) -
          child_ns[i]);
      t.self_cpu_ns.push_back(static_cast<double>(spans[i].cpu_ns) -
                              child_cpu[i]);
    }
  }
  return out;
}

bool write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t t0 = 0;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      if (t0 == 0 || s.start_ns < t0) t0 = s.start_ns;
    }
  }
  std::fputs("{\"traceEvents\":[\n", f);
  bool first = true;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"request\":%" PRIu64
                   ",\"cpu_us\":%.3f}}",
                   first ? "" : ",\n", s.name, log->thread(),
                   static_cast<double>(s.start_ns - t0) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                   s.parent, s.request, static_cast<double>(s.cpu_ns) / 1e3);
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
