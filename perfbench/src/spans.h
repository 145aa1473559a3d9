// In-memory span recorder for the traced replay.
//
// A span is one timed call across a layer boundary: name, start, end,
// the span that caused it (its parent on the call stack) and the
// request (job) it served, or -1.  Spans nest strictly — begin/end
// follow the call stack — and stay in memory until the benchmark
// writes them out at exit.  A layer's self time is its spans' duration
// minus the part of each interval its child spans cover.
//
// A disabled recorder records nothing and reads no clock, so the same
// replay code runs untraced to measure the tracing overhead.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::int32_t name = 0;     // interned name (SpanRecorder::intern)
  std::int32_t parent = -1;  // index of the enclosing span, -1 = root
  std::int64_t request = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Interns `name` (call once per layer, outside the hot path).
  std::int32_t intern(const std::string& name);

  /// Opens a span under the innermost open one; returns its index (-1
  /// when disabled).
  std::int32_t begin(std::int32_t name, std::int64_t request = -1) {
    if (!enabled_) return -1;
    const std::int32_t index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{name, open_.empty() ? -1 : open_.back(), request,
                          NowNs(), 0});
    open_.push_back(index);
    return index;
  }

  void end(std::int32_t index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_ns = NowNs();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Total duration and total self time per span name, nanoseconds.
  struct LayerTime {
    double total_ns = 0.0;
    double self_ns = 0.0;
    std::int64_t count = 0;
  };
  std::map<std::string, LayerTime> by_name() const;

  /// Writes one tab-separated line per span: index, name, parent,
  /// request, start_ns, end_ns, self_ns.  Returns false on I/O error.
  bool write_tsv(const std::string& path) const;

  static std::int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  std::vector<double> self_times() const;

  bool enabled_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// Seconds between two SpanRecorder::NowNs() stamps.
inline double SecondsBetween(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

/// CPU time the calling thread has used, nanoseconds.
std::int64_t ThreadCpuNs();

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (clipped to the parent).  Exposed for tests.
std::vector<double> SelfTimesNs(const std::vector<Span>& spans);

/// RAII guard for SpanRecorder::begin/end.
class SpanScope {
 public:
  SpanScope(SpanRecorder& recorder, std::int32_t name,
            std::int64_t request = -1)
      : recorder_(recorder), index_(recorder.begin(name, request)) {}
  ~SpanScope() { recorder_.end(index_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder& recorder_;
  std::int32_t index_;
};

}  // namespace perfbench
