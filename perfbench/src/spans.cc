#include "spans.h"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

std::int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int32_t SpanRecorder::intern(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::int32_t>(i);
  }
  names_.push_back(name);
  return static_cast<std::int32_t>(names_.size() - 1);
}

std::vector<double> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    const Span& parent = spans[static_cast<std::size_t>(span.parent)];
    const std::int64_t lo = std::max(span.start_ns, parent.start_ns);
    const std::int64_t hi = std::min(span.end_ns, parent.end_ns);
    if (hi > lo) children[static_cast<std::size_t>(span.parent)].push_back({lo, hi});
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns - covered);
  }
  return self;
}

std::vector<double> SpanRecorder::self_times() const {
  return SelfTimesNs(spans_);
}

std::map<std::string, SpanRecorder::LayerTime> SpanRecorder::by_name() const {
  std::map<std::string, LayerTime> out;
  const std::vector<double> self = self_times();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    LayerTime& layer = out[names_[static_cast<std::size_t>(spans_[i].name)]];
    layer.total_ns += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    layer.self_ns += self[i];
    ++layer.count;
  }
  return out;
}

bool SpanRecorder::write_tsv(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const std::vector<double> self = self_times();
  std::fprintf(file, "index\tname\tparent\trequest\tstart_ns\tend_ns\tself_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file, "%zu\t%s\t%d\t%lld\t%lld\t%lld\t%.0f\n", i,
                 names_[static_cast<std::size_t>(span.name)].c_str(),
                 span.parent, static_cast<long long>(span.request),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns), self[i]);
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
