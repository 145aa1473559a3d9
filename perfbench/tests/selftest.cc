// The benchmark's own arithmetic: percentiles with sample counts, the
// speed probe and the reference-speed scaling, and span self time, plus
// the scheduler timing wrapper and not-applicable metrics in the report.
// Exits nonzero when any expectation is broken.
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "daemon.h"
#include "dag/builders.h"
#include "report.h"
#include "sched/registry.h"
#include "sim/observer.h"
#include "spans.h"
#include "speed.h"
#include "stats.h"
#include "timed_scheduler.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentile() {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);  // unsorted input
  const perfbench::Percentile p50 = perfbench::PercentileOf(values, 50);
  const perfbench::Percentile p99 = perfbench::PercentileOf(values, 99);
  const perfbench::Percentile p100 = perfbench::PercentileOf(values, 100);
  Expect(Near(p50.value, 50) && p50.samples == 100, "p50 of 1..100 is 50 over 100 samples");
  Expect(Near(p99.value, 99) && p99.samples == 100, "p99 of 1..100 is 99 (nearest rank)");
  Expect(Near(p100.value, 100), "p100 is the maximum");
  const perfbench::Percentile one = perfbench::PercentileOf({7.0}, 99);
  Expect(Near(one.value, 7) && one.samples == 1, "a single sample is every percentile");
  const perfbench::Percentile none = perfbench::PercentileOf({}, 50);
  Expect(none.samples == 0 && Near(none.value, 0), "no samples gives {0, 0}");
  Expect(Near(perfbench::MedianOf({3, 1, 2}), 2), "odd median");
  Expect(Near(perfbench::MedianOf({4, 1, 3, 2}), 2.5), "even median averages the middle pair");

}

void TestSpeed() {
  const double ms = perfbench::ProbeMs({});
  Expect(ms > 0.0 && ms < 1e4, "the probe takes a positive, finite time");
  const std::vector<int> cpus = perfbench::AllowedCpus();
  Expect(perfbench::ProbeMs({cpus.front(), cpus.back()}) > 0.0, "a probe over pinned CPUs runs");
  const double slow = perfbench::Slowdown(2.0 * perfbench::kReferenceProbeMs);
  Expect(Near(slow, 2.0), "a probe twice the reference is a slowdown of 2");
  Expect(Near(0.5 / slow, 0.25) && Near(100.0 * slow, 200.0),
         "at reference speed a duration halves and a rate doubles");
}

void TestSelfTime() {
  using perfbench::Span;
  // root [0,100] with children [10,30] and [50,60]; the first child has
  // its own child [15,25].
  std::vector<Span> spans = {
      {0, -1, -1, 0, 100}, {1, 0, -1, 10, 30}, {2, 1, -1, 15, 25}, {1, 0, -1, 50, 60}};
  const std::vector<double> self = perfbench::SelfTimesNs(spans);
  Expect(Near(self[0], 70), "root self = 100 - 20 - 10");
  Expect(Near(self[1], 10), "child self = 20 - 10 (grandchild)");
  Expect(Near(self[2], 10), "leaf self = its duration");
  Expect(Near(self[3], 10), "second child self = its duration");
  // Overlapping or overhanging children count once and only inside the
  // parent.
  std::vector<Span> odd = {{0, -1, -1, 0, 100}, {1, 0, -1, 10, 40}, {1, 0, -1, 30, 50},
                           {1, 0, -1, 90, 120}};
  Expect(Near(perfbench::SelfTimesNs(odd)[0], 100 - 40 - 10),
         "overlapping children are a union, clipped to the parent");

  perfbench::SpanRecorder recorder(true);
  const std::int32_t outer = recorder.intern("outer");
  const std::int32_t inner = recorder.intern("inner");
  Expect(recorder.intern("outer") == outer, "interning is idempotent");
  {
    perfbench::SpanScope a(recorder, outer);
    perfbench::SpanScope b(recorder, inner, 7);
  }
  Expect(recorder.spans().size() == 2 && recorder.spans()[1].parent == 0 &&
             recorder.spans()[1].request == 7,
         "a nested scope records its parent and request");
  const auto layers = recorder.by_name();
  Expect(layers.at("outer").self_ns + layers.at("inner").total_ns <=
             layers.at("outer").total_ns + 1e-9,
         "outer self + inner total fits in outer total");
  perfbench::SpanRecorder off(false);
  { perfbench::SpanScope a(off, off.intern("x")); }
  Expect(off.spans().empty(), "a disabled recorder records nothing");
}

void TestTimedScheduler() {
  otsched::Instance instance;
  for (int k = 0; k < 4; ++k) instance.add_job(otsched::Job(otsched::MakeChain(3), k));
  const otsched::SimResult plain = otsched::Simulate(
      instance, 2, *otsched::MakePolicy("fifo/first-ready", 1), otsched::FlowOnlyOptions());
  perfbench::SpanRecorder recorder(true);
  std::int64_t end_ns = 0;
  otsched::SimResult timed;
  {
    perfbench::TimedScheduler policy(otsched::MakePolicy("fifo/first-ready", 1), &recorder,
                                     &end_ns);
    timed = otsched::Simulate(instance, 2, policy, otsched::FlowOnlyOptions());
    Expect(end_ns == 0, "the end stamp waits for the wrapper to go");
  }
  Expect(end_ns > 0, "dropping the wrapper stamps the end");
  Expect(timed.flows.flow == plain.flows.flow, "the wrapper changes no flow");
  const auto layers = recorder.by_name();
  Expect(layers.count("sched.pick") == 1 && layers.at("sched.pick").count > 0 &&
             layers.count("sched.on_arrival") == 1 && layers.at("sched.on_arrival").count == 4,
         "pick and one on_arrival per job are spans");
}

void TestReport() {
  perfbench::Report report;
  report.add("a.ms", 1.5, "ms", 3);
  report.not_applicable({"b.count"}, "no such layer");
  const std::string json = report.to_json();
  Expect(json.find("\"a.ms\": {\"value\": 1.5, \"unit\": \"ms\", \"samples\": 3}") !=
             std::string::npos,
         "a metric carries its unit and sample count");
  Expect(json.find("\"b.count\": {\"value\": 0, \"unit\": \"\", \"not_applicable\": "
                   "\"no such layer\"}") != std::string::npos,
         "a not-applicable metric reads 0 and says why");
}

}  // namespace

int main() {
  TestPercentile();
  TestSpeed();
  TestSelfTime();
  TestTimedScheduler();
  TestReport();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
