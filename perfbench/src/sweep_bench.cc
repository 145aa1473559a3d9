// The faulted sweep: the entry `otsched sweep` uses
// (BatchRunner::RunInstrumentedSimulations + MergedMetrics) over a
// sparse 2048-job tree instance, m in {4, 16} x 8 policy seeds, with
// random crashes rolled back to every-8-slot checkpoints.
#include <algorithm>
#include <map>
#include <memory>

#include "analysis/sweep.h"
#include "daemon.h"
#include "jobs.h"
#include "job/serialize.h"
#include "sched/registry.h"
#include "sim/batch_runner.h"
#include "spans.h"
#include "speed.h"
#include "stats.h"
#include "timed_scheduler.h"
#include "workloads.h"

namespace perfbench {
namespace {

using otsched::Instance;
using otsched::Scheduler;

constexpr int kJobs = 2048;
constexpr otsched::Time kReleaseGap = 8;  // sparse: one 16-node tree per 8 slots
constexpr int kSeeds = 8;
constexpr std::size_t kSetupEvery = 4;  // sweeps per timed set-up
const char* const kPolicy = "fifo/random";

/// Generates the instance and round-trips it through the instance text
/// format, as `otsched sweep` loads it from a file.  Job::metrics() fills
/// its cache lazily and without a lock, so cells sharing a fresh
/// instance race on the first fill (a double free under ASan); set-up
/// fills every job's cache before the instance is shared.
Instance MakeInstance(std::uint64_t seed) {
  Instance instance;
  instance.set_name("perfbench-sparse-trees");
  const std::vector<otsched::Dag> jobs = MakeTreeJobs(seed, kJobs, 16);
  for (int k = 0; k < kJobs; ++k) {
    instance.add_job(otsched::Job(jobs[static_cast<std::size_t>(k)], k * kReleaseGap));
  }
  Instance loaded = otsched::InstanceFromText(otsched::InstanceToText(instance));
  loaded.max_span();
  return loaded;
}

otsched::SimOptions Options(std::uint64_t seed, bool faulted) {
  otsched::SimOptions options = otsched::FlowOnlyOptions();
  if (faulted) {
    options.job_faults.model = otsched::JobFaultModel::kRandomCrash;
    options.job_faults.seed = seed;
    options.job_faults.rate = 0.01;
    options.job_faults.checkpoint = otsched::CheckpointPolicy::kEveryKSlots;
    options.job_faults.checkpoint_every = 8;
  }
  return options;
}

std::uint64_t PolicySeed(std::size_t cell) { return cell % kSeeds + 1; }

}  // namespace

bool IsSweepWorkload(const std::string& name) { return name == "sweep_job_faults"; }

bool RunSweepWorkload(const RunOptions& options, Report* report) {
  const Instance instance = MakeInstance(options.seed);
  std::vector<std::pair<const Instance*, int>> cells;
  for (const int m : {4, 16}) {
    for (int s = 0; s < kSeeds; ++s) cells.emplace_back(&instance, m);
  }
  // Half the CPUs, at most 2: on a shared 4-vCPU host, 4 workers scale
  // only ~1.45x over 2 and read about twice as unsteady from run to run.
  // The process moves to the last `workers` allowed CPUs (the first
  // carries most of the rest of the system's work), so the workers run
  // on the CPUs the probe reads.
  const std::vector<int>& allowed = options.cpus;
  const std::size_t workers = std::max<std::size_t>(1, std::min<std::size_t>(allowed.size(), 4) / 2);
  const std::vector<int> cpus(allowed.end() - static_cast<std::ptrdiff_t>(std::min(workers, allowed.size())),
                              allowed.end());
  PinToCpus(cpus);
  const otsched::BatchRunner runner(workers);
  const otsched::SimOptions faulted = Options(options.seed, true);
  otsched::MetricsObserver::Options observer_options;
  observer_options.record_pick_times = false;

  // Measure: whole sweeps until the run's seconds are spent, each after
  // a probe of the workers' CPUs; every kSetupEvery-th also after a
  // set-up — instance generation and load, on a throwaway copy — so
  // set-up samples span the run like the sweeps do.
  std::vector<double> slowdown;
  std::vector<double> setup_s;
  std::vector<double> cell_ms;
  std::vector<double> sweep_s;
  std::vector<double> merge_ms;
  std::vector<double> busy_share;
  std::vector<std::int64_t> first_flows;
  std::vector<otsched::BatchRunner::InstrumentedRun> last_runs;
  std::int64_t rollbacks = 0;
  std::int64_t checkpoints = 0;
  std::int64_t wasted = 0;
  std::int64_t executed = 0;
  const std::int64_t measure_start = SpanRecorder::NowNs();
  while (sweep_s.size() < 3 ||
         SecondsBetween(measure_start, SpanRecorder::NowNs()) + sweep_s.back() <= options.seconds) {
    slowdown.push_back(Slowdown(ProbeMs(cpus)));
    if (sweep_s.size() % kSetupEvery == 0) {
      const std::int64_t setup_start = SpanRecorder::NowNs();
      MakeInstance(options.seed);
      setup_s.push_back(SecondsBetween(setup_start, SpanRecorder::NowNs()) / slowdown.back());
    }
    std::vector<std::int64_t> start_ns(cells.size(), 0);
    std::vector<std::int64_t> end_ns(cells.size(), 0);
    const std::int64_t t0 = SpanRecorder::NowNs();
    std::vector<otsched::BatchRunner::InstrumentedRun> runs = runner.RunInstrumentedSimulations(
        cells,
        [&](std::size_t i) -> std::unique_ptr<Scheduler> {
          start_ns[i] = SpanRecorder::NowNs();
          return std::make_unique<TimedScheduler>(otsched::MakePolicy(kPolicy, PolicySeed(i)),
                                                  nullptr, &end_ns[i]);
        },
        faulted, observer_options);
    const std::int64_t t1 = SpanRecorder::NowNs();
    const otsched::MetricsRegistry merged = otsched::MergedMetrics(runs);
    const std::int64_t t2 = SpanRecorder::NowNs();
    sweep_s.push_back(SecondsBetween(t0, t2));
    merge_ms.push_back(1e3 * SecondsBetween(t1, t2));
    double busy_ms = 0.0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      cell_ms.push_back(1e3 * SecondsBetween(start_ns[i], end_ns[i]));
      busy_ms += 1e3 * SecondsBetween(start_ns[i], end_ns[i]);
    }
    busy_share.push_back(busy_ms / (static_cast<double>(workers) * 1e3 * SecondsBetween(t0, t1)));

    // Checks: every cell completes, the merged counters add up, and the
    // sweep is deterministic across repetitions.
    report->attempted += static_cast<std::int64_t>(cells.size()) + 1;
    rollbacks = checkpoints = wasted = executed = 0;
    std::vector<std::int64_t> flows;
    for (const auto& run : runs) {
      if (!run.result.flows.all_completed) report->fail(1, "a sweep cell left jobs unfinished");
      rollbacks += run.result.stats.job_rollbacks;
      checkpoints += run.result.stats.checkpoints;
      wasted += run.result.stats.wasted_subjob_slots;
      executed += run.result.stats.executed_subjobs;
      flows.push_back(run.result.flows.max_flow);
    }
    const auto counter = merged.counters().find("faults.rollbacks");
    const std::int64_t merged_rollbacks =
        counter == merged.counters().end() ? -1 : counter->second.value();
    if (merged_rollbacks != rollbacks) {
      report->fail(1, "merged faults.rollbacks " + std::to_string(merged_rollbacks) +
                          " != per-cell sum " + std::to_string(rollbacks));
    }
    if (first_flows.empty()) first_flows = flows;
    if (flows != first_flows) report->fail(1, "sweep results differ between repetitions");
    if (rollbacks == 0) report->fail(1, "the faulted sweep rolled nothing back");
    last_runs = std::move(runs);
  }

  // The reference engine must agree on a fixed sample of cells (one per m).
  for (const std::size_t i : {std::size_t{0}, cells.size() - 1}) {
    std::unique_ptr<Scheduler> policy = otsched::MakePolicy(kPolicy, PolicySeed(i));
    const otsched::SimResult reference =
        otsched::ReferenceSimulate(instance, cells[i].second, *policy, faulted);
    const otsched::SimResult& ours = last_runs[i].result;
    report->attempted += 1;
    if (reference.flows.flow != ours.flows.flow || reference.stats.horizon != ours.stats.horizon ||
        reference.stats.job_rollbacks != ours.stats.job_rollbacks ||
        reference.stats.wasted_subjob_slots != ours.stats.wasted_subjob_slots) {
      report->fail(1, "cell " + std::to_string(i) + " disagrees with ReferenceSimulate");
    }
  }

  // End-to-end metrics at reference speed (speed.h): each sweep's
  // figures scaled by the slowdown its probe read, then the median over
  // all sweeps.  The p50 pools every cell of every sweep; the p99 is
  // each sweep's own (its slowest cell), then their median, as on serve.
  const auto sweeps = static_cast<std::int64_t>(sweep_s.size());
  std::vector<double> cells_per_s;
  std::vector<double> jobs_per_s;
  std::vector<double> merge_ref_ms;
  std::vector<double> cell_ref_ms;
  std::vector<double> p99_ms;
  FILE* tsv = std::fopen("sessions.tsv", "w");
  if (tsv != nullptr) std::fprintf(tsv, "probe_ms\tsweep_s\tcell_ms...\n");
  for (std::size_t k = 0; k < sweep_s.size(); ++k) {
    const double slow = slowdown[k];
    cells_per_s.push_back(static_cast<double>(cells.size()) / sweep_s[k] * slow);
    jobs_per_s.push_back(static_cast<double>(cells.size()) * kJobs / sweep_s[k] * slow);
    merge_ref_ms.push_back(merge_ms[k] / slow);
    std::vector<double> sweep_cells_ms;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      sweep_cells_ms.push_back(cell_ms[k * cells.size() + i] / slow);
    }
    p99_ms.push_back(PercentileOf(sweep_cells_ms, 99).value);
    cell_ref_ms.insert(cell_ref_ms.end(), sweep_cells_ms.begin(), sweep_cells_ms.end());
    if (tsv != nullptr) {
      std::fprintf(tsv, "%.6f\t%.6f", slow * kReferenceProbeMs, sweep_s[k]);
      for (std::size_t i = 0; i < cells.size(); ++i) {
        std::fprintf(tsv, "\t%.4f", cell_ms[k * cells.size() + i]);
      }
      std::fprintf(tsv, "\n");
    }
  }
  if (tsv != nullptr) std::fclose(tsv);
  char speed[128];
  std::snprintf(speed, sizeof(speed), "median slowdown %.3f over %lld sweeps (probe %.3f ms)",
                MedianOf(slowdown), static_cast<long long>(sweeps),
                MedianOf(slowdown) * kReferenceProbeMs);
  report->note("host_speed", speed);
  const Percentile p50 = PercentileOf(cell_ref_ms, 50);
  const Percentile p99 = PercentileOf(cell_ref_ms, 99);
  if (!options.trace) {
    report->add("jobs_per_s", MedianOf(jobs_per_s), "1/s", sweeps);
    report->add("latency_p50_ms", p50.value, "ms", static_cast<std::int64_t>(p50.samples));
    report->add("latency_p99_ms", MedianOf(p99_ms), "ms", static_cast<std::int64_t>(p50.samples));
    report->add("setup_s", MedianOf(setup_s), "s", static_cast<std::int64_t>(setup_s.size()));
    report->add("peak_rss_mb", ReadProc("self").hwm_mb, "MB");
    report->add("cells_per_s", MedianOf(cells_per_s), "1/s", sweeps);
    return true;
  }

  // ---- Traced run: per-cell Simulate spans on a fixed sample of cells,
  // each timed three times: healthy vs faulted (rollback cost) and
  // observed vs flow-only (observer cost), one span per cell; then the
  // faulted cell once more with its policy's pick()/on_arrival() as
  // child spans (TimedScheduler), which splits the cell into driver and
  // scheduler time.  Per-slot spans cost about as much as a cheap pick,
  // so the ratios come from the cell-only spans, and that second faulted
  // pass over the first is the tracing overhead.
  // Their times are at reference speed, read by a probe just before.
  const double trace_slow = Slowdown(ProbeMs(cpus));
  SpanRecorder cell_spans(true);
  SpanRecorder sched_spans(true);
  const std::int32_t healthy_span = cell_spans.intern("driver.cell_healthy");
  const std::int32_t faulted_span = cell_spans.intern("driver.cell_faulted");
  const std::int32_t observed_span = cell_spans.intern("observer.cell_observed");
  const std::int32_t traced_span = sched_spans.intern("driver.cell_faulted");
  std::vector<double> rollback_ratio;
  std::vector<double> observer_ratio;
  double healthy_ms = 0.0;
  double faulted_ms = 0.0;
  double observed_ms = 0.0;
  double traced_ms = 0.0;
  std::int64_t faulted_slots = 0;
  std::int64_t faulted_jobs = 0;
  for (const std::size_t i : {std::size_t{0}, std::size_t{kSeeds - 1}, std::size_t{kSeeds},
                              cells.size() - 1}) {
    const int m = cells[i].second;
    for (int rep = 0; rep < 3; ++rep) {
      auto timed = [&](const otsched::RunContext& context, otsched::SimResult* out,
                       SpanRecorder& spans, std::int32_t name, bool trace_policy) {
        std::unique_ptr<Scheduler> policy = otsched::MakePolicy(kPolicy, PolicySeed(i));
        if (trace_policy) policy = std::make_unique<TimedScheduler>(std::move(policy), &spans);
        const std::int64_t start = SpanRecorder::NowNs();
        {
          SpanScope span(spans, name, static_cast<std::int64_t>(i));
          *out = otsched::Simulate(instance, m, *policy, context);
        }
        return 1e3 * SecondsBetween(start, SpanRecorder::NowNs()) / trace_slow;
      };
      otsched::SimResult healthy_result;
      otsched::SimResult faulted_result;
      otsched::SimResult observed_result;
      otsched::SimResult traced_result;
      const double h =
          timed(Options(options.seed, false), &healthy_result, cell_spans, healthy_span, false);
      const double f = timed(faulted, &faulted_result, cell_spans, faulted_span, false);
      otsched::MetricsRegistry registry;
      otsched::MetricsObserver observer(registry, observer_options);
      otsched::RunContext observed_context(faulted);
      observed_context.observer = &observer;
      const double o = timed(observed_context, &observed_result, cell_spans, observed_span, false);
      traced_ms += timed(faulted, &traced_result, sched_spans, traced_span, true);
      healthy_ms += h;
      faulted_ms += f;
      observed_ms += o;
      faulted_slots += faulted_result.stats.horizon;
      faulted_jobs += kJobs;
      const double per_slot_healthy = h / static_cast<double>(std::max<otsched::Time>(healthy_result.stats.horizon, 1));
      const double per_slot_faulted = f / static_cast<double>(std::max<otsched::Time>(faulted_result.stats.horizon, 1));
      rollback_ratio.push_back(per_slot_faulted / per_slot_healthy);
      observer_ratio.push_back(o / f);
      report->attempted += 1;
      if (observed_result.flows.flow != faulted_result.flows.flow ||
          traced_result.flows.flow != faulted_result.flows.flow) {
        report->fail(1, "observed, traced and flow-only cell " + std::to_string(i) + " disagree");
      }
    }
  }
  // The merged registry, merged and rendered as `otsched sweep` writes it.
  std::vector<double> render_us;
  for (int rep = 0; rep < 5; ++rep) {
    const otsched::MetricsRegistry merged = otsched::MergedMetrics(last_runs);
    const std::int64_t start = SpanRecorder::NowNs();
    if (merged.to_json().empty()) report->fail(1, "empty merged metrics document");
    render_us.push_back(1e6 * SecondsBetween(start, SpanRecorder::NowNs()) / trace_slow);
    report->attempted += 1;
  }
  const std::string spans_path = options.workdir + "/spans-" + options.workload;
  cell_spans.write_tsv(spans_path + "-cells.tsv");
  sched_spans.write_tsv(spans_path + "-sched.tsv");

  const std::map<std::string, SpanRecorder::LayerTime> layers_ns = sched_spans.by_name();
  auto total_ns = [&](const std::string& name) {
    const auto it = layers_ns.find(name);
    return it == layers_ns.end() ? 0.0 : it->second.total_ns / trace_slow;
  };
  const double cell_ns = total_ns("driver.cell_faulted");
  const double sched_share = (total_ns("sched.pick") + total_ns("sched.on_arrival")) / cell_ns;
  const double slots = static_cast<double>(std::max<std::int64_t>(faulted_slots, 1));
  const double jobs = static_cast<double>(faulted_jobs);

  const Percentile merge = PercentileOf(merge_ref_ms, 50);
  // Driver and scheduler figures over the sampled faulted cells (the
  // sweep's own configuration); a slot is one slot of the cell's horizon.
  report->add("driver.advance_ns_per_slot", layers_ns.at("driver.cell_faulted").self_ns / trace_slow / slots,
              "ns");
  report->add("driver.slots_per_job", slots / jobs, "count");
  report->add("sched.pick_ns_per_slot", total_ns("sched.pick") / slots, "ns");
  report->add("sched.arrival_ns_per_job", total_ns("sched.on_arrival") / jobs, "ns");
  report->add("sched.pick_share_of_advance", total_ns("sched.pick") / cell_ns, "ratio");
  report->add("driver.rollback_cost_ratio", MedianOf(rollback_ratio), "ratio",
              static_cast<std::int64_t>(rollback_ratio.size()));
  report->add("driver.wasted_share",
              static_cast<double>(wasted) / static_cast<double>(std::max<std::int64_t>(executed + wasted, 1)),
              "ratio");
  report->add("driver.rollbacks", static_cast<double>(rollbacks), "count");
  report->add("driver.checkpoints", static_cast<double>(checkpoints), "count");
  report->add("observer.cost_ratio", MedianOf(observer_ratio), "ratio",
              static_cast<std::int64_t>(observer_ratio.size()));
  report->add("batch.cell_ms_p50", p50.value, "ms", static_cast<std::int64_t>(p50.samples));
  report->add("batch.cell_ms_p99", p99.value, "ms", static_cast<std::int64_t>(p99.samples));
  report->add("batch.worker_busy_share", MedianOf(busy_share), "ratio", sweeps);
  report->add("batch.merge_ms", merge.value, "ms", static_cast<std::int64_t>(merge.samples));
  report->add("batch.cell_failures", static_cast<double>(report->failed), "count");
  report->add("metrics.render_us", MedianOf(render_us), "us",
              static_cast<std::int64_t>(render_us.size()));
  report->add("trace.overhead_share", (traced_ms - faulted_ms) / faulted_ms, "ratio");
  report->not_applicable({"server.cpu_share", "server.cpu_us_per_job", "server.ctx_switches_per_job",
                          "server.syscw_per_job", "server.residual_us_per_job",
                          "protocol.parse_ns_per_line", "protocol.format_ns_per_reply",
                          "protocol.parse_errors", "metrics.scrape_ms_p50", "loadgen.cpu_share"},
                         "no daemon: the sweep runs in process");
  report->not_applicable({"journal.records_per_commit", "journal.commit_ms_p50",
                          "journal.commit_ms_p99", "journal.encode_ns_per_record",
                          "journal.bytes_per_job", "journal.rotations", "journal.read_mb_per_s",
                          "journal.replay_s"},
                         "no journal on this workload");
  report->not_applicable({"driver.submit_ns_per_job", "driver.finish_ns_per_job",
                          "driver.peak_arena_nodes"},
                         "Simulate submits the whole instance at once and does not expose its arena");

  // The bounding layer of a sweep: cell time split into the healthy
  // slot loop, the rollback/checkpoint phases, the policy, the observer
  // batch path, idle workers and the merge.
  std::vector<double> sweep_ref_ms;
  for (std::size_t k = 0; k < sweep_s.size(); ++k) sweep_ref_ms.push_back(1e3 * sweep_s[k] / slowdown[k]);
  const double sweep_ms = MedianOf(sweep_ref_ms);
  const double cell_total_ms = MedianOf(cell_ref_ms) * static_cast<double>(cells.size());
  const double scale = cell_total_ms / std::max(observed_ms, 1e-9);
  // The policy's share of a faulted cell, from the traced pass.
  const double sched_ms = faulted_ms * sched_share;
  const std::vector<std::pair<std::string, double>> layers = {
      {"sim/driver (healthy slot loop)", (healthy_ms - sched_ms) * scale},
      {"sim/driver (rollback + checkpoint)", (faulted_ms - healthy_ms) * scale},
      {"sched", sched_ms * scale},
      {"sim/observers", (observed_ms - faulted_ms) * scale},
      {"sim/batch_runner (idle workers)",
       std::max(0.0, static_cast<double>(workers) * sweep_ms - cell_total_ms)},
      {"common/metrics (merge)", MedianOf(merge_ref_ms) * static_cast<double>(workers)}};
  double total = 0.0;
  for (const auto& layer : layers) total += std::max(layer.second, 0.0);
  const auto top = std::max_element(layers.begin(), layers.end(),
                                     [](const auto& a, const auto& b) { return a.second < b.second; });
  char text[256];
  std::snprintf(text, sizeof(text), "%s (%.0f%% of worker time per sweep)", top->first.c_str(),
                100.0 * top->second / std::max(total, 1e-9));
  report->note("bounding_layer", text);
  std::string breakdown;
  for (const auto& layer : layers) {
    std::snprintf(text, sizeof(text), "%s%s %.1f worker-ms/sweep", breakdown.empty() ? "" : "; ",
                  layer.first.c_str(), layer.second);
    breakdown += text;
  }
  report->note("layer_ms_per_sweep", breakdown);
  return true;
}

}  // namespace perfbench
