// Tests for advsim/adaptive.h: the generalized adaptive adversary.
#include "gtest_compat.h"

#include "advsim/adaptive.h"
#include "dag/validate.h"
#include "opt/brute_force.h"
#include "opt/lower_bounds.h"
#include "sched/fifo.h"
#include "sched/list_greedy.h"
#include "sched/round_robin.h"
#include "sim/faults.h"
#include "sim/job_faults.h"
#include "sim/observers.h"
#include "sim/validator.h"

namespace otsched {
namespace {

TEST(AdaptiveAdversary, ProducesConsistentInstanceForFifo) {
  FifoScheduler fifo;
  AdaptiveAdversaryOptions options;
  options.m = 8;
  options.num_jobs = 40;
  const AdaptiveAdversaryResult result =
      RunAdaptiveAdversary(fifo, options);

  // The runner itself validates consistency; double-check here plus
  // structure: every job is an out-forest of m layers, keys wired.
  EXPECT_TRUE(
      ValidateSchedule(result.full_schedule(), result.instance).feasible);
  EXPECT_TRUE(result.instance.all_out_forests());
  EXPECT_EQ(result.instance.job_count(), 40);
  for (const auto& keys : result.keys) {
    EXPECT_EQ(keys.size(), 8u);  // layers_per_job = m
  }
  EXPECT_TRUE(result.flows.all_completed);
  EXPECT_EQ(result.certified_opt_upper, 10);  // m + 2
}

TEST(AdaptiveAdversary, KeyAvoidingReplayMatchesExactly) {
  // Cross-validation mirroring lbsim's: replay the materialized instance
  // with the key-avoiding FIFO tie-break (the realization of "arbitrary
  // FIFO against this adversary" on a fixed instance).  Per-slot counts
  // and layer completion times then coincide with the adaptive run, so
  // flows match exactly.  The replay runs on SimDriver (which also holds
  // the layer gate) AND on the independent ReferenceSimulate oracle.
  using EngineFn = SimResult (*)(const Instance&, int, Scheduler&,
                                 const RunContext&);
  for (int m : {4, 8}) {
    FifoScheduler adaptive_fifo;
    AdaptiveAdversaryOptions options;
    options.m = m;
    options.num_jobs = 25;
    const AdaptiveAdversaryResult adaptive =
        RunAdaptiveAdversary(adaptive_fifo, options);

    for (const EngineFn engine : {&Simulate, &ReferenceSimulate}) {
      FifoScheduler::Options avoid;
      avoid.tie_break = FifoTieBreak::kAvoidMarked;
      avoid.deprioritize = [&adaptive](JobId job, NodeId node) {
        const auto& keys = adaptive.keys[static_cast<std::size_t>(job)];
        return std::find(keys.begin(), keys.end(), node) != keys.end();
      };
      FifoScheduler replay_fifo(std::move(avoid));
      const SimResult replay = engine(adaptive.instance, m, replay_fifo, {});
      for (JobId i = 0; i < adaptive.instance.job_count(); ++i) {
        EXPECT_EQ(replay.flows.flow[static_cast<std::size_t>(i)],
                  adaptive.flows.flow[static_cast<std::size_t>(i)])
            << "m=" << m << " job " << i
            << (engine == &Simulate ? " [Simulate]" : " [ReferenceSimulate]");
      }
    }
  }
}

TEST(AdaptiveAdversary, ObliviousReplayCanOnlyDoBetter) {
  // Without the adversary in the loop, arbitrary FIFO on the FIXED
  // instance may stumble onto keys early and finish sooner — the
  // adaptive run is the worst case over tie-breaks.
  FifoScheduler adaptive_fifo;
  AdaptiveAdversaryOptions options;
  options.m = 8;
  options.num_jobs = 40;
  const AdaptiveAdversaryResult adaptive =
      RunAdaptiveAdversary(adaptive_fifo, options);

  FifoScheduler replay_fifo;
  const SimResult replay = Simulate(adaptive.instance, 8, replay_fifo);
  EXPECT_LE(replay.flows.max_flow, adaptive.max_flow);
}

TEST(AdaptiveAdversary, CertificateHoldsOnTinyInstance) {
  // m=2: 2 layers of 3 subjobs per job, gap 4.  Brute-force the true OPT
  // of a small materialized instance and check it within the
  // certificate.
  FifoScheduler fifo;
  AdaptiveAdversaryOptions options;
  options.m = 2;
  options.num_jobs = 3;
  const AdaptiveAdversaryResult result = RunAdaptiveAdversary(fifo, options);
  ASSERT_LE(result.instance.total_work(), 30);
  const Time opt = BruteForceOpt(result.instance, 2);
  EXPECT_LE(opt, result.certified_opt_upper);
  EXPECT_GE(opt, MaxFlowLowerBound(result.instance, 2));
}

TEST(AdaptiveAdversary, HurtsEveryNonClairvoyantBaseline) {
  // The generalized construction should push every non-clairvoyant
  // policy visibly above the certificate (how MUCH is experiment E16).
  AdaptiveAdversaryOptions options;
  options.m = 16;
  options.num_jobs = 120;

  FifoScheduler fifo;
  ListGreedyScheduler greedy(3);
  RoundRobinScheduler equi;
  for (Scheduler* scheduler :
       {static_cast<Scheduler*>(&fifo), static_cast<Scheduler*>(&greedy),
        static_cast<Scheduler*>(&equi)}) {
    const AdaptiveAdversaryResult result =
        RunAdaptiveAdversary(*scheduler, options);
    const double ratio =
        static_cast<double>(result.max_flow) /
        static_cast<double>(result.certified_opt_upper);
    EXPECT_GT(ratio, 1.3) << scheduler->name();
  }
}

TEST(AdaptiveAdversaryDeath, RejectsClairvoyantSchedulers) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  FifoScheduler::Options lpf;
  lpf.tie_break = FifoTieBreak::kLpfHeight;
  FifoScheduler clairvoyant(std::move(lpf));
  AdaptiveAdversaryOptions options;
  options.m = 4;
  options.num_jobs = 2;
  EXPECT_DEATH(RunAdaptiveAdversary(clairvoyant, options),
               "non-clairvoyant");
}

TEST(AdaptiveAdversary, KeysAreTheLastFinishedSubjobs) {
  FifoScheduler fifo;
  AdaptiveAdversaryOptions options;
  options.m = 4;
  options.num_jobs = 6;
  const AdaptiveAdversaryResult result = RunAdaptiveAdversary(fifo, options);

  // Recompute per-node completion slots from the schedule and check each
  // key completed no earlier than every other subjob of its layer.
  for (JobId j = 0; j < result.instance.job_count(); ++j) {
    std::vector<Time> done(
        static_cast<std::size_t>(result.instance.job(j).dag().node_count()),
        kNoTime);
    for (Time t = 1; t <= result.full_schedule().horizon(); ++t) {
      for (const SubjobRef& ref : result.full_schedule().at(t)) {
        if (ref.job == j) done[static_cast<std::size_t>(ref.node)] = t;
      }
    }
    const int width = 5;  // m + 1
    for (std::size_t layer = 0;
         layer < result.keys[static_cast<std::size_t>(j)].size(); ++layer) {
      const NodeId key = result.keys[static_cast<std::size_t>(j)][layer];
      for (NodeId v = static_cast<NodeId>(layer) * width;
           v < static_cast<NodeId>(layer + 1) * width; ++v) {
        EXPECT_LE(done[static_cast<std::size_t>(v)],
                  done[static_cast<std::size_t>(key)])
            << "job " << j << " layer " << layer;
      }
    }
  }
}

// ---- fault axes (the adversary runs on SimDriver's slot loop) ----

/// Captures the run's SimStats and reconciles the event stream: the sum
/// of kRollback losses and the number of executed picks.
class FaultLedger final : public RunObserver {
 public:
  void on_slot_batch(const EngineBackend& engine,
                     std::span<const SlotEvent> events) override {
    (void)engine;
    for (const SlotEvent& event : events) {
      if (event.kind == SlotEvent::Kind::kRollback) wasted += event.value;
      if (event.kind == SlotEvent::Kind::kExecute) ++executes;
    }
  }
  void on_finish(const SimResult& result) override { stats = result.stats; }
  bool wants_pick_timing() const override { return false; }

  std::int64_t wasted = 0;
  std::int64_t executes = 0;
  SimStats stats;
};

JobFaultSpec ArmedCrashes(const char* spec, const char* checkpoint) {
  std::string error;
  std::optional<JobFaultSpec> parsed = ParseJobFaultSpec(spec, &error);
  EXPECT_TRUE(parsed.has_value()) << error;
  EXPECT_TRUE(ParseCheckpointPolicyInto(checkpoint, &parsed.value(), &error))
      << error;
  return parsed.value();
}

TEST(AdaptiveAdversary, ProcessorFaultCountersMatchTheCapacitySeries) {
  std::string error;
  const std::optional<FaultSpec> blip =
      ParseFaultSpec("random-blip:7:0.3", &error);
  ASSERT_TRUE(blip.has_value()) << error;
  AdaptiveAdversaryOptions options;
  options.m = 6;
  options.num_jobs = 30;
  MetricsRegistry registry;
  MetricsObserver::Options metric_options;
  metric_options.record_pick_times = false;
  MetricsObserver observer(registry, metric_options);
  SimOptions sim_options = FlowOnlyOptions();
  sim_options.faults = *blip;
  FifoScheduler fifo;
  const AdaptiveAdversaryResult result = RunAdaptiveAdversary(
      fifo, options, RunContext{sim_options, &observer});
  ASSERT_TRUE(result.flows.all_completed);

  // Replay the capacity step function over every visited slot (one
  // slot.busy sample each) and recount what the counters claim.
  const Series& capacity = registry.all_series().at("slot.capacity");
  const Series& visited = registry.all_series().at("slot.busy");
  std::int64_t faulted = 0;
  std::int64_t shortfall = 0;
  std::size_t step = 0;
  std::int64_t current = options.m;
  for (const std::int64_t slot : visited.slots()) {
    while (step < capacity.slots().size() && capacity.slots()[step] <= slot) {
      current = capacity.values()[step++];
    }
    if (current < options.m) {
      ++faulted;
      shortfall += options.m - current;
    }
  }
  EXPECT_GT(faulted, 0);
  EXPECT_EQ(registry.counters().at("faults.faulted_slots").value(), faulted);
  EXPECT_EQ(registry.counters().at("faults.capacity_shortfall").value(),
            shortfall);
}

TEST(AdaptiveAdversary, ArmedSilentJobFaultsAreBitIdenticalToHealthy) {
  AdaptiveAdversaryOptions options;
  options.m = 5;
  options.num_jobs = 24;
  auto run = [&options](const SimOptions& sim_options,
                        MetricsRegistry& registry) {
    MetricsObserver::Options metric_options;
    metric_options.record_pick_times = false;
    MetricsObserver observer(registry, metric_options);
    FifoScheduler fifo;
    return RunAdaptiveAdversary(fifo, options,
                                RunContext{sim_options, &observer});
  };
  MetricsRegistry healthy_registry;
  const AdaptiveAdversaryResult healthy =
      run(FlowOnlyOptions(), healthy_registry);
  SimOptions armed_options = FlowOnlyOptions();
  armed_options.job_faults =
      ArmedCrashes("random-crash:3:0", "every-slots:4");
  MetricsRegistry armed_registry;
  const AdaptiveAdversaryResult armed = run(armed_options, armed_registry);

  EXPECT_EQ(armed.flows.flow, healthy.flows.flow);
  EXPECT_EQ(armed.flows.completion, healthy.flows.completion);
  EXPECT_EQ(armed.keys, healthy.keys);
  // Commits are bookkeeping: an armed run commits on every layer release,
  // finish and checkpoint interval, a healthy one never.  Everything
  // else in the registry must agree byte for byte.
  EXPECT_GT(armed_registry.counter("faults.checkpoints").value(), 0);
  armed_registry.counter("faults.checkpoints").set(0);
  armed_registry.series("work.committed_frontier") = Series();
  EXPECT_EQ(armed_registry.to_json(), healthy_registry.to_json());
}

TEST(AdaptiveAdversary, CrashesWithIntervalCheckpointsFinishAndReconcile) {
  AdaptiveAdversaryOptions options;
  options.m = 6;
  options.num_jobs = 30;
  SimOptions sim_options = FlowOnlyOptions();
  sim_options.job_faults = ArmedCrashes("random-crash:11:0.2", "every-slots:3");
  FaultLedger ledger;
  FifoScheduler fifo;
  const AdaptiveAdversaryResult result =
      RunAdaptiveAdversary(fifo, options, RunContext{sim_options, &ledger});

  EXPECT_TRUE(result.flows.all_completed);
  const NodeId width = options.m + 1;
  for (const std::vector<NodeId>& keys : result.keys) {
    ASSERT_EQ(keys.size(), static_cast<std::size_t>(options.m));
    for (std::size_t layer = 0; layer < keys.size(); ++layer) {
      EXPECT_GE(keys[layer], static_cast<NodeId>(layer) * width);
      EXPECT_LT(keys[layer], static_cast<NodeId>(layer + 1) * width);
    }
  }
  const std::int64_t work = result.instance.total_work();
  EXPECT_GT(ledger.stats.job_rollbacks, 0);
  EXPECT_GT(ledger.stats.wasted_subjob_slots, 0);
  EXPECT_EQ(ledger.wasted, ledger.stats.wasted_subjob_slots);
  EXPECT_EQ(ledger.stats.executed_subjobs, work);
  EXPECT_EQ(ledger.executes, work + ledger.stats.wasted_subjob_slots);
  EXPECT_EQ(ledger.stats.idle_processor_slots,
            options.m * ledger.stats.horizon - ledger.executes);
}

}  // namespace
}  // namespace otsched
