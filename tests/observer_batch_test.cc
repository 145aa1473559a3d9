// Tests for the batched SlotEvent delivery contract (sim/observer.h):
// native on_slot_batch consumption and the default per-pick replay must
// produce identical traces for every registry policy on every engine,
// and the ring-buffer flush discipline (pre-execution, end of slot,
// buffer-full) must hold down to a capacity of one record.
#include "gtest_compat.h"

#include <string>
#include <vector>

#include "advsim/adaptive.h"
#include "dag/builders.h"
#include "gen/arrivals.h"
#include "gen/random_trees.h"
#include "sched/fifo.h"
#include "sched/registry.h"
#include "sim/engine.h"
#include "sim/observers.h"
#include "sim/trace.h"

namespace otsched {
namespace {

Instance MixedInstance(std::uint64_t seed, int jobs) {
  Rng rng(seed);
  return MakePoissonArrivals(
      jobs, 0.25,
      [](std::int64_t i, Rng& r) {
        return MakeTree(static_cast<TreeFamily>(i % 4),
                        static_cast<NodeId>(6 + r.next_below(18)), r);
      },
      rng);
}

/// Forwards every fine-grained hook to a target WITHOUT overriding
/// on_slot_batch, so the engine's batches go through RunObserver's
/// default replay adapter before reaching the target.  Wrapping a sink
/// in this is exactly "per-pick delivery": comparing a wrapped sink
/// against a bare one proves the replay and the native batch path are
/// observationally identical.
class ReplayThroughFineHooks final : public RunObserver {
 public:
  explicit ReplayThroughFineHooks(RunObserver& target) : target_(target) {}

  void on_run_begin(const EngineBackend& engine) override {
    target_.on_run_begin(engine);
  }
  void on_slot_begin(Time slot, const EngineBackend& engine) override {
    target_.on_slot_begin(slot, engine);
  }
  void on_arrival(Time slot, JobId job) override {
    target_.on_arrival(slot, job);
  }
  void on_capacity_change(Time slot, int capacity) override {
    target_.on_capacity_change(slot, capacity);
  }
  void on_pick(Time slot, const EngineBackend& engine,
               std::span<const SubjobRef> picks,
               double pick_seconds) override {
    target_.on_pick(slot, engine, picks, pick_seconds);
  }
  void on_execute(Time slot, SubjobRef ref) override {
    target_.on_execute(slot, ref);
  }
  void on_complete(Time slot, JobId job) override {
    target_.on_complete(slot, job);
  }
  void on_finish(const SimResult& result) override {
    target_.on_finish(result);
  }
  bool wants_pick_timing() const override {
    return target_.wants_pick_timing();
  }
  // on_slot_batch deliberately NOT overridden: the default replays.

 private:
  RunObserver& target_;
};

/// Copies every delivered batch verbatim for boundary assertions.
class BatchRecorder final : public RunObserver {
 public:
  void on_slot_batch(const EngineBackend& engine,
                     std::span<const SlotEvent> events) override {
    (void)engine;
    batches_.emplace_back(events.begin(), events.end());
  }
  bool wants_pick_timing() const override { return false; }

  const std::vector<std::vector<SlotEvent>>& batches() const {
    return batches_;
  }
  std::vector<SlotEvent> stream() const {
    std::vector<SlotEvent> all;
    for (const auto& batch : batches_) {
      all.insert(all.end(), batch.begin(), batch.end());
    }
    return all;
  }

 private:
  std::vector<std::vector<SlotEvent>> batches_;
};

bool SameEvent(const SlotEvent& a, const SlotEvent& b) {
  // `seconds` is excluded: pick wall time is nondeterministic (and 0
  // whenever no attached observer wants it).
  return a.kind == b.kind && a.job == b.job && a.node == b.node &&
         a.value == b.value && a.slot == b.slot && a.width == b.width;
}

using EngineFn = SimResult (*)(const Instance&, int, Scheduler&,
                               const RunContext&);

// ---- native vs replayed delivery ----

TEST(BatchDelivery, NativeAndReplayedSinksAgreeForAllPolicies) {
  const Instance instance = MixedInstance(404, 6);
  const struct {
    const char* name;
    EngineFn run;
  } engines[] = {{"Simulate", &Simulate},
                 {"ReferenceSimulate", &ReferenceSimulate}};
  for (const PolicySpec& spec : AllPolicies()) {
    if (!PolicyApplies(spec, instance.all_out_forests(),
                       /*semi_batched_certified=*/false, /*m=*/4)) {
      continue;
    }
    for (const auto& engine : engines) {
      for (RecordMode record : {RecordMode::kFull, RecordMode::kFlowOnly}) {
        auto scheduler = spec.make(13);

        EventTrace native_trace;
        StreamingTraceObserver native_tracer(native_trace);
        EventTrace replayed_trace;
        StreamingTraceObserver replayed_tracer_target(replayed_trace);
        ReplayThroughFineHooks replayed_tracer(replayed_tracer_target);

        // One run, both delivery styles attached: any divergence is the
        // adapter's fault, not run-to-run nondeterminism.
        ObserverList observers;
        observers.add(&native_tracer);
        observers.add(&replayed_tracer);
        SimOptions options;
        options.record = record;
        RunContext context{options, &observers};
        const SimResult result =
            engine.run(instance, 4, *scheduler, context);

        const std::string label = std::string(spec.name) + " on " +
                                  engine.name +
                                  (record == RecordMode::kFull
                                       ? " [full]"
                                       : " [flow-only]");
        EXPECT_EQ(FirstDivergence(native_trace, replayed_trace), -1)
            << label;
        if (record == RecordMode::kFull) {
          EXPECT_EQ(FirstDivergence(
                        native_trace,
                        DeriveTrace(result.full_schedule(), instance)),
                    -1)
              << label;
        }
      }
    }
  }
}

TEST(BatchDelivery, AdaptiveEngineAgreesAcrossDeliveryStyles) {
  AdaptiveAdversaryOptions options;
  options.m = 4;
  options.num_jobs = 5;
  FifoScheduler fifo;

  EventTrace native_trace;
  StreamingTraceObserver native_tracer(native_trace);
  EventTrace replayed_trace;
  StreamingTraceObserver replayed_tracer_target(replayed_trace);
  ReplayThroughFineHooks replayed_tracer(replayed_tracer_target);

  ObserverList observers;
  observers.add(&native_tracer);
  observers.add(&replayed_tracer);
  RunContext context;
  context.observer = &observers;
  const AdaptiveAdversaryResult result =
      RunAdaptiveAdversary(fifo, options, context);

  EXPECT_EQ(FirstDivergence(native_trace, replayed_trace), -1);
  EXPECT_EQ(FirstDivergence(native_trace, DeriveTrace(result.full_schedule(),
                                                      result.instance)),
            -1);
}

// ---- flush discipline ----

TEST(BatchDelivery, FlushBoundariesHoldDownToCapacityOne) {
  const Instance instance = MixedInstance(88, 6);
  const struct {
    const char* name;
    EngineFn run;
  } engines[] = {{"Simulate", &Simulate},
                 {"ReferenceSimulate", &ReferenceSimulate}};
  for (const auto& engine : engines) {
    // The reference stream: one engine pass at the default capacity.
    FifoScheduler baseline_fifo;
    BatchRecorder baseline;
    RunContext baseline_context{FlowOnlyOptions(), &baseline};
    engine.run(instance, 3, baseline_fifo, baseline_context);
    const std::vector<SlotEvent> want = baseline.stream();
    ASSERT_FALSE(want.empty()) << engine.name;

    for (std::size_t capacity : {std::size_t{1}, std::size_t{2},
                                 std::size_t{3}, std::size_t{5},
                                 std::size_t{8}}) {
      FifoScheduler fifo;
      BatchRecorder recorder;
      RunContext context{FlowOnlyOptions(), &recorder, capacity};
      engine.run(instance, 3, fifo, context);
      const std::string label =
          std::string(engine.name) + " capacity=" + std::to_string(capacity);

      for (const auto& batch : recorder.batches()) {
        ASSERT_FALSE(batch.empty()) << label << ": empty flush";
        // Batches never span slots.
        for (const SlotEvent& event : batch) {
          EXPECT_EQ(event.slot, batch.front().slot) << label;
        }
        // A pick block (kPickBegin + its kExecute records) is never
        // split: the `value` executes follow their kPickBegin in the
        // SAME batch, contiguously, even when the block alone exceeds
        // the ring capacity (m=3 > capacity=1).
        for (std::size_t i = 0; i < batch.size(); ++i) {
          if (batch[i].kind != SlotEvent::Kind::kPickBegin) continue;
          const auto picked = static_cast<std::size_t>(batch[i].value);
          ASSERT_LE(i + picked, batch.size()) << label << ": split block";
          for (std::size_t k = 1; k <= picked; ++k) {
            EXPECT_EQ(batch[i + k].kind, SlotEvent::Kind::kExecute)
                << label;
            EXPECT_EQ(batch[i + k].slot, batch[i].slot) << label;
          }
        }
        // Oversized batches happen only to keep a block contiguous.
        if (batch.size() > capacity) {
          EXPECT_EQ(batch.front().kind, SlotEvent::Kind::kPickBegin)
              << label << ": oversized batch without a pick block";
        }
      }

      // The capacity changes WHERE the stream is cut, never WHAT it
      // carries: the concatenation is identical to the default-capacity
      // stream record for record.
      const std::vector<SlotEvent> got = recorder.stream();
      ASSERT_EQ(got.size(), want.size()) << label;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(SameEvent(got[i], want[i])) << label << " event " << i;
      }
    }
  }
}

TEST(BatchDelivery, PickBeginCarriesAliveAndReadyWidth) {
  Instance instance;
  instance.add_job(Job(MakeChain(2), 0));
  instance.add_job(Job(MakeStar(4), 0));
  FifoScheduler fifo;
  BatchRecorder recorder;
  RunContext context{SimOptions{}, &recorder};
  const SimResult result = Simulate(instance, 2, fifo, context);

  std::int64_t executes = 0;
  std::int64_t slots = 0;
  for (const SlotEvent& event : recorder.stream()) {
    switch (event.kind) {
      case SlotEvent::Kind::kSlotBegin:
        ++slots;
        break;
      case SlotEvent::Kind::kPickBegin:
        // job = alive count, width = total ready width, value = picks.
        EXPECT_GE(event.job, 1);
        EXPECT_LE(event.job, instance.job_count());
        EXPECT_GE(event.width, event.value);
        EXPECT_EQ(event.seconds, 0.0);  // recorder opted out of timing
        break;
      case SlotEvent::Kind::kExecute:
        ++executes;
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(executes, result.stats.executed_subjobs);
  EXPECT_EQ(slots, result.stats.busy_slots);
}

}  // namespace
}  // namespace otsched
