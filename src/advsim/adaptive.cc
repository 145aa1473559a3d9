#include "advsim/adaptive.h"

#include <algorithm>

#include "common/assert.h"
#include "sim/driver.h"
#include "sim/validator.h"

namespace otsched {

const Schedule& AdaptiveAdversaryResult::full_schedule() const {
  OTSCHED_CHECK(schedule.has_value(),
                "full_schedule() on a flow-only adversary run (rerun with "
                "RecordMode::kFull)");
  return *schedule;
}

AdaptiveAdversaryResult RunAdaptiveAdversary(
    Scheduler& scheduler, const AdaptiveAdversaryOptions& options,
    const RunContext& context) {
  OTSCHED_CHECK(!scheduler.requires_clairvoyance(),
                "the adaptive adversary only plays non-clairvoyant "
                "schedulers; '"
                    << scheduler.name() << "' declares clairvoyance");
  const int m = options.m;
  const std::int64_t num_jobs = options.num_jobs;
  const int layers = options.layers_per_job > 0 ? options.layers_per_job : m;
  const NodeId width = m + 1;
  const Time gap = options.gap > 0 ? options.gap : m + 2;
  OTSCHED_CHECK(m >= 2);
  OTSCHED_CHECK(num_jobs >= 1);
  OTSCHED_CHECK(layers >= 1);

  RunContext run = context;
  run.options.clairvoyance = ClairvoyanceOverride::kDeny;
  SimDriver driver(m, scheduler, run);

  AdaptiveAdversaryResult result;
  result.keys.resize(static_cast<std::size_t>(num_jobs));
  // Finished jobs hand over their keys, then free their driver memory.
  auto collect_keys = [&] {
    for (const SimDriver::FinishedJob& done : driver.take_finished()) {
      const std::span<const NodeId> keys = driver.layer_keys(done.job);
      result.keys[static_cast<std::size_t>(done.job)].assign(keys.begin(),
                                                             keys.end());
    }
    driver.retire_finished();
  };

  // Job j is submitted once the driver has simulated every slot up to
  // its release, so only the live jobs are ever loaded.  advance() counts
  // a fast-forward over an idle stretch as one slot; such a jump can only
  // land on the previous release + 1, so the slot budget to this release
  // runs from the later of now() and the previous release.
  // Every gated job shares one edgeless DAG.
  const Job shape(Dag::Builder(layers * width).build(), 0);
  Time previous_release = 0;
  for (JobId j = 0; j < num_jobs; ++j) {
    const Time release = j * gap;
    const Time budget = release - std::max(driver.now(), previous_release);
    if (budget > 0) driver.advance(budget);
    driver.submit(Job(shape, release), width);
    previous_release = release;
    collect_keys();
  }
  SimResult sim = driver.drain();
  collect_keys();

  // Materialize the instance with the chosen keys wired in.
  for (JobId j = 0; j < num_jobs; ++j) {
    const std::vector<NodeId>& keys = result.keys[static_cast<std::size_t>(j)];
    OTSCHED_CHECK(static_cast<int>(keys.size()) == layers);
    Dag::Builder builder(layers * width);
    for (int layer = 0; layer + 1 < layers; ++layer) {
      const NodeId next_base = (layer + 1) * width;
      for (NodeId v = next_base; v < next_base + width; ++v) {
        builder.add_edge(keys[static_cast<std::size_t>(layer)], v);
      }
    }
    result.instance.add_job(Job(std::move(builder).build(), j * gap,
                                "adaptive-" + std::to_string(j)));
  }
  result.instance.set_name("adaptive-adversary-m" + std::to_string(m));

  result.schedule = std::move(sim.schedule);
  if (result.schedule.has_value()) {
    // The produced schedule must be a feasible schedule of the
    // materialized instance — this is the consistency proof of the
    // adversary.  Flow-only runs skip it along with the schedule; every
    // pick was still validated against the gated ready sets.
    const ValidationReport report =
        ValidateSchedule(*result.schedule, result.instance);
    OTSCHED_CHECK(report.feasible,
                  "adaptive adversary inconsistency: " << report.violation);
  }
  result.flows = std::move(sim.flows);
  result.max_flow = result.flows.max_flow;
  result.certified_opt_upper = gap;
  return result;
}

}  // namespace otsched
