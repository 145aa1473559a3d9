#include "core/alg_a.h"

#include <algorithm>

#include "common/assert.h"

namespace otsched {

AlgAPlanner::AlgAPlanner(int m, int alpha, Time window,
                         bool allow_general_dags)
    : m_(m),
      alpha_(alpha),
      p_(m / alpha),
      window_(window),
      allow_general_dags_(allow_general_dags) {
  OTSCHED_CHECK(alpha >= 2, "Algorithm A needs alpha >= 2, got " << alpha);
  OTSCHED_CHECK(m % alpha == 0,
                "alpha must divide m (Section 5): m=" << m
                                                      << " alpha=" << alpha);
  OTSCHED_CHECK(p_ >= 1);
  OTSCHED_CHECK(window >= 1, "window must be positive");
}

void AlgAPlanner::add_batch(const SchedulerView& view,
                            std::span<const JobId> members,
                            Time visible_release) {
  OTSCHED_CHECK(visible_release % window_ == 0,
                "batch release " << visible_release
                                 << " is not a multiple of the window "
                                 << window_);
  OTSCHED_CHECK(batches_.empty() ||
                    batches_.back()->visible_release < visible_release,
                "batches must be added in release order");

  auto plan = std::make_unique<PlanJob>();
  plan->visible_release = visible_release;

  // The union of the members' unexecuted sub-DAGs, built straight into
  // CSR: members in order, each member's unexecuted nodes by increasing
  // id, children in dag.children order.  A child runs only after all its
  // parents, so a member's unexecuted part is closed under descendants:
  // every plan node keeps its height in the whole job, and the job's
  // cached metrics replace a per-batch metrics pass.
  std::int64_t total = 0;
  for (JobId id : members) total += view.remaining_work(id);
  std::vector<std::int64_t> offsets;
  std::vector<NodeId> targets;
  std::vector<std::int32_t> height;
  offsets.reserve(static_cast<std::size_t>(total) + 1);
  targets.reserve(static_cast<std::size_t>(total));
  height.reserve(static_cast<std::size_t>(total));
  plan->refs.reserve(static_cast<std::size_t>(total));
  offsets.push_back(0);
  for (JobId id : members) {
    const Dag& dag = view.dag(id);
    const DagMetrics& metrics = view.metrics(id);
    const auto base = static_cast<NodeId>(plan->refs.size());
    if (view.done_work(id) == 0) {
      // Untouched job: its plan copy is its own CSR shifted by `base`.
      for (NodeId v = 0; v < dag.node_count(); ++v) {
        plan->refs.push_back(SubjobRef{id, v});
        for (NodeId c : dag.children(v)) targets.push_back(base + c);
        offsets.push_back(static_cast<std::int64_t>(targets.size()));
      }
      height.insert(height.end(), metrics.height.begin(),
                    metrics.height.end());
    } else {
      plan_id_.assign(static_cast<std::size_t>(dag.node_count()),
                      kInvalidNode);
      for (NodeId v = 0; v < dag.node_count(); ++v) {
        if (view.executed(id, v)) continue;
        plan_id_[static_cast<std::size_t>(v)] =
            static_cast<NodeId>(plan->refs.size());
        plan->refs.push_back(SubjobRef{id, v});
      }
      for (NodeId v = 0; v < dag.node_count(); ++v) {
        if (plan_id_[static_cast<std::size_t>(v)] == kInvalidNode) continue;
        for (NodeId c : dag.children(v)) {
          const NodeId pc = plan_id_[static_cast<std::size_t>(c)];
          OTSCHED_CHECK(pc != kInvalidNode,
                        "executed child below unexecuted parent: job "
                            << id << " edge " << v << "->" << c);
          targets.push_back(pc);
        }
        offsets.push_back(static_cast<std::int64_t>(targets.size()));
        height.push_back(metrics.height[static_cast<std::size_t>(v)]);
      }
    }
    if (static_cast<NodeId>(plan->refs.size()) > base) {
      plan->members.push_back(id);
    }
  }
  if (plan->refs.empty()) return;  // everything already executed
  plan->dag = Dag::FromChildren(std::move(offsets), std::move(targets));

  // Acyclicity comes from the members (their metrics would have aborted
  // on a cycle), so the out-forest shape is one in-degree test per node:
  // no node may have two unexecuted parents.
  if (!allow_general_dags_) {
    for (NodeId v = 0; v < plan->dag.node_count(); ++v) {
      OTSCHED_CHECK(plan->dag.in_degree(v) <= 1,
                    "Algorithm A requires out-forest jobs (Section 5); "
                    "enable allow_general_dags for the heuristic extension");
    }
  }
  plan->lpf = BuildLpfSchedule(plan->dag, height, p_);
  plan->remaining = plan->dag.node_count();
  batches_.push_back(std::move(plan));
}

void AlgAPlanner::replay_head_slot(PlanJob& job, Time lpf_slot,
                                   std::vector<SubjobRef>& out, int& used) {
  if (lpf_slot < 1 || lpf_slot > job.lpf.length()) return;
  for (NodeId v : job.lpf.at(lpf_slot)) {
    out.push_back(job.refs[static_cast<std::size_t>(v)]);
    --job.remaining;
    ++used;
  }
}

void AlgAPlanner::plan_slot(Time t, std::vector<SubjobRef>& out) {
  int used = 0;

  // Retire finished front batches and release their heavy state, so long
  // streams do not accumulate cost or memory.
  while (first_active_ < batches_.size() &&
         batches_[first_active_]->finished()) {
    PlanJob& done = *batches_[first_active_];
    if (done.mc) {
      mc_busy_violations_ += done.mc->busy_violations();
      done.mc.reset();
    }
    done.dag = Dag();
    done.lpf = JobSchedule();
    done.refs = std::vector<SubjobRef>();
    ++first_active_;
  }

  // Phases 1 and 2: batches still in their head window (age <= 2W) replay
  // their LPF schedule directly.  Batch releases are spaced >= W apart, so
  // at most two batches are in this range, using at most 2p processors —
  // and they sit at the back of the (release-ordered) batch list.
  for (std::size_t k = batches_.size(); k-- > first_active_;) {
    PlanJob& batch = *batches_[k];
    const Time age = t - batch.visible_release;
    if (age > 2 * window_) break;
    if (age >= 1 && !batch.finished()) {
      replay_head_slot(batch, age, out, used);
    }
  }

  // Phase 3: older unfinished batches in FIFO order via Most-Children.
  for (std::size_t k = first_active_; k < batches_.size(); ++k) {
    PlanJob* batch = batches_[k].get();
    int available = m_ - used;
    if (available <= 0) break;
    const Time age = t - batch->visible_release;
    if (age <= 2 * window_) break;  // release-ordered: the rest are newer
    if (batch->finished()) continue;
    if (!batch->mc) {
      batch->mc = std::make_unique<MostChildrenReplayer>(batch->dag,
                                                         batch->lpf);
      // The head (LPF slots 1..2W) was replayed verbatim during the first
      // two windows, so it is exactly the executed prefix.
      batch->mc->mark_prefix_executed(2 * window_);
      OTSCHED_CHECK(batch->mc->remaining() == batch->remaining,
                    "head replay accounting mismatch: mc="
                        << batch->mc->remaining()
                        << " plan=" << batch->remaining);
    }
    const int grant = std::min(available, p_);
    mc_picks_.clear();
    const int scheduled = batch->mc->step(grant, &mc_picks_);
    for (NodeId v : mc_picks_) {
      out.push_back(batch->refs[static_cast<std::size_t>(v)]);
    }
    batch->remaining -= scheduled;
    used += scheduled;
  }
  OTSCHED_CHECK(used <= m_, "planner over-committed: " << used << " > " << m_);
}

std::optional<Time> AlgAPlanner::oldest_unfinished_age(Time t) const {
  for (const auto& batch : active_batches()) {
    if (!batch->finished()) return t - batch->visible_release;
  }
  return std::nullopt;
}

std::vector<JobId> AlgAPlanner::unfinished_members() const {
  std::vector<JobId> result;
  for (const auto& batch : active_batches()) {
    if (!batch->finished()) {
      result.insert(result.end(), batch->members.begin(),
                    batch->members.end());
    }
  }
  return result;
}

std::int64_t AlgAPlanner::mc_busy_violations() const {
  std::int64_t total = mc_busy_violations_;
  for (const auto& batch : active_batches()) {
    if (batch->mc) total += batch->mc->busy_violations();
  }
  return total;
}

// --- Semi-batched scheduler -------------------------------------------

AlgASemiBatchedScheduler::AlgASemiBatchedScheduler(Options options)
    : options_(options) {
  OTSCHED_CHECK(options_.known_opt >= 2 && options_.known_opt % 2 == 0,
                "known_opt must be an even value >= 2 so that W = OPT/2 "
                "is a positive integer; got "
                    << options_.known_opt);
}

void AlgASemiBatchedScheduler::reset(int m, JobId job_count) {
  (void)job_count;
  planner_ = std::make_unique<AlgAPlanner>(m, options_.alpha,
                                           options_.known_opt / 2,
                                           options_.allow_general_dags);
  pending_.clear();
  pending_release_ = -1;
}

void AlgASemiBatchedScheduler::on_arrival(JobId id,
                                          const SchedulerView& view) {
  const Time release = view.release(id);
  OTSCHED_CHECK(release % planner_->window() == 0,
                "semi-batched instance required: job "
                    << id << " released at " << release
                    << " which is not a multiple of OPT/2 = "
                    << planner_->window());
  OTSCHED_CHECK(pending_.empty() || pending_release_ == release,
                "arrivals for a previous batch were never planned");
  pending_release_ = release;
  pending_.push_back(id);
}

void AlgASemiBatchedScheduler::pick(const SchedulerView& view,
                                    std::vector<SubjobRef>& out) {
  if (!pending_.empty()) {
    planner_->add_batch(view, pending_, pending_release_);
    pending_.clear();
  }
  planner_->plan_slot(view.slot(), out);
}

}  // namespace otsched
