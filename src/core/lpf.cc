#include "core/lpf.h"

#include <algorithm>
#include <sstream>

#include "common/assert.h"
#include "sim/ready_state.h"

namespace otsched {

const std::vector<NodeId>& JobSchedule::at(Time slot) const {
  static const std::vector<NodeId> kEmpty;
  if (slot < 1 || slot > length()) return kEmpty;
  return slots[static_cast<std::size_t>(slot - 1)];
}

Time JobSchedule::last_underfull_slot() const {
  for (Time t = length(); t >= 1; --t) {
    if (load(t) < p) return t;
  }
  return kNoTime;
}

std::int64_t JobSchedule::total() const {
  std::int64_t sum = 0;
  for (const auto& slot : slots) sum += static_cast<std::int64_t>(slot.size());
  return sum;
}

JobSchedule BuildLpfSchedule(const Dag& dag,
                             std::span<const std::int32_t> height, int p) {
  OTSCHED_CHECK(p >= 1);
  OTSCHED_CHECK(height.size() == static_cast<std::size_t>(dag.node_count()),
                "LPF needs one height per node");
  std::int64_t span = 0;
  for (const std::int32_t h : height) {
    OTSCHED_CHECK(h >= 1, "LPF heights must be positive, got " << h);
    span = std::max<std::int64_t>(span, h);
  }
  JobSchedule schedule;
  schedule.p = p;
  const NodeId n = dag.node_count();
  schedule.slot_of.assign(static_cast<std::size_t>(n), kNoTime);
  if (n == 0) return schedule;

  // Ready nodes bucketed by height; the cursor walks down from the top.
  // Heights only decrease along edges, so children enabled by an execution
  // always land in buckets at or below the parent's — but selections for a
  // slot complete before enabling, so same-slot feasibility is automatic.
  // Each bucket is a LIFO stack threaded through `next` (top = head[h]),
  // so the whole bucket array is two allocations.
  std::vector<NodeId> head(static_cast<std::size_t>(span) + 1, kInvalidNode);
  std::vector<NodeId> next(static_cast<std::size_t>(n));
  std::int64_t top = span;
  const auto push = [&](NodeId v) {
    const auto h = height[static_cast<std::size_t>(v)];
    next[static_cast<std::size_t>(v)] = head[static_cast<std::size_t>(h)];
    head[static_cast<std::size_t>(h)] = v;
    top = std::max<std::int64_t>(top, h);
  };
  PendingCounters pending;
  pending.init(dag);
  for (NodeId v : pending.roots()) push(v);

  schedule.slots.reserve(static_cast<std::size_t>(n / p) + 1);
  std::int64_t executed = 0;
  std::vector<NodeId> chosen;
  while (executed < n) {
    // Select up to p ready nodes of maximal height.
    chosen.clear();
    std::int64_t h = top;
    while (static_cast<int>(chosen.size()) < p && h >= 1) {
      NodeId& b = head[static_cast<std::size_t>(h)];
      while (b != kInvalidNode && static_cast<int>(chosen.size()) < p) {
        chosen.push_back(b);
        b = next[static_cast<std::size_t>(b)];
      }
      if (b == kInvalidNode) --h;
    }
    OTSCHED_CHECK(!chosen.empty(),
                  "LPF stalled with " << (n - executed) << " nodes left");
    // Keep the cursor tight: everything above h is now empty (all of it
    // when h < 1; the completions below raise it again).
    top = std::max<std::int64_t>(h, 0);

    schedule.slots.emplace_back(chosen);
    const Time slot = schedule.length();
    for (NodeId v : chosen) {
      schedule.slot_of[static_cast<std::size_t>(v)] = slot;
      ++executed;
      pending.complete(dag, v, push);
    }
  }
  return schedule;
}

JobSchedule BuildLpfSchedule(const Dag& dag, const DagMetrics& metrics,
                             int p) {
  return BuildLpfSchedule(dag, metrics.height, p);
}

JobSchedule BuildLpfSchedule(const Dag& dag, int p) {
  return BuildLpfSchedule(dag, ComputeMetrics(dag), p);
}

std::string CheckJobSchedule(const Dag& dag, const JobSchedule& schedule) {
  std::ostringstream out;
  const NodeId n = dag.node_count();
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  for (Time t = 1; t <= schedule.length(); ++t) {
    const auto& slot = schedule.at(t);
    if (static_cast<int>(slot.size()) > schedule.p) {
      out << "slot " << t << " runs " << slot.size() << " > p="
          << schedule.p;
      return out.str();
    }
    for (NodeId v : slot) {
      if (v < 0 || v >= n) {
        out << "slot " << t << " has unknown node " << v;
        return out.str();
      }
      if (seen[static_cast<std::size_t>(v)]) {
        out << "node " << v << " scheduled twice";
        return out.str();
      }
      seen[static_cast<std::size_t>(v)] = 1;
      if (schedule.slot_of[static_cast<std::size_t>(v)] != t) {
        out << "slot_of[" << v << "] inconsistent";
        return out.str();
      }
      for (NodeId parent : dag.parents(v)) {
        const Time tp = schedule.slot_of[static_cast<std::size_t>(parent)];
        if (tp == kNoTime || tp >= t) {
          out << "precedence violated: " << parent << " -> " << v
              << " at slots " << tp << " -> " << t;
          return out.str();
        }
      }
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    if (!seen[static_cast<std::size_t>(v)]) {
      out << "node " << v << " never scheduled";
      return out.str();
    }
  }
  return "";
}

Lemma52Report CheckLemma52(const Dag& dag, const JobSchedule& schedule) {
  Lemma52Report report;
  // Find the last underfull slot strictly before the final slot.
  Time t = kNoTime;
  for (Time s = schedule.length() - 1; s >= 1; --s) {
    if (schedule.load(s) < schedule.p) {
      t = s;
      break;
    }
  }
  report.last_underfull = t;
  if (t == kNoTime) return report;  // fully packed: nothing to check

  for (NodeId j : schedule.at(t)) {
    if (dag.out_degree(j) == 0) continue;  // leaf
    // Walk the unique ancestor chain (out-forest): the ancestor i hops up
    // must sit at slot t - i, all the way down to slot 1.
    NodeId v = j;
    for (Time s = t - 1; s >= 1; --s) {
      const auto parents = dag.parents(v);
      if (parents.size() != 1) {
        report.holds = false;
        std::ostringstream out;
        out << "node " << v << " lacks an ancestor " << (t - s)
            << " hops above subjob " << j << " (slot " << t << ")";
        report.detail = out.str();
        return report;
      }
      v = parents[0];
      if (schedule.slot_of[static_cast<std::size_t>(v)] != s) {
        report.holds = false;
        std::ostringstream out;
        out << "ancestor " << v << " of subjob " << j << " runs at slot "
            << schedule.slot_of[static_cast<std::size_t>(v)]
            << ", expected " << s;
        report.detail = out.str();
        return report;
      }
    }
  }
  return report;
}

HeadTailShape AnalyzeHeadTail(const JobSchedule& schedule, Time head_len) {
  OTSCHED_CHECK(head_len >= 0);
  HeadTailShape shape;
  shape.head_len = std::min(head_len, schedule.length());
  shape.tail_len = schedule.length() - shape.head_len;
  for (Time t = head_len + 1; t < schedule.length(); ++t) {
    if (schedule.load(t) < schedule.p) {
      shape.underfull_tail_slots.push_back(t);
    }
  }
  return shape;
}

void GlobalLpfScheduler::pick(const SchedulerView& view,
                              std::vector<SubjobRef>& out) {
  pool_.clear();
  std::size_t age_rank = 0;
  for (JobId job : view.alive()) {
    const auto& height = view.metrics(job).height;
    for (NodeId v : view.ready(job)) {
      pool_.push_back(Entry{height[static_cast<std::size_t>(v)], age_rank,
                            SubjobRef{job, v}});
    }
    ++age_rank;
  }
  const std::size_t take =
      std::min(pool_.size(), static_cast<std::size_t>(view.capacity()));
  std::partial_sort(pool_.begin(), pool_.begin() + static_cast<std::ptrdiff_t>(take),
                    pool_.end(), [](const Entry& a, const Entry& b) {
                      if (a.height != b.height) return a.height > b.height;
                      return a.age_rank < b.age_rank;
                    });
  for (std::size_t i = 0; i < take; ++i) out.push_back(pool_[i].ref);
}

}  // namespace otsched
