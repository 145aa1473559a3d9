// The Maximum Children (MC) algorithm of Section 5.2.
//
// MC replays a given feasible single-job schedule S (built on p
// processors, with an idle processor only at its final slot) under a
// fluctuating per-step processor budget m_t <= p.  At each of its own time
// steps it repeatedly takes, from the earliest S-level that still has
// unprocessed subjobs, a READY subjob with the greatest number of children
// scheduled in the next S-level.  Lemma 5.5: every step either uses the
// whole budget or finishes the job.
//
// Readiness (the parent must have completed in a strictly earlier MC step)
// is implicit in the paper's description; the Lemma 5.5 proof guarantees
// that enough ready subjobs exist, and the test suite exercises this under
// adversarial budget streams.
//
// Algorithm A uses MC on the *tail* of an LPF schedule: head subjobs are
// marked pre-executed via `mark_prefix_executed`.
#pragma once

#include <cstdint>
#include <vector>

#include "core/lpf.h"
#include "dag/dag.h"
#include "sim/ready_state.h"

namespace otsched {

class MostChildrenReplayer {
 public:
  /// `schedule` must schedule every node of `dag` exactly once (see
  /// CheckJobSchedule); the Lemma 5.5 busy guarantee additionally needs
  /// every slot except the last to be full.
  MostChildrenReplayer(const Dag& dag, const JobSchedule& schedule);

  /// Marks all subjobs in S-slots [1, prefix_len] as already executed
  /// (before MC time 0).  Must be called before the first step().
  void mark_prefix_executed(Time prefix_len);

  /// Runs one MC time step with `budget` processors.  Appends the chosen
  /// node ids to `out` and returns how many were scheduled.
  int step(int budget, std::vector<NodeId>* out = nullptr);

  bool done() const { return remaining_ == 0; }
  std::int64_t remaining() const { return remaining_; }

  /// Number of step() calls so far (the MC clock).
  Time now() const { return now_; }

  /// Steps where fewer subjobs than the budget were scheduled while the
  /// job was NOT finished by the end of the step — Lemma 5.5 says this
  /// stays 0.
  std::int64_t busy_violations() const { return busy_violations_; }

 private:
  const Dag& dag_;
  Time now_ = 0;
  std::int64_t remaining_ = 0;

  std::size_t level_count() const { return level_cursor_.size(); }
  /// Moves level `level`'s cursor past its executed front entries and
  /// returns it; the level is finished iff that reaches level_end().
  std::size_t skip_executed(std::size_t level);
  std::size_t level_end(std::size_t level) const {
    return level_begin_[level + 1];
  }

  // The S-levels back to back: level k (0-based) is
  // level_nodes_[level_begin_[k], level_begin_[k + 1]), sorted by
  // (static) count of children in the next S-level, descending.  Nodes
  // are never removed; level_cursor_[k] only skips the executed front of
  // level k, and scans skip executed entries behind it, so the surviving
  // order is the sorted order.
  std::vector<NodeId> level_nodes_;
  std::vector<std::size_t> level_begin_;
  std::vector<std::size_t> level_cursor_;
  std::size_t min_level_ = 0;  // 0-based index of earliest unfinished level
  std::vector<char> executed_;
  // Readiness via incremental pending-predecessor counters (sim/ready_state):
  // a node is ready at step t iff its counter is 0.  Counters of a node's
  // children are decremented only when the FOLLOWING step starts
  // (flush_queue_), so same-step executions never enable children — the
  // deferred equivalent of the old `done_at_ < t` parent scan.
  PendingCounters pending_;
  std::vector<NodeId> flush_queue_;  // executed, children not yet decremented
  std::vector<std::int32_t> next_level_children_;
  std::int64_t busy_violations_ = 0;
  bool stepped_ = false;
};

}  // namespace otsched
