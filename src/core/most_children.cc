#include "core/most_children.h"

#include <algorithm>

#include "common/assert.h"

namespace otsched {

MostChildrenReplayer::MostChildrenReplayer(const Dag& dag,
                                           const JobSchedule& schedule)
    : dag_(dag), remaining_(dag.node_count()) {
  const NodeId n = dag.node_count();
  executed_.assign(static_cast<std::size_t>(n), 0);
  pending_.init(dag);
  next_level_children_.assign(static_cast<std::size_t>(n), 0);

  // Static priority: children of v scheduled exactly one S-slot after v.
  for (NodeId v = 0; v < n; ++v) {
    const Time sv = schedule.slot_of[static_cast<std::size_t>(v)];
    OTSCHED_CHECK(sv != kNoTime,
                  "MC input schedule misses node " << v);
    for (NodeId c : dag.children(v)) {
      if (schedule.slot_of[static_cast<std::size_t>(c)] == sv + 1) {
        ++next_level_children_[static_cast<std::size_t>(v)];
      }
    }
  }

  // Each level is its S-slot sorted by that count, descending, with ties
  // in slot order.  Sorting the keys (count descending, position in the
  // slot) gives exactly the stable order, without the buffer that
  // std::stable_sort allocates on every call.
  std::vector<std::uint64_t> keys;
  level_nodes_.reserve(static_cast<std::size_t>(n));
  level_begin_.reserve(static_cast<std::size_t>(schedule.length()) + 1);
  for (const std::vector<NodeId>& slot : schedule.slots) {
    keys.clear();
    for (std::size_t i = 0; i < slot.size(); ++i) {
      const auto count = static_cast<std::uint32_t>(
          next_level_children_[static_cast<std::size_t>(slot[i])]);
      keys.push_back((std::uint64_t{~count} << 32) | i);
    }
    std::sort(keys.begin(), keys.end());
    level_begin_.push_back(level_nodes_.size());
    for (const std::uint64_t key : keys) {
      level_nodes_.push_back(slot[static_cast<std::size_t>(key & 0xFFFFFFFFu)]);
    }
  }
  level_cursor_ = level_begin_;
  level_begin_.push_back(level_nodes_.size());
}

std::size_t MostChildrenReplayer::skip_executed(std::size_t level) {
  std::size_t& cursor = level_cursor_[level];
  const std::size_t end = level_end(level);
  while (cursor < end &&
         executed_[static_cast<std::size_t>(level_nodes_[cursor])] != 0) {
    ++cursor;
  }
  return cursor;
}

void MostChildrenReplayer::mark_prefix_executed(Time prefix_len) {
  OTSCHED_CHECK(!stepped_, "prefix must be marked before stepping");
  prefix_len = std::min<Time>(prefix_len, static_cast<Time>(level_count()));
  const auto prefix_end =
      level_begin_[static_cast<std::size_t>(prefix_len)];
  for (std::size_t i = 0; i < prefix_end; ++i) {
    const NodeId v = level_nodes_[i];
    if (!executed_[static_cast<std::size_t>(v)]) {
      executed_[static_cast<std::size_t>(v)] = 1;
      flush_queue_.push_back(v);  // completed "before step 1"
      --remaining_;
    }
  }
  min_level_ = static_cast<std::size_t>(prefix_len);
}

int MostChildrenReplayer::step(int budget, std::vector<NodeId>* out) {
  OTSCHED_CHECK(budget >= 0);
  stepped_ = true;
  ++now_;
  // Everything in the queue completed in a strictly earlier step (or the
  // prefix); its children may become ready from this step on.
  for (NodeId v : flush_queue_) {
    pending_.complete(dag_, v, [](NodeId) {});
  }
  flush_queue_.clear();
  int scheduled = 0;

  while (scheduled < budget && remaining_ > 0) {
    // Advance past exhausted levels.
    while (min_level_ < level_count() &&
           skip_executed(min_level_) == level_end(min_level_)) {
      ++min_level_;
    }
    OTSCHED_CHECK(min_level_ < level_count() || remaining_ == 0,
                  "MC lost track of " << remaining_ << " nodes");

    // Scan levels from the earliest unfinished one for a ready subjob;
    // within a level the nodes are pre-sorted by most-children priority.
    NodeId chosen = kInvalidNode;
    for (std::size_t lvl = min_level_;
         lvl < level_count() && chosen == kInvalidNode; ++lvl) {
      for (std::size_t i = skip_executed(lvl); i < level_end(lvl); ++i) {
        const NodeId v = level_nodes_[i];
        if (executed_[static_cast<std::size_t>(v)]) continue;
        if (pending_.cleared(v)) {
          chosen = v;
          break;
        }
      }
    }
    if (chosen == kInvalidNode) break;  // no ready subjob anywhere

    executed_[static_cast<std::size_t>(chosen)] = 1;
    flush_queue_.push_back(chosen);
    --remaining_;
    ++scheduled;
    if (out != nullptr) out->push_back(chosen);
  }

  if (scheduled < budget && remaining_ > 0) ++busy_violations_;
  return scheduled;
}

}  // namespace otsched
