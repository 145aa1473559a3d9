#include "jobs.h"

#include <algorithm>

#include "common/rng.h"
#include "gen/random_trees.h"
#include "gen/recursive.h"

namespace perfbench {

using otsched::Dag;
using otsched::NodeId;

std::vector<Dag> MakeTreeJobs(std::uint64_t seed, int count, NodeId size) {
  otsched::Rng rng(seed);
  std::vector<Dag> jobs;
  jobs.reserve(static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k) {
    jobs.push_back(
        otsched::MakeTree(static_cast<otsched::TreeFamily>(k % 4), size, rng));
  }
  return jobs;
}

std::vector<Dag> MakeQuicksortJobs(std::uint64_t seed, int count,
                                   std::int64_t n) {
  otsched::Rng rng(seed);
  otsched::QuicksortOptions options;
  options.n = n;
  options.grain = std::max<std::int64_t>(1, n / 32);
  options.cutoff = options.grain;
  std::vector<Dag> jobs;
  jobs.reserve(static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k) {
    jobs.push_back(otsched::MakeQuicksortTree(options, rng));
  }
  return jobs;
}

std::string JobTag(std::int64_t k) {
  std::string tag = "t";
  tag += std::to_string(k);
  return tag;
}

std::string SubmitLine(const Dag& dag, const std::string& tag) {
  std::string line = "{";
  if (!tag.empty()) {
    line += "\"id\":\"";
    line += tag;
    line += "\",";
  }
  line += "\"release\":0,\"nodes\":";
  line += std::to_string(dag.node_count());
  line += ",\"edges\":[";
  bool first = true;
  for (NodeId v = 0; v < dag.node_count(); ++v) {
    for (const NodeId child : dag.children(v)) {
      if (!first) line += ',';
      first = false;
      line += '[';
      line += std::to_string(v);
      line += ',';
      line += std::to_string(child);
      line += ']';
    }
  }
  line += "]}\n";
  return line;
}

}  // namespace perfbench
