// Seeded job generation and wire encoding.  The daemon and the sweep
// see only what these functions produce from the benchmark's --seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dag/dag.h"

namespace perfbench {

/// `count` out-trees of `size` nodes, cycling the four MakeTree
/// families (bushy, mixed, spiny, ...) like `otsched gen trees`.
std::vector<otsched::Dag> MakeTreeJobs(std::uint64_t seed, int count,
                                       otsched::NodeId size);

/// `count` quicksort recursion out-trees over `n` elements, with the
/// grain and cutoff `otsched gen quicksort` uses (n / 32).
std::vector<otsched::Dag> MakeQuicksortJobs(std::uint64_t seed, int count,
                                            std::int64_t n);

/// The tag of job `k` on the wire ("t<k>").
std::string JobTag(std::int64_t k);

/// One NDJSON submission line (newline included) in the explicit
/// nodes+edges spelling.  `tag` empty = untagged.  Release 0 asks for
/// "now": the daemon stamps the slot it accepts the job in, which the
/// reply echoes as the effective release.
std::string SubmitLine(const otsched::Dag& dag, const std::string& tag);

}  // namespace perfbench
