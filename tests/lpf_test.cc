// Tests for core/lpf.h: Lemma 5.3 / Corollary 5.4 optimality, the
// alpha-competitiveness of LPF[m/alpha], and the Lemma 5.2 / Figure 2
// head/tail shape.
#include "gtest_compat.h"

#include "core/alg_a.h"
#include "core/lpf.h"
#include "dag/builders.h"
#include "dag/metrics.h"
#include "dag/validate.h"
#include "gen/random_trees.h"
#include "gen/recursive.h"
#include "gen/series_parallel.h"
#include "opt/brute_force.h"
#include "opt/single_batch.h"
#include "sim/validator.h"

namespace otsched {
namespace {

TEST(Lpf, ChainTakesSpanSlots) {
  const JobSchedule s = BuildLpfSchedule(MakeChain(6), 3);
  EXPECT_EQ(s.length(), 6);
  EXPECT_EQ(s.total(), 6);
  EXPECT_TRUE(CheckJobSchedule(MakeChain(6), s).empty());
}

TEST(Lpf, BlobPacksDensely) {
  const JobSchedule s = BuildLpfSchedule(MakeParallelBlob(10), 4);
  EXPECT_EQ(s.length(), 3);  // 4 + 4 + 2
  EXPECT_EQ(s.load(1), 4);
  EXPECT_EQ(s.load(2), 4);
  EXPECT_EQ(s.load(3), 2);
}

TEST(Lpf, EmptyDag) {
  const JobSchedule s = BuildLpfSchedule(Dag(), 2);
  EXPECT_EQ(s.length(), 0);
  EXPECT_EQ(s.last_underfull_slot(), kNoTime);
}

TEST(Lpf, PrioritizesTallerSubtrees) {
  // Root with two children: one leaf, one chain of 3.  On p=1, after the
  // root LPF must follow the chain before the leaf.
  Dag::Builder builder(5);
  builder.add_edge(0, 1);        // leaf child
  builder.add_edge(0, 2);        // chain child
  builder.add_edge(2, 3);
  builder.add_edge(3, 4);
  const Dag tree = std::move(builder).build();
  const JobSchedule s = BuildLpfSchedule(tree, 1);
  EXPECT_EQ(s.slot_of[2], 2);
  EXPECT_EQ(s.slot_of[3], 3);
  EXPECT_EQ(s.slot_of[4], 4);
  EXPECT_EQ(s.slot_of[1], 5);  // the shallow leaf goes last
}

TEST(Lpf, SchedulerChecksCatchBrokenSchedules) {
  const Dag chain = MakeChain(3);
  JobSchedule broken = BuildLpfSchedule(chain, 1);
  std::swap(broken.slots[0], broken.slots[2]);  // reverse the chain order
  broken.slot_of[0] = 3;
  broken.slot_of[2] = 1;
  EXPECT_FALSE(CheckJobSchedule(chain, broken).empty());
}

// ---- Lemma 5.3 / Corollary 5.4: LPF optimality sweep ----

struct LpfCase {
  TreeFamily family;
  int size;
  int m;
  std::uint64_t seed;
};

class LpfOptimalityTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(LpfOptimalityTest, MatchesCorollary54OnFullMachine) {
  const auto [family_index, m, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 1000003 + m);
  const auto family = static_cast<TreeFamily>(family_index);
  const Dag tree = MakeTree(family, 120, rng);
  ASSERT_TRUE(IsOutTree(tree));

  const Time opt = SingleBatchOpt(tree, m);
  const JobSchedule s = BuildLpfSchedule(tree, m);
  EXPECT_TRUE(CheckJobSchedule(tree, s).empty());
  // Lemma 5.3: LPF on the full machine achieves exactly OPT.
  EXPECT_EQ(s.length(), opt)
      << ToString(family) << " m=" << m << " seed=" << seed;
}

TEST_P(LpfOptimalityTest, AlphaCompetitiveOnReducedMachine) {
  const auto [family_index, m, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 7919 + m);
  const auto family = static_cast<TreeFamily>(family_index);
  const Dag tree = MakeTree(family, 200, rng);

  // When alpha does not divide m the algorithm rounds the budget UP to
  // ceil(m/alpha) >= m/alpha processors, which only shortens the schedule,
  // so the alpha-competitiveness bound survives unchanged.
  const Time opt = SingleBatchOpt(tree, m);
  const JobSchedule s = BuildLpfSchedule(tree, (m + 3) / 4);
  EXPECT_TRUE(CheckJobSchedule(tree, s).empty());
  EXPECT_LE(s.length(), 4 * opt);
}

TEST_P(LpfOptimalityTest, Lemma52ChainStructureHolds) {
  const auto [family_index, m, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 31 + m);
  const auto family = static_cast<TreeFamily>(family_index);
  const Dag tree = MakeTree(family, 150, rng);

  const int p = std::max(1, m / 4);
  const JobSchedule s = BuildLpfSchedule(tree, p);
  const Lemma52Report report = CheckLemma52(tree, s);
  EXPECT_TRUE(report.holds) << report.detail;
  if (report.last_underfull != kNoTime) {
    // Lemma 5.2 forces the last underfull slot to be at most the max
    // depth, hence at most OPT on the full machine.
    EXPECT_LE(report.last_underfull, SingleBatchOpt(tree, m));
  }
}

TEST_P(LpfOptimalityTest, HeadTailRectangle) {
  const auto [family_index, m, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 271 + m);
  const auto family = static_cast<TreeFamily>(family_index);
  const Dag tree = MakeTree(family, 240, rng);

  // p = ceil(m/alpha) generalizes the alpha | m case: Lemma 5.2 bounds the
  // last underfull slot by the max depth <= OPT for ANY budget, and with
  // p >= m/alpha the packed tail still fits in (alpha - 1) * OPT slots.
  const Time opt = SingleBatchOpt(tree, m);
  const JobSchedule s = BuildLpfSchedule(tree, (m + 3) / 4);
  const HeadTailShape shape = AnalyzeHeadTail(s, opt);
  // Figure 2: the tail is a fully packed rectangle (no underfull slot
  // strictly inside it) of length at most (alpha - 1) * OPT.
  EXPECT_TRUE(shape.underfull_tail_slots.empty());
  EXPECT_LE(shape.tail_len, 3 * opt);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LpfOptimalityTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),  // TreeFamily
                       ::testing::Values(2, 4, 8, 16),
                       ::testing::Values(1, 2, 3)));

TEST(Lpf, MatchesBruteForceOnTinyForests) {
  // Corollary 5.4 == true OPT, certified by exhaustive search.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const Dag forest = MakeRandomForest(12, 3, 0.5, rng);
    Instance instance;
    instance.add_job(Job(Dag(forest), 0));
    for (int m : {1, 2, 3}) {
      EXPECT_EQ(SingleBatchOpt(forest, m), BruteForceOpt(instance, m))
          << "seed " << seed << " m " << m;
    }
  }
}

TEST(Lpf, OutForestInputSupported) {
  Rng rng(5);
  const Dag forest = MakeRandomForest(60, 4, 0.3, rng);
  const Time opt = SingleBatchOpt(forest, 4);
  const JobSchedule s = BuildLpfSchedule(forest, 4);
  EXPECT_EQ(s.length(), opt);
}

// ---- Height reuse (Algorithm A's planner) ----

/// Runs a random ancestor-closed prefix of `dag` (each step executes one
/// uniformly chosen ready node) and returns the executed flags.
std::vector<char> RandomExecutedPrefix(const Dag& dag, Rng& rng) {
  const NodeId n = dag.node_count();
  std::vector<char> executed(static_cast<std::size_t>(n), 0);
  std::vector<NodeId> pending(static_cast<std::size_t>(n));
  std::vector<NodeId> ready;
  for (NodeId v = 0; v < n; ++v) {
    pending[static_cast<std::size_t>(v)] = dag.in_degree(v);
    if (dag.in_degree(v) == 0) ready.push_back(v);
  }
  const auto steps = rng.next_in_range(0, n);
  for (std::int64_t step = 0; step < steps && !ready.empty(); ++step) {
    const auto pick = static_cast<std::size_t>(
        rng.next_in_range(0, static_cast<std::int64_t>(ready.size()) - 1));
    const NodeId v = ready[pick];
    ready[pick] = ready.back();
    ready.pop_back();
    executed[static_cast<std::size_t>(v)] = 1;
    for (NodeId c : dag.children(v)) {
      if (--pending[static_cast<std::size_t>(c)] == 0) ready.push_back(c);
    }
  }
  return executed;
}

/// The remainder's heights taken from the WHOLE job must give the same
/// LPF schedule, slot for slot, as metrics computed on the remainder.
void ExpectHeightReuseMatches(const Dag& dag, int p, Rng& rng) {
  const DagMetrics job = ComputeMetrics(dag);
  const std::vector<char> executed = RandomExecutedPrefix(dag, rng);
  std::vector<NodeId> sub_id(static_cast<std::size_t>(dag.node_count()),
                             kInvalidNode);
  Dag::Builder builder;
  std::vector<std::int32_t> height;
  for (NodeId v = 0; v < dag.node_count(); ++v) {
    if (executed[static_cast<std::size_t>(v)]) continue;
    sub_id[static_cast<std::size_t>(v)] = builder.add_node();
    height.push_back(job.height[static_cast<std::size_t>(v)]);
  }
  for (NodeId v = 0; v < dag.node_count(); ++v) {
    if (sub_id[static_cast<std::size_t>(v)] == kInvalidNode) continue;
    for (NodeId c : dag.children(v)) {
      ASSERT_NE(sub_id[static_cast<std::size_t>(c)], kInvalidNode);
      builder.add_edge(sub_id[static_cast<std::size_t>(v)],
                       sub_id[static_cast<std::size_t>(c)]);
    }
  }
  const Dag sub = std::move(builder).build();
  const JobSchedule reused = BuildLpfSchedule(sub, height, p);
  const JobSchedule oracle = BuildLpfSchedule(sub, p);
  EXPECT_EQ(reused.slots, oracle.slots);
  EXPECT_EQ(reused.slot_of, oracle.slot_of);
}

TEST(LpfHeightReuse, RemainderOfOutForestsKeepsJobHeights) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const auto family = static_cast<TreeFamily>(seed % 4);
    const Dag forest =
        seed % 2 == 0 ? MakeTree(family, 150, rng)
                      : MakeRandomForest(150, 5, 0.4, rng);
    for (int p : {1, 3, 8}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " p " << p);
      ExpectHeightReuseMatches(forest, p, rng);
    }
  }
}

TEST(LpfHeightReuse, RemainderOfGeneralDagsKeepsJobHeights) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    SeriesParallelOptions sp;
    sp.size = 120;
    const Dag dag = seed % 2 == 0 ? MakeSeriesParallelDag(sp, rng)
                                  : MakeMapReducePipeline(5, 12, rng);
    for (int p : {1, 3, 8}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " p " << p);
      ExpectHeightReuseMatches(dag, p, rng);
    }
  }
}

TEST(LpfHeightReuseDeath, PlannerRefusesTwoUnexecutedParents) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  // One batch: an out-tree and a "V" (two roots joined in one child).
  // The union's node with two unexecuted parents must be refused.
  Instance instance;
  instance.add_job(Job(MakeCompleteTree(2, 3), 0));
  Dag::Builder v_shape(3);
  v_shape.add_edge(0, 2);
  v_shape.add_edge(1, 2);
  instance.add_job(Job(std::move(v_shape).build(), 0));
  AlgASemiBatchedScheduler::Options options;
  options.known_opt = 4;
  AlgASemiBatchedScheduler scheduler(options);
  EXPECT_DEATH(Simulate(instance, 4, scheduler), "out-forest");
}

TEST(LpfHeightReuseDeath, RefusesNonPositiveHeights) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  // The buckets are indexed by height, so a bad height must stop LPF
  // before it writes outside them.
  const Dag chain = MakeChain(3);
  const std::vector<std::int32_t> height = {3, 0, 1};
  EXPECT_DEATH(BuildLpfSchedule(chain, height, 2), "heights must be positive");
}

// ---- GlobalLpfScheduler ----

TEST(GlobalLpf, FeasibleOnMixedInstance) {
  Rng rng(17);
  Instance instance;
  for (int i = 0; i < 6; ++i) {
    instance.add_job(Job(MakeTree(TreeFamily::kMixed, 40, rng), i * 3));
  }
  GlobalLpfScheduler scheduler;
  const SimResult result = Simulate(instance, 4, scheduler);
  const auto report = ValidateSchedule(result.full_schedule(), instance);
  EXPECT_TRUE(report.feasible) << report.violation;
}

TEST(GlobalLpf, SingleJobMatchesBuildLpfLength) {
  Rng rng(23);
  const Dag tree = MakeTree(TreeFamily::kBranchy, 90, rng);
  Instance instance;
  instance.add_job(Job(Dag(tree), 0));
  GlobalLpfScheduler scheduler;
  const SimResult result = Simulate(instance, 3, scheduler);
  EXPECT_EQ(result.flows.max_flow, BuildLpfSchedule(tree, 3).length());
}

}  // namespace
}  // namespace otsched
