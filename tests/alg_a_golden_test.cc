// Golden pins for Algorithm A's scheduling DECISIONS.
//
// The other alg-a suites check ratio bounds and feasibility, and the
// engine/driver equivalence suites run the same scheduler on both sides,
// so a planner change that alters which subjob runs when would pass all
// of them.  This file pins exact outcomes instead: an FNV-1a hash over
// every job's (id, flow), the max flow, the guess-and-double restart
// count and the Lemma 5.5 busy-violation count, for five runs that
// together cover every planner path:
//
//   * a streamed quicksort run through SimDriver::submit that restarts
//     (so partly executed jobs are re-planned from their remainder);
//   * a Poisson out-forest stream through one-shot Simulate, on 8 and
//     on 128 processors (MC levels up to 32 wide);
//   * the semi-batched scheduler on a certified saturated instance;
//   * allow_general_dags on series-parallel DAGs with aggressive
//     doubling (general-DAG remainders re-planned mid-run).
//
// The expected values were recorded with the planner that rebuilt each
// batch through Dag::Builder and recomputed its metrics; any later
// planner must reproduce them exactly.
#include "gtest_compat.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/alg_a.h"
#include "core/alg_a_full.h"
#include "gen/arrivals.h"
#include "gen/certified.h"
#include "gen/random_trees.h"
#include "gen/recursive.h"
#include "gen/series_parallel.h"
#include "sim/driver.h"
#include "sim/engine.h"

namespace otsched {
namespace {

struct Fingerprint {
  std::int64_t jobs = 0;
  std::uint64_t flow_hash = 0;
  Time max_flow = 0;
  int restarts = 0;
  std::int64_t mc_busy_violations = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

std::ostream& operator<<(std::ostream& os, const Fingerprint& f) {
  return os << "{jobs=" << f.jobs << ", flow_hash=0x" << std::hex
            << f.flow_hash << std::dec << ", max_flow=" << f.max_flow
            << ", restarts=" << f.restarts
            << ", mc_busy_violations=" << f.mc_busy_violations << "}";
}

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void Mix(std::uint64_t& hash, std::int64_t value) {
  auto bits = static_cast<std::uint64_t>(value);
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= bits & 0xffu;
    hash *= kFnvPrime;
    bits >>= 8;
  }
}

/// Hash over flows indexed by job id.
Fingerprint FingerprintFlows(const std::vector<Time>& flow) {
  Fingerprint f;
  f.jobs = static_cast<std::int64_t>(flow.size());
  f.flow_hash = kFnvOffset;
  for (std::size_t j = 0; j < flow.size(); ++j) {
    Mix(f.flow_hash, static_cast<std::int64_t>(j));
    Mix(f.flow_hash, flow[j]);
    f.max_flow = std::max(f.max_flow, flow[j]);
  }
  return f;
}

TEST(AlgAGolden, StreamedQuicksortWithRestarts) {
  // Closed-loop shape of the serve workload: keep up to 24 quicksort
  // trees in flight, submit a replacement at now() for each completion.
  const int m = 16;
  Rng rng(20241);
  QuicksortOptions qs;
  qs.n = 4096;
  qs.grain = 128;
  qs.cutoff = 128;
  AlgAScheduler scheduler;  // the defaults `otsched serve` runs
  SimDriver driver(m, scheduler);
  const int total = 300;
  int submitted = 0;
  for (; submitted < 24; ++submitted) {
    driver.submit(Job(MakeQuicksortTree(qs, rng), 0));
  }
  std::vector<Time> flow(total, -1);
  int finished = 0;
  while (finished < total) {
    ASSERT_GT(driver.advance(1), 0) << "stalled at " << finished;
    for (const auto& done : driver.take_finished()) {
      flow[static_cast<std::size_t>(done.job)] = done.flow;
      ++finished;
      if (submitted < total) {
        driver.submit(Job(MakeQuicksortTree(qs, rng), driver.now()));
        ++submitted;
      }
    }
    driver.retire_finished();
  }
  Fingerprint f = FingerprintFlows(flow);
  f.restarts = scheduler.restarts();
  f.mc_busy_violations = scheduler.mc_busy_violations();
  EXPECT_GE(f.restarts, 2) << "the run must exercise re-planning";
  EXPECT_EQ(f, (Fingerprint{300, 0x1402cb5de26feb87ull, 1588, 2, 2727}));
}

TEST(AlgAGolden, PoissonOutForestSimulate) {
  Rng rng(77);
  Instance instance = MakePoissonArrivals(
      60, 0.08,
      [](std::int64_t, Rng& r) { return MakeTree(TreeFamily::kMixed, 120, r); },
      rng);
  AlgAScheduler::Options options;
  options.beta = 16;
  AlgAScheduler scheduler(options);
  const SimResult result = Simulate(instance, 8, scheduler);
  ASSERT_TRUE(result.flows.all_completed);
  Fingerprint f = FingerprintFlows(result.flows.flow);
  f.restarts = scheduler.restarts();
  f.mc_busy_violations = scheduler.mc_busy_violations();
  EXPECT_EQ(f, (Fingerprint{60, 0x3f4c99c1b1401f0cull, 1657, 6, 0}));
}

TEST(AlgAGolden, WideMachineMcLevels) {
  // m = 128 gives p = 32: LPF slots (= MC levels) wider than the small
  // levels of the other runs.
  Rng rng(4242);
  Instance instance = MakePoissonArrivals(
      40, 0.05,
      [](std::int64_t, Rng& r) { return MakeTree(TreeFamily::kBushy, 900, r); },
      rng);
  AlgAScheduler::Options options;
  options.beta = 16;
  AlgAScheduler scheduler(options);
  const SimResult result = Simulate(instance, 128, scheduler);
  ASSERT_TRUE(result.flows.all_completed);
  Fingerprint f = FingerprintFlows(result.flows.flow);
  f.restarts = scheduler.restarts();
  f.mc_busy_violations = scheduler.mc_busy_violations();
  EXPECT_EQ(f, (Fingerprint{40, 0x4a47a2512cd2036ull, 107, 3, 1}));
}

TEST(AlgAGolden, SemiBatchedCertifiedInstance) {
  const int m = 32;
  Rng rng(5);
  const Time delta = 6;
  CertifiedInstance cert = MakePipelinedSemiBatchedInstance(m, delta, 24, rng);
  AlgASemiBatchedScheduler::Options options;
  options.known_opt = cert.opt;
  AlgASemiBatchedScheduler scheduler(options);
  const SimResult result = Simulate(cert.instance, m, scheduler);
  ASSERT_TRUE(result.flows.all_completed);
  Fingerprint f = FingerprintFlows(result.flows.flow);
  f.mc_busy_violations = scheduler.mc_busy_violations();
  EXPECT_EQ(f, (Fingerprint{24, 0x5b7aedd31570a325ull, 24, 0, 0}));
}

TEST(AlgAGolden, SeriesParallelGeneralDags) {
  Rng rng(31);
  SeriesParallelOptions sp;
  sp.size = 80;
  Instance instance = MakePoissonArrivals(
      40, 0.1,
      [&sp](std::int64_t, Rng& r) { return MakeSeriesParallelDag(sp, r); },
      rng);
  AlgAScheduler::Options options;
  options.beta = 4;  // aggressive doubling: remainders of half-run DAGs
  options.allow_general_dags = true;
  AlgAScheduler scheduler(options);
  const SimResult result = Simulate(instance, 8, scheduler);
  ASSERT_TRUE(result.flows.all_completed);
  Fingerprint f = FingerprintFlows(result.flows.flow);
  f.restarts = scheduler.restarts();
  f.mc_busy_violations = scheduler.mc_busy_violations();
  EXPECT_GE(f.restarts, 1);
  EXPECT_EQ(f, (Fingerprint{40, 0xc9d845feb8b11cf2ull, 1358, 8, 0}));
}

}  // namespace
}  // namespace otsched
