// Differential property suite for the snapshot tier, which runs only for
// solves handed an IncrementalCarry (SolveRequest::carry — the
// StandingQuery path): for random databases and patterns, a solve with a
// fresh carry (snapshot products, retraction of small removals) must be
// *bit-identical* to the same solve without one — same candidate vectors,
// same fixpoint trajectory (rounds/evaluations/updates) — on pools of
// every size, because a retracted snapshot product is exactly the Eq. (9)
// union a full evaluation computes. Delta evaluations only ever replace
// row-wise ones, so row + col + delta of the carried solve equals
// row + col of the plain one. Also pins that solves without a carry —
// every SimEngine solve — never retract.

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "datagen/random_graphs.h"
#include "sim/sim_engine.h"
#include "sim/soi.h"
#include "sim/validate.h"
#include "util/thread_pool.h"

namespace sparqlsim::sim {
namespace {

struct CarryPair {
  Solution plain;
  Solution carried;
};

/// Solves `soi` through SolveSoi twice: without a carry, and with a fresh
/// one (everything else in `request` shared).
CarryPair SolveWithAndWithoutCarry(const Soi& soi,
                                   const graph::GraphDatabase& db,
                                   const SolverOptions& options,
                                   SolveRequest request) {
  CarryPair out;
  out.plain = SolveSoi(soi, db, options, request);
  IncrementalCarry carry;
  request.carry = &carry;
  out.carried = SolveSoi(soi, db, options, request);
  return out;
}

void ExpectSameSolve(const CarryPair& pair, const std::string& context) {
  const Solution& plain = pair.plain;
  const Solution& carried = pair.carried;
  ASSERT_EQ(carried.candidates.size(), plain.candidates.size()) << context;
  for (size_t v = 0; v < plain.candidates.size(); ++v) {
    ASSERT_EQ(carried.candidates[v], plain.candidates[v])
        << context << ", var " << v;
  }
  // Identical trajectory, not merely the same fixpoint: the delta path
  // must not change what any round computes.
  EXPECT_EQ(carried.stats.rounds, plain.stats.rounds) << context;
  EXPECT_EQ(carried.stats.evaluations, plain.stats.evaluations) << context;
  EXPECT_EQ(carried.stats.updates, plain.stats.updates) << context;
  EXPECT_EQ(carried.stats.row_evals + carried.stats.col_evals +
                carried.stats.delta_evals,
            plain.stats.row_evals + plain.stats.col_evals)
      << context;
  // Without a carry there is no snapshot to retract from.
  EXPECT_EQ(plain.stats.delta_evals, 0u) << context;
  EXPECT_EQ(plain.stats.cols_cleared, 0u) << context;
}

class IncrementalDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalDifferential, RandomSoiBitIdenticalWithAndWithoutCarry) {
  const uint64_t seed = GetParam();
  datagen::RandomGraphConfig config;
  config.num_nodes = 140;
  config.num_edges = 520;
  config.num_labels = 3;
  config.seed = seed;
  graph::GraphDatabase db = datagen::MakeRandomDatabase(config);
  // Denser patterns than the database (6 nodes, 10 edges) take several
  // rounds to converge, so the delta path actually fires.
  graph::Graph pattern = datagen::MakeRandomPattern(6, 4, 3, seed + 500);
  Soi soi = BuildSoiFromGraph(pattern);

  Solution reference;  // plain solve on the first pool
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    util::ThreadPool pool(threads);
    CarryPair pair = SolveWithAndWithoutCarry(soi, db, {}, {.pool = &pool});
    const std::string context =
        "seed " + std::to_string(seed) + ", " + std::to_string(threads) +
        " threads";
    ExpectSameSolve(pair, context);
    if (reference.candidates.empty()) {
      reference = std::move(pair.plain);
      std::string why;
      EXPECT_TRUE(SatisfiesSoi(soi, db, reference.candidates, &why)) << why;
      continue;
    }
    // Pool size is invisible too.
    EXPECT_EQ(pair.plain.candidates, reference.candidates) << context;
    EXPECT_EQ(pair.plain.stats.rounds, reference.stats.rounds) << context;
    EXPECT_EQ(pair.plain.stats.updates, reference.stats.updates) << context;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalDifferential,
                         ::testing::Range<uint64_t>(1, 10));  // 9 seeds

// The forced eval-mode ablations must stay differential-clean too: under
// kRowWise the delta path replaces repeat row evaluations; under
// kColumnWise no snapshot product is ever taken and the carry is inert.
TEST(IncrementalEvalModes, ForcedModesBitIdenticalWithAndWithoutCarry) {
  datagen::RandomGraphConfig config;
  config.num_nodes = 130;
  config.num_edges = 650;
  config.num_labels = 2;
  config.seed = 11;
  graph::GraphDatabase db = datagen::MakeRandomDatabase(config);
  graph::Graph pattern = datagen::MakeRandomPattern(6, 5, 2, 901);
  Soi soi = BuildSoiFromGraph(pattern);

  for (auto mode : {SolverOptions::EvalMode::kRowWise,
                    SolverOptions::EvalMode::kColumnWise,
                    SolverOptions::EvalMode::kDynamic}) {
    SolverOptions options;
    options.eval_mode = mode;
    CarryPair pair = SolveWithAndWithoutCarry(soi, db, options, {});
    ExpectSameSolve(pair, "mode " + std::to_string(static_cast<int>(mode)));
    if (mode == SolverOptions::EvalMode::kColumnWise) {
      EXPECT_EQ(pair.carried.stats.delta_evals, 0u);  // no row path
    }
  }
}

// Restricted solves (the strong-simulation ball path) start below the
// all-ones assignment via `initial`; monotone shrinking still holds, so
// the delta path must stay exact there as well.
TEST(IncrementalRestrictedSolves, InitialAssignmentRespected) {
  datagen::RandomGraphConfig config;
  config.num_nodes = 80;
  config.num_edges = 300;
  config.num_labels = 2;
  config.seed = 23;
  graph::GraphDatabase db = datagen::MakeRandomDatabase(config);
  graph::Graph pattern = datagen::MakeRandomPattern(5, 3, 2, 321);
  Soi soi = BuildSoiFromGraph(pattern);

  // Restrict every variable to the even nodes.
  std::vector<util::BitVector> initial(soi.NumVars(),
                                       util::BitVector(db.NumNodes()));
  for (auto& v : initial) {
    for (size_t i = 0; i < db.NumNodes(); i += 2) v.Set(i);
  }

  CarryPair pair =
      SolveWithAndWithoutCarry(soi, db, {}, {.initial = &initial});
  ExpectSameSolve(pair, "restricted");
  for (size_t v = 0; v < pair.carried.candidates.size(); ++v) {
    EXPECT_TRUE(pair.carried.candidates[v].IsSubsetOf(initial[v]));
  }
}

/// Iterative workloads: cyclic random patterns, denser than the data, that
/// take several rounds to converge.
std::pair<graph::GraphDatabase, std::vector<Soi>> IterativeWorkloads() {
  datagen::RandomGraphConfig config;
  config.num_nodes = 200;
  config.num_edges = 700;
  config.num_labels = 2;
  config.seed = 5;
  std::vector<Soi> sois;
  for (uint64_t pattern_seed = 1; pattern_seed <= 6; ++pattern_seed) {
    sois.push_back(
        BuildSoiFromGraph(datagen::MakeRandomPattern(6, 5, 2, pattern_seed)));
  }
  return {datagen::MakeRandomDatabase(config), std::move(sois)};
}

// On those workloads a carried solve's delta path must actually engage —
// otherwise this whole suite would vacuously pass with an inert tier.
TEST(IncrementalEngagement, DeltaEvalsFireOnIterativeWorkloads) {
  const auto [db, sois] = IterativeWorkloads();
  size_t total_delta = 0;
  for (const Soi& soi : sois) {
    IncrementalCarry carry;
    total_delta += SolveSoi(soi, db, {}, {.carry = &carry}).stats.delta_evals;
  }
  EXPECT_GT(total_delta, 0u)
      << "the incremental path never engaged on any iterative workload";
}

// The same workloads solved cold through a default SimEngine take no
// snapshots: the tier belongs to the carry alone.
TEST(IncrementalEngagement, ColdEngineSolvesNeverRetract) {
  const auto [db, sois] = IterativeWorkloads();
  SimEngine engine(&db);
  for (size_t i = 0; i < sois.size(); ++i) {
    const Solution solution = engine.Solve(sois[i]);
    EXPECT_GT(solution.stats.rounds, 1u) << "workload " << i;
    EXPECT_EQ(solution.stats.delta_evals, 0u) << "workload " << i;
    EXPECT_EQ(solution.stats.cols_cleared, 0u) << "workload " << i;
  }
}

}  // namespace
}  // namespace sparqlsim::sim
