// Differential property suite for delta-driven incremental evaluation
// (SolverOptions::incremental_eval): for random databases and patterns,
// solving with the counted-accumulator delta path must be *bit-identical*
// to solving with full re-evaluation — same candidate vectors, same
// fixpoint trajectory (rounds/evaluations/updates) — at every thread
// count, because a retracted accumulator product is exactly the Eq. (9)
// union a full evaluation computes. Also pins the counter algebra:
// delta_evals + full_evals == evaluations, delta_evals == 0 when the
// knob is off.

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "datagen/movies.h"
#include "datagen/random_graphs.h"
#include "sim/sim_engine.h"
#include "sim/soi.h"
#include "sim/validate.h"
#include "sparql/parser.h"

namespace sparqlsim::sim {
namespace {

SolverOptions MakeOptions(bool incremental, size_t threads) {
  SolverOptions options;
  options.incremental_eval = incremental;
  options.num_threads = threads;
  options.cache_sois = false;  // differential runs must actually solve
  options.cache_solutions = false;
  return options;
}

void ExpectCounterAlgebra(const SolveStats& stats, bool incremental) {
  EXPECT_EQ(stats.delta_evals + stats.full_evals, stats.evaluations);
  if (!incremental) {
    EXPECT_EQ(stats.delta_evals, 0u);
    EXPECT_EQ(stats.cols_cleared, 0u);
  }
}

class IncrementalDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalDifferential, RandomSoiBitIdenticalOnVsOffAcrossThreads) {
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

  Solution reference;  // incremental off, 1 thread
  bool have_reference = false;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    for (bool incremental : {false, true}) {
      SimEngine engine(&db, MakeOptions(incremental, threads));
      Solution solution = engine.Solve(soi);
      ExpectCounterAlgebra(solution.stats, incremental);
      if (!have_reference) {
        reference = std::move(solution);
        have_reference = true;
        std::string why;
        EXPECT_TRUE(SatisfiesSoi(soi, db, reference.candidates, &why)) << why;
        continue;
      }
      ASSERT_EQ(solution.candidates.size(), reference.candidates.size());
      for (size_t v = 0; v < reference.candidates.size(); ++v) {
        ASSERT_EQ(solution.candidates[v], reference.candidates[v])
            << "seed " << seed << ", threads " << threads << ", incremental "
            << incremental << ", var " << v;
      }
      // Identical trajectory, not merely the same fixpoint: the delta
      // path must not change what any round computes.
      EXPECT_EQ(solution.stats.rounds, reference.stats.rounds);
      EXPECT_EQ(solution.stats.evaluations, reference.stats.evaluations);
      EXPECT_EQ(solution.stats.updates, reference.stats.updates);
      // Delta evaluations only ever replace row-wise ones: the eval-kind
      // split of the full-evaluation reference is preserved.
      EXPECT_EQ(solution.stats.row_evals + solution.stats.col_evals +
                    solution.stats.delta_evals,
                reference.stats.row_evals + reference.stats.col_evals)
          << "seed " << seed << ", threads " << threads << ", incremental "
          << incremental;
    }
  }
}

TEST_P(IncrementalDifferential, PruneReportsIdenticalOnVsOff) {
  const uint64_t seed = GetParam();
  datagen::RandomGraphConfig config;
  config.num_nodes = 90;
  config.num_edges = 350;
  config.num_labels = 2;
  config.seed = seed + 77;
  graph::GraphDatabase db = datagen::MakeRandomDatabase(config);

  // OPTIONAL + UNION exercise subordinations and branch batching on top
  // of the matrix inequalities.
  auto parsed = sparql::Parser::Parse(
      "SELECT * WHERE { { ?x <p0> ?y . ?y <p1> ?z . ?z <p0> ?x . "
      "OPTIONAL { ?y <p0> ?w . } } UNION { ?a <p1> ?b . ?b <p1> ?a . } }");
  ASSERT_TRUE(parsed.ok()) << parsed.error_message();
  sparql::Query query = std::move(parsed).value();

  PruneReport off = SimEngine(&db, MakeOptions(false, 1)).Prune(query);
  ExpectCounterAlgebra(off.stats, /*incremental=*/false);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    PruneReport on = SimEngine(&db, MakeOptions(true, threads)).Prune(query);
    ExpectCounterAlgebra(on.stats, /*incremental=*/true);
    EXPECT_EQ(on.kept_triples, off.kept_triples) << "seed " << seed;
    ASSERT_EQ(on.var_candidates.size(), off.var_candidates.size());
    for (const auto& [var, bits] : off.var_candidates) {
      auto it = on.var_candidates.find(var);
      ASSERT_NE(it, on.var_candidates.end()) << var;
      EXPECT_EQ(it->second, bits)
          << "seed " << seed << ", var " << var << ", " << threads
          << " threads";
    }
    EXPECT_EQ(on.stats.rounds, off.stats.rounds);
    EXPECT_EQ(on.stats.evaluations, off.stats.evaluations);
    EXPECT_EQ(on.stats.updates, off.stats.updates);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalDifferential,
                         ::testing::Range<uint64_t>(1, 10));  // 9 seeds

// The forced eval-mode ablations must stay differential-clean too: under
// kRowWise the delta path replaces repeat row evaluations; under
// kColumnWise no accumulator is ever built and the knob is inert.
TEST(IncrementalEvalModes, ForcedModesBitIdenticalAndCountersConsistent) {
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
    SolverOptions off = MakeOptions(false, 1);
    off.eval_mode = mode;
    SolverOptions on = MakeOptions(true, 1);
    on.eval_mode = mode;
    Solution s_off = SimEngine(&db, off).Solve(soi);
    Solution s_on = SimEngine(&db, on).Solve(soi);
    ExpectCounterAlgebra(s_off.stats, false);
    ExpectCounterAlgebra(s_on.stats, true);
    ASSERT_EQ(s_on.candidates.size(), s_off.candidates.size());
    for (size_t v = 0; v < s_off.candidates.size(); ++v) {
      EXPECT_EQ(s_on.candidates[v], s_off.candidates[v]);
    }
    EXPECT_EQ(s_on.stats.rounds, s_off.stats.rounds);
    EXPECT_EQ(s_on.stats.updates, s_off.stats.updates);
    if (mode == SolverOptions::EvalMode::kColumnWise) {
      EXPECT_EQ(s_on.stats.delta_evals, 0u);  // no row path, no accumulator
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

  Solution off =
      SolveSoi(soi, db, MakeOptions(false, 1), &initial);
  Solution on = SolveSoi(soi, db, MakeOptions(true, 1), &initial);
  ASSERT_EQ(on.candidates.size(), off.candidates.size());
  for (size_t v = 0; v < off.candidates.size(); ++v) {
    EXPECT_EQ(on.candidates[v], off.candidates[v]) << "var " << v;
    EXPECT_TRUE(on.candidates[v].IsSubsetOf(initial[v]));
  }
  EXPECT_EQ(on.stats.rounds, off.stats.rounds);
  EXPECT_EQ(on.stats.updates, off.stats.updates);
}

// On a workload that iterates (a cyclic pattern over the movie graph),
// the delta path must actually engage — otherwise this whole suite
// would vacuously pass with an inert knob.
TEST(IncrementalEngagement, DeltaEvalsFireOnIterativeWorkloads) {
  datagen::RandomGraphConfig config;
  config.num_nodes = 200;
  config.num_edges = 700;
  config.num_labels = 2;
  config.seed = 5;
  graph::GraphDatabase db = datagen::MakeRandomDatabase(config);

  size_t total_delta = 0;
  for (uint64_t pattern_seed = 1; pattern_seed <= 6; ++pattern_seed) {
    graph::Graph pattern = datagen::MakeRandomPattern(6, 5, 2, pattern_seed);
    Soi soi = BuildSoiFromGraph(pattern);
    Solution s = SimEngine(&db, MakeOptions(true, 1)).Solve(soi);
    total_delta += s.stats.delta_evals;
  }
  EXPECT_GT(total_delta, 0u)
      << "the incremental path never engaged on any iterative workload";
}

}  // namespace
}  // namespace sparqlsim::sim
