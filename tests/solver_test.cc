#include "sim/solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#include "datagen/movies.h"
#include "datagen/random_graphs.h"
#include "sim/equivalence.h"
#include "sim/sim_engine.h"
#include "sim/soi.h"
#include "sim/validate.h"
#include "sparql/parser.h"

namespace sparqlsim::sim {
namespace {

graph::GraphDatabase ChainDb(size_t length) {
  graph::GraphDatabaseBuilder b;
  for (size_t i = 0; i + 1 < length; ++i) {
    EXPECT_TRUE(b.AddTriple("n" + std::to_string(i), "e",
                            "n" + std::to_string(i + 1))
                    .ok());
  }
  return std::move(b).Build();
}

Soi SoiFor(const char* pattern_text, const graph::GraphDatabase& db) {
  auto p = sparql::Parser::ParsePattern(pattern_text);
  EXPECT_TRUE(p.ok()) << p.error_message();
  return BuildSoiFromPattern(*p.value(), db);
}

TEST(SolverTest, FixpointSatisfiesSoi) {
  graph::GraphDatabase db = datagen::MakeMovieDatabase();
  Soi soi = SoiFor(
      "{ ?d <directed> ?m . OPTIONAL { ?d <worked_with> ?c . } }", db);
  Solution s = SolveSoi(soi, db);
  std::string why;
  EXPECT_TRUE(SatisfiesSoi(soi, db, s.candidates, &why)) << why;
}

TEST(SolverTest, FixpointIsLargest) {
  // Any valid assignment is contained in the fixpoint (Prop. 1): perturb
  // the solution by clearing bits — still valid; adding any discarded bit
  // breaks validity.
  graph::GraphDatabase db = datagen::MakeMovieDatabase();
  Soi soi = SoiFor("{ ?d <directed> ?m . ?d <worked_with> ?c . }", db);
  Solution s = SolveSoi(soi, db);

  // Clearing a whole variable keeps (7) for connected patterns only if the
  // rest is cleared too — the all-empty assignment is trivially valid.
  std::vector<util::BitVector> empty(soi.NumVars(),
                                     util::BitVector(db.NumNodes()));
  EXPECT_TRUE(SatisfiesSoi(soi, db, empty));

  // Adding any single bit outside the fixpoint is invalid.
  for (size_t v = 0; v < soi.NumVars(); ++v) {
    for (uint32_t node = 0; node < db.NumNodes(); ++node) {
      if (s.candidates[v].Test(node)) continue;
      std::vector<util::BitVector> enlarged = s.candidates;
      enlarged[v].Set(node);
      EXPECT_FALSE(SatisfiesSoi(soi, db, enlarged))
          << "adding " << db.nodes().Name(node) << " to "
          << soi.var_names[v] << " should violate the SOI";
    }
  }
}

TEST(SolverTest, LongChainNeedsManyRounds) {
  // A length-k path pattern against a length-k chain database converges,
  // and emptiness propagates along the chain when the pattern is longer
  // than the data.
  graph::GraphDatabase db = ChainDb(6);
  {
    Soi soi = SoiFor(
        "{ ?a <e> ?b . ?b <e> ?c . ?c <e> ?d . ?d <e> ?f . ?f <e> ?g . }",
        db);
    Solution s = SolveSoi(soi, db);
    EXPECT_TRUE(s.AnyCandidate());
    EXPECT_EQ(s.RelationSize(), 6u);  // one binding per variable
  }
  {
    // Pattern longer than the data: everything dies.
    Soi soi = SoiFor(
        "{ ?a <e> ?b . ?b <e> ?c . ?c <e> ?d . ?d <e> ?f . ?f <e> ?g . "
        "?g <e> ?h . }",
        db);
    Solution s = SolveSoi(soi, db);
    EXPECT_FALSE(s.AnyCandidate());
  }
}

TEST(SolverTest, InitialAssignmentRestricts) {
  graph::GraphDatabase db = datagen::MakeMovieDatabase();
  Soi soi = SoiFor("{ ?d <directed> ?m . }", db);
  Solution full = SolveSoi(soi, db);
  EXPECT_EQ(full.candidates[0].Count(), 4u);  // four directors

  // Restrict the start to De Palma only: the fixpoint below it keeps just
  // his film.
  std::vector<util::BitVector> initial(soi.NumVars(),
                                       util::BitVector(db.NumNodes(), true));
  int d_var = -1;
  for (size_t v = 0; v < soi.NumVars(); ++v) {
    if (soi.var_names[v] == "d") d_var = static_cast<int>(v);
  }
  ASSERT_GE(d_var, 0);
  initial[d_var].ClearAll();
  initial[d_var].Set(*db.nodes().Lookup("B. De Palma"));

  Solution restricted = SolveSoi(soi, db, {}, {.initial = &initial});
  EXPECT_EQ(restricted.candidates[d_var].Count(), 1u);
  for (size_t v = 0; v < soi.NumVars(); ++v) {
    EXPECT_TRUE(restricted.candidates[v].IsSubsetOf(full.candidates[v]));
  }
  std::string why;
  EXPECT_TRUE(SatisfiesSoi(soi, db, restricted.candidates, &why)) << why;
}

// ---------------------------------------------------------------------------
// Warm starts: the SolveRequest inputs StandingQuery drives
// ---------------------------------------------------------------------------

/// Every fixpoint counter a trajectory comparison asserts.
void ExpectSameTrajectory(const SolveStats& got, const SolveStats& want) {
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.evaluations, want.evaluations);
  EXPECT_EQ(got.updates, want.updates);
  EXPECT_EQ(got.row_evals, want.row_evals);
  EXPECT_EQ(got.col_evals, want.col_evals);
  EXPECT_EQ(got.delta_evals, want.delta_evals);
}

/// SOIs that take several rounds: random patterns over a random database,
/// plus a movie query with a constant, so the warm start's constant pin
/// runs too.
std::vector<std::pair<Soi, graph::GraphDatabase>> SeededSolveCases() {
  std::vector<std::pair<Soi, graph::GraphDatabase>> cases;
  for (uint64_t seed : {3, 9, 21}) {
    datagen::RandomGraphConfig config;
    config.num_nodes = 150;
    config.num_edges = 600;
    config.num_labels = 3;
    config.seed = seed;
    graph::GraphDatabase db = datagen::MakeRandomDatabase(config);
    Soi soi = BuildSoiFromGraph(datagen::MakeRandomPattern(6, 4, 3, seed));
    cases.emplace_back(std::move(soi), std::move(db));
  }
  graph::GraphDatabase movies = datagen::MakeMovieDatabase();
  Soi soi = SoiFor(
      "{ ?d <directed> ?m . ?m <awarded> <Oscar> . ?d <worked_with> ?c . }",
      movies);
  cases.emplace_back(std::move(soi), std::move(movies));
  return cases;
}

TEST(SolverTest, UnarmedSolveFromAFixpointRunsZeroRounds) {
  // solver.h: with an all-false arming mask and `initial` equal to a
  // converged fixpoint the solve performs zero rounds — a no-op delta is
  // free.
  for (const auto& [soi, db] : SeededSolveCases()) {
    Solution cold = SolveSoi(soi, db);
    ASSERT_FALSE(cold.truncated);
    EXPECT_GE(cold.stats.rounds, 2u);
    const std::vector<bool> none(
        soi.matrix_ineqs.size() + soi.sub_ineqs.size(), false);
    Solution warm =
        SolveSoi(soi, db, {}, {.initial = &cold.candidates, .armed = &none});
    EXPECT_EQ(warm.stats.rounds, 0u);
    EXPECT_EQ(warm.stats.evaluations, 0u);
    EXPECT_FALSE(warm.truncated);
    EXPECT_EQ(warm.candidates, cold.candidates);
  }
}

TEST(SolverTest, FullyArmedSolveFromAllOnesIsTheColdSolve) {
  // An all-ones start re-derives the Eq. (12)/(13) initialization (the
  // solver re-pins constants and re-ANDs the summaries), and arming every
  // inequality is a full first round: fixpoint and trajectory are the
  // cold solve's.
  for (const auto& [soi, db] : SeededSolveCases()) {
    Solution cold = SolveSoi(soi, db);
    const std::vector<util::BitVector> ones(
        soi.NumVars(), util::BitVector(db.NumNodes(), true));
    const std::vector<bool> all(
        soi.matrix_ineqs.size() + soi.sub_ineqs.size(), true);
    Solution warm = SolveSoi(soi, db, {}, {.initial = &ones, .armed = &all});
    EXPECT_EQ(warm.candidates, cold.candidates);
    ExpectSameTrajectory(warm.stats, cold.stats);
  }
}

TEST(SolverTest, StatsCountEvaluationModes) {
  graph::GraphDatabase db = datagen::MakeMovieDatabase();
  Soi soi = SoiFor("{ ?d <directed> ?m . ?d <worked_with> ?c . }", db);

  SolverOptions row;
  row.eval_mode = SolverOptions::EvalMode::kRowWise;
  Solution sr = SolveSoi(soi, db, row);
  EXPECT_GT(sr.stats.row_evals, 0u);
  EXPECT_EQ(sr.stats.col_evals, 0u);

  SolverOptions col;
  col.eval_mode = SolverOptions::EvalMode::kColumnWise;
  Solution sc = SolveSoi(soi, db, col);
  EXPECT_EQ(sc.stats.row_evals, 0u);
  EXPECT_GT(sc.stats.col_evals, 0u);
}

TEST(SolverTest, AccumulateStats) {
  SolveStats a;
  a.rounds = 2;
  a.evaluations = 10;
  SolveStats b;
  b.rounds = 3;
  b.updates = 4;
  b.solve_seconds = 0.5;
  a.Accumulate(b);
  EXPECT_EQ(a.rounds, 5u);
  EXPECT_EQ(a.evaluations, 10u);
  EXPECT_EQ(a.updates, 4u);
  EXPECT_DOUBLE_EQ(a.solve_seconds, 0.5);
}

TEST(EquivalenceTest, MovieX1Classes) {
  graph::GraphDatabase db = datagen::MakeMovieDatabase();
  Soi soi = SoiFor("{ ?d <directed> ?m . ?d <worked_with> ?c . }", db);
  Solution s = SolveSoi(soi, db);
  EquivalenceClasses classes = ComputeEquivalenceClasses(s, db.NumNodes());

  // Three classes: directors, movies, coworkers (no overlaps here).
  EXPECT_EQ(classes.num_classes, 3u);
  EXPECT_EQ(classes.num_discarded, db.NumNodes() - 6);
  size_t members = 0;
  for (size_t size : classes.class_sizes) members += size;
  EXPECT_EQ(members, 6u);

  // Nodes of the same class have identical membership everywhere.
  uint32_t depalma = *db.nodes().Lookup("B. De Palma");
  uint32_t hamilton = *db.nodes().Lookup("G. Hamilton");
  EXPECT_EQ(classes.class_of[depalma], classes.class_of[hamilton]);
  uint32_t koepp = *db.nodes().Lookup("D. Koepp");
  EXPECT_NE(classes.class_of[depalma], classes.class_of[koepp]);
}

TEST(EquivalenceTest, SignaturesAreConsistent) {
  datagen::RandomGraphConfig config;
  config.num_nodes = 50;
  config.num_edges = 200;
  config.num_labels = 2;
  config.seed = 9;
  graph::GraphDatabase db = datagen::MakeRandomDatabase(config);
  graph::Graph pattern = datagen::MakeRandomPattern(4, 2, 2, 10);
  Soi soi = BuildSoiFromGraph(pattern);
  Solution s = SolveSoi(soi, db);
  EquivalenceClasses classes = ComputeEquivalenceClasses(s, db.NumNodes());

  for (size_t node = 0; node < db.NumNodes(); ++node) {
    if (classes.class_of[node] < 0) {
      for (const util::BitVector& c : s.candidates) {
        EXPECT_FALSE(c.Test(node));
      }
      continue;
    }
    const auto& signature = classes.signatures[classes.class_of[node]];
    for (uint32_t v = 0; v < s.candidates.size(); ++v) {
      bool in_signature = std::find(signature.begin(), signature.end(), v) !=
                          signature.end();
      EXPECT_EQ(s.candidates[v].Test(node), in_signature);
    }
  }
}

// ---------------------------------------------------------------------------
// Deadlines: truncation is sound (superset) and flagged
// ---------------------------------------------------------------------------

TEST(SolveControlTest, CancelledSolveTruncatesToASoundSuperset) {
  datagen::RandomGraphConfig config;
  config.num_nodes = 150;
  config.num_edges = 600;
  config.num_labels = 3;
  config.seed = 9;
  graph::GraphDatabase db = datagen::MakeRandomDatabase(config);
  graph::Graph pattern = datagen::MakeRandomPattern(6, 4, 3, 77);
  Soi soi = BuildSoiFromGraph(pattern);

  SimEngine engine(&db, SolverOptions{});
  Solution full = engine.Solve(soi);
  ASSERT_FALSE(full.truncated);

  // Pre-cancelled control: the fixpoint stops at the first round boundary.
  std::atomic<bool> cancel{true};
  SolveControl control;
  control.cancel = &cancel;
  Solution cut = engine.Solve(soi, /*initial=*/nullptr, &control);
  EXPECT_TRUE(cut.truncated);
  ASSERT_EQ(cut.candidates.size(), full.candidates.size());
  for (size_t v = 0; v < full.candidates.size(); ++v) {
    // Soundness: truncation can only leave extra candidates, never lose one.
    util::BitVector both = cut.candidates[v];
    both.AndWith(full.candidates[v]);
    EXPECT_EQ(both, full.candidates[v]) << "var " << v;
  }
}

TEST(SolveControlTest, ExpiredDeadlineMarksPruneReportTruncated) {
  graph::GraphDatabase db = datagen::MakeMovieDatabase();
  auto parsed = sparql::Parser::Parse(
      "SELECT * WHERE { ?m <genre> ?g . ?d <directed> ?m . }");
  ASSERT_TRUE(parsed.ok()) << parsed.error_message();
  sparql::Query query = std::move(parsed).value();

  SimEngine engine(&db, SolverOptions{});
  SolveControl control;
  control.deadline = std::chrono::steady_clock::now();  // already expired
  PruneReport report = engine.Prune(query, &control);
  EXPECT_TRUE(report.truncated);

  PruneReport full = engine.Prune(query);
  EXPECT_FALSE(full.truncated);
  // Superset property lifts through triple extraction.
  for (const graph::Triple& t : full.kept_triples) {
    EXPECT_TRUE(std::find(report.kept_triples.begin(),
                          report.kept_triples.end(),
                          t) != report.kept_triples.end());
  }
}

}  // namespace
}  // namespace sparqlsim::sim
