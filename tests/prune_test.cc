#include "sim/sim_engine.h"

#include <gtest/gtest.h>

#include "datagen/movies.h"
#include "datagen/random_graphs.h"
#include "engine/evaluator.h"
#include "engine/required_triples.h"
#include "sparql/parser.h"
#include "util/rng.h"

namespace sparqlsim::sim {
namespace {

using engine::Evaluator;
using engine::kUnbound;
using engine::SolutionSet;
using sparql::Parser;

sparql::Query Q(const char* text) {
  auto r = Parser::Parse(text);
  EXPECT_TRUE(r.ok()) << r.error_message();
  return std::move(r).value();
}

/// Order-independent materialization of a solution set.
std::set<std::vector<uint32_t>> RowSet(const SolutionSet& rows) {
  std::set<std::vector<uint32_t>> out;
  // Align columns by sorted variable order so schemas compare equal.
  std::vector<std::string> vars = rows.vars();
  std::sort(vars.begin(), vars.end());
  for (size_t i = 0; i < rows.NumRows(); ++i) {
    std::vector<uint32_t> row;
    for (const std::string& v : vars) row.push_back(rows.Value(i, rows.IndexOf(v)));
    out.insert(std::move(row));
  }
  return out;
}

/// The practical soundness property behind Tables 4/5: evaluating on the
/// pruned database returns exactly the full-database result set.
void ExpectPrunePreservesResults(const graph::GraphDatabase& db,
                                 const sparql::Query& query) {
  Evaluator full_eval(&db);
  SolutionSet full = full_eval.Evaluate(query);

  PruneReport report = SimEngine(&db).Prune(query);
  graph::GraphDatabase pruned = db.Restrict(report.kept_triples);
  Evaluator pruned_eval(&pruned);
  SolutionSet on_pruned = pruned_eval.Evaluate(query);

  EXPECT_EQ(RowSet(full), RowSet(on_pruned));
  EXPECT_LE(pruned.NumTriples(), db.NumTriples());
}

/// Theorem 1/2: every match binding (v, o) lies in the candidate set the
/// prune reports for v.
void ExpectCandidatesCoverMatches(const graph::GraphDatabase& db,
                                  const sparql::Query& query) {
  Evaluator eval(&db);
  SolutionSet rows = eval.EvaluatePattern(*query.where);
  PruneReport report = SimEngine(&db).Prune(query);

  for (size_t i = 0; i < rows.NumRows(); ++i) {
    for (size_t c = 0; c < rows.Arity(); ++c) {
      uint32_t value = rows.Row(i)[c];
      if (value == kUnbound) continue;
      const auto& candidates = report.var_candidates.at(rows.vars()[c]);
      EXPECT_TRUE(candidates.Test(value))
          << "match value " << db.nodes().Name(value) << " for ?"
          << rows.vars()[c] << " missing from dual simulation";
    }
  }
}

TEST(PruneTest, MovieX1KeepsOnlyRelevantTriples) {
  graph::GraphDatabase db = datagen::MakeMovieDatabase();
  sparql::Query q = Q(
      "SELECT * WHERE { ?director <directed> ?movie . "
      "?director <worked_with> ?coworker . }");
  PruneReport report = SimEngine(&db).Prune(q);
  // Exactly the 4 triples of the two bold subgraphs of Fig. 1(a).
  EXPECT_EQ(report.kept_triples.size(), 4u);
  ExpectPrunePreservesResults(db, q);
  ExpectCandidatesCoverMatches(db, q);
}

TEST(PruneTest, MovieX2OptionalKeepsDirectorsWithoutCoworkers) {
  graph::GraphDatabase db = datagen::MakeMovieDatabase();
  sparql::Query q = Q(
      "SELECT * WHERE { ?director <directed> ?movie . "
      "OPTIONAL { ?director <worked_with> ?coworker . } }");
  PruneReport report = SimEngine(&db).Prune(q);
  // All four directed triples survive (optional must not constrain the
  // mandatory part), plus the two witnessed worked_with triples.
  EXPECT_EQ(report.kept_triples.size(), 6u);
  ExpectPrunePreservesResults(db, q);
  ExpectCandidatesCoverMatches(db, q);
}

TEST(PruneTest, EmptyQueryPrunesEverything) {
  graph::GraphDatabase db = datagen::MakeMovieDatabase();
  sparql::Query q = Q("SELECT * WHERE { ?x <directed> <NoSuchMovie> . }");
  PruneReport report = SimEngine(&db).Prune(q);
  EXPECT_TRUE(report.kept_triples.empty());
}

TEST(PruneTest, UnionBranchesPruneIndependently) {
  graph::GraphDatabase db = datagen::MakeMovieDatabase();
  sparql::Query q = Q(
      "SELECT * WHERE { { ?m <awarded> <Oscar> . } UNION "
      "{ ?m <awarded> <BAFTA Awards> . } }");
  PruneReport report = SimEngine(&db).Prune(q);
  EXPECT_EQ(report.num_branches, 2u);
  EXPECT_EQ(report.kept_triples.size(), 3u);
  ExpectPrunePreservesResults(db, q);
}

TEST(PruneTest, PruneNeverBelowRequiredTriples) {
  // Sound pruning keeps a superset of the required triples (Table 3's
  // invariant: tripl. aft. pruning >= req. triples).
  graph::GraphDatabase db = datagen::MakeMovieDatabase();
  for (const char* text : {
           "SELECT * WHERE { ?d <directed> ?m . ?m <genre> ?g . }",
           "SELECT * WHERE { ?d <directed> ?m . OPTIONAL { ?m <awarded> "
           "?a . } }",
           "SELECT * WHERE { ?p <born_in> ?c . ?c <population> ?n . }",
       }) {
    sparql::Query q = Q(text);
    PruneReport report = SimEngine(&db).Prune(q);
    Evaluator eval(&db);
    auto required = engine::CollectRequiredTriples(q, db, eval);
    std::set<graph::Triple> kept(report.kept_triples.begin(),
                                 report.kept_triples.end());
    for (const graph::Triple& t : required) {
      EXPECT_TRUE(kept.count(t)) << text;
    }
  }
}

/// Property sweep: on random databases and randomly composed queries,
/// pruning preserves result sets and candidates cover matches.
class PruneSoundness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PruneSoundness, RandomQueriesStaySound) {
  uint64_t seed = GetParam();
  util::Rng rng(seed);
  datagen::RandomGraphConfig config;
  config.num_nodes = 40 + rng.NextBounded(40);
  config.num_edges = 200 + rng.NextBounded(300);
  config.num_labels = 2 + rng.NextBounded(3);
  config.seed = seed;
  graph::GraphDatabase db = datagen::MakeRandomDatabase(config);

  auto random_var = [&](int max_vars) {
    return "?v" + std::to_string(rng.NextBounded(max_vars));
  };
  auto random_triple = [&](int max_vars) {
    std::string p = "<p" + std::to_string(rng.NextBounded(config.num_labels)) +
                    ">";
    return random_var(max_vars) + " " + p + " " + random_var(max_vars) + " .";
  };

  // Compose: mandatory BGP of 2-3 triples + optional block + maybe union.
  std::string text = "SELECT * WHERE { ";
  size_t mandatory = 2 + rng.NextBounded(2);
  for (size_t i = 0; i < mandatory; ++i) text += random_triple(3) + " ";
  if (rng.NextBool(0.7)) {
    text += "OPTIONAL { " + random_triple(5) + " } ";
  }
  text += "}";

  sparql::Query q = Q(text.c_str());
  ExpectPrunePreservesResults(db, q);
  ExpectCandidatesCoverMatches(db, q);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PruneSoundness,
                         ::testing::Range<uint64_t>(1, 25));

/// UNION shapes go through Prop. 3 normalization before the SOI; the
/// monotone fragment must stay exact on the prune.
class PruneSoundnessUnion : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PruneSoundnessUnion, UnionQueriesStayExact) {
  uint64_t seed = GetParam();
  util::Rng rng(seed + 1000);
  datagen::RandomGraphConfig config;
  config.num_nodes = 30 + rng.NextBounded(30);
  config.num_edges = 150 + rng.NextBounded(150);
  config.num_labels = 3;
  config.seed = seed;
  graph::GraphDatabase db = datagen::MakeRandomDatabase(config);

  auto random_triple = [&]() {
    auto var = [&]() { return "?v" + std::to_string(rng.NextBounded(3)); };
    return var() + " <p" + std::to_string(rng.NextBounded(3)) + "> " + var() +
           " .";
  };
  std::string text = "SELECT * WHERE { { " + random_triple() + " " +
                     random_triple() + " } UNION { " + random_triple() +
                     " } }";
  sparql::Query q = Q(text.c_str());

  Evaluator full_eval(&db);
  SolutionSet full = full_eval.Evaluate(q);
  PruneReport report = SimEngine(&db).Prune(q);
  graph::GraphDatabase pruned = db.Restrict(report.kept_triples);
  SolutionSet on_pruned = Evaluator(&pruned).Evaluate(q);
  // Monotone fragment: exact equality of result multisets after dedupe.
  full.SortAndDedupe();
  on_pruned.SortAndDedupe();
  EXPECT_EQ(RowSet(full), RowSet(on_pruned)) << text;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PruneSoundnessUnion,
                         ::testing::Range<uint64_t>(1, 13));

TEST(PruneTest, NonWellDesignedOptionalOverapproximates) {
  // The (X3)-style phenomenon: OPTIONAL is non-monotone, so evaluating a
  // non-well-designed query on the pruned database can yield a strict
  // superset of the full result (the paper's "overapproximation", Sect. 1)
  // — but never lose a match.
  graph::GraphDatabase db = datagen::MakeMovieDatabase();
  sparql::Query q = Q(
      "SELECT * WHERE { ?director <directed> ?movie . "
      "OPTIONAL { ?director <worked_with> ?other . } "
      "?other <directed> ?film . }");

  Evaluator full_eval(&db);
  SolutionSet full = full_eval.Evaluate(q);

  PruneReport report = SimEngine(&db).Prune(q);
  graph::GraphDatabase pruned = db.Restrict(report.kept_triples);
  SolutionSet on_pruned = Evaluator(&pruned).Evaluate(q);

  auto full_rows = RowSet(full);
  auto pruned_rows = RowSet(on_pruned);
  // Soundness: every full match survives.
  for (const auto& row : full_rows) {
    EXPECT_TRUE(pruned_rows.count(row));
  }
  // And on this instance the containment is strict: G. Hamilton's
  // coworker directs nothing, so his worked_with edge is pruned, the
  // optional part goes unbound, and extra rows appear.
  EXPECT_GT(pruned_rows.size(), full_rows.size());
}

TEST(PruneTest, ExactPrunedEvaluationRemovesOverapproximation) {
  // The exact-mode evaluator (OPTIONAL right-hand sides read the full
  // database) returns the full result set on the prune — the (X3)-style
  // superset disappears.
  graph::GraphDatabase db = datagen::MakeMovieDatabase();
  sparql::Query q = Q(
      "SELECT * WHERE { ?director <directed> ?movie . "
      "OPTIONAL { ?director <worked_with> ?other . } "
      "?other <directed> ?film . }");

  Evaluator full_eval(&db);
  SolutionSet full = full_eval.Evaluate(q);

  PruneReport report = SimEngine(&db).Prune(q);
  graph::GraphDatabase pruned = db.Restrict(report.kept_triples);

  engine::EvaluatorOptions exact;
  exact.optional_rhs_db = &db;
  SolutionSet exact_rows = Evaluator(&pruned, exact).Evaluate(q);
  EXPECT_EQ(RowSet(full), RowSet(exact_rows));
}

class ExactPrunedEvaluation : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExactPrunedEvaluation, RandomOptionalQueriesStayExact) {
  uint64_t seed = GetParam();
  util::Rng rng(seed * 13 + 5);
  datagen::RandomGraphConfig config;
  config.num_nodes = 30 + rng.NextBounded(30);
  config.num_edges = 120 + rng.NextBounded(200);
  config.num_labels = 3;
  config.seed = seed;
  graph::GraphDatabase db = datagen::MakeRandomDatabase(config);

  auto var = [&](int k) { return "?v" + std::to_string(rng.NextBounded(k)); };
  auto triple = [&](int k) {
    return var(k) + " <p" + std::to_string(rng.NextBounded(3)) + "> " +
           var(k) + " .";
  };
  // Deliberately non-well-designed compositions.
  std::string text = "SELECT * WHERE { " + triple(2) + " OPTIONAL { " +
                     triple(4) + " } " + triple(4) + " }";
  sparql::Query q = Q(text.c_str());

  Evaluator full_eval(&db);
  SolutionSet full = full_eval.Evaluate(q);

  PruneReport report = SimEngine(&db).Prune(q);
  graph::GraphDatabase pruned = db.Restrict(report.kept_triples);
  engine::EvaluatorOptions exact;
  exact.optional_rhs_db = &db;
  SolutionSet exact_rows = Evaluator(&pruned, exact).Evaluate(q);
  EXPECT_EQ(RowSet(full), RowSet(exact_rows)) << text;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactPrunedEvaluation,
                         ::testing::Range<uint64_t>(1, 13));

TEST(PruneStatsTest, ReportsTimingsAndBranches) {
  graph::GraphDatabase db = datagen::MakeMovieDatabase();
  PruneReport report =
      SimEngine(&db).Prune(Q("SELECT * WHERE { ?d <directed> ?m . }"));
  EXPECT_EQ(report.num_branches, 1u);
  EXPECT_GE(report.total_seconds, 0.0);
  EXPECT_GE(report.stats.rounds, 1u);
}

}  // namespace
}  // namespace sparqlsim::sim
