// End-to-end integration at dataset scale: the full benchmark pipeline
// (generator -> parser -> SOI -> solver -> prune -> engine) on the
// LUBM-like and DBpedia-like databases with the paper's query workloads.

#include <gtest/gtest.h>

#include "datagen/dbpedia.h"
#include "datagen/lubm.h"
#include "datagen/queries.h"
#include "engine/evaluator.h"
#include "engine/required_triples.h"
#include "sim/sim_engine.h"
#include "sparql/parser.h"

namespace sparqlsim {
namespace {

class LubmPipeline : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::LubmConfig config;
    config.num_universities = 1;
    config.seed = 3;
    db_ = new graph::GraphDatabase(datagen::MakeLubmDatabase(config));
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }
  static graph::GraphDatabase* db_;
};
graph::GraphDatabase* LubmPipeline::db_ = nullptr;

class DbpediaPipeline : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::DbpediaConfig config;
    config.scale = 1;
    config.seed = 3;
    db_ = new graph::GraphDatabase(datagen::MakeDbpediaDatabase(config));
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }
  static graph::GraphDatabase* db_;
};
graph::GraphDatabase* DbpediaPipeline::db_ = nullptr;

/// The three core guarantees checked per query:
///  1. candidates cover every match binding (Thm. 2 / Def. 3),
///  2. the prune is a superset of the required triples,
///  3. evaluating on the pruned database loses no match (and is exact for
///     the monotone fragment).
void CheckQuery(const graph::GraphDatabase& db, const std::string& id,
                const std::string& text) {
  SCOPED_TRACE(id);
  auto parsed = sparql::Parser::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error_message();
  sparql::Query query = std::move(parsed).value();

  engine::Evaluator evaluator(&db);
  engine::SolutionSet rows = evaluator.EvaluatePattern(*query.where);

  sim::PruneReport report = sim::SimEngine(&db).Prune(query);

  // (1) Candidates cover matches.
  for (size_t i = 0; i < rows.NumRows(); ++i) {
    for (size_t c = 0; c < rows.Arity(); ++c) {
      uint32_t value = rows.Row(i)[c];
      if (value == engine::kUnbound) continue;
      ASSERT_TRUE(report.var_candidates.at(rows.vars()[c]).Test(value))
          << "row " << i << " var " << rows.vars()[c];
    }
  }

  // (2) kept ⊇ required.
  auto required = engine::CollectRequiredTriples(query, db, evaluator);
  std::set<graph::Triple> kept(report.kept_triples.begin(),
                               report.kept_triples.end());
  for (const graph::Triple& t : required) {
    ASSERT_TRUE(kept.count(t))
        << db.nodes().Name(t.subject) << " "
        << db.predicates().Name(t.predicate) << " "
        << db.nodes().Name(t.object);
  }

  // (3) No match lost on the prune.
  graph::GraphDatabase pruned = db.Restrict(report.kept_triples);
  engine::Evaluator pruned_eval(&pruned);
  engine::SolutionSet pruned_rows = pruned_eval.EvaluatePattern(*query.where);
  EXPECT_GE(pruned_rows.NumRows(), rows.NumRows());

  // Both engine policies agree on the result cardinality.
  engine::Evaluator virtuoso(&db,
                             {engine::JoinOrderPolicy::kVirtuosoLike});
  EXPECT_EQ(virtuoso.EvaluatePattern(*query.where).NumRows(), rows.NumRows());
}

TEST_F(LubmPipeline, L0) { CheckQuery(*db_, "L0", datagen::LubmQueries()[0].text); }
TEST_F(LubmPipeline, L1) { CheckQuery(*db_, "L1", datagen::LubmQueries()[1].text); }
TEST_F(LubmPipeline, L2) { CheckQuery(*db_, "L2", datagen::LubmQueries()[2].text); }
TEST_F(LubmPipeline, L3) { CheckQuery(*db_, "L3", datagen::LubmQueries()[3].text); }
TEST_F(LubmPipeline, L4) { CheckQuery(*db_, "L4", datagen::LubmQueries()[4].text); }
TEST_F(LubmPipeline, L5) { CheckQuery(*db_, "L5", datagen::LubmQueries()[5].text); }

TEST_F(DbpediaPipeline, DQueries) {
  for (const auto& [id, text] : datagen::DbpediaQueries()) {
    CheckQuery(*db_, id, text);
  }
}

TEST_F(DbpediaPipeline, BQueriesSelective) {
  for (const auto& [id, text] : datagen::BenchmarkQueries()) {
    // Skip the largest result sets to keep the suite quick; they are
    // exercised by the benches.
    if (id == "B14" || id == "B17" || id == "B2") continue;
    CheckQuery(*db_, id, text);
  }
}

TEST_F(DbpediaPipeline, PruningIsIdempotent) {
  // Pruning the pruned database changes nothing: the largest dual
  // simulation of the prune keeps every kept triple.
  sparql::Query query =
      std::move(sparql::Parser::Parse(datagen::DbpediaQueries()[3].text))
          .value();
  sim::PruneReport first = sim::SimEngine(db_).Prune(query);
  graph::GraphDatabase pruned = db_->Restrict(first.kept_triples);
  sim::PruneReport second = sim::SimEngine(&pruned).Prune(query);
  EXPECT_EQ(first.kept_triples, second.kept_triples);
}

TEST_F(LubmPipeline, UnionQueryAcrossWorkloads) {
  CheckQuery(*db_,
             "union",
             "SELECT * WHERE { { ?x <headOf> ?d . } UNION "
             "{ ?x <worksFor> ?d . ?x a <FullProfessor> . } }");
}

TEST_F(LubmPipeline, NestedOptionalQuery) {
  CheckQuery(*db_,
             "nested-opt",
             "SELECT * WHERE { ?s <advisor> ?p . OPTIONAL { ?p <teacherOf> "
             "?c . OPTIONAL { ?s <takesCourse> ?c2 . } } }");
}

}  // namespace
}  // namespace sparqlsim
