#include <gtest/gtest.h>

#include "datagen/dbpedia.h"
#include "datagen/lubm.h"
#include "datagen/queries.h"
#include "engine/evaluator.h"
#include "sparql/parser.h"

namespace sparqlsim::datagen {
namespace {

LubmConfig SmallLubm() {
  LubmConfig config;
  config.num_universities = 1;
  config.seed = 1;
  return config;
}

DbpediaConfig SmallDbpedia() {
  DbpediaConfig config;
  config.scale = 1;
  config.seed = 1;
  return config;
}

TEST(LubmGeneratorTest, DeterministicBySeed) {
  graph::GraphDatabase a = MakeLubmDatabase(SmallLubm());
  graph::GraphDatabase b = MakeLubmDatabase(SmallLubm());
  EXPECT_EQ(a.NumTriples(), b.NumTriples());
  EXPECT_EQ(a.NumNodes(), b.NumNodes());
}

TEST(LubmGeneratorTest, SchemaShape) {
  graph::GraphDatabase db = MakeLubmDatabase(SmallLubm());
  // LUBM's signature property: 18 predicates, low label diversity.
  EXPECT_EQ(db.NumPredicates(), 18u);
  EXPECT_GT(db.NumTriples(), 10000u);

  // Guaranteed anchors used by the L-queries.
  EXPECT_TRUE(db.nodes().Lookup("U0").has_value());
  EXPECT_TRUE(db.nodes().Lookup("U0/D0").has_value());
  EXPECT_TRUE(db.nodes().Lookup("FullProfessor").has_value());
  EXPECT_TRUE(db.nodes().Lookup("Publication").has_value());

  // rdf:type is the dominant predicate, as in real LUBM.
  uint32_t type_p = *db.predicates().Lookup("rdf:type");
  EXPECT_GT(db.PredicateCardinality(type_p), db.NumTriples() / 10);
}

TEST(LubmGeneratorTest, StructuralInvariants) {
  graph::GraphDatabase db = MakeLubmDatabase(SmallLubm());
  uint32_t works_for = *db.predicates().Lookup("worksFor");
  uint32_t member_of = *db.predicates().Lookup("memberOf");
  uint32_t advisor = *db.predicates().Lookup("advisor");

  // Every advisor target works for some department.
  const util::BitVector& advisors = db.BackwardSummary(advisor);
  const util::BitVector& employees = db.ForwardSummary(works_for);
  EXPECT_TRUE(advisors.IsSubsetOf(employees));

  // Students (memberOf sources) and faculty (worksFor sources) disjoint.
  EXPECT_FALSE(db.ForwardSummary(member_of).IntersectsWith(employees));
}

TEST(LubmGeneratorTest, AttributeTogglesLiterals) {
  LubmConfig with = SmallLubm();
  LubmConfig without = SmallLubm();
  without.attribute_triples = false;
  graph::GraphDatabase a = MakeLubmDatabase(with);
  graph::GraphDatabase b = MakeLubmDatabase(without);
  EXPECT_GT(a.NumTriples(), b.NumTriples());
  EXPECT_EQ(*b.predicates().Lookup("name"),
            *a.predicates().Lookup("name"));  // predicate exists either way
}

TEST(DbpediaGeneratorTest, SchemaShape) {
  graph::GraphDatabase db = MakeDbpediaDatabase(SmallDbpedia());
  // High predicate diversity: core predicates + Zipf tail.
  EXPECT_GT(db.NumPredicates(), 100u);
  EXPECT_GT(db.NumTriples(), 100000u);

  // Query anchors promised by the generator contract.
  for (const char* name :
       {"Person0", "City0", "City17", "Genre0", "Genre3", "Company0",
        "Country0", "Actor", "Film", "Band", "Person"}) {
    EXPECT_TRUE(db.nodes().Lookup(name).has_value()) << name;
  }

  // "Person0" is a director (index % 20 == 0).
  uint32_t type_p = *db.predicates().Lookup("rdf:type");
  EXPECT_TRUE(db.Forward(type_p).Test(*db.nodes().Lookup("Person0"),
                                      *db.nodes().Lookup("Director")));
}

TEST(DbpediaGeneratorTest, ZipfTailIsSkewed) {
  graph::GraphDatabase db = MakeDbpediaDatabase(SmallDbpedia());
  uint32_t tail0 = *db.predicates().Lookup("tail0");
  uint32_t tail_last = *db.predicates().Lookup("tail149");
  EXPECT_GT(db.PredicateCardinality(tail0),
            db.PredicateCardinality(tail_last));
  // Most tail predicates are tiny (the "99% under 1 MB" profile).
  size_t tiny = 0;
  for (size_t i = 0; i < 150; ++i) {
    uint32_t p = *db.predicates().Lookup("tail" + std::to_string(i));
    if (db.PredicateCardinality(p) < 2000) ++tiny;
  }
  EXPECT_GT(tiny, 100u);
}

TEST(DbpediaGeneratorTest, LiteralsOnlyAsObjects) {
  graph::GraphDatabase db = MakeDbpediaDatabase(SmallDbpedia());
  db.ForEachTriple([&](const graph::Triple& t) {
    EXPECT_FALSE(db.IsLiteral(t.subject));
  });
}

TEST(QueryWorkloadTest, AllQueriesParse) {
  for (const auto& [id, text] : LubmQueries()) {
    EXPECT_TRUE(sparql::Parser::Parse(text).ok()) << id;
  }
  for (const auto& [id, text] : DbpediaQueries()) {
    EXPECT_TRUE(sparql::Parser::Parse(text).ok()) << id;
  }
  for (const auto& [id, text] : BenchmarkQueries()) {
    EXPECT_TRUE(sparql::Parser::Parse(text).ok()) << id;
  }
  EXPECT_EQ(LubmQueries().size(), 6u);
  EXPECT_EQ(DbpediaQueries().size(), 6u);
  EXPECT_EQ(BenchmarkQueries().size(), 20u);
}

TEST(QueryWorkloadTest, CardinalityProfile) {
  // The workload reproduces the paper's result-profile classes: L1/L3-L5
  // selective, L0/L2 large; D1 empty; B4/B5/B15 empty; B1/B14/B17 large.
  graph::GraphDatabase lubm = MakeLubmDatabase(SmallLubm());
  engine::Evaluator lubm_eval(&lubm);
  std::map<std::string, size_t> results;
  for (const auto& [id, text] : LubmQueries()) {
    auto q = sparql::Parser::Parse(text);
    ASSERT_TRUE(q.ok()) << id;
    results[id] = lubm_eval.Evaluate(q.value()).NumRows();
  }
  EXPECT_GT(results["L0"], 100u);
  EXPECT_GT(results["L1"], 0u);
  EXPECT_GT(results["L2"], results["L3"]);
  EXPECT_GT(results["L3"], 0u);
  EXPECT_GT(results["L4"], 0u);

  graph::GraphDatabase dbp = MakeDbpediaDatabase(SmallDbpedia());
  engine::Evaluator dbp_eval(&dbp);
  for (const auto& [id, text] : DbpediaQueries()) {
    auto q = sparql::Parser::Parse(text);
    ASSERT_TRUE(q.ok()) << id;
    results[id] = dbp_eval.Evaluate(q.value()).NumRows();
  }
  EXPECT_EQ(results["D1"], 0u);
  EXPECT_GT(results["D0"], 1000u);
  EXPECT_GT(results["D4"], 10000u);

  for (const auto& [id, text] : BenchmarkQueries()) {
    auto q = sparql::Parser::Parse(text);
    ASSERT_TRUE(q.ok()) << id;
    results[id] = dbp_eval.Evaluate(q.value()).NumRows();
  }
  EXPECT_EQ(results["B4"], 0u);
  EXPECT_EQ(results["B5"], 0u);
  EXPECT_EQ(results["B15"], 0u);
  EXPECT_GT(results["B1"], 10000u);
  EXPECT_GT(results["B14"], 10000u);
  EXPECT_GT(results["B16"], 0u);
  EXPECT_LT(results["B16"], 200u);
}

TEST(QueryWorkloadTest, L1IsSatisfiable) {
  // The same-university degree knob makes Fig. 6(b)'s cycle close.
  graph::GraphDatabase lubm = MakeLubmDatabase(SmallLubm());
  engine::Evaluator eval(&lubm);
  auto q = sparql::Parser::Parse(LubmQueries()[1].text);
  ASSERT_TRUE(q.ok());
  EXPECT_GT(eval.Evaluate(q.value()).NumRows(), 0u);
}

}  // namespace
}  // namespace sparqlsim::datagen
