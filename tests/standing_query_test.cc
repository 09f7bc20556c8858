// Standing-query maintenance contract: after every applied delta batch the
// incrementally maintained solution must be *bit-identical* to a cold
// solve on the post-delta database — for every escalation policy, thread
// count, and shard count. The randomized differential suite below
// drives logged seeds through insert-only, delete-only, mixed, and
// no-op/duplicate batches (UNION and OPTIONAL patterns included) and
// checks each maintained report against a cold reference chain; scripted
// tests pin the edge cases (a delta emptying the selection, a delta
// restoring retracted candidates) and the engagement guards (maintenance
// must actually do less work than a first round, not silently recompute).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "datagen/random_graphs.h"
#include "graph/graph_database.h"
#include "graph/triple.h"
#include "sim/sim_engine.h"
#include "sim/standing_query.h"
#include "sparql/parser.h"
#include "util/rng.h"

namespace sparqlsim::sim {
namespace {

sparql::Query ParseQuery(const std::string& text) {
  auto parsed = sparql::Parser::Parse(text);
  EXPECT_TRUE(parsed.ok()) << parsed.error_message() << " in " << text;
  return std::move(parsed).value();
}

// The full configuration matrix the differential invariant must hold
// over: threads x shards. Policies are a separate axis (PolicyAgreement
// below) so the matrix stays affordable.
struct MatrixConfig {
  size_t threads;
  size_t shards;
};

std::vector<MatrixConfig> FullMatrix() {
  std::vector<MatrixConfig> out;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    for (size_t shards : {size_t{1}, size_t{4}}) {
      out.push_back({threads, shards});
    }
  }
  return out;
}

std::string Describe(const MatrixConfig& c) {
  return "threads=" + std::to_string(c.threads) +
         " shards=" + std::to_string(c.shards);
}

bool Contains(const std::vector<graph::Triple>& sorted,
              const graph::Triple& t) {
  return std::binary_search(sorted.begin(), sorted.end(), t);
}

/// A reproducible delta stream cycling through the four batch kinds:
/// delete-only, insert-only (restores + fresh triples), mixed, and
/// no-op/duplicate (deleting absent triples, inserting present ones).
/// `content` tracks the expected post-batch triple set.
std::vector<TripleDelta> MakeDeltaStream(const graph::GraphDatabase& db,
                                         util::Rng& rng, size_t batches) {
  std::vector<graph::Triple> content = db.AllTriples();
  std::sort(content.begin(), content.end());
  std::vector<graph::Triple> retracted;

  auto random_triple = [&] {
    return graph::Triple{
        static_cast<uint32_t>(rng.NextBounded(db.NumNodes())),
        static_cast<uint32_t>(rng.NextBounded(db.NumPredicates())),
        static_cast<uint32_t>(rng.NextBounded(db.NumNodes()))};
  };
  auto sample_present = [&](size_t count) {
    std::vector<graph::Triple> out;
    for (size_t i = 0; i < count && !content.empty(); ++i) {
      out.push_back(content[rng.NextBounded(content.size())]);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  };

  std::vector<TripleDelta> stream;
  for (size_t batch = 0; batch < batches; ++batch) {
    TripleDelta delta;
    switch (batch % 4) {
      case 0:  // delete-only
        delta.deletes = sample_present(12);
        break;
      case 1: {  // insert-only: restore some retractions + fresh triples
        const size_t restore = std::min<size_t>(retracted.size(), 6);
        delta.inserts.assign(
            retracted.end() - static_cast<ptrdiff_t>(restore),
            retracted.end());
        retracted.resize(retracted.size() - restore);
        for (size_t i = 0; i < 6; ++i) {
          graph::Triple t = random_triple();
          if (!Contains(content, t)) delta.inserts.push_back(t);
        }
        break;
      }
      case 2:  // mixed: disjoint deletes (present) + inserts (absent)
        delta.deletes = sample_present(8);
        for (size_t i = 0; i < 5; ++i) {
          graph::Triple t = random_triple();
          if (!Contains(content, t)) delta.inserts.push_back(t);
        }
        break;
      case 3:  // no-op: absent deletes + duplicate inserts
        for (size_t i = 0; i < 5; ++i) {
          graph::Triple t = random_triple();
          if (!Contains(content, t)) delta.deletes.push_back(t);
        }
        delta.inserts = sample_present(4);
        break;
    }
    // Maintain the expected content set.
    for (const graph::Triple& t : delta.deletes) {
      auto it = std::lower_bound(content.begin(), content.end(), t);
      if (it != content.end() && *it == t) {
        content.erase(it);
        retracted.push_back(t);
      }
    }
    for (const graph::Triple& t : delta.inserts) {
      auto it = std::lower_bound(content.begin(), content.end(), t);
      if (it == content.end() || *it != t) content.insert(it, t);
    }
    stream.push_back(std::move(delta));
  }
  return stream;
}

/// Cold reference chain: db_0 = base, db_i = db_{i-1} - deletes + inserts,
/// solved sequentially without caches. Index 0 is the pre-delta solve.
struct ReferenceChain {
  std::vector<graph::GraphDatabase> dbs;
  std::vector<PruneReport> reports;
};

ReferenceChain MakeReferenceChain(const graph::GraphDatabase& base,
                                  const std::vector<TripleDelta>& stream,
                                  const sparql::Query& query) {
  SolverOptions plain;
  plain.num_threads = 1;
  plain.cache_sois = false;
  plain.cache_solutions = false;
  ReferenceChain chain;
  chain.dbs.push_back(base.Restrict(base.AllTriples()));  // content copy
  for (const TripleDelta& delta : stream) {
    graph::GraphDatabase next =
        chain.dbs.back().WithTriplesRemoved(delta.deletes).WithTriplesAdded(
            delta.inserts);
    chain.dbs.push_back(std::move(next));
  }
  for (const graph::GraphDatabase& db : chain.dbs) {
    SimEngine engine(&db, plain);
    chain.reports.push_back(engine.Prune(query));
  }
  return chain;
}

void ExpectSameSolution(const PruneReport& got, const PruneReport& want,
                        const std::string& context) {
  EXPECT_EQ(got.kept_triples, want.kept_triples) << context;
  EXPECT_EQ(got.var_candidates, want.var_candidates) << context;
  EXPECT_EQ(got.num_branches, want.num_branches) << context;
}

// ---------------------------------------------------------------------------
// Randomized differential suite over the full configuration matrix
// ---------------------------------------------------------------------------

class StandingDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StandingDifferentialTest, MaintainedEqualsColdAcrossFullMatrix) {
  const uint64_t seed = GetParam();
  SCOPED_TRACE("seed=" + std::to_string(seed));

  datagen::RandomGraphConfig config;
  config.num_nodes = 60;
  config.num_edges = 240;
  config.num_labels = 3;
  config.seed = seed;
  graph::GraphDatabase base = datagen::MakeRandomDatabase(config);

  const std::vector<std::string> texts = {
      "SELECT * WHERE { ?a <p0> ?b . ?b <p1> ?c . ?c <p2> ?a . }",
      "SELECT * WHERE { ?a <p1> ?b . OPTIONAL { ?b <p2> ?c . } }",
      "SELECT * WHERE { { ?a <p0> ?b . ?b <p1> ?c . } UNION "
      "{ ?a <p2> ?b . ?b <p2> ?c . } }",
  };

  util::Rng rng(seed * 7919 + 13);
  const std::vector<TripleDelta> stream = MakeDeltaStream(base, rng, 6);

  for (size_t q = 0; q < texts.size(); ++q) {
    SCOPED_TRACE("query " + std::to_string(q));
    const sparql::Query query = ParseQuery(texts[q]);
    const ReferenceChain chain = MakeReferenceChain(base, stream, query);

    for (const MatrixConfig& mc : FullMatrix()) {
      StandingQueryOptions options;
      options.solver.num_threads = mc.threads;
      options.solver.num_shards = mc.shards;
      options.solver.cache_sois = false;
      options.solver.cache_solutions = false;

      StandingQuery standing(query.Clone(), base.Snapshot(), options);
      ExpectSameSolution(standing.report(), chain.reports[0],
                         Describe(mc) + " cold");
      for (size_t batch = 0; batch < stream.size(); ++batch) {
        const PruneReport& got = standing.Apply(stream[batch]);
        ExpectSameSolution(got, chain.reports[batch + 1],
                           Describe(mc) + " batch " + std::to_string(batch));
      }
      // The stream's no-op batches (kind 3) must have taken the
      // contentless fast path at least once.
      EXPECT_GT(standing.stats().noop_applies, 0u) << Describe(mc);
      EXPECT_EQ(standing.stats().applies + standing.stats().noop_applies,
                stream.size())
          << Describe(mc);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StandingDifferentialTest,
                         ::testing::Values(11, 23, 37, 41, 59, 67, 83, 97));

// ---------------------------------------------------------------------------
// Escalation policy: forced maintenance, forced recompute, and the cost
// model must be observationally identical
// ---------------------------------------------------------------------------

class StandingPolicyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StandingPolicyTest, AllPoliciesAgreeBitIdentically) {
  const uint64_t seed = GetParam();
  SCOPED_TRACE("seed=" + std::to_string(seed));

  datagen::RandomGraphConfig config;
  config.num_nodes = 50;
  config.num_edges = 200;
  config.num_labels = 3;
  config.seed = seed;
  graph::GraphDatabase base = datagen::MakeRandomDatabase(config);
  const sparql::Query query =
      ParseQuery("SELECT * WHERE { ?a <p0> ?b . ?b <p1> ?c . ?a <p2> ?c . }");

  util::Rng rng(seed + 1);
  const std::vector<TripleDelta> stream = MakeDeltaStream(base, rng, 8);
  const ReferenceChain chain = MakeReferenceChain(base, stream, query);

  for (auto policy : {StandingQueryOptions::Policy::kAuto,
                      StandingQueryOptions::Policy::kForceMaintain,
                      StandingQueryOptions::Policy::kForceRecompute}) {
    StandingQueryOptions options;
    options.policy = policy;
    options.solver.cache_sois = false;
    options.solver.cache_solutions = false;
    StandingQuery standing(query.Clone(), base.Snapshot(), options);
    const std::string tag = "policy=" + std::to_string(static_cast<int>(policy));
    ExpectSameSolution(standing.report(), chain.reports[0], tag + " cold");
    for (size_t batch = 0; batch < stream.size(); ++batch) {
      ExpectSameSolution(standing.Apply(stream[batch]),
                         chain.reports[batch + 1],
                         tag + " batch " + std::to_string(batch));
    }
    // The forced modes must do what they say (on batches that solved).
    const StandingStats& stats = standing.stats();
    if (policy == StandingQueryOptions::Policy::kForceMaintain) {
      EXPECT_EQ(stats.recomputed, 0u);
      EXPECT_GT(stats.maintained, 0u);
    }
    if (policy == StandingQueryOptions::Policy::kForceRecompute) {
      EXPECT_EQ(stats.maintained, 0u);
      EXPECT_GT(stats.recomputed, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StandingPolicyTest,
                         ::testing::Values(5, 17, 29, 43));

// The engagement guard: on a gradual-erosion workload (delete-only small
// batches — the LC standing-query regime) the cost model must keep
// maintaining, never silently escalate, and must arm strictly fewer
// inequalities than a cold first round evaluates.
TEST(StandingEscalationTest, GradualErosionStaysOnTheMaintenancePath) {
  datagen::RandomGraphConfig config;
  config.num_nodes = 80;
  config.num_edges = 400;
  config.num_labels = 3;
  config.seed = 31;
  graph::GraphDatabase base = datagen::MakeRandomDatabase(config);
  const sparql::Query query =
      ParseQuery("SELECT * WHERE { ?a <p0> ?b . ?b <p1> ?c . ?c <p2> ?d . }");

  StandingQueryOptions options;
  options.solver.cache_sois = false;
  options.solver.cache_solutions = false;
  StandingQuery standing(query.Clone(), base.Snapshot(), options);

  // Erode a single predicate: the dirty set stays {p2}, so arming must be
  // a strict subset of the system (only inequalities reading p2 or
  // depending on its adjacent variables re-run).
  std::vector<graph::Triple> content;
  const uint32_t p2 = *base.predicates().Lookup("p2");
  for (const graph::Triple& t : base.AllTriples()) {
    if (t.predicate == p2) content.push_back(t);
  }
  ASSERT_FALSE(content.empty());
  util::Rng rng(77);
  size_t content_batches = 0;
  for (size_t batch = 0; batch < 6; ++batch) {
    TripleDelta delta;
    for (size_t i = 0; i < 10 && !content.empty(); ++i) {
      const size_t at = rng.NextBounded(content.size());
      delta.deletes.push_back(content[at]);
      content.erase(content.begin() + static_cast<ptrdiff_t>(at));
    }
    if (delta.Empty()) break;
    standing.Apply(delta);
    ++content_batches;
  }

  const StandingStats& stats = standing.stats();
  // Deletions never enter the affected cone, so kAuto must maintain every
  // batch — a recompute here means the cost model regressed.
  EXPECT_EQ(stats.applies, content_batches);
  EXPECT_EQ(stats.recomputed, 0u);
  EXPECT_GT(stats.maintained, 0u);
  // Engagement: strictly fewer armed inequalities than system size, and
  // incremental state actually carried across generations.
  EXPECT_GT(stats.total_ineqs, 0u);
  EXPECT_LT(stats.armed_ineqs, stats.total_ineqs);
  EXPECT_GT(stats.carried_entries, 0u);
}

// UNION branches whose predicates a delta does not touch must be reused
// verbatim — no solve, no re-extraction.
TEST(StandingEscalationTest, UntouchedUnionBranchesAreSkipped) {
  graph::GraphDatabaseBuilder builder;
  for (int i = 0; i < 8; ++i) builder.InternNode("n" + std::to_string(i));
  builder.InternPredicate("left");
  builder.InternPredicate("right");
  ASSERT_TRUE(builder.AddTriple("n0", "left", "n1").ok());
  ASSERT_TRUE(builder.AddTriple("n1", "left", "n2").ok());
  ASSERT_TRUE(builder.AddTriple("n3", "right", "n4").ok());
  ASSERT_TRUE(builder.AddTriple("n4", "right", "n5").ok());
  graph::GraphDatabase base = std::move(builder).Build();

  const sparql::Query query = ParseQuery(
      "SELECT * WHERE { { ?a <left> ?b . ?b <left> ?c . } UNION "
      "{ ?a <right> ?b . ?b <right> ?c . } }");
  StandingQueryOptions options;
  options.solver.cache_sois = false;
  options.solver.cache_solutions = false;
  StandingQuery standing(query.Clone(), base.Snapshot(), options);
  ASSERT_EQ(standing.report().num_branches, 2u);

  // Delete a <left> triple: the <right> branch must be reused as-is.
  const uint32_t left = *base.predicates().Lookup("left");
  const uint32_t n1 = *base.nodes().Lookup("n1");
  const uint32_t n2 = *base.nodes().Lookup("n2");
  TripleDelta delta;
  delta.deletes.push_back({n1, left, n2});
  const PruneReport& report = standing.Apply(delta);
  EXPECT_EQ(standing.stats().untouched_branches, 1u);

  SolverOptions plain;
  plain.num_threads = 1;
  plain.cache_sois = false;
  plain.cache_solutions = false;
  SimEngine cold(&standing.db(), plain);
  ExpectSameSolution(report, cold.Prune(query), "after left-delete");
}

// ---------------------------------------------------------------------------
// Scripted edge cases: emptying the selection, restoring retracted
// candidates, duplicate/absent deltas
// ---------------------------------------------------------------------------

TEST(StandingQueryTest, DeltaEmptiesSelectionAndRestoreBringsItBack) {
  graph::GraphDatabaseBuilder builder;
  for (int i = 0; i < 6; ++i) builder.InternNode("n" + std::to_string(i));
  builder.InternPredicate("e");
  builder.InternPredicate("f");
  // A chain n0 -e-> n1 -f-> n2 plus a decoy edge n3 -e-> n4.
  ASSERT_TRUE(builder.AddTriple("n0", "e", "n1").ok());
  ASSERT_TRUE(builder.AddTriple("n1", "f", "n2").ok());
  ASSERT_TRUE(builder.AddTriple("n3", "e", "n4").ok());
  graph::GraphDatabase base = std::move(builder).Build();

  const sparql::Query query =
      ParseQuery("SELECT * WHERE { ?a <e> ?b . ?b <f> ?c . }");
  StandingQueryOptions options;
  options.solver.cache_sois = false;
  options.solver.cache_solutions = false;
  StandingQuery standing(query.Clone(), base.Snapshot(), options);
  const PruneReport initial = standing.report();
  ASSERT_FALSE(initial.kept_triples.empty());

  const uint32_t f = *base.predicates().Lookup("f");
  const uint32_t n1 = *base.nodes().Lookup("n1");
  const uint32_t n2 = *base.nodes().Lookup("n2");
  const graph::Triple bridge{n1, f, n2};

  // Deleting the only <f> bridge empties the whole selection.
  TripleDelta retract;
  retract.deletes.push_back(bridge);
  const PruneReport& empty = standing.Apply(retract);
  EXPECT_TRUE(empty.kept_triples.empty());
  for (const auto& [var, bits] : empty.var_candidates) {
    EXPECT_TRUE(bits.None()) << "?" << var;
  }

  // Restoring it brings back exactly the original solution.
  TripleDelta restore;
  restore.inserts.push_back(bridge);
  const PruneReport& back = standing.Apply(restore);
  ExpectSameSolution(back, initial, "after restore");

  // Deleting an absent triple / re-inserting a present one is free: the
  // generation is reused and no solve happens.
  const uint64_t generation = standing.generation();
  const size_t applies = standing.stats().applies;
  TripleDelta noop;
  noop.deletes.push_back(bridge);  // just restored, so delete it...
  noop.deletes.pop_back();
  noop.deletes.push_back({n2, f, n1});  // absent
  noop.inserts.push_back(bridge);       // present
  standing.Apply(noop);
  EXPECT_EQ(standing.generation(), generation);
  EXPECT_EQ(standing.stats().applies, applies);
  EXPECT_GT(standing.stats().noop_applies, 0u);
}

TEST(StandingQueryTest, EmptyDeltaIsFree) {
  datagen::RandomGraphConfig config;
  config.num_nodes = 30;
  config.num_edges = 90;
  config.seed = 2;
  graph::GraphDatabase base = datagen::MakeRandomDatabase(config);
  StandingQuery standing(
      ParseQuery("SELECT * WHERE { ?a <p0> ?b . }"), base.Snapshot());
  const uint64_t generation = standing.generation();
  standing.Apply(TripleDelta{});
  EXPECT_EQ(standing.generation(), generation);
  EXPECT_EQ(standing.stats().applies, 0u);
  EXPECT_EQ(standing.stats().noop_applies, 1u);
}

}  // namespace
}  // namespace sparqlsim::sim
