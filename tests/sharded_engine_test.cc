// The column-sharding contract: SolveSoi with any SolverOptions::num_shards
// produces solutions, PruneReports, and fixpoint *trajectories* bit-identical
// to the 1-shard solve — the same determinism gate the thread-count and
// incremental differential suites hold. Shard tasks only partition each
// round's data work over word-aligned column ranges; every decision (eval
// kinds, cost rules, incremental-tier transitions) runs once per inequality
// regardless of the partition, so nothing semantic may depend on the shard
// count. Runs under ASan/UBSan and (via the query-service suites) TSan in CI.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "datagen/movies.h"
#include "datagen/random_graphs.h"
#include "sim/sim_engine.h"
#include "sim/soi.h"
#include "sim/validate.h"
#include "sparql/parser.h"
#include "util/bitmatrix.h"
#include "util/bitvector.h"
#include "util/counted_accumulator.h"
#include "util/hierarchical_bitvector.h"
#include "util/rng.h"

namespace sparqlsim::sim {
namespace {

// ---------------------------------------------------------------------------
// MakeShardPlan: the partition itself
// ---------------------------------------------------------------------------

TEST(ShardPlanTest, SingleShardCoversTheWholeUniverse) {
  const auto plan = MakeShardPlan(/*num_columns=*/130, /*num_shards=*/1);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].first, 0u);
  EXPECT_EQ(plan[0].second, 130u);
}

TEST(ShardPlanTest, RangesAreWordAlignedContiguousAndComplete) {
  for (size_t n : {64u, 65u, 128u, 130u, 1000u, 4096u, 4097u}) {
    for (size_t shards : {1u, 2u, 3u, 4u, 7u, 8u}) {
      const auto plan = MakeShardPlan(n, shards);
      ASSERT_FALSE(plan.empty()) << n << "/" << shards;
      EXPECT_EQ(plan.front().first, 0u);
      EXPECT_EQ(plan.back().second, n);
      for (size_t s = 0; s < plan.size(); ++s) {
        const auto [begin, end] = plan[s];
        EXPECT_LT(begin, end) << "empty range " << s;
        EXPECT_EQ(begin % util::BitVector::kWordBits, 0u)
            << "unaligned begin, n=" << n << " shards=" << shards;
        // Every boundary except the universe end is word-aligned; the last
        // range absorbs the ragged tail.
        if (s + 1 < plan.size()) {
          EXPECT_EQ(plan[s + 1].first, end) << "gap after range " << s;
          EXPECT_EQ(end % util::BitVector::kWordBits, 0u);
        }
      }
    }
  }
}

TEST(ShardPlanTest, ShardCountClampsToWordCount) {
  // 65 columns = 2 words: no plan can have more than 2 non-empty ranges.
  const auto plan = MakeShardPlan(/*num_columns=*/65, /*num_shards=*/8);
  EXPECT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0], (std::pair<uint32_t, uint32_t>{0, 64}));
  EXPECT_EQ(plan[1], (std::pair<uint32_t, uint32_t>{64, 65}));
}

TEST(ShardPlanTest, ResolvedShardsClampsAndDefaults) {
  SolverOptions options;
  options.num_shards = 4;
  EXPECT_EQ(options.ResolvedShards(/*num_columns=*/1000), 4u);
  // More shards than 64-bit words: clamp.
  EXPECT_EQ(options.ResolvedShards(/*num_columns=*/100), 2u);
  EXPECT_EQ(options.ResolvedShards(/*num_columns=*/1), 1u);
}

// ---------------------------------------------------------------------------
// Range kernels: the per-shard pieces put together are the full kernels
// ---------------------------------------------------------------------------

util::BitVector RandomBits(util::Rng* rng, size_t n, double density) {
  util::BitVector v(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng->NextBool(density)) v.Set(i);
  }
  return v;
}

// Every lane of both accumulators, plus the product vector.
void ExpectSameCounts(const util::CountedAccumulator& got,
                      const util::CountedAccumulator& want, size_t cols,
                      const std::string& context) {
  EXPECT_EQ(got.result(), want.result()) << context;
  for (size_t c = 0; c < cols; ++c) {
    ASSERT_EQ(got.count(c), want.count(c)) << context << ", col " << c;
  }
}

// MultiplyRange, RebuildRange and RetractRange over every range of a
// MakeShardPlan partition must reassemble Multiply, Rebuild and Retract
// bit for bit, for flat and hierarchical selectors, at word and 4096-bit
// block edges. Sparse and dense selections take the two sides of the
// kernels' adaptive row-walk rule.
TEST(ShardRangeKernelTest, RangesReassembleTheFullKernels) {
  for (size_t n : {1u, 63u, 64u, 65u, 128u, 129u, 4095u, 4096u, 4097u,
                   8193u}) {
    util::Rng rng(n * 131 + 7);
    std::vector<std::pair<uint32_t, uint32_t>> entries;
    for (size_t e = 0; e < 4 * n; ++e) {
      entries.emplace_back(static_cast<uint32_t>(rng.NextBounded(n)),
                           static_cast<uint32_t>(rng.NextBounded(n)));
    }
    const util::BitMatrix a = util::BitMatrix::Build(n, n, std::move(entries));
    for (double density : {0.01, 0.5}) {
      const util::BitVector x = RandomBits(&rng, n, density);
      const util::HierarchicalBitVector hx(x);
      util::BitVector removed = RandomBits(&rng, n, 0.5);
      removed.AndWith(x);  // retraction only removes selected rows

      util::BitVector product(n);
      a.Multiply(x, &product);
      util::CountedAccumulator full;
      full.Rebuild(a, x);
      util::CountedAccumulator retracted = full;
      const size_t cleared = retracted.Retract(a, removed);

      for (size_t shards : {1u, 2u, 3u, 7u}) {
        const auto plan = MakeShardPlan(n, shards);
        for (bool hierarchical : {false, true}) {
          const std::string context =
              "n=" + std::to_string(n) + " density=" +
              std::to_string(density) + " shards=" + std::to_string(shards) +
              (hierarchical ? " hierarchical" : " flat");
          // Dirty destination: each range must zero exactly the words it
          // writes, as the solver's recycled masks rely on.
          util::BitVector ranged(n, true);
          // A stale accumulator from another selection: PrepareRebuild
          // must wipe it before the range fills.
          util::CountedAccumulator acc;
          acc.Rebuild(a, removed);
          acc.PrepareRebuild(n, /*force_wide=*/plan.size() > 1);
          for (const auto& [begin, end] : plan) {
            if (hierarchical) {
              a.MultiplyRange(hx, begin, end, &ranged);
              acc.RebuildRange(a, hx, begin, end);
            } else {
              a.MultiplyRange(x, begin, end, &ranged);
              acc.RebuildRange(a, x, begin, end);
            }
          }
          EXPECT_EQ(ranged, product) << context;
          ExpectSameCounts(acc, full, n, context + ", rebuild");

          size_t range_cleared = 0;
          for (const auto& [begin, end] : plan) {
            range_cleared += acc.RetractRange(a, removed, begin, end);
          }
          EXPECT_EQ(range_cleared, cleared) << context;
          ExpectSameCounts(acc, retracted, n, context + ", retract");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Differential suite: solutions + trajectories identical across shard
// counts, thread counts, and incremental on/off
// ---------------------------------------------------------------------------

void ExpectSameTrajectory(const SolveStats& actual, const SolveStats& want,
                          const std::string& context) {
  // Semantic counters — partition-independent by the determinism contract.
  EXPECT_EQ(actual.rounds, want.rounds) << context;
  EXPECT_EQ(actual.evaluations, want.evaluations) << context;
  EXPECT_EQ(actual.updates, want.updates) << context;
  EXPECT_EQ(actual.row_evals, want.row_evals) << context;
  EXPECT_EQ(actual.col_evals, want.col_evals) << context;
  EXPECT_EQ(actual.delta_evals, want.delta_evals) << context;
  EXPECT_EQ(actual.full_evals, want.full_evals) << context;
  EXPECT_EQ(actual.acc_rebuilds, want.acc_rebuilds) << context;
  EXPECT_EQ(actual.cols_cleared, want.cols_cleared) << context;
  EXPECT_EQ(actual.max_round_width, want.max_round_width) << context;
}

class ShardedDeterminism : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShardedDeterminism, RandomSoiSolvesIdenticallyAcrossShardCounts) {
  const uint64_t seed = GetParam();
  datagen::RandomGraphConfig config;
  config.num_nodes = 150;  // > 2 words so shard plans have real ranges
  config.num_edges = 600;
  config.num_labels = 3;
  config.seed = seed;
  graph::GraphDatabase db = datagen::MakeRandomDatabase(config);
  graph::Graph pattern = datagen::MakeRandomPattern(6, 4, 3, seed + 2000);
  Soi soi = BuildSoiFromGraph(pattern);

  for (bool incremental : {true, false}) {
    Solution reference;
    bool have_reference = false;
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      for (size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{7}}) {
        SolverOptions options;
        options.num_threads = threads;
        options.num_shards = shards;
        options.incremental_eval = incremental;
        SimEngine engine(&db, options);
        Solution solution = engine.Solve(soi);
        const std::string context =
            "seed " + std::to_string(seed) + ", " + std::to_string(threads) +
            " threads, " + std::to_string(shards) + " shards" +
            (incremental ? ", incremental" : ", full");
        EXPECT_EQ(solution.stats.shards_used,
                  options.ResolvedShards(db.NumNodes()))
            << context;
        EXPECT_FALSE(solution.truncated) << context;
        if (!have_reference) {
          // threads=1, shards=1: the canonical solve.
          reference = std::move(solution);
          have_reference = true;
          std::string why;
          EXPECT_TRUE(SatisfiesSoi(soi, db, reference.candidates, &why))
              << context << ": " << why;
          continue;
        }
        ASSERT_EQ(solution.candidates.size(), reference.candidates.size());
        for (size_t v = 0; v < reference.candidates.size(); ++v) {
          EXPECT_EQ(solution.candidates[v], reference.candidates[v])
              << context << ", var " << v;
        }
        ExpectSameTrajectory(solution.stats, reference.stats, context);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedDeterminism,
                         ::testing::Range<uint64_t>(1, 7));

TEST(ShardedPruneTest, UnionQueryPruneReportsIdenticalAcrossShardCounts) {
  graph::GraphDatabase db = datagen::MakeMovieDatabase();
  auto parsed = sparql::Parser::Parse(
      "SELECT * WHERE { { ?d <directed> ?m . } UNION "
      "{ ?m <genre> ?g . ?d <directed> ?m . } UNION "
      "{ ?d <directed> ?m . OPTIONAL { ?d <worked_with> ?c . } } }");
  ASSERT_TRUE(parsed.ok()) << parsed.error_message();
  sparql::Query query = std::move(parsed).value();

  PruneReport reference;
  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{7}}) {
    SolverOptions options;
    options.num_threads = 2;
    options.num_shards = shards;
    SimEngine engine(&db, options);
    PruneReport report = engine.Prune(query);
    if (shards == 1) {
      reference = std::move(report);
      EXPECT_EQ(reference.num_branches, 3u);
      EXPECT_FALSE(reference.kept_triples.empty());
      continue;
    }
    EXPECT_EQ(report.kept_triples, reference.kept_triples)
        << shards << " shards";
    ASSERT_EQ(report.var_candidates.size(), reference.var_candidates.size());
    for (const auto& [var, bits] : reference.var_candidates) {
      auto it = report.var_candidates.find(var);
      ASSERT_NE(it, report.var_candidates.end()) << "?" << var;
      EXPECT_EQ(it->second, bits) << shards << " shards, ?" << var;
    }
    ExpectSameTrajectory(report.stats, reference.stats,
                         std::to_string(shards) + " shards");
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
