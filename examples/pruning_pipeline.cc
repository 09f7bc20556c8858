// Per-query database pruning at dataset scale (the Sect. 5 application):
// generates a LUBM-like database, runs the Fig. 6(b) query L1 through the
// pruning pipeline, and compares query times on the full versus pruned
// database — a single-query rendition of the paper's Table 4.
//
// Build & run:  ./build/examples/pruning_pipeline

#include <cstdio>

#include "datagen/lubm.h"
#include "datagen/queries.h"
#include "engine/evaluator.h"
#include "sim/sim_engine.h"
#include "sparql/parser.h"
#include "util/stopwatch.h"

int main() {
  using namespace sparqlsim;

  datagen::LubmConfig config;
  config.num_universities = 3;
  graph::GraphDatabase db = datagen::MakeLubmDatabase(config);
  std::printf("LUBM-like database: %zu triples, %zu nodes, %zu predicates\n",
              db.NumTriples(), db.NumNodes(), db.NumPredicates());
  std::printf("adjacency matrices: %.1f MB CSR (%.1f MB gap-encoded)\n",
              db.ApproxMatrixBytes() / 1e6, db.GapEncodedMatrixBytes() / 1e6);

  // L1: the publication/student/professor/department/university cycle.
  const std::string text = datagen::LubmQueries()[1].text;
  std::printf("\nquery L1:\n%s\n", text.c_str());
  sparql::Query query = std::move(sparql::Parser::Parse(text)).value();

  // Full-database evaluation.
  engine::Evaluator full(&db);
  util::Stopwatch watch;
  engine::SolutionSet full_rows = full.Evaluate(query);
  double t_full = watch.ElapsedSeconds();
  std::printf("\nfull database:   %8zu results in %.4fs\n",
              full_rows.NumRows(), t_full);

  // Dual simulation pruning: SimEngine::Prune solves the query's SOI and
  // extracts the triples its solution admits.
  sim::SimEngine engine(&db);
  sim::PruneReport report = engine.Prune(query);
  std::printf("dual simulation: kept %zu of %zu triples (%.2f%%) in %.4fs "
              "(%zu fixpoint rounds)\n",
              report.kept_triples.size(), db.NumTriples(),
              100.0 * static_cast<double>(report.kept_triples.size()) /
                  static_cast<double>(db.NumTriples()),
              report.total_seconds, report.stats.rounds);

  // Pruned-database evaluation.
  graph::GraphDatabase pruned = db.Restrict(report.kept_triples);
  engine::Evaluator on_pruned(&pruned);
  watch.Restart();
  engine::SolutionSet pruned_rows = on_pruned.Evaluate(query);
  double t_pruned = watch.ElapsedSeconds();
  std::printf("pruned database: %8zu results in %.4fs\n",
              pruned_rows.NumRows(), t_pruned);

  if (pruned_rows.NumRows() != full_rows.NumRows()) {
    std::fprintf(stderr, "soundness violation!\n");
    return 1;
  }
  std::printf("\nspeedup on the engine: %.2fx (plus %.4fs pruning time)\n",
              t_full / (t_pruned > 0 ? t_pruned : 1e-9),
              report.total_seconds);
  return 0;
}
