// Reproduces Table 3 of the paper: for every query of the L/D/B workloads,
// the result-set size, the number of required triples (triples witnessed
// by at least one match — the lower bound for any sound prune), the
// SPARQLSIM pruning time, and the number of triples left after pruning.
//
// Expected shape (paper): >= 95% of the database pruned for every query;
// D/B queries prune in split-seconds; the L1 analogue keeps far more
// triples than required (dual-simulation over-approximation, Sect. 5.3);
// empty queries (D1, B4, B5, B15) leave 0 triples.

#include <cstdio>

#include "bench/bench_common.h"
#include "engine/evaluator.h"
#include "engine/required_triples.h"
#include "sim/sim_engine.h"

namespace sparqlsim {
namespace {

void RunWorkload(const char* dataset_name, const graph::GraphDatabase& db,
                 const std::vector<datagen::NamedQuery>& queries) {
  engine::Evaluator evaluator(&db);

  std::printf("\n[%s] %zu triples\n", dataset_name, db.NumTriples());
  std::printf("%-6s %12s %12s %12s %14s %8s\n", "Query", "Results",
              "Req.Triples", "t_SIM(s)", "Tripl.Pruned", "Kept%");
  bench::PrintRule(72);

  for (const auto& [id, text] : queries) {
    sparql::Query query = bench::ParseOrDie(text);

    // A fresh engine per run, so no run is a solution-cache hit.
    sim::PruneReport report;
    double t_sim =
        bench::TimeAverage([&] { report = sim::SimEngine(&db).Prune(query); });

    engine::SolutionSet results = evaluator.Evaluate(query);
    size_t required = engine::CollectRequiredTriples(query, db, evaluator).size();

    double kept_pct =
        100.0 * static_cast<double>(report.kept_triples.size()) /
        static_cast<double>(db.NumTriples());
    std::printf("%-6s %12zu %12zu %12.5f %14zu %7.3f%%\n", id.c_str(),
                results.NumRows(), required, t_sim,
                report.kept_triples.size(), kept_pct);
  }
}

int Run(int argc, char** argv) {
  std::printf("Table 3: result sizes, required triples, SPARQLSIM pruning "
              "time, and triples after pruning\n");

  // `--db <file.gdb>` runs every workload on a real ingested database.
  std::optional<graph::GraphDatabase> override_db =
      bench::LoadDbOverride(argc, argv);
  if (override_db) {
    RunWorkload("--db (L)", *override_db, datagen::LubmQueries());
    RunWorkload("--db (D)", *override_db, datagen::DbpediaQueries());
    RunWorkload("--db (B)", *override_db, datagen::BenchmarkQueries());
    return 0;
  }

  graph::GraphDatabase lubm = bench::MakeBenchLubm();
  RunWorkload("LUBM-like", lubm, datagen::LubmQueries());

  graph::GraphDatabase dbp = bench::MakeBenchDbpedia();
  RunWorkload("DBpedia-like (D)", dbp, datagen::DbpediaQueries());
  RunWorkload("DBpedia-like (B)", dbp, datagen::BenchmarkQueries());
  return 0;
}

}  // namespace
}  // namespace sparqlsim

int main(int argc, char** argv) { return sparqlsim::Run(argc, argv); }
