#pragma once

// Shared driver for Tables 4 and 5 of the paper: query processing times on
// the full versus the pruned database, plus the combined pruning + query
// time, for one join-order policy (Table 4 = RDFox-like, Table 5 =
// Virtuoso-like).

#include <cstdio>

#include "bench/bench_common.h"
#include "engine/evaluator.h"
#include "sim/sim_engine.h"

namespace sparqlsim::bench {

inline void RunPrunedVsFull(const char* dataset_name,
                            const graph::GraphDatabase& db,
                            const std::vector<datagen::NamedQuery>& queries,
                            engine::JoinOrderPolicy policy) {
  engine::Evaluator full_eval(&db, {policy});

  std::printf("\n[%s] %zu triples\n", dataset_name, db.NumTriples());
  std::printf("%-6s %12s %14s %22s %10s\n", "Query", "t_DB", "t_DB_pruned",
              "t_DB_pruned+t_SIM", "results");
  PrintRule(70);

  for (const auto& [id, text] : queries) {
    sparql::Query query = ParseOrDie(text);

    size_t full_rows = 0;
    double t_full = TimeAverage(
        [&] { full_rows = full_eval.Evaluate(query).NumRows(); });

    // A fresh engine per run, so no run is a solution-cache hit.
    sim::PruneReport report;
    double t_sim =
        TimeAverage([&] { report = sim::SimEngine(&db).Prune(query); });

    graph::GraphDatabase pruned = db.Restrict(report.kept_triples);
    engine::Evaluator pruned_eval(&pruned, {policy});
    size_t pruned_rows = 0;
    double t_pruned = TimeAverage(
        [&] { pruned_rows = pruned_eval.Evaluate(query).NumRows(); });

    // Soundness check: matches may never be lost. (For OPTIONAL queries a
    // pruned evaluation may legitimately contain extra rows — the paper's
    // overapproximation — but never fewer.)
    if (pruned_rows < full_rows) {
      std::fprintf(stderr,
                   "SOUNDNESS VIOLATION on %s: %zu rows pruned vs %zu full\n",
                   id.c_str(), pruned_rows, full_rows);
    }
    std::printf("%-6s %12.5f %14.5f %22.5f %10zu\n", id.c_str(), t_full,
                t_pruned, t_pruned + t_sim, full_rows);
  }
}

/// With `--db <file.gdb>` (see LoadDbOverride) all three workloads run
/// against the provided real database; otherwise the synthetic LUBM-like
/// and DBpedia-like generators are used as before.
inline int RunTable(const char* title, engine::JoinOrderPolicy policy,
                    int argc, char** argv) {
  std::printf("%s\n", title);
  std::optional<graph::GraphDatabase> override_db =
      LoadDbOverride(argc, argv);
  if (override_db) {
    RunPrunedVsFull("--db (L)", *override_db, datagen::LubmQueries(), policy);
    RunPrunedVsFull("--db (D)", *override_db, datagen::DbpediaQueries(),
                    policy);
    RunPrunedVsFull("--db (B)", *override_db, datagen::BenchmarkQueries(),
                    policy);
    return 0;
  }
  graph::GraphDatabase lubm = MakeBenchLubm();
  RunPrunedVsFull("LUBM-like", lubm, datagen::LubmQueries(), policy);
  graph::GraphDatabase dbp = MakeBenchDbpedia();
  RunPrunedVsFull("DBpedia-like (D)", dbp, datagen::DbpediaQueries(), policy);
  RunPrunedVsFull("DBpedia-like (B)", dbp, datagen::BenchmarkQueries(),
                  policy);
  return 0;
}

}  // namespace sparqlsim::bench
