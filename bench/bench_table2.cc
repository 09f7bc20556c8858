// Reproduces Table 2 of the paper: runtimes of SPARQLSIM (the SOI worklist
// solver) versus the dual simulation algorithm of Ma et al. [20] on the
// BGP cores of queries B0-B19 over the DBpedia-like dataset.
//
// Expected shape (paper): SPARQLSIM wins on every query, often by an order
// of magnitude; absolute numbers differ because the substrate is the
// synthetic laptop-scale generator, not the 751M-triple DBpedia dump.

#include <cstdio>

#include "bench/bench_common.h"
#include "sim/ma_baseline.h"
#include "sim/sim_engine.h"

namespace sparqlsim {
namespace {

int Run(int argc, char** argv) {
  // `--db <file.gdb>` runs the table on a real ingested database.
  std::optional<graph::GraphDatabase> override_db =
      bench::LoadDbOverride(argc, argv);
  graph::GraphDatabase db =
      override_db ? std::move(*override_db) : bench::MakeBenchDbpedia();
  sim::SimEngine engine(&db);

  std::printf("Table 2: dual simulation runtimes, SPARQLSIM vs Ma et al. "
              "(seconds)\n");
  std::printf("%-6s %14s %14s %9s %8s %8s\n", "Query", "t_SPARQLSIM",
              "t_MA_ET_AL", "speedup", "rounds", "sweeps");
  bench::PrintRule(66);

  double total_soi = 0, total_ma = 0;
  for (const auto& [id, text] : datagen::BenchmarkQueries()) {
    sparql::Query query = bench::ParseOrDie(text);
    if (!query.where->IsBgp()) {
      std::fprintf(stderr, "%s skipped: not a BGP\n", id.c_str());
      continue;
    }

    // t_SPARQLSIM covers SOI construction and the fixpoint.
    sim::Solution soi_solution;
    double t_soi = bench::TimeAverage([&] {
      soi_solution = engine.Solve(sim::BuildSoiFromPattern(*query.where, db));
    });

    sim::PatternWithConstants data_pattern =
        sim::BgpToDataPattern(query.where->triples(), db);
    sim::Solution ma_solution;
    double t_ma = bench::TimeAverage([&] {
      if (data_pattern.satisfiable) {
        ma_solution =
            sim::MaDualSimulation(data_pattern.pattern, db,
                                  data_pattern.constants);
      }
    });

    total_soi += t_soi;
    total_ma += t_ma;
    std::printf("%-6s %14.5f %14.5f %8.1fx %8zu %8zu\n", id.c_str(), t_soi,
                t_ma, t_soi > 0 ? t_ma / t_soi : 0.0,
                soi_solution.stats.rounds, ma_solution.stats.rounds);
  }
  bench::PrintRule(66);
  std::printf("%-6s %14.5f %14.5f %8.1fx\n", "total", total_soi, total_ma,
              total_soi > 0 ? total_ma / total_soi : 0.0);
  return 0;
}

}  // namespace
}  // namespace sparqlsim

int main(int argc, char** argv) { return sparqlsim::Run(argc, argv); }
