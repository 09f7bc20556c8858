// Tests the "specific data complexity hypothesis" of Sect. 3.3: naive
// implementations of HHK and of Ma et al.'s algorithm should show no
// *order-of-magnitude* difference in the labeled graph query setting,
// while the SOI solver with its adaptive strategies beats both.

#include <cstdio>

#include "bench/bench_common.h"
#include "sim/hhk_baseline.h"
#include "sim/ma_baseline.h"
#include "sim/sim_engine.h"

namespace sparqlsim {
namespace {

void RunWorkload(const char* dataset_name, const graph::GraphDatabase& db,
                 const std::vector<datagen::NamedQuery>& queries) {
  sim::SimEngine engine(&db);

  std::printf("\n[%s]\n", dataset_name);
  std::printf("%-6s %12s %12s %12s %14s\n", "Query", "t_SOI", "t_MA", "t_HHK",
              "MA/HHK ratio");
  bench::PrintRule(62);

  for (const auto& [id, text] : queries) {
    sparql::Query query = bench::ParseOrDie(text);
    if (!query.where->IsBgp()) continue;
    sim::PatternWithConstants p =
        sim::BgpToDataPattern(query.where->triples(), db);

    double t_soi = bench::TimeAverage(
        [&] { engine.Solve(sim::BuildSoiFromPattern(*query.where, db)); });
    double t_ma = bench::TimeAverage([&] {
      if (p.satisfiable) sim::MaDualSimulation(p.pattern, db, p.constants);
    });
    double t_hhk = bench::TimeAverage([&] {
      if (p.satisfiable) sim::HhkDualSimulation(p.pattern, db, p.constants);
    });
    std::printf("%-6s %12.5f %12.5f %12.5f %13.2fx\n", id.c_str(), t_soi,
                t_ma, t_hhk, t_hhk > 0 ? t_ma / t_hhk : 0.0);
  }
}

int Run() {
  std::printf("Sect. 3.3 hypothesis: naive HHK vs naive Ma et al. in the "
              "labeled graph query setting (seconds)\n");
  graph::GraphDatabase dbp = bench::MakeBenchDbpedia();
  RunWorkload("DBpedia-like (B)", dbp, datagen::BenchmarkQueries());
  return 0;
}

}  // namespace
}  // namespace sparqlsim

int main() { return sparqlsim::Run(); }
