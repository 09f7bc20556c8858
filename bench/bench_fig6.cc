// Reproduces Fig. 6 and the Sect. 5.3 iteration analysis: the mandatory
// (BGP) cores of queries L0 and L1, and the fixpoint behaviour that makes
// them the two extreme cases of the paper —
//   L0: small cyclic triangle over low-selectivity predicates, needs many
//       fixpoint rounds (the paper reports 30+);
//   L1: larger cyclic query, stabilizes after ~2 rounds and prunes fast.

#include <cstdio>

#include "bench/bench_common.h"
#include "sim/sim_engine.h"
#include "sim/soi.h"
#include "sparql/normalize.h"

namespace sparqlsim {
namespace {

void Analyze(const char* id, const graph::GraphDatabase& db,
             const std::string& text) {
  sparql::Query query = bench::ParseOrDie(text);
  // The mandatory core: drop OPTIONAL parts (Fig. 6 shows the BGP cores).
  auto branches = sparql::UnionNormalForm(*query.where);
  const sparql::Pattern* core = branches[0].get();
  while (!core->IsBgp()) core = &core->left();

  std::printf("\n%s mandatory core (%zu triple patterns):\n", id,
              core->triples().size());
  for (const auto& t : core->triples()) {
    std::printf("  %s\n", t.ToString().c_str());
  }

  sim::Soi soi = sim::BuildSoiFromPattern(*core, db);
  std::printf("system of inequalities (%zu vars, %zu matrix + %zu "
              "subordination inequalities):\n",
              soi.NumVars(), soi.matrix_ineqs.size(), soi.sub_ineqs.size());
  std::printf("%s", soi.ToString(db).c_str());

  sim::SimEngine engine(&db);
  sim::Solution solution;
  double seconds = bench::TimeAverage(
      [&] { solution = engine.Solve(sim::BuildSoiFromPattern(*core, db)); });
  std::printf("fixpoint: rounds=%zu evaluations=%zu updates=%zu "
              "(row-wise %zu, column-wise %zu)  time=%.5fs\n",
              solution.stats.rounds, solution.stats.evaluations,
              solution.stats.updates, solution.stats.row_evals,
              solution.stats.col_evals, seconds);
  std::printf("surviving relation size: %zu node assignments\n",
              solution.RelationSize());
}

int Run() {
  std::printf("Fig. 6 / Sect. 5.3: the L0 and L1 cores and their fixpoint "
              "iteration behaviour\n");
  graph::GraphDatabase db = bench::MakeBenchLubm();
  auto queries = datagen::LubmQueries();
  Analyze("L0", db, queries[0].text);
  Analyze("L1", db, queries[1].text);

  std::printf("\nExpected shape per the paper: L0 needs an order of "
              "magnitude more rounds than L1.\n");
  return 0;
}

}  // namespace
}  // namespace sparqlsim

int main() { return sparqlsim::Run(); }
