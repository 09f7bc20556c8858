#include "sim/ma_baseline.h"

#include <string>

#include "sim/soi.h"
#include "util/stopwatch.h"

namespace sparqlsim::sim {

PatternWithConstants BgpToDataPattern(
    const std::vector<sparql::TriplePattern>& bgp,
    const graph::GraphDatabase& db) {
  std::vector<sparql::Term> terms;
  std::vector<std::string> labels;
  const graph::Graph raw = sparql::BgpToGraph(bgp, &terms, &labels);
  const size_t k = raw.NumNodes();
  PatternWithConstants out{graph::Graph(k),
                           std::vector<std::optional<uint32_t>>(k)};
  for (const graph::LabeledEdge& e : raw.edges()) {
    const std::optional<uint32_t> id = db.predicates().Lookup(labels[e.label]);
    out.pattern.AddEdge(e.from, id.value_or(kEmptyPredicate), e.to);
  }
  for (size_t v = 0; v < terms.size(); ++v) {
    if (terms[v].IsVariable()) continue;
    out.constants[v] = db.nodes().Lookup(terms[v].text());
    if (!out.constants[v]) out.satisfiable = false;
  }
  return out;
}

Solution MaDualSimulation(
    const graph::Graph& pattern, const graph::GraphDatabase& db,
    const std::vector<std::optional<uint32_t>>& constants) {
  util::Stopwatch timer;
  graph::ResidencyPin residency_pin = db.PinResidency();
  const size_t n = db.NumNodes();
  const size_t k = pattern.NumNodes();

  Solution solution;
  solution.candidates.assign(k, util::BitVector(n));
  std::vector<util::BitVector>& sim = solution.candidates;

  // S_0 = V1 x V2 (constants restrict their node to a singleton).
  for (size_t v = 0; v < k; ++v) {
    if (v < constants.size() && constants[v]) {
      sim[v].Set(*constants[v]);
    } else {
      sim[v].SetAll();
    }
  }

  SolveStats& stats = solution.stats;
  bool changed = true;
  while (changed) {
    changed = false;
    ++stats.rounds;
    for (const graph::LabeledEdge& e : pattern.edges()) {
      ++stats.evaluations;
      if (e.label == kEmptyPredicate) {
        if (sim[e.from].Any()) {
          sim[e.from].ClearAll();
          changed = true;
        }
        if (sim[e.to].Any()) {
          sim[e.to].ClearAll();
          changed = true;
        }
        continue;
      }
      const util::BitMatrix& fwd = db.Forward(e.label);
      const util::BitMatrix& bwd = db.Backward(e.label);

      // Def. 2(i): every candidate of e.from needs an e.label-successor
      // among the candidates of e.to.
      sim[e.from].ForEachSetBit([&](uint32_t x) {
        if (!fwd.RowIntersects(x, sim[e.to])) {
          sim[e.from].Reset(x);
          changed = true;
          ++stats.updates;
        }
      });
      // Def. 2(ii): every candidate of e.to needs an e.label-predecessor
      // among the candidates of e.from.
      sim[e.to].ForEachSetBit([&](uint32_t y) {
        if (!bwd.RowIntersects(y, sim[e.from])) {
          sim[e.to].Reset(y);
          changed = true;
          ++stats.updates;
        }
      });
    }
  }

  stats.solve_seconds = timer.ElapsedSeconds();
  return solution;
}

}  // namespace sparqlsim::sim
