#pragma once

#include <optional>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_database.h"
#include "sim/solver.h"
#include "sparql/ast.h"

namespace sparqlsim::sim {

/// A BGP in the pattern-graph form both baselines take: labels are
/// database predicate ids (kEmptyPredicate when absent), constant terms
/// are pinned nodes. `satisfiable` is false iff some constant is absent
/// from the database: the largest dual simulation is then empty, and the
/// baselines, which cannot pin a node to nothing, must not be run.
struct PatternWithConstants {
  graph::Graph pattern;
  std::vector<std::optional<uint32_t>> constants;
  bool satisfiable = true;
};
PatternWithConstants BgpToDataPattern(
    const std::vector<sparql::TriplePattern>& bgp,
    const graph::GraphDatabase& db);

/// The dual simulation algorithm of Ma et al. [20], adapted to the labeled
/// pattern-vs-data setting exactly as the paper's Table 2 comparison does.
///
/// This is the "single passive strategy" the paper criticizes: starting
/// from the largest possible relation V1 x V2, the algorithm repeatedly
/// performs *full sweeps* over all pattern edges, re-checking Def. 2 for
/// every remaining candidate pair and disqualifying violators, until a
/// complete sweep changes nothing. There is no worklist, no summary
/// initialization, and no evaluation-strategy choice — those are exactly
/// the degrees of freedom the SOI formulation adds.
///
/// `pattern` edge labels must be database predicate ids (or
/// kEmptyPredicate). `constants` optionally pins pattern nodes to single
/// database nodes — constants are part of the query translation, not of
/// the algorithm, so both compared algorithms receive them.
///
/// Returns the unique largest dual simulation (identical to SolveSoi's
/// result; Prop. 1); stats.rounds counts full sweeps.
Solution MaDualSimulation(
    const graph::Graph& pattern, const graph::GraphDatabase& db,
    const std::vector<std::optional<uint32_t>>& constants = {});

}  // namespace sparqlsim::sim
