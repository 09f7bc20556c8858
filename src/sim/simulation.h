#pragma once

#include "graph/graph.h"
#include "graph/graph_database.h"
#include "sim/solver.h"

namespace sparqlsim::sim {

/// Which half of Def. 2 to enforce.
///
/// Dual simulation (the paper's notion) is the conjunction of plain
/// forward simulation — every outgoing pattern edge must be matched — and
/// backward simulation on incoming edges. The plain variants are what the
/// applications surveyed in Sect. 6 use (social-position detection,
/// Panda's pruning, exemplar queries), so the library exposes them too.
enum class SimulationKind {
  kForward,   // Def. 2(i) only
  kBackward,  // Def. 2(ii) only
  kDual,      // both (the paper's dual simulation)
};

/// Computes the largest simulation of the requested kind between a pattern
/// graph (labels = database predicate ids) and a database, via the same
/// SOI machinery: forward simulation keeps only the `w <= v x F_a`
/// inequalities, backward only the `v <= w x B_a` ones. Like
/// LargestDualSimulation it solves inline through SolveSoi.
Solution LargestSimulation(const graph::Graph& pattern,
                           const graph::GraphDatabase& db,
                           SimulationKind kind,
                           const SolverOptions& options = {});

}  // namespace sparqlsim::sim
