#pragma once

#include "graph/graph.h"
#include "graph/graph_database.h"
#include "sim/solver.h"

namespace sparqlsim::sim {

/// Computes the largest dual simulation between a pattern graph and a
/// graph database (Prop. 1/2 of the paper) via the SOI fixpoint. Pattern
/// edge labels must be database predicate ids (or kEmptyPredicate).
/// candidates[v] is the set of database nodes dual-simulating pattern
/// node v. Solves inline on the calling thread through SolveSoi, so
/// `options.num_threads` is not read; a SimEngine owns a pool.
Solution LargestDualSimulation(const graph::Graph& pattern,
                               const graph::GraphDatabase& db,
                               const SolverOptions& options = {});

/// True iff `db` dual simulates `pattern`, i.e. there exists a non-empty
/// dual simulation between them (Def. 2).
bool DualSimulates(const graph::Graph& pattern, const graph::GraphDatabase& db,
                   const SolverOptions& options = {});

}  // namespace sparqlsim::sim
