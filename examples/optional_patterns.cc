// Optional patterns and the SOI construction of Sect. 4: queries (X2) and
// (X3) of the paper, the well-designedness check, surrogate variables and
// subordination inequalities, and soundness of the prune for both.
//
// Build & run:  ./build/examples/optional_patterns

#include <cstdio>

#include "datagen/movies.h"
#include "engine/evaluator.h"
#include "sim/sim_engine.h"
#include "sim/soi.h"
#include "sparql/normalize.h"
#include "sparql/parser.h"

namespace {

void Show(const char* name, const char* text,
          const sparqlsim::graph::GraphDatabase& db) {
  using namespace sparqlsim;
  auto parsed = sparql::Parser::Parse(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse error: %s\n", parsed.error_message().c_str());
    return;
  }
  sparql::Query query = std::move(parsed).value();

  std::printf("\n=== %s ===\n%s\n", name, text);
  std::printf("well-designed: %s\n",
              sparql::IsWellDesigned(*query.where) ? "yes" : "no");

  // The system of inequalities, Fig. 3 style. Optional occurrences show up
  // as renamed surrogates (?v@2 ...) with subordination inequalities.
  sim::Soi soi = sim::BuildSoiFromPattern(*query.where, db);
  std::printf("system of inequalities:\n%s", soi.ToString(db).c_str());

  engine::Evaluator evaluator(&db);
  engine::SolutionSet matches = evaluator.Evaluate(query);
  std::printf("matches (%zu):\n%s", matches.NumRows(),
              matches.ToString(db).c_str());

  sim::PruneReport report = sim::SimEngine(&db).Prune(query);
  std::printf("pruned to %zu of %zu triples\n", report.kept_triples.size(),
              db.NumTriples());
  graph::GraphDatabase pruned = db.Restrict(report.kept_triples);
  size_t on_pruned = engine::Evaluator(&pruned).Evaluate(query).NumRows();
  if (on_pruned == matches.NumRows()) {
    std::printf("matches on the prune: %zu (identical result set)\n",
                on_pruned);
  } else {
    // OPTIONAL is non-monotone: pruning triples no full match needs can
    // unblock additional rows. This is the overapproximation the paper
    // describes in Sect. 1 — no match is ever lost, and a final exact
    // evaluation or filter removes the spurious rows.
    std::printf("matches on the prune: %zu >= %zu — a sound "
                "overapproximation (no match lost; OPTIONAL is "
                "non-monotone)\n",
                on_pruned, matches.NumRows());
    // Exact pruned evaluation: OPTIONAL right-hand sides read the full
    // database, which removes the superset.
    engine::EvaluatorOptions exact;
    exact.optional_rhs_db = &db;
    size_t exact_rows =
        engine::Evaluator(&pruned, exact).Evaluate(query).NumRows();
    std::printf("exact pruned evaluation: %zu matches (equals the full "
                "result)\n",
                exact_rows);
  }
}

}  // namespace

int main() {
  using namespace sparqlsim;
  graph::GraphDatabase db = datagen::MakeMovieDatabase();

  // (X2): optional coworkers — D. Koepp and T. Young join the result.
  Show("(X2) well-designed optional",
       "SELECT * WHERE { ?director <directed> ?movie . "
       "OPTIONAL { ?director <worked_with> ?coworker . } }",
       db);

  // (X3)-style non-well-designed pattern on the movie graph: the variable
  // ?other occurs optionally (as a co-worker) and mandatorily (as a
  // director of some film).
  Show("(X3)-style non-well-designed",
       "SELECT * WHERE { ?director <directed> ?movie . "
       "OPTIONAL { ?director <worked_with> ?other . } "
       "?other <directed> ?film . }",
       db);
  return 0;
}
