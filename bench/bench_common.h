// Shared helpers for the table/figure reproduction benches: dataset
// construction scaled by environment variables and query parsing.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "datagen/dbpedia.h"
#include "datagen/lubm.h"
#include "datagen/queries.h"
#include "graph/binary_io.h"
#include "graph/graph_database.h"
#include "sparql/parser.h"
#include "tools/tool_common.h"
#include "util/stopwatch.h"

namespace sparqlsim::bench {

/// Environment knobs so every bench can be scaled without recompiling:
///   SPARQLSIM_LUBM_UNIVERSITIES (default 6)
///   SPARQLSIM_DBPEDIA_SCALE     (default 2)
///   SPARQLSIM_BENCH_REPS        (default 3)
/// Unset or empty means `fallback`; anything but a plain decimal count
/// (tools::ParseCount) exits with a diagnostic rather than scaling the
/// bench to a prefix of the text, or to 0.
inline size_t EnvSize(const char* name, size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  size_t parsed = 0;
  if (!tools::ParseCountFlag(name, value, &parsed)) std::exit(2);
  return parsed;
}

/// Database override for running the paper's tables on *real* ingested
/// data: `bench_* --db <file.gdb>` (or SPARQLSIM_DB=<file.gdb>) loads a
/// binary database written by `sparqlsim_ingest` and the bench uses it in
/// place of the synthetic generators. Returns nullopt when no override is
/// given; aborts with a diagnostic when the file cannot be loaded.
inline std::optional<graph::GraphDatabase> LoadDbOverride(int argc,
                                                          char** argv) {
  const char* path = std::getenv("SPARQLSIM_DB");
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--db") == 0) {
      if (i + 1 >= argc) {
        // Falling back to synthetic data here would masquerade as a
        // real-database run; fail loudly instead.
        std::fprintf(stderr, "[bench] --db needs a value\n");
        std::abort();
      }
      path = argv[i + 1];
    } else if (std::strncmp(argv[i], "--db=", 5) == 0) {
      path = argv[i] + 5;
    }
  }
  if (path == nullptr) return std::nullopt;
  std::fprintf(stderr, "[bench] loading database %s ...\n", path);
  // SQSIMDB2 files open lazily; SPARQLSIM_RESIDENT_MB bounds their
  // resident matrix bytes (0/unset = unbounded), mirroring the tools.
  const std::optional<size_t> budget = tools::ResidentBudgetBytes(nullptr);
  if (!budget) std::abort();
  graph::BinaryIo::LoadOptions load_options;
  load_options.resident_budget_bytes = *budget;
  auto loaded = graph::BinaryIo::LoadFile(path, load_options);
  if (!loaded.ok()) {
    std::fprintf(stderr, "[bench] cannot load %s: %s\n", path,
                 loaded.error_message().c_str());
    std::abort();
  }
  graph::GraphDatabase db = std::move(loaded).value();
  std::fprintf(stderr, "[bench] db: %zu triples, %zu nodes, %zu preds\n",
               db.NumTriples(), db.NumNodes(), db.NumPredicates());
  return db;
}

inline graph::GraphDatabase MakeBenchLubm() {
  datagen::LubmConfig config;
  config.num_universities = EnvSize("SPARQLSIM_LUBM_UNIVERSITIES", 6);
  config.seed = 42;
  std::fprintf(stderr, "[bench] generating LUBM(%zu)...\n",
               config.num_universities);
  graph::GraphDatabase db = datagen::MakeLubmDatabase(config);
  std::fprintf(stderr, "[bench] LUBM: %zu triples, %zu nodes, %zu preds\n",
               db.NumTriples(), db.NumNodes(), db.NumPredicates());
  return db;
}

inline graph::GraphDatabase MakeBenchDbpedia() {
  datagen::DbpediaConfig config;
  config.scale = EnvSize("SPARQLSIM_DBPEDIA_SCALE", 2);
  config.seed = 7;
  std::fprintf(stderr, "[bench] generating DBpedia-like(scale=%zu)...\n",
               config.scale);
  graph::GraphDatabase db = datagen::MakeDbpediaDatabase(config);
  std::fprintf(stderr, "[bench] DBpedia: %zu triples, %zu nodes, %zu preds\n",
               db.NumTriples(), db.NumNodes(), db.NumPredicates());
  return db;
}

inline sparql::Query ParseOrDie(const std::string& text) {
  auto r = sparql::Parser::Parse(text);
  if (!r.ok()) {
    std::fprintf(stderr, "query parse error: %s\n%s\n",
                 r.error_message().c_str(), text.c_str());
    std::abort();
  }
  return std::move(r).value();
}

/// Runs fn `reps` times and returns the average seconds.
inline double TimeAverage(const std::function<void()>& fn, size_t reps = 0) {
  if (reps == 0) reps = EnvSize("SPARQLSIM_BENCH_REPS", 3);
  util::Stopwatch watch;
  for (size_t i = 0; i < reps; ++i) fn();
  return watch.ElapsedSeconds() / static_cast<double>(reps);
}

inline void PrintRule(size_t width) {
  for (size_t i = 0; i < width; ++i) std::fputc('-', stdout);
  std::fputc('\n', stdout);
}

}  // namespace sparqlsim::bench
