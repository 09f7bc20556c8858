// sparqlsim-datagen — dumps the built-in synthetic datasets as N-Triples,
// so the sparqlsim CLI (and any other RDF tool) can consume them.
//
//   sparqlsim-datagen movies                > movies.nt
//   sparqlsim-datagen lubm    <universities> [seed] > lubm.nt
//   sparqlsim-datagen dbpedia <scale> [seed]        > dbpedia.nt
//   sparqlsim-datagen queries                       # prints the workloads

#include <cstdio>
#include <cstring>
#include <iostream>
#include <optional>

#include "tool_common.h"

#include "datagen/dbpedia.h"
#include "datagen/lubm.h"
#include "datagen/movies.h"
#include "datagen/queries.h"
#include "graph/ntriples.h"

namespace sparqlsim {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: sparqlsim-datagen movies | lubm <universities> [seed] "
               "| dbpedia <scale> [seed] | queries\n");
  return 2;
}

/// The size argument and optional seed of `lubm`/`dbpedia` into *size and
/// *seed (left unchanged when absent); false, after a diagnostic, when
/// either is not a plain decimal count.
bool ParseSizeAndSeed(int argc, char** argv, size_t* size, uint64_t* seed) {
  const std::optional<size_t> parsed_size = tools::ParseCount(argv[2]);
  if (!parsed_size) {
    std::fprintf(stderr, "invalid %s size '%s'\n", argv[1], argv[2]);
    return false;
  }
  *size = *parsed_size;
  if (argc > 3) {
    const std::optional<size_t> parsed_seed = tools::ParseCount(argv[3]);
    if (!parsed_seed) {
      std::fprintf(stderr, "invalid seed '%s'\n", argv[3]);
      return false;
    }
    *seed = *parsed_seed;
  }
  return true;
}

int Run(int argc, char** argv) {
  if (argc < 2) return Usage();

  if (std::strcmp(argv[1], "movies") == 0) {
    graph::NTriples::Write(datagen::MakeMovieDatabase(), std::cout);
    return 0;
  }
  if (std::strcmp(argv[1], "lubm") == 0) {
    if (argc < 3) return Usage();
    datagen::LubmConfig config;
    if (!ParseSizeAndSeed(argc, argv, &config.num_universities,
                          &config.seed)) {
      return Usage();
    }
    graph::NTriples::Write(datagen::MakeLubmDatabase(config), std::cout);
    return 0;
  }
  if (std::strcmp(argv[1], "dbpedia") == 0) {
    if (argc < 3) return Usage();
    datagen::DbpediaConfig config;
    if (!ParseSizeAndSeed(argc, argv, &config.scale, &config.seed)) {
      return Usage();
    }
    graph::NTriples::Write(datagen::MakeDbpediaDatabase(config), std::cout);
    return 0;
  }
  if (std::strcmp(argv[1], "queries") == 0) {
    for (const auto& [id, text] : datagen::LubmQueries()) {
      std::printf("# %s (LUBM-like)\n%s\n\n", id.c_str(), text.c_str());
    }
    for (const auto& [id, text] : datagen::DbpediaQueries()) {
      std::printf("# %s (DBpedia-like)\n%s\n\n", id.c_str(), text.c_str());
    }
    for (const auto& [id, text] : datagen::BenchmarkQueries()) {
      std::printf("# %s (DBpedia-like)\n%s\n\n", id.c_str(), text.c_str());
    }
    return 0;
  }
  return Usage();
}

}  // namespace
}  // namespace sparqlsim

int main(int argc, char** argv) { return sparqlsim::Run(argc, argv); }
