// Small helpers shared by the command-line tools.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string_view>
#include <system_error>
#include <utility>

#include "graph/binary_io.h"
#include "graph/graph_database.h"
#include "graph/ntriples.h"
#include "util/stopwatch.h"

namespace sparqlsim::tools {

/// Parses a resident-memory budget given in MiB (the --resident-mb flag,
/// SPARQLSIM_RESIDENT_MB) into bytes, 0 meaning unbounded. Only plain
/// decimal digits are accepted, and the byte count must fit in size_t:
/// anything else is nullopt, so a typo never silently means "unbounded"
/// and a huge value never wraps into a tiny budget.
inline std::optional<size_t> ParseResidentMb(std::string_view text) {
  size_t mb = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, mb);
  if (error != std::errc() || stop != end || mb > (SIZE_MAX >> 20)) {
    return std::nullopt;
  }
  return mb << 20;
}

/// The resident budget in bytes for lazily opened SQSIMDB2 files: `flag`
/// (the --resident-mb text) when given, otherwise SPARQLSIM_RESIDENT_MB
/// when set and non-empty, otherwise `default_mb` (0 = unbounded).
/// nullopt, after a diagnostic on stderr, when the chosen text is not a
/// valid MiB count. The tools and the benches all resolve the budget here.
inline std::optional<size_t> ResidentBudgetBytes(const char* flag,
                                                 size_t default_mb = 0) {
  const char* name = "--resident-mb";
  const char* text = flag;
  if (text == nullptr) {
    name = "SPARQLSIM_RESIDENT_MB";
    text = std::getenv(name);
    if (text == nullptr || *text == '\0') return default_mb << 20;
  }
  std::optional<size_t> bytes = ParseResidentMb(text);
  if (!bytes) std::fprintf(stderr, "invalid %s value '%s'\n", name, text);
  return bytes;
}

/// True when `path` ends with `suffix` — the tools' format-dispatch
/// primitive (".gdb" → binary, ".gz" → gzip pipe, anything else →
/// N-Triples text).
inline bool HasSuffix(std::string_view path, std::string_view suffix) {
  return path.size() >= suffix.size() &&
         path.substr(path.size() - suffix.size()) == suffix;
}

/// Loads N-Triples or binary by suffix; `force_binary` (the --db flag's
/// behavior) always reads the SQSIMDB binary formats regardless of
/// suffix. SQSIMDB2 files open mmap-ed and lazy, with the resident
/// budget from `resident_mb` (the --resident-mb text, or null; see
/// ResidentBudgetBytes). Reports load time on stderr; returns nullopt
/// (with a diagnostic) on failure. Shared by sparqlsim_cli and
/// sparqlsim_batch.
inline std::optional<graph::GraphDatabase> LoadDatabase(
    const char* path, bool force_binary = false,
    const char* resident_mb = nullptr) {
  const std::optional<size_t> budget = ResidentBudgetBytes(resident_mb);
  if (!budget) return std::nullopt;
  util::Stopwatch watch;
  std::optional<graph::GraphDatabase> db;
  if (force_binary || HasSuffix(path, ".gdb")) {
    graph::BinaryIo::LoadOptions load_options;
    load_options.resident_budget_bytes = *budget;
    auto loaded = graph::BinaryIo::LoadFile(path, load_options);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error loading %s: %s\n", path,
                   loaded.error_message().c_str());
      return std::nullopt;
    }
    db = std::move(loaded).value();
  } else {
    graph::GraphDatabaseBuilder builder;
    util::Status status = graph::NTriples::LoadFile(path, &builder);
    if (!status.ok()) {
      std::fprintf(stderr, "error loading %s: %s\n", path,
                   status.message().c_str());
      return std::nullopt;
    }
    db = std::move(builder).Build();
  }
  std::fprintf(stderr,
               "loaded %zu triples (%zu nodes, %zu predicates) in %.2fs\n",
               db->NumTriples(), db->NumNodes(), db->NumPredicates(),
               watch.ElapsedSeconds());
  if (db->HasBacking()) {
    graph::BackingStats backing = db->backing_stats();
    std::fprintf(stderr,
                 "out-of-core: %zu/%zu predicate matrices resident, "
                 "budget %zu MiB%s\n",
                 backing.resident, backing.predicates,
                 backing.budget_bytes >> 20,
                 backing.budget_bytes == 0 ? " (unbounded)" : "");
  }
  return db;
}

}  // namespace sparqlsim::tools
