// Thread-scaling bench for the SimEngine solving path: multi-branch (UNION
// batching) and multi-inequality (per-round parallel evaluation) workloads
// over the DBpedia-like generator, solved at 1/2/4/... threads.
//
// Results are bit-identical across thread counts (verified here on every
// run); the interesting numbers are wall-clock speedup and the available
// per-round width. Set SPARQLSIM_BENCH_JSON=<path> to archive the numbers
// as JSON — tools/run_benches.sh does this under bench/results/.

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "sim/sim_engine.h"
#include "sparql/normalize.h"

namespace sparqlsim {
namespace {

/// UNION of the BGP cores of the first `k` benchmark queries: one
/// union-free branch per query, so branch batching gets `k` independent
/// solves to run concurrently.
sparql::Query MakeUnionWorkload(size_t k) {
  std::unique_ptr<sparql::Pattern> where;
  size_t used = 0;
  for (const auto& [id, text] : datagen::BenchmarkQueries()) {
    if (used == k) break;
    sparql::Query q = bench::ParseOrDie(text);
    if (!q.where->IsBgp()) continue;
    ++used;
    where = where == nullptr
                ? q.where->Clone()
                : sparql::Pattern::Union(std::move(where), q.where->Clone());
  }
  sparql::Query query;
  query.where = std::move(where);
  return query;
}

/// One wide BGP: the triples of the first `k` benchmark BGPs with variables
/// renamed apart (q<i>_x), yielding ~2 * total-triples matrix inequalities
/// that are all unstable together in early rounds.
sparql::Query MakeWideBgpWorkload(size_t k) {
  std::vector<sparql::TriplePattern> triples;
  size_t used = 0;
  for (const auto& [id, text] : datagen::BenchmarkQueries()) {
    if (used == k) break;
    sparql::Query q = bench::ParseOrDie(text);
    if (!q.where->IsBgp()) continue;
    std::string prefix = "q";
    prefix += std::to_string(used);
    prefix += '_';
    ++used;
    auto rename = [&](const sparql::Term& t) {
      return t.IsVariable() ? sparql::Term::Var(prefix + t.text()) : t;
    };
    for (const sparql::TriplePattern& t : q.where->triples()) {
      triples.push_back({rename(t.subject), rename(t.predicate),
                         rename(t.object)});
    }
  }
  sparql::Query query;
  query.where = sparql::Pattern::Bgp(std::move(triples));
  return query;
}

struct Sample {
  size_t threads = 0;
  double seconds = 0;
  size_t parallel_rounds = 0;
  size_t max_round_width = 0;
};

struct WorkloadResult {
  std::string name;
  size_t num_branches = 0;
  std::vector<Sample> samples;
};

/// Runs one workload across `thread_counts`, checking every run bit-exact
/// against the first.
WorkloadResult RunWorkload(const char* name, const graph::GraphDatabase& db,
                           const sparql::Query& query,
                           const std::vector<size_t>& thread_counts) {
  WorkloadResult result;
  result.name = name;

  std::printf("\n%s:\n", name);
  std::printf("  %-8s %12s %9s %10s %12s %10s\n", "threads", "time(s)",
              "speedup", "par.rounds", "round-width", "branches");

  std::vector<util::BitVector> reference;
  double base_seconds = 0;
  for (size_t threads : thread_counts) {
    sim::SolverOptions options;
    options.num_threads = threads;
    options.cache_sois = false;  // measure solving, not cache hits
    options.cache_solutions = false;
    sim::SimEngine engine(&db, options);

    sim::PruneReport report;
    double seconds =
        bench::TimeAverage([&] { report = engine.Prune(query); });

    // Bit-exact determinism check across thread counts.
    std::vector<util::BitVector> flat;
    for (const auto& [var, bits] : report.var_candidates) flat.push_back(bits);
    if (reference.empty()) {
      reference = flat;
    } else if (flat != reference) {
      std::fprintf(stderr, "FATAL: results differ at %zu threads\n",
                   threads);
      std::abort();
    }
    if (base_seconds == 0) base_seconds = seconds;

    result.num_branches = report.num_branches;
    result.samples.push_back({threads, seconds, report.stats.parallel_rounds,
                              report.stats.max_round_width});
    std::printf("  %-8zu %12.5f %8.2fx %10zu %12zu %10zu\n", threads, seconds,
                seconds > 0 ? base_seconds / seconds : 0.0,
                report.stats.parallel_rounds, report.stats.max_round_width,
                report.num_branches);
  }
  return result;
}

void WriteJson(const std::vector<WorkloadResult>& results, FILE* out) {
  std::fprintf(out, "{\n  \"bench\": \"parallel\",\n");
  std::fprintf(out, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "  \"workloads\": [\n");
  for (size_t w = 0; w < results.size(); ++w) {
    const WorkloadResult& r = results[w];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"branches\": %zu, \"samples\": [",
                 r.name.c_str(), r.num_branches);
    for (size_t i = 0; i < r.samples.size(); ++i) {
      const Sample& s = r.samples[i];
      std::fprintf(out,
                   "%s\n      {\"threads\": %zu, \"seconds\": %.6f, "
                   "\"speedup\": %.3f, \"parallel_rounds\": %zu, "
                   "\"max_round_width\": %zu}",
                   i == 0 ? "" : ",", s.threads, s.seconds,
                   s.seconds > 0 ? r.samples[0].seconds / s.seconds : 0.0,
                   s.parallel_rounds, s.max_round_width);
    }
    std::fprintf(out, "\n    ]}%s\n", w + 1 == results.size() ? "" : ",");
  }
  std::fprintf(out, "  ]\n}\n");
}

int Run(int argc, char** argv) {
  std::printf("SimEngine thread scaling (branch batching + parallel rounds)\n");
  // `--db <file.gdb>` scales the solver over a real ingested database.
  std::optional<graph::GraphDatabase> override_db =
      bench::LoadDbOverride(argc, argv);
  graph::GraphDatabase db =
      override_db ? std::move(*override_db) : bench::MakeBenchDbpedia();

  const size_t k = bench::EnvSize("SPARQLSIM_PARALLEL_QUERIES", 6);
  sparql::Query union_query = MakeUnionWorkload(k);
  sparql::Query wide_query = MakeWideBgpWorkload(k);

  std::vector<size_t> thread_counts = {1, 2, 4};
  size_t hw = util::ThreadPool::ResolveThreadCount(0);
  if (hw > 4) thread_counts.push_back(hw);

  std::vector<WorkloadResult> results;
  results.push_back(RunWorkload("multi-branch (UNION batching)", db,
                                union_query, thread_counts));
  results.push_back(RunWorkload("multi-inequality (parallel rounds)", db,
                                wide_query, thread_counts));

  const char* json_path = std::getenv("SPARQLSIM_BENCH_JSON");
  if (json_path != nullptr) {
    FILE* out = std::fopen(json_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
    WriteJson(results, out);
    std::fclose(out);
    std::fprintf(stderr, "[bench] JSON written to %s\n", json_path);
  } else {
    WriteJson(results, stdout);
  }
  return 0;
}

}  // namespace
}  // namespace sparqlsim

int main(int argc, char** argv) { return sparqlsim::Run(argc, argv); }
