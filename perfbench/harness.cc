// Prune-service benchmark harness: the compiled half of perfbench/run.py.
//
//   perfbench_harness gen --graph lubm|dbpedia --scale N --seed S --out F.gdb
//   perfbench_harness run --db F.gdb --queries Q.tsv --seconds T --trace 0|1
//       --setup-reps R [--spans-out S.jsonl]
//
// `gen` writes a generated database (the repository's LUBM-like or
// DBpedia-like generator) as a SQSIMDB1 file.
//
// `run` measures the query service the way a user sees it: query text in,
// sim::PruneReport out. Set-up (load the .gdb file and start a
// sim::QueryService) is repeated R times and timed; the last instance
// serves. After a warm-up pass over the `W` lines of the query file,
// kClients closed-loop clients (each sends its next query only when the
// previous answer arrived) cycle through the `T` lines for T seconds. Each
// client times parse, Submit() and the wait for the report; nothing inside
// the program is instrumented.
//
// The service shape is fixed below (see kWorkers).
//
// With --trace 1 the run is split: the first half drives the service as
// above, the second half replays the same queries one layer at a time
// from outside — union normal form, SOI build, fixpoint solve and the
// cache-served prune path — with a span around each call. Spans are kept in
// memory and written to --spans-out at the end.
//
// Correctness: every report must be complete (not truncated) and have the
// expected number of union-free branches. The first reports of up to 24
// distinct timed queries are compared bit for bit against a sequential,
// cache-free, unpooled SimEngine::Prune, and every branch's reference
// solution must satisfy its system of inequalities (sim::SatisfiesSoi).
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and the measured metrics (plain numbers; run.py attaches units).
//
// Query file: one query per line, tab-separated
//   phase(W|T)  id  branches  query text
// where equal ids mean equal text.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "datagen/dbpedia.h"
#include "datagen/lubm.h"
#include "graph/binary_io.h"
#include "graph/graph_database.h"
#include "sim/query_service.h"
#include "sim/sim_engine.h"
#include "sim/soi.h"
#include "sim/solver.h"
#include "sim/validate.h"
#include "sparql/normalize.h"
#include "sparql/parser.h"

namespace sparqlsim {
namespace {

using Clock = std::chrono::steady_clock;

// The service shape is the one bench/bench_service.cc measures: two workers
// (its steady phase), an admission queue of 16 and a 32-entry solution cache
// (its defaults). The traffic is synthetic: one closed-loop client per
// worker, so a request finds an idle worker, latency is the service's own
// time without queueing, and throughput is what two busy workers sustain.
constexpr size_t kWorkers = 2;
constexpr size_t kQueueDepth = 16;
constexpr size_t kCacheCapacity = 32;
constexpr size_t kClients = kWorkers;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench_harness: %s\n", message.c_str());
  std::exit(2);
}

double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

Clock::time_point After(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

/// `--name value` pairs; every flag takes exactly one value.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) {
        Die(std::string("bad argument: ") + argv[i]);
      }
      values_[argv[i] + 2] = argv[i + 1];
    }
  }

  std::string Str(const std::string& name) const {
    auto it = values_.find(name);
    if (it == values_.end()) Die("missing --" + name);
    return it->second;
  }

  std::optional<std::string> Optional(const std::string& name) const {
    auto it = values_.find(name);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }

  uint64_t Uint(const std::string& name) const {
    const std::string text = Str(name);
    char* end = nullptr;
    const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0') Die("--" + name + " wants a number");
    return value;
  }

  double Real(const std::string& name) const {
    const std::string text = Str(name);
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0' || !(value > 0)) {
      Die("--" + name + " wants a positive number");
    }
    return value;
  }

 private:
  std::map<std::string, std::string> values_;
};

// ---------------------------------------------------------------------------
// gen
// ---------------------------------------------------------------------------

int Gen(const Flags& flags) {
  const std::string kind = flags.Str("graph");
  const size_t scale = flags.Uint("scale");
  const uint64_t seed = flags.Uint("seed");
  auto generate = [&] {
    if (kind == "lubm") {
      datagen::LubmConfig config;
      config.num_universities = scale;
      config.seed = seed;
      return datagen::MakeLubmDatabase(config);
    }
    if (kind == "dbpedia") {
      datagen::DbpediaConfig config;
      config.scale = scale;
      config.seed = seed;
      return datagen::MakeDbpediaDatabase(config);
    }
    Die("unknown --graph " + kind);
  };
  const graph::GraphDatabase db = generate();
  util::Status saved = graph::BinaryIo::SaveFile(db, flags.Str("out"));
  if (!saved.ok()) Die("cannot save database: " + saved.message());
  std::printf("{\"triples\": %zu, \"nodes\": %zu, \"predicates\": %zu}\n",
              db.NumTriples(), db.NumNodes(), db.NumPredicates());
  return 0;
}

// ---------------------------------------------------------------------------
// run
// ---------------------------------------------------------------------------

struct QueryLine {
  bool warmup = false;
  size_t id = 0;
  size_t branches = 0;
  std::string text;
};

std::vector<QueryLine> ReadQueries(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot open " + path);
  std::vector<QueryLine> lines;
  std::string row;
  while (std::getline(in, row)) {
    if (row.empty()) continue;
    std::vector<std::string> fields;
    size_t from = 0;
    for (int f = 0; f < 3; ++f) {
      const size_t tab = row.find('\t', from);
      if (tab == std::string::npos) Die("malformed query line: " + row);
      fields.push_back(row.substr(from, tab - from));
      from = tab + 1;
    }
    QueryLine line;
    line.warmup = fields[0] == "W";
    line.id = std::strtoull(fields[1].c_str(), nullptr, 10);
    line.branches = std::strtoull(fields[2].c_str(), nullptr, 10);
    line.text = row.substr(from);
    lines.push_back(std::move(line));
  }
  return lines;
}

sparql::Query ParseOrDie(const std::string& text) {
  util::Result<sparql::Query> parsed = sparql::Parser::Parse(text);
  if (!parsed.ok()) Die("query does not parse: " + parsed.error_message());
  return std::move(parsed).value();
}

/// One completed request, timed by its client.
struct Sample {
  Clock::time_point start;     // client picks the query text
  Clock::time_point parsed;    // Parser::Parse returned
  Clock::time_point admitted;  // Submit() returned (admission gate passed)
  Clock::time_point done;      // the report arrived
};

/// The first report of each of the first `limit` distinct queries served,
/// kept for the reference comparison after the measured window.
class ReportStore {
 public:
  using Entry = std::pair<const QueryLine*, sim::PruneReport>;

  explicit ReportStore(size_t limit) : limit_(limit) {}

  void Offer(const QueryLine& line, sim::PruneReport&& report) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (reports_.size() >= limit_ || reports_.count(line.id) != 0) return;
    reports_.emplace(line.id, Entry(&line, std::move(report)));
  }

  /// Read only after every client has joined.
  const std::map<size_t, Entry>& reports() const { return reports_; }

 private:
  const size_t limit_;
  std::mutex mutex_;
  std::map<size_t, Entry> reports_;
};

struct LoopResult {
  std::vector<Sample> samples;
  size_t attempted = 0;
  size_t failed = 0;
  Clock::time_point begin;
  Clock::time_point end;  // last client finished
};

/// Closed loop: kClients threads, each sending its next query once the
/// previous report arrived, cycling through `lines`. Without a deadline
/// every line is sent exactly once.
LoopResult RunClosedLoop(sim::QueryService& service,
                         const std::vector<const QueryLine*>& lines,
                         std::optional<Clock::time_point> deadline,
                         ReportStore* store) {
  LoopResult result;
  std::mutex mutex;
  std::atomic<size_t> cursor{0};
  result.begin = Clock::now();
  auto client = [&] {
    std::vector<Sample> samples;
    size_t attempted = 0;
    size_t failed = 0;
    while (true) {
      const Clock::time_point start = Clock::now();
      if (deadline && start >= *deadline) break;
      const size_t k = cursor.fetch_add(1);
      if (!deadline && k >= lines.size()) break;
      const QueryLine& line = *lines[k % lines.size()];
      ++attempted;
      util::Result<sparql::Query> query = sparql::Parser::Parse(line.text);
      const Clock::time_point parsed = Clock::now();
      if (!query.ok()) {
        ++failed;
        continue;
      }
      std::future<sim::PruneReport> future = service.Submit(query.value());
      const Clock::time_point admitted = Clock::now();
      sim::PruneReport report = future.get();
      const Clock::time_point done = Clock::now();
      if (report.truncated || report.num_branches != line.branches) {
        ++failed;
        continue;
      }
      samples.push_back({start, parsed, admitted, done});
      if (store != nullptr) store->Offer(line, std::move(report));
    }
    std::lock_guard<std::mutex> lock(mutex);
    result.samples.insert(result.samples.end(), samples.begin(),
                          samples.end());
    result.attempted += attempted;
    result.failed += failed;
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) threads.emplace_back(client);
  for (std::thread& t : threads) t.join();
  result.end = Clock::now();
  return result;
}

struct Verdict {
  size_t checked = 0;
  size_t wrong = 0;
};

/// Compares each stored report with a sequential, cache-free, unpooled
/// reference prune, checks every branch's reference solution against its
/// inequalities, and recomputes the kept triples from those solutions.
Verdict Verify(const graph::GraphDatabase& db, const ReportStore& store) {
  sim::SolverOptions plain;
  plain.num_threads = 1;
  plain.cache_sois = false;
  plain.cache_solutions = false;
  plain.reuse_scratch = false;
  sim::SimEngine reference(&db, plain);
  Verdict verdict;
  for (const auto& [id, entry] : store.reports()) {
    const auto& [line, got] = entry;
    sparql::Query query = ParseOrDie(line->text);
    sim::PruneReport want = reference.Prune(query);
    ++verdict.checked;
    if (got.kept_triples != want.kept_triples ||
        got.var_candidates != want.var_candidates ||
        got.num_branches != want.num_branches) {
      ++verdict.wrong;
      std::fprintf(stderr, "query %zu: service report differs from reference\n",
                   id);
      continue;
    }
    // Kept triples by their definition (Sect. 5): a triple survives iff some
    // pattern edge admits it with both ends in the candidate sets.
    std::vector<graph::Triple> kept;
    for (const std::unique_ptr<sparql::Pattern>& branch :
         sparql::UnionNormalForm(*query.where)) {
      sim::Soi soi = sim::BuildSoiFromPattern(*branch, db);
      sim::Solution solution = reference.Solve(soi);
      std::string why;
      if (!sim::SatisfiesSoi(soi, db, solution.candidates, &why)) {
        ++verdict.wrong;
        std::fprintf(stderr, "query %zu: solution violates its SOI: %s\n", id,
                     why.c_str());
      }
      for (const sim::Soi::Edge& e : soi.edges) {
        if (e.predicate == sim::kEmptyPredicate) continue;
        const util::BitVector& objects = solution.candidates[e.object_var];
        solution.candidates[e.subject_var].ForEachSetBit([&](uint32_t s) {
          for (uint32_t o : db.Forward(e.predicate).Row(s)) {
            if (objects.Test(o)) kept.push_back({s, e.predicate, o});
          }
        });
      }
    }
    std::sort(kept.begin(), kept.end());
    kept.erase(std::unique(kept.begin(), kept.end()), kept.end());
    if (kept != got.kept_triples) {
      ++verdict.wrong;
      std::fprintf(stderr, "query %zu: kept triples differ from definition\n",
                   id);
    }
  }
  return verdict;
}

/// A layer span recorded from outside the program. Spans of one request
/// share `request`; `parent` names the enclosing span.
struct Span {
  size_t request = 0;
  const char* name = "";
  const char* parent = "";
  Clock::time_point start;
  Clock::time_point end;
};

/// Per-query layer costs of the replay phase.
struct ReplayTotals {
  size_t queries = 0;
  double normalize_ms = 0;
  double soi_build_ms = 0;
  double solve_ms = 0;
  double hit_path_ms = 0;
  sim::SolveStats stats;
};

/// Replays `lines` one layer at a time until `deadline`: union normal form,
/// then per branch SOI build and solve (cache-free engine), then the prune
/// path a solution-cache hit takes (normalize, key, lookup, triple
/// extraction) on an engine whose cache was just filled by the same query.
ReplayTotals Replay(const graph::GraphDatabase& db,
                    const std::vector<const QueryLine*>& lines,
                    Clock::time_point deadline, size_t first_request,
                    std::vector<Span>* spans) {
  sim::SolverOptions solve_only;
  solve_only.cache_sois = false;
  solve_only.cache_solutions = false;
  sim::SimEngine solver(&db, solve_only);
  sim::SolverOptions cached_options;
  cached_options.cache_capacity = kCacheCapacity;
  sim::SimEngine cached(&db, cached_options);

  ReplayTotals totals;
  for (size_t k = 0; Clock::now() < deadline; ++k) {
    const QueryLine& line = *lines[k % lines.size()];
    const size_t request = first_request + k;
    sparql::Query query = ParseOrDie(line.text);

    const Clock::time_point begin = Clock::now();
    std::vector<std::unique_ptr<sparql::Pattern>> branches =
        sparql::UnionNormalForm(*query.where);
    const Clock::time_point normalized = Clock::now();
    spans->push_back({request, "normalize", "replay", begin, normalized});
    totals.normalize_ms += Millis(normalized - begin);

    for (const std::unique_ptr<sparql::Pattern>& branch : branches) {
      const Clock::time_point t0 = Clock::now();
      sim::Soi soi = sim::BuildSoiFromPattern(*branch, db);
      const Clock::time_point t1 = Clock::now();
      sim::Solution solution = solver.Solve(soi);
      const Clock::time_point t2 = Clock::now();
      spans->push_back({request, "soi_build", "replay", t0, t1});
      spans->push_back({request, "solve", "replay", t1, t2});
      totals.soi_build_ms += Millis(t1 - t0);
      totals.solve_ms += Millis(t2 - t1);
      totals.stats.Accumulate(solution.stats);
    }

    cached.Prune(query);  // fills the solution cache for this query
    const Clock::time_point h0 = Clock::now();
    cached.Prune(query);
    const Clock::time_point h1 = Clock::now();
    spans->push_back({request, "hit_path", "replay", h0, h1});
    spans->push_back({request, "replay", "", begin, h1});
    totals.hit_path_ms += Millis(h1 - h0);
    ++totals.queries;
  }
  return totals;
}

/// Nearest-rank percentile, q in [0, 1].
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(values.size()));
  if (rank >= values.size()) rank = values.size() - 1;
  return values[rank];
}

double Ratio(size_t part, size_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans,
                Clock::time_point origin) {
  std::ofstream out(path);
  if (!out) Die("cannot write " + path);
  auto us = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::microseconds>(t - origin)
        .count();
  };
  for (const Span& s : spans) {
    out << "{\"request\": " << s.request << ", \"name\": \"" << s.name
        << "\", \"parent\": \"" << s.parent << "\", \"start_us\": "
        << us(s.start) << ", \"end_us\": " << us(s.end) << "}\n";
  }
}

int Run(const Flags& flags) {
  const Clock::time_point origin = Clock::now();
  const std::string db_path = flags.Str("db");
  const std::vector<QueryLine> all_lines = ReadQueries(flags.Str("queries"));
  const double seconds = flags.Real("seconds");
  const bool trace = flags.Uint("trace") != 0;
  const size_t setup_reps = std::max<uint64_t>(1, flags.Uint("setup-reps"));

  sim::QueryServiceOptions options;
  options.num_workers = kWorkers;
  options.queue_depth = kQueueDepth;
  options.cache_capacity = kCacheCapacity;

  std::vector<const QueryLine*> warmup;
  std::vector<const QueryLine*> timed;
  for (const QueryLine& line : all_lines) {
    (line.warmup ? warmup : timed).push_back(&line);
  }
  if (timed.empty()) Die("no timed queries");

  // ---- Set-up: load the database and start the service. -------------------
  std::optional<graph::GraphDatabase> db;
  std::unique_ptr<sim::QueryService> service;
  std::vector<double> setup_seconds;
  for (size_t r = 0; r < setup_reps; ++r) {
    service.reset();
    db.reset();
    const Clock::time_point t0 = Clock::now();
    util::Result<graph::GraphDatabase> loaded =
        graph::BinaryIo::LoadFile(db_path);
    if (!loaded.ok()) Die("cannot load database: " + loaded.error_message());
    db.emplace(std::move(loaded).value());
    service = std::make_unique<sim::QueryService>(&*db, options);
    setup_seconds.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
  }
  std::fprintf(stderr, "db: %zu triples, %zu nodes, %zu predicates; set-up",
               db->NumTriples(), db->NumNodes(), db->NumPredicates());
  for (double s : setup_seconds) std::fprintf(stderr, " %.3fs", s);
  std::fprintf(stderr, "\n");

  // ---- Warm-up (not measured). --------------------------------------------
  if (!warmup.empty()) {
    LoopResult warm = RunClosedLoop(*service, warmup, std::nullopt,
                                    /*store=*/nullptr);
    if (warm.failed != 0) Die("warm-up queries failed");
  }

  // ---- Measured window. -----------------------------------------------------
  ReportStore store(/*limit=*/24);
  LoopResult served = RunClosedLoop(
      *service, timed, After(trace ? seconds / 2 : seconds), &store);
  const sim::QueryService::Stats stats = service->stats();
  const size_t completed = served.samples.size();

  std::map<std::string, double> metrics;
  std::vector<Span> spans;
  if (!trace) {
    std::vector<double> latency_ms;
    latency_ms.reserve(completed);
    for (const Sample& s : served.samples) {
      latency_ms.push_back(Millis(s.done - s.start));
    }
    metrics["latency_p50_ms"] = Percentile(latency_ms, 0.50);
    metrics["latency_p90_ms"] = Percentile(latency_ms, 0.90);
    metrics["throughput_qps"] =
        static_cast<double>(completed) /
        std::chrono::duration<double>(served.end - served.begin).count();
    metrics["setup_s"] = Percentile(setup_seconds, 0.50);
  } else {
    double parse_ms = 0, submit_ms = 0, service_ms = 0;
    for (size_t i = 0; i < completed; ++i) {
      const Sample& s = served.samples[i];
      parse_ms += Millis(s.parsed - s.start);
      submit_ms += Millis(s.admitted - s.parsed);
      service_ms += Millis(s.done - s.admitted);
      spans.push_back({i, "request", "", s.start, s.done});
      spans.push_back({i, "parse", "request", s.start, s.parsed});
      spans.push_back({i, "submit", "request", s.parsed, s.admitted});
      spans.push_back({i, "service", "request", s.admitted, s.done});
    }
    const double n = static_cast<double>(std::max<size_t>(1, completed));
    metrics["parse_ms"] = parse_ms / n;
    metrics["submit_ms"] = submit_ms / n;
    metrics["service_ms"] = service_ms / n;
    metrics["solution_hit_ratio"] =
        Ratio(stats.cache.solution_hits,
              stats.cache.solution_hits + stats.cache.solution_misses);
    metrics["coalesced_ratio"] = Ratio(stats.coalesced, stats.submitted);

    ReplayTotals replay =
        Replay(*db, timed, After(seconds / 2), completed, &spans);
    const double q = static_cast<double>(std::max<size_t>(1, replay.queries));
    metrics["normalize_ms"] = replay.normalize_ms / q;
    metrics["soi_build_ms"] = replay.soi_build_ms / q;
    metrics["solve_ms"] = replay.solve_ms / q;
    metrics["hit_path_ms"] = replay.hit_path_ms / q;
    metrics["solve_rounds"] = static_cast<double>(replay.stats.rounds) / q;
    metrics["evaluations"] = static_cast<double>(replay.stats.evaluations) / q;
    metrics["row_evals"] = static_cast<double>(replay.stats.row_evals) / q;
    metrics["col_evals"] = static_cast<double>(replay.stats.col_evals) / q;
    metrics["updates"] = static_cast<double>(replay.stats.updates) / q;
  }

  // ---- Correctness (after the measured window). ---------------------------
  const Verdict verdict = Verify(*db, store);
  const bool correct = served.failed == 0 && completed > 0 &&
                       verdict.checked > 0 && verdict.wrong == 0;

  if (std::optional<std::string> spans_out = flags.Optional("spans-out")) {
    WriteSpans(*spans_out, spans, origin);
  }

  std::fprintf(stderr,
               "%zu completed, %zu failed, %zu checked (%zu wrong); service "
               "executed %zu, coalesced %zu, solution hits %zu\n",
               completed, served.failed, verdict.checked, verdict.wrong,
               stats.executed, stats.coalesced, stats.cache.solution_hits);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", served.attempted, served.failed);
  bool first = true;
  for (const auto& [name, value] : metrics) {
    std::printf("%s\"%s\": %.9g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace sparqlsim

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_harness gen|run --flag value ...\n");
    return 2;
  }
  const std::string command = argv[1];
  const sparqlsim::Flags flags(argc, argv, 2);
  if (command == "gen") return sparqlsim::Gen(flags);
  if (command == "run") return sparqlsim::Run(flags);
  std::fprintf(stderr, "unknown command %s\n", command.c_str());
  return 2;
}
