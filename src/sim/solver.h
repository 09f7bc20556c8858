#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph_database.h"
#include "sim/soi.h"
#include "util/bitvector.h"
#include "util/thread_pool.h"

namespace sparqlsim::sim {

/// Strategy knobs for the SOI fixpoint (Sect. 3.3 of the paper). The
/// defaults are the paper's SPARQLSIM configuration; the ablation bench
/// toggles them individually.
struct SolverOptions {
  /// Initialize candidate sets from the per-label summary vectors f^a/b^a
  /// (Eq. 13) instead of the all-ones vectors of Eq. (12).
  bool summary_init = true;

  /// How to evaluate `x <= y *b A`.
  enum class EvalMode {
    kRowWise,     // always materialize the product (Eq. 9)
    kColumnWise,  // always per-candidate intersection tests via A^T
    kDynamic,     // paper's rule: row-wise iff |chi(y)| < |chi(x)|
  };
  EvalMode eval_mode = EvalMode::kDynamic;

  /// Order the initial worklist so that inequalities whose matrix has the
  /// most empty columns (highest pruning potential) come first.
  bool order_by_sparsity = true;

  /// Delta-driven incremental re-evaluation of matrix inequalities. The
  /// fixpoint shrinks candidate sets monotonically, so instead of
  /// re-unioning every row selected by chi(rhs) on each re-evaluation, the
  /// solver keeps a util::CountedAccumulator per inequality (per-column
  /// cover counts plus the product vector) and, when the removal delta is
  /// small, decrements counts along only the rows that *left* chi(rhs)
  /// since the accumulator was last synchronized — work proportional to
  /// the delta, not to nnz. A cost rule analogous to the row/column
  /// dynamic rule picks delta vs full evaluation per inequality; results
  /// are bit-identical either way (the accumulator's product is exactly
  /// the Eq. (9) union), so this is purely a wall-clock knob, ablatable
  /// for benchmarks. Accumulators are allocated lazily from an
  /// inequality's second row-wise evaluation on, so one-shot inequalities
  /// never pay the O(cols) counter memory.
  bool incremental_eval = true;

  /// Safety valve for experiments; 0 means no limit.
  size_t max_rounds = 0;

  /// Column-range sharding of the evaluation phase: the node universe is
  /// partitioned into this many contiguous word-aligned column ranges
  /// (MakeShardPlan) and every inequality's mask is computed as one task
  /// per (inequality, shard) — each shard solves the system restricted to
  /// its candidate columns, writing only its own words of the shared mask
  /// slots. The per-shard results meet at the existing single-writer merge
  /// point, and because the decision logic (eval kinds, cost rules,
  /// incremental-tier transitions) runs once per inequality regardless of
  /// the partition, solutions, fixpoint trajectories, and every semantic
  /// counter are bit-identical for any shard count — sharding is purely a
  /// wall-clock knob, like num_threads, but slicing *within* an inequality
  /// instead of across them (narrow rounds with huge candidate sets is
  /// exactly where num_threads runs out of work).
  ///
  /// 0 means "default": the SPARQLSIM_FORCE_SHARDS environment variable if
  /// set (CI's shard-determinism leg), else 1. Explicit values are never
  /// overridden by the environment. ResolvedShards clamps so no shard is
  /// empty.
  size_t num_shards = 0;

  /// Worker threads for the solving path: per-round parallel inequality
  /// evaluation and (through SimEngine) concurrent union-free branches.
  /// 0 means all hardware threads; 1 (the default) keeps everything on the
  /// calling thread. Results are bit-identical for every value — the solver
  /// evaluates each round against a stable snapshot and merges the results
  /// in a fixed order — so this is purely a wall-clock knob.
  size_t num_threads = 1;

  /// Cache toggles, honored by SimEngine (the free SolveSoi function has no
  /// cache to consult). `cache_sois` reuses the constructed SOI of a
  /// canonically-equal normalized pattern; `cache_solutions` additionally
  /// reuses whole solutions when the database generation matches. The
  /// solution layer requires the SOI layer (a cached solution is only valid
  /// against the cached SOI instance's variable numbering), so
  /// `cache_solutions` without `cache_sois` is inert. Solutions are never
  /// cached for truncated runs (max_rounds != 0), whose outcome is not the
  /// canonical fixpoint.
  bool cache_sois = true;
  bool cache_solutions = true;

  /// Entry bound of the cache a SimEngine creates privately (0 =
  /// unbounded); each entry holds one SOI and, once solved, its attached
  /// solution. Ignored when a shared cache is injected — the injected
  /// cache carries its own SoiCache::Options.
  size_t cache_capacity = 0;

  /// Recycle solve workspaces (chi sets, eval masks, per-inequality
  /// incremental state, worklist vectors) across queries instead of
  /// allocating and zero-filling them per solve. Honored by the owners of
  /// scratch state — SimEngine's ScratchPool, QueryService's shared pool,
  /// StandingQuery's per-query scratch; the free SolveSoi functions have
  /// nothing to recycle from. Results are bit-identical on or off (the
  /// differential suites sweep this axis); off is the oracle configuration
  /// and the CLI/batch `--no-scratch-pool` flag. SPARQLSIM_NO_SCRATCH=1
  /// force-disables it for whole-suite differential runs.
  bool reuse_scratch = true;

  /// `reuse_scratch` with the SPARQLSIM_NO_SCRATCH override applied (the
  /// environment is parsed once per process, like SPARQLSIM_FORCE_SHARDS).
  bool EffectiveReuseScratch() const;

  /// `num_threads` with the 0-means-hardware convention applied.
  size_t ResolvedThreads() const {
    return util::ThreadPool::ResolveThreadCount(num_threads);
  }

  /// `num_shards` with the 0-means-default convention applied and clamped
  /// so every shard covers at least one 64-bit word of an `num_columns`
  /// universe (always >= 1).
  size_t ResolvedShards(size_t num_columns) const;
};

/// Contiguous word-aligned [begin, end) column ranges covering
/// [0, num_columns): every boundary except the last is a multiple of 64,
/// so ranges touch disjoint words of any output bit-vector and shard
/// tasks may fill one vector concurrently. At most
/// ceil(num_columns / 64) non-empty ranges are returned (requesting more
/// shards yields fewer); num_columns == 0 yields one empty range.
std::vector<std::pair<uint32_t, uint32_t>> MakeShardPlan(size_t num_columns,
                                                         size_t num_shards);

/// Per-solve cooperative control, checked at fixpoint round boundaries
/// (and between union-free branches in SimEngine). Expiry or cancellation
/// stops the solve early with `Solution::truncated` set; the partial
/// assignment is still a sound over-approximation of the fixpoint (the
/// solve only ever removes candidates that can never match), it is just
/// not the canonical largest solution, so truncated results are never
/// cached.
struct SolveControl {
  /// Absolute deadline; unset = no deadline.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// External cancellation flag (borrowed); null = not cancellable.
  const std::atomic<bool>* cancel = nullptr;

  bool Expired() const {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      return true;
    }
    return deadline.has_value() &&
           std::chrono::steady_clock::now() >= *deadline;
  }
};

/// Counters describing one fixpoint run.
struct SolveStats {
  /// Fixpoint rounds: one round processes every inequality that was
  /// unstable when the round began. This is the paper's "iterations"
  /// metric (L0 needs 30+, L1 only 2; Sect. 5.3).
  size_t rounds = 0;
  size_t evaluations = 0;  // inequality evaluations
  size_t updates = 0;      // evaluations that shrank a candidate set
  size_t row_evals = 0;    // full row-wise products (Eq. 9)
  size_t col_evals = 0;    // full column-wise evaluations
  double solve_seconds = 0.0;

  /// Incremental-evaluation counters (SolverOptions::incremental_eval).
  /// Every evaluation is either a delta evaluation (counted retraction
  /// through the per-inequality accumulator) or a full one (row, column,
  /// subordination, skip, clear), so
  ///     delta_evals + full_evals == evaluations
  /// holds for every run; with incremental_eval off, delta_evals == 0.
  size_t delta_evals = 0;
  size_t full_evals = 0;
  /// Accumulator (re)builds — the speculative cost the delta evaluations
  /// amortize; a build is counted inside the row evaluation that performs
  /// it.
  size_t acc_rebuilds = 0;
  /// Columns cleared by counted retraction (cover count hit zero) — the
  /// actual pruning work the deltas performed.
  size_t cols_cleared = 0;
  /// Zero 64-word blocks the hierarchical candidate vectors skipped in
  /// the single-threaded AND kernels (initialization + merge phases);
  /// grows as candidate sets collapse.
  size_t blocks_skipped = 0;

  /// Per-round parallelism counters: rounds whose evaluation phase ran on a
  /// thread pool, the widest round (unstable inequalities evaluated
  /// together — the available per-round parallelism), and the executor count
  /// the solve ran with (pool workers, or 1 for inline solves).
  /// `shards_used` is the resolved column-shard count
  /// (SolverOptions::num_shards); scheduling-dependent like threads_used,
  /// never part of a trajectory comparison.
  size_t parallel_rounds = 0;
  size_t max_round_width = 0;
  size_t threads_used = 1;
  size_t shards_used = 1;

  /// Scratch-recycling counters (SolverOptions::reuse_scratch).
  /// `scratch_reuses` is 1 when this solve ran entirely on a recycled
  /// workspace; `scratch_allocs` is 1 when the workspace had to be
  /// allocated or reshaped (first use, universe-width change, or a query
  /// shape wider than anything the scratch has seen) — including every
  /// solve with recycling off, so allocs == solves is the honest no-pool
  /// baseline. `bytes_recycled` is the recycled workspace's payload
  /// footprint (the malloc+memset traffic avoided); `words_cleared_sparse`
  /// counts the payload words the summary-guided sparse clears actually
  /// zeroed while wiping recycled buffers. Like threads_used these are
  /// scheduling/allocation counters: exempt from trajectory
  /// comparisons, which assert the semantic counters above instead.
  size_t scratch_reuses = 0;
  size_t scratch_allocs = 0;
  size_t bytes_recycled = 0;
  size_t words_cleared_sparse = 0;

  /// Adds `other`'s counters and time into this (multi-branch aggregation);
  /// width/thread counters combine by max.
  ///
  /// Not synchronized: when branches are solved concurrently, each branch
  /// writes its own SolveStats and the coordinator calls Accumulate for all
  /// branches at a single-threaded merge point after the batch barrier
  /// (see SimEngine::Prune). Never call this from worker tasks.
  void Accumulate(const SolveStats& other);
};

struct Solution;
struct WarmStart;
class IncrementalCarry;
class SolveScratch;
Solution SolveSoiWarm(const Soi& soi, const graph::GraphDatabase& db,
                      const SolverOptions& options,
                      const std::vector<util::BitVector>* initial,
                      util::ThreadPool* pool, const SolveControl* control,
                      const WarmStart* warm, SolveScratch* scratch);

/// Opaque per-inequality incremental-solver state (snapshot products,
/// counted accumulators, and their synchronized selections) carried across
/// solves of the *same* Soi instance — the state half of standing-query
/// maintenance (sim::StandingQuery). A solve handed a carry through
/// WarmStart adopts every entry the caller did not declare stale and, on
/// reaching the fixpoint, deposits its final state back, so the next
/// delta's retraction resumes from products synchronized during this
/// solve instead of rebuilding them. Truncated solves deposit nothing
/// (the carry is cleared: their state is not anchored to a fixpoint).
///
/// Not thread-safe; a carry belongs to exactly one solve at a time.
class IncrementalCarry {
 public:
  IncrementalCarry();
  ~IncrementalCarry();
  IncrementalCarry(IncrementalCarry&&) noexcept;
  IncrementalCarry& operator=(IncrementalCarry&&) noexcept;

  /// Drops all carried state; the next solve starts with cold tiers.
  void Clear();
  /// Inequalities currently holding a live snapshot product or counted
  /// accumulator (an engagement gauge for tests and stats).
  size_t LiveEntries() const;

 private:
  friend Solution SolveSoiWarm(const Soi&, const graph::GraphDatabase&,
                               const SolverOptions&,
                               const std::vector<util::BitVector>*,
                               util::ThreadPool*, const SolveControl*,
                               const WarmStart*, SolveScratch*);
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// One recyclable solve workspace: the chi candidate sets, per-inequality
/// eval masks and plans, the worklist, the incremental IneqState array
/// (snapshot products, last-rhs vectors, counted accumulators), and the
/// shard-lane/delta buffers — everything SolveSoiWarm would otherwise
/// allocate per call. A scratch is keyed by the node-universe width it was
/// last prepared for: a solve on the same universe recycles every buffer
/// (wiping them with the summary-guided sparse clears), any other solve
/// reshapes in place and counts a scratch_alloc. A recycled workspace is
/// observationally indistinguishable from a fresh one — solutions,
/// PruneReports, and fixpoint trajectories are bit-identical with and
/// without recycling (the pool differential suites assert exactly that).
///
/// Carry-ownership rule: when a solve is handed an IncrementalCarry (the
/// StandingQuery path), its IneqState array lives in a solve-local vector
/// that is moved into the carry at deposit time — never in the scratch —
/// so recycling a scratch can never dangle buffers out from under a carry
/// that outlives it.
///
/// Not thread-safe; a scratch belongs to exactly one solve at a time.
/// Acquire one from a ScratchPool (concurrent servers) or own one directly
/// (StandingQuery).
class SolveScratch {
 public:
  SolveScratch();
  ~SolveScratch();
  SolveScratch(SolveScratch&&) noexcept;
  SolveScratch& operator=(SolveScratch&&) noexcept;

 private:
  friend Solution SolveSoiWarm(const Soi&, const graph::GraphDatabase&,
                               const SolverOptions&,
                               const std::vector<util::BitVector>*,
                               util::ThreadPool*, const SolveControl*,
                               const WarmStart*, SolveScratch*);
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// A mutex-guarded freelist of SolveScratch workspaces shared by the
/// concurrently callable solve paths (SimEngine::Solve from QueryService
/// workers and parallel Prune branches). Acquire pops a recycled scratch
/// or makes a fresh one; Release returns it for the next solve (the pool
/// keeps at most kMaxIdle idle workspaces — the high-water mark of
/// concurrent solves bounds live scratches, not queue depth). Dropping an
/// acquired scratch instead of releasing it is always safe, just a lost
/// recycle.
///
/// The pool also aggregates the per-solve scratch counters (Record) into
/// process-lifetime totals for QueryService::Stats and the benches.
class ScratchPool {
 public:
  struct Stats {
    uint64_t reuses = 0;
    uint64_t allocs = 0;
    uint64_t bytes_recycled = 0;
    uint64_t words_cleared_sparse = 0;
  };

  std::unique_ptr<SolveScratch> Acquire();
  void Release(std::unique_ptr<SolveScratch> scratch);

  /// Folds one solve's scratch_* counters into the pool totals.
  void Record(const SolveStats& stats);
  Stats stats() const;

 private:
  static constexpr size_t kMaxIdle = 8;

  std::mutex mutex_;
  std::vector<std::unique_ptr<SolveScratch>> idle_;
  std::atomic<uint64_t> reuses_{0};
  std::atomic<uint64_t> allocs_{0};
  std::atomic<uint64_t> bytes_recycled_{0};
  std::atomic<uint64_t> words_cleared_{0};
};

/// Warm-start description for re-converging a previously solved SOI after
/// a graph delta (sim::StandingQuery). Combined with the `initial`
/// assignment parameter of SolveSoiWarm, the solver computes the largest
/// solution below `initial`, seeding the first round's worklist with only
/// the `armed` inequalities; everything else re-activates through the
/// normal dependency worklist when a variable it reads shrinks.
///
/// Soundness is the caller's contract: every unarmed inequality must
/// already hold at the initial assignment against the new database (true
/// for StandingQuery's construction — unarmed inequalities read only
/// unchanged predicates and variables whose initial value is the old
/// converged fixpoint). Given that, the solve's result is exactly the
/// canonical fixpoint a cold solve would produce.
struct WarmStart {
  /// Unified-index arming mask, sized matrix_ineqs.size() +
  /// sub_ineqs.size() with matrix inequalities first (the solver's
  /// internal handle space): true = place on the initial worklist. Null
  /// arms everything (plain solve semantics).
  const std::vector<bool>* armed = nullptr;
  /// Incremental state carried from the previous converged solve of the
  /// same Soi; may be null. Ignored — and cleared — when
  /// options.incremental_eval is off, and whenever the resolved shard
  /// count changed since the state was deposited (accumulator count lanes
  /// are shard-shape-dependent).
  IncrementalCarry* carry = nullptr;
  /// Per-matrix-inequality staleness for `carry` (sized
  /// matrix_ineqs.size()): true = drop the carried entry — its matrix
  /// changed, or chi(rhs) may exceed the entry's synchronized selection
  /// (retraction requires monotone shrink from the sync point). Null
  /// keeps every entry.
  const std::vector<bool>* carry_invalid = nullptr;
};

/// The largest solution of an SOI: one candidate bit-vector per SOI
/// variable. The induced relation {(v, o) | o in candidates[v]} is the
/// largest dual simulation (Prop. 2 of the paper).
struct Solution {
  std::vector<util::BitVector> candidates;
  SolveStats stats;

  /// The solve stopped before reaching the fixpoint — max_rounds hit, or
  /// SolveControl expiry/cancellation. The candidates are then a sound
  /// over-approximation of the largest solution (a superset per variable),
  /// not the canonical fixpoint; truncated solutions are never cached.
  bool truncated = false;

  /// True iff the induced relation is non-empty.
  bool AnyCandidate() const;
  /// Sum of candidate-set sizes (size of the induced relation).
  size_t RelationSize() const;
};

/// Computes the largest solution of `soi` against `db` by the worklist
/// fixpoint of Sect. 3.2/3.3: start from Eq. (12)/(13), repeatedly pick an
/// unstable inequality, AND the left-hand side with the right-hand-side
/// product, and re-activate every inequality whose right-hand side reads a
/// changed variable.
///
/// When `initial` is non-null it replaces the all-ones start of Eq. (12):
/// the fixpoint then computes the largest solution *below* the given
/// assignment. This is how restricted instances — e.g. the distance-bounded
/// balls of strong simulation — reuse the solver.
/// One fixpoint round evaluates every unstable inequality against the
/// round-start assignment (the results are per-inequality AND-masks), then
/// merges the masks into the candidate vectors in fixed worklist order on
/// the calling thread. Because each mask is a pure function of the
/// round-start state and the merge order never depends on scheduling, the
/// result is bit-identical for every thread count — and for
/// `incremental_eval` on vs off, since a delta-maintained accumulator
/// reproduces exactly the Eq. (9) product a full evaluation would compute
/// (rounds/evaluations/updates agree too, not just the fixpoint).
///
/// When `options.num_threads != 1` a transient pool is spun up for this one
/// call; long-lived consumers should hold a SimEngine, which owns a
/// persistent pool (and the caches) and passes it to the overload below.
Solution SolveSoi(const Soi& soi, const graph::GraphDatabase& db,
                  const SolverOptions& options = {},
                  const std::vector<util::BitVector>* initial = nullptr);

/// Pool-reusing overload: evaluates rounds through `pool` when it is
/// non-null, inline otherwise. `options.num_threads` is ignored in favor of
/// the pool actually passed. `control` (borrowed, may be null) is checked
/// at round boundaries; see SolveControl.
Solution SolveSoi(const Soi& soi, const graph::GraphDatabase& db,
                  const SolverOptions& options,
                  const std::vector<util::BitVector>* initial,
                  util::ThreadPool* pool,
                  const SolveControl* control = nullptr);

/// Warm-start entry point (sim::StandingQuery): like the pool overload of
/// SolveSoi, plus a WarmStart that seeds the first round's worklist with
/// only the armed inequalities and threads incremental state across
/// solves. `warm == nullptr` (or a default WarmStart) degrades to the
/// plain solve. With an all-false arming mask and an `initial` equal to a
/// converged fixpoint the solve performs zero rounds — a no-op delta is
/// free.
///
/// `scratch` (borrowed, may be null) is a recyclable workspace: non-null
/// runs the solve on the scratch's buffers and leaves them prepared for
/// the next same-width solve; null allocates a transient workspace through
/// the identical code path, so pooled and unpooled solves differ only in
/// where the buffers came from.
Solution SolveSoiWarm(const Soi& soi, const graph::GraphDatabase& db,
                      const SolverOptions& options,
                      const std::vector<util::BitVector>* initial,
                      util::ThreadPool* pool, const SolveControl* control,
                      const WarmStart* warm, SolveScratch* scratch = nullptr);

}  // namespace sparqlsim::sim
