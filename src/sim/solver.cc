#include "sim/solver.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>

#include "util/counted_accumulator.h"
#include "util/hierarchical_bitvector.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace sparqlsim::sim {

namespace {

/// Unified inequality handle: indices [0, M) are matrix inequalities,
/// [M, M + S) are subordinations.
struct Work {
  std::vector<uint32_t> current;
  std::vector<uint32_t> next;
  /// Membership in `next`. A BitVector rather than vector<bool>: Test/Set
  /// compile to single word ops instead of the bit-proxy's shift dance,
  /// and the end-of-round reset is one word-parallel ClearAll.
  util::BitVector queued;
};

/// What the evaluation phase decided for one unstable inequality. The
/// merge phase replays these tags in worklist order, so the tag plus the
/// mask fully determine the round's effect.
enum class EvalKind : uint8_t {
  kSkip,   // lhs already empty at round start: nothing to do
  kClear,  // rhs empty / predicate absent: lhs drains to the empty set
  kRow,    // mask = chi(rhs) *b A (Eq. 9), computed in full
  kCol,    // mask = chi(lhs) filtered by per-column intersection tests
  kSub,    // mask = chi(rhs) (subordination, Eq. 14/15)
  kDelta,  // mask = accumulator product after counted retraction of the
           // rows that left chi(rhs); identical to the kRow mask
};

/// Per-matrix-inequality incremental state, persistent across rounds.
///
/// Two tiers, both exploiting that candidate sets only ever shrink (the
/// accumulated removal delta since the last synchronization is exactly
/// `last_rhs` minus the current chi(rhs), and its *size* is a free count
/// difference):
///
///  * Snapshot tier — every full row-wise evaluation keeps its product
///    and the selection it was computed from (two bit-vector copies, a
///    negligible premium over the Multiply itself). A re-evaluation with
///    a small delta then *retracts*: only columns reachable from removed
///    rows can leave the product, and each such column is re-checked with
///    one early-exit cover probe against the current selection (row of
///    A^T vs chi(rhs)).
///  * Counted tier — an inequality that demonstrably iterates escalates
///    to a util::CountedAccumulator, whose per-column cover counts make
///    every retraction O(1) per touched column (no probes, GQ-Fast-style
///    counted index). Building counts writes 4 bytes per selected-nnz
///    entry where a product writes a bit, so the build is only risked on
///    *collapsed* selections, where it is near-free and every later
///    retraction is pure profit.
///
/// State is touched exclusively by the one evaluation task that owns the
/// inequality in a round (each inequality appears at most once per
/// round), so the evaluation phase stays race-free; its evolution is a
/// pure function of the worklist and the round-start assignments, so it
/// is scheduling-independent too.
struct IneqState {
  util::BitVector product;   // snapshot tier: chi(rhs) *b A for last_rhs
  util::BitVector last_rhs;  // selection both tiers are synchronized to
  size_t last_count = 0;     // == last_rhs.Count(), kept for the cost rule
  bool product_valid = false;
  util::CountedAccumulator acc;  // counted tier (escalation)
  bool acc_valid = false;
  /// Delta evaluations this inequality has completed, saturating — past
  /// retraction is the only reliable predictor of the future retractions
  /// that amortize the counted build (visit counts are not: for an
  /// inequality the fixpoint evaluates k times, any visit threshold
  /// tends to trigger exactly at the k-th, final, visit).
  uint8_t deltas_done = 0;
};

/// Escalation gate to the counted tier: at least this many delta
/// evaluations already performed...
constexpr uint8_t kAccDeltaThreshold = 2;
/// ...and a selection collapsed below 1/kAccBuildFraction of the
/// universe, so the counter-array build premium is negligible.
constexpr size_t kAccBuildFraction = 8;

/// Snapshot-tier cost asymmetry: a probe retraction pays an early-exit
/// row scan per touched column where a recompute pays a bit write per
/// entry, so probing is only chosen for deltas this many times smaller
/// than the full evaluation (counted-tier decrements are O(1) per column
/// and keep the plain removed-vs-full comparison).
constexpr size_t kProbePenalty = 8;

/// What one inequality's shard tasks need from its plan step, beyond the
/// EvalKind tag: which matrices to read, which chi set is the selection,
/// and which incremental tier (if any) performs the data work. Written by
/// plan(k), read by every shard_eval(k, s) of the same round.
struct SlotPlan {
  const util::BitMatrix* a = nullptr;
  const util::BitMatrix* a_t = nullptr;
  IneqState* st = nullptr;
  uint32_t rhs = 0;
  /// kDelta data work: 0 = none (bookkeeping-only sync), 1 = counted
  /// retraction, 2 = snapshot probe, 3 = accumulator rebuild.
  uint8_t delta_tier = 0;
  /// kRow under incremental_eval: copy the finished mask into the
  /// snapshot-tier product after the shard barrier.
  bool refresh_product = false;
};

/// fn(position) for every set bit of v in [begin, end); `begin` must be
/// word-aligned and `end` word-aligned or == v.size(), so shard tasks may
/// walk (and Reset bits in) disjoint ranges of one vector concurrently.
template <typename Fn>
void ForEachSetBitInRange(const util::BitVector& v, size_t begin, size_t end,
                          Fn&& fn) {
  const uint64_t* words = v.words();
  const size_t word_begin = begin / util::BitVector::kWordBits;
  const size_t word_end =
      (end + util::BitVector::kWordBits - 1) / util::BitVector::kWordBits;
  for (size_t w = word_begin; w < word_end; ++w) {
    uint64_t bits = words[w];
    while (bits != 0) {
      const int bit = std::countr_zero(bits);
      bits &= bits - 1;
      fn(static_cast<uint32_t>(w * util::BitVector::kWordBits + bit));
    }
  }
}

}  // namespace

/// Carried incremental state: the per-inequality tier vector of the last
/// converged solve plus the shard shape it was built under (accumulator
/// count lanes are wide iff the solve sharded, so a shard-shape change
/// invalidates the whole carry).
struct IncrementalCarry::Impl {
  std::vector<IneqState> states;
  size_t shards = 1;
};

IncrementalCarry::IncrementalCarry() = default;
IncrementalCarry::~IncrementalCarry() = default;
IncrementalCarry::IncrementalCarry(IncrementalCarry&&) noexcept = default;
IncrementalCarry& IncrementalCarry::operator=(IncrementalCarry&&) noexcept =
    default;

void IncrementalCarry::Clear() { impl_.reset(); }

size_t IncrementalCarry::LiveEntries() const {
  if (impl_ == nullptr) return 0;
  size_t live = 0;
  for (const IneqState& st : impl_->states) {
    if (st.product_valid || st.acc_valid) ++live;
  }
  return live;
}

/// The recyclable workspace behind sim::SolveScratch (class comment in
/// solver.h). Everything here is a buffer SolveSoiWarm historically
/// allocated per call; the prepare step at the top of the solve reshapes
/// them in place — growing, never shrinking, so spare width keeps serving
/// the rest of a mixed query workload — and `prepared`/`universe` key
/// whether the next solve recycles wholesale.
struct SolveScratch::Impl {
  bool prepared = false;
  size_t universe = 0;
  /// Payload footprint of the recyclable bit-vector buffers as of the last
  /// solve; credited to SolveStats::bytes_recycled on reuse.
  size_t payload_bytes = 0;

  std::vector<util::HierarchicalBitVector> chi;
  std::vector<size_t> counts;
  std::vector<std::vector<uint32_t>> dependents;
  std::vector<uint32_t> order;
  Work work;
  /// Incremental state for carry-less solves only. A solve threaded
  /// through an IncrementalCarry keeps its IneqStates in a solve-local
  /// vector instead (the carry-ownership rule): the carry deposit moves
  /// that vector out, so recycling this scratch can never dangle buffers
  /// under a carry that outlives it.
  std::vector<IneqState> ineq_state;

  /// Per-round slot vectors, lazily grown to the widest round seen.
  /// Recycled entries hold stale content by design: every slot a round
  /// reads is fully written first (plans/kinds/rebuilt per slot in the
  /// plan step; masks/gone overwritten whole by copy-assign or the
  /// write-what-you-clear MultiplyRange; cleared_ks zeroed in the plan
  /// step for kDelta slots).
  std::vector<util::BitVector> masks;
  std::vector<EvalKind> kinds;
  std::vector<const util::BitVector*> mask_ptrs;
  std::vector<size_t> cleared;
  std::vector<uint8_t> rebuilt;
  std::vector<SlotPlan> plans;
  std::vector<util::BitVector> gone;
  std::vector<size_t> cleared_ks;
};

SolveScratch::SolveScratch() : impl_(std::make_unique<Impl>()) {}
SolveScratch::~SolveScratch() = default;
SolveScratch::SolveScratch(SolveScratch&&) noexcept = default;
SolveScratch& SolveScratch::operator=(SolveScratch&&) noexcept = default;

std::unique_ptr<SolveScratch> ScratchPool::Acquire() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!idle_.empty()) {
      std::unique_ptr<SolveScratch> scratch = std::move(idle_.back());
      idle_.pop_back();
      return scratch;
    }
  }
  return std::make_unique<SolveScratch>();
}

void ScratchPool::Release(std::unique_ptr<SolveScratch> scratch) {
  if (scratch == nullptr) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (idle_.size() < kMaxIdle) idle_.push_back(std::move(scratch));
  // else: drop — the pool bounds idle workspaces, not in-flight ones.
}

void ScratchPool::Record(const SolveStats& stats) {
  reuses_.fetch_add(stats.scratch_reuses, std::memory_order_relaxed);
  allocs_.fetch_add(stats.scratch_allocs, std::memory_order_relaxed);
  bytes_recycled_.fetch_add(stats.bytes_recycled, std::memory_order_relaxed);
  words_cleared_.fetch_add(stats.words_cleared_sparse,
                           std::memory_order_relaxed);
}

ScratchPool::Stats ScratchPool::stats() const {
  Stats out;
  out.reuses = reuses_.load(std::memory_order_relaxed);
  out.allocs = allocs_.load(std::memory_order_relaxed);
  out.bytes_recycled = bytes_recycled_.load(std::memory_order_relaxed);
  out.words_cleared_sparse = words_cleared_.load(std::memory_order_relaxed);
  return out;
}

bool SolverOptions::EffectiveReuseScratch() const {
  // Parsed once per process, like SPARQLSIM_FORCE_SHARDS: the env override
  // lets CI re-run whole suites with recycling force-disabled (the
  // differential oracle configuration) without touching any options.
  static const bool env_disabled = [] {
    const char* env = std::getenv("SPARQLSIM_NO_SCRATCH");
    return env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
  }();
  return reuse_scratch && !env_disabled;
}

size_t SolverOptions::ResolvedShards(size_t num_columns) const {
  size_t shards = num_shards;
  if (shards == 0) {
    // Default comes from the environment override (CI's shard-determinism
    // leg re-runs existing suites under SPARQLSIM_FORCE_SHARDS=3), parsed
    // once; explicit num_shards values are never overridden, so
    // differential configs stay exact.
    static const size_t forced = [] {
      const char* env = std::getenv("SPARQLSIM_FORCE_SHARDS");
      if (env == nullptr || *env == '\0') return size_t{1};
      char* end = nullptr;
      const unsigned long long value = std::strtoull(env, &end, 10);
      if (end == env || *end != '\0' || value == 0) return size_t{1};
      return static_cast<size_t>(value);
    }();
    shards = forced;
  }
  const size_t words =
      (num_columns + util::BitVector::kWordBits - 1) / util::BitVector::kWordBits;
  return std::max<size_t>(1, std::min(shards, std::max<size_t>(1, words)));
}

std::vector<std::pair<uint32_t, uint32_t>> MakeShardPlan(size_t num_columns,
                                                         size_t num_shards) {
  const size_t words =
      (num_columns + util::BitVector::kWordBits - 1) / util::BitVector::kWordBits;
  const size_t shards =
      std::max<size_t>(1, std::min(num_shards, std::max<size_t>(1, words)));
  std::vector<std::pair<uint32_t, uint32_t>> plan;
  plan.reserve(shards);
  size_t word_begin = 0;
  for (size_t s = 0; s < shards; ++s) {
    const size_t count = words / shards + (s < words % shards ? 1 : 0);
    const size_t begin = word_begin * util::BitVector::kWordBits;
    const size_t end = std::min(
        num_columns, (word_begin + count) * util::BitVector::kWordBits);
    plan.emplace_back(static_cast<uint32_t>(begin),
                      static_cast<uint32_t>(end));
    word_begin += count;
  }
  return plan;
}

void SolveStats::Accumulate(const SolveStats& other) {
  rounds += other.rounds;
  evaluations += other.evaluations;
  updates += other.updates;
  row_evals += other.row_evals;
  col_evals += other.col_evals;
  solve_seconds += other.solve_seconds;
  delta_evals += other.delta_evals;
  full_evals += other.full_evals;
  acc_rebuilds += other.acc_rebuilds;
  cols_cleared += other.cols_cleared;
  blocks_skipped += other.blocks_skipped;
  parallel_rounds += other.parallel_rounds;
  max_round_width = std::max(max_round_width, other.max_round_width);
  threads_used = std::max(threads_used, other.threads_used);
  shards_used = std::max(shards_used, other.shards_used);
  scratch_reuses += other.scratch_reuses;
  scratch_allocs += other.scratch_allocs;
  bytes_recycled += other.bytes_recycled;
  words_cleared_sparse += other.words_cleared_sparse;
}

bool Solution::AnyCandidate() const {
  for (const util::BitVector& c : candidates) {
    if (c.Any()) return true;
  }
  return false;
}

size_t Solution::RelationSize() const {
  size_t total = 0;
  for (const util::BitVector& c : candidates) total += c.Count();
  return total;
}

Solution SolveSoi(const Soi& soi, const graph::GraphDatabase& db,
                  const SolverOptions& options,
                  const std::vector<util::BitVector>* initial) {
  std::unique_ptr<util::ThreadPool> transient;
  if (options.ResolvedThreads() > 1) {
    transient = std::make_unique<util::ThreadPool>(options.ResolvedThreads());
  }
  return SolveSoi(soi, db, options, initial, transient.get());
}

Solution SolveSoi(const Soi& soi, const graph::GraphDatabase& db,
                  const SolverOptions& options,
                  const std::vector<util::BitVector>* initial,
                  util::ThreadPool* pool, const SolveControl* control) {
  return SolveSoiWarm(soi, db, options, initial, pool, control,
                      /*warm=*/nullptr);
}

Solution SolveSoiWarm(const Soi& soi, const graph::GraphDatabase& db,
                      const SolverOptions& options,
                      const std::vector<util::BitVector>* initial,
                      util::ThreadPool* pool, const SolveControl* control,
                      const WarmStart* warm, SolveScratch* scratch) {
  util::Stopwatch timer;
  // Every solver entry point funnels through here: one residency pin keeps
  // lazily-materialized matrix slabs resident (out-of-core tier) for the
  // whole fixpoint. Free for in-memory databases.
  graph::ResidencyPin residency_pin = db.PinResidency();
  const size_t n = db.NumNodes();
  const size_t num_vars = soi.NumVars();
  const size_t num_matrix = soi.matrix_ineqs.size();
  const size_t num_ineqs = num_matrix + soi.sub_ineqs.size();

  Solution solution;
  SolveStats& stats = solution.stats;
  // Empty slots only: every candidate vector is copied out of chi at the
  // end of the solve, so allocating dense vectors here would be wasted.
  solution.candidates.resize(num_vars);

  // --- Workspace: the caller's recyclable scratch, or a transient one. ---
  // Either way the solve runs on the same Impl through one code path, so
  // pooled and unpooled solves are bit-identical by construction; they
  // differ only in where the buffers came from. A scratch prepared for the
  // same node universe recycles wholesale; anything else (first use,
  // universe change, a query shape wider than the scratch has seen —
  // tracked via `grew`) reshapes in place and counts a scratch_alloc.
  std::unique_ptr<SolveScratch> transient_scratch;
  if (scratch == nullptr) {
    transient_scratch = std::make_unique<SolveScratch>();
    scratch = transient_scratch.get();
  }
  SolveScratch::Impl& S = *scratch->impl_;
  const bool recycled = S.prepared && S.universe == n;
  bool grew = false;

  // Each candidate set is one HierarchicalBitVector for the whole
  // fixpoint: zero-block skipping over the SIMD word kernels. Recycled
  // sets are reset to fresh-constructed state (ResetForReuse is
  // observationally a fresh ctor); flat vectors are copied into the
  // Solution at the end.
  std::vector<util::HierarchicalBitVector>& chi = S.chi;
  const size_t chi_ready = std::min(chi.size(), num_vars);
  for (size_t v = 0; v < chi_ready; ++v) chi[v].ResetForReuse(n);
  if (chi.size() < num_vars) {
    grew = true;
    chi.reserve(num_vars);
    while (chi.size() < num_vars) chi.emplace_back(n);
  }
  S.counts.assign(num_vars, 0);
  std::vector<size_t>& counts = S.counts;

  // --- Initialization: Eq. (12) or Eq. (13), constants per Sect. 4.5. ---
  for (size_t v = 0; v < num_vars; ++v) {
    if (soi.unsatisfiable_vars[v]) continue;  // stays empty
    if (initial != nullptr) {
      chi[v].AssignFrom((*initial)[v]);
      if (soi.constants[v]) {
        util::BitVector pin(n);
        pin.Set(*soi.constants[v]);
        chi[v].AndWith(pin);
      }
      continue;
    }
    if (soi.constants[v]) {
      chi[v].Set(*soi.constants[v]);
    } else {
      chi[v].SetAll();
    }
  }
  if (options.summary_init) {
    for (const Soi::Edge& e : soi.edges) {
      if (e.predicate == kEmptyPredicate) {
        chi[e.subject_var].ClearAll();
        chi[e.object_var].ClearAll();
        continue;
      }
      chi[e.subject_var].AndWith(db.ForwardSummary(e.predicate));
      chi[e.object_var].AndWith(db.BackwardSummary(e.predicate));
    }
  }
  for (size_t v = 0; v < num_vars; ++v) counts[v] = chi[v].Count();

  // --- Dependency index: ineqs whose right-hand side reads var v. ---
  // Recycled adjacency lists keep their per-slot capacity across solves.
  if (S.dependents.size() < num_vars) S.dependents.resize(num_vars);
  for (size_t v = 0; v < num_vars; ++v) S.dependents[v].clear();
  std::vector<std::vector<uint32_t>>& dependents = S.dependents;
  for (size_t i = 0; i < num_matrix; ++i) {
    dependents[soi.matrix_ineqs[i].rhs].push_back(static_cast<uint32_t>(i));
  }
  for (size_t i = 0; i < soi.sub_ineqs.size(); ++i) {
    dependents[soi.sub_ineqs[i].rhs].push_back(
        static_cast<uint32_t>(num_matrix + i));
  }

  // --- Initial worklist order (sparsity heuristic, Sect. 3.3). ---
  S.order.resize(num_ineqs);
  std::vector<uint32_t>& order = S.order;
  std::iota(order.begin(), order.end(), 0);
  if (options.order_by_sparsity) {
    auto key = [&](uint32_t idx) -> size_t {
      if (idx >= num_matrix) return SIZE_MAX;  // subordinations last
      const Soi::MatrixIneq& m = soi.matrix_ineqs[idx];
      if (m.predicate == kEmptyPredicate) return 0;
      // More empty columns in A first. The counts are precomputed per
      // predicate at database build time; ascending (cols - empty) is the
      // same order as the descending empty-column sort of Sect. 3.3.
      return n - (m.forward ? db.EmptyForwardColumns(m.predicate)
                            : db.EmptyBackwardColumns(m.predicate));
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](uint32_t a, uint32_t b) { return key(a) < key(b); });
  }

  Work& work = S.work;
  work.current = order;
  work.next.clear();
  // Warm start (sim::StandingQuery): seed the first round with the armed
  // subset only — in sparsity order, like a full first round would be.
  // Unarmed inequalities hold at `initial` by the WarmStart contract and
  // re-activate through `dependents` if an input of theirs later shrinks.
  if (warm != nullptr && warm->armed != nullptr) {
    std::erase_if(work.current,
                  [&](uint32_t idx) { return !(*warm->armed)[idx]; });
  }
  work.queued.Resize(num_ineqs);
  work.queued.ClearAll();

  // Per-matrix-inequality incremental state (accumulator + selection
  // snapshot); see IneqState. Allocated once, lazily populated — or
  // adopted from a WarmStart carry, minus the entries the caller declared
  // stale, so retractions resume from products synchronized during the
  // previous converged solve of this Soi.
  //
  // Carry-ownership rule: a solve that may deposit its states into an
  // IncrementalCarry works on a solve-local vector (`owned_states`), never
  // the scratch's slots — the deposit moves the vector out, and a carry
  // holding pointers into pooled scratch would dangle the moment the
  // scratch is recycled by another query. Only carry-free incremental
  // solves run on S.ineq_state; their recycled entries get every validity
  // flag reset so stale accumulators/snapshots are rebuilt before first
  // read (the retained buffers are what makes the reuse pay).
  IncrementalCarry* carry =
      warm != nullptr && options.incremental_eval ? warm->carry : nullptr;
  std::vector<IneqState> owned_states;
  if (carry != nullptr) {
    owned_states.resize(num_matrix);
  } else if (options.incremental_eval) {
    if (S.ineq_state.size() < num_matrix) {
      grew = true;
      S.ineq_state.resize(num_matrix);
    }
    for (size_t i = 0; i < num_matrix; ++i) {
      IneqState& st = S.ineq_state[i];
      st.last_count = 0;
      st.product_valid = false;
      st.acc_valid = false;
      st.deltas_done = 0;
    }
  }
  std::vector<IneqState>& inc_state =
      (carry != nullptr || !options.incremental_eval) ? owned_states
                                                      : S.ineq_state;
  if (warm != nullptr && warm->carry != nullptr && carry == nullptr) {
    // incremental_eval off: whatever the carry holds is from a different
    // configuration and must not survive into a later incremental solve.
    warm->carry->Clear();
  }

  // --- Column-shard plan (SolverOptions::num_shards). --------------------
  // The universe is cut into contiguous word-aligned ranges; each round's
  // data work fans out as one task per (inequality, shard), every task
  // writing only its range's words of the shared slots. The *decision*
  // logic — eval kinds, cost rules, incremental-tier transitions — runs
  // once per inequality in the plan step regardless of the partition, so
  // trajectories are bit-identical for any shard count, 1 included (a
  // 1-shard plan is a single full-universe range through the same code).
  const std::vector<std::pair<uint32_t, uint32_t>> shard_plan =
      MakeShardPlan(n, options.ResolvedShards(n));
  const size_t num_shards = shard_plan.size();

  if (carry != nullptr && carry->impl_ != nullptr) {
    IncrementalCarry::Impl& held = *carry->impl_;
    if (held.states.size() == num_matrix && held.shards == num_shards) {
      inc_state = std::move(held.states);
      if (warm->carry_invalid != nullptr) {
        for (size_t i = 0; i < num_matrix; ++i) {
          if ((*warm->carry_invalid)[i]) inc_state[i] = IneqState{};
        }
      }
    }
    // Moved-from or shape-mismatched state must not be adopted twice.
    carry->impl_.reset();
  }

  // Per-inequality result slots, reused across rounds. chi and counts are
  // frozen during the evaluation phase — every mask is a pure function of
  // the round-start assignment — so the phase parallelizes with no
  // synchronization beyond the end-of-round barrier, and the sequential
  // merge below replays the slots in worklist order for a scheduling-
  // independent outcome. `mask_ptrs[k]` designates the mask the merge
  // applies: the slot's own `masks[k]`, or the owning inequality's
  // accumulator product (stable storage in `inc_state`, untouched during
  // the merge).
  // The slot arrays live in the scratch and keep whatever stale content
  // the previous solve left: every round's plan step rewrites kinds[k],
  // plans[k], and rebuilt[k] for each live slot before anything reads
  // them, mask_ptrs[k] is only dereferenced for kinds that just wrote it,
  // and the mask/gone payloads are fully overwritten by the kernels that
  // claim them (MultiplyRange zeroes the words it is about to write;
  // copy-assign overwrites wholesale).
  std::vector<util::BitVector>& masks = S.masks;
  std::vector<EvalKind>& kinds = S.kinds;
  std::vector<const util::BitVector*>& mask_ptrs = S.mask_ptrs;
  std::vector<size_t>& cleared = S.cleared;  // kDelta-retraction clears
  std::vector<uint8_t>& rebuilt = S.rebuilt;  // slot rebuilt an accumulator
  std::vector<SlotPlan>& plans = S.plans;
  std::vector<util::BitVector>& gone = S.gone;  // rows gone from chi(rhs)
  std::vector<size_t>& cleared_ks = S.cleared_ks;  // (slot, shard) clears

  auto on_change = [&](uint32_t var) {
    counts[var] = chi[var].Count();
    for (uint32_t dep : dependents[var]) {
      if (!work.queued.Test(dep)) {
        work.queued.Set(dep);
        work.next.push_back(dep);
      }
    }
  };

  // --- Plan step: one task per inequality. --------------------------------
  // Replays the per-inequality decision logic exactly as the fused
  // evaluator did (same tags, same counter splits, same incremental-state
  // evolution), but defers all column-proportional data work to the shard
  // tasks below. Mutates only slot k and the one IneqState this inequality
  // owns this round, so plan tasks parallelize like evaluations always did.
  auto plan = [&](size_t k) {
    rebuilt[k] = 0;
    plans[k] = SlotPlan{};
    SlotPlan& sp = plans[k];
    const uint32_t idx = work.current[k];
    if (idx >= num_matrix) {
      const Soi::SubIneq& s = soi.sub_ineqs[idx - num_matrix];
      kinds[k] = EvalKind::kSub;
      masks[k] = chi[s.rhs].bits();
      mask_ptrs[k] = &masks[k];
      return;
    }

    const Soi::MatrixIneq& m = soi.matrix_ineqs[idx];
    if (counts[m.lhs] == 0) {  // cannot shrink further
      kinds[k] = EvalKind::kSkip;
      return;
    }
    if (m.predicate == kEmptyPredicate || counts[m.rhs] == 0) {
      kinds[k] = EvalKind::kClear;
      return;
    }

    const util::BitMatrix& a =
        m.forward ? db.Forward(m.predicate) : db.Backward(m.predicate);
    const util::BitMatrix& a_t =
        m.forward ? db.Backward(m.predicate) : db.Forward(m.predicate);
    sp.a = &a;
    sp.a_t = &a_t;
    sp.rhs = m.rhs;

    bool row_wise = true;
    switch (options.eval_mode) {
      case SolverOptions::EvalMode::kRowWise:
        row_wise = true;
        break;
      case SolverOptions::EvalMode::kColumnWise:
        row_wise = false;
        break;
      case SolverOptions::EvalMode::kDynamic:
        // Paper's rule: row-wise iff chi(rhs) has fewer bits than chi(lhs).
        row_wise = counts[m.rhs] < counts[m.lhs];
        break;
    }

    if (options.incremental_eval) {
      IneqState& st = inc_state[idx];
      sp.st = &st;

      // Cost rule, same flavor as the row/column dynamic rule: retract
      // iff the rows removed since the sync point are fewer than what the
      // chosen full strategy would touch. The monotone shrink makes the
      // removal count an exact count difference — no set difference is
      // needed to *decide*.
      if (st.acc_valid || st.product_valid) {
        const size_t removed = st.last_count - counts[m.rhs];
        const size_t full_cost = row_wise ? counts[m.rhs] : counts[m.lhs];
        // Which tier (if any) evaluates this delta: the counted tier
        // whenever its counts are live; otherwise escalate from the
        // snapshot tier when the inequality keeps iterating on a
        // collapsed selection; otherwise probe — but only for deltas
        // small enough to beat recomputation despite the probe premium.
        const bool counted_ok = st.acc_valid && removed < full_cost;
        const bool escalate_ok = !st.acc_valid && removed < full_cost &&
                                 st.deltas_done >= kAccDeltaThreshold &&
                                 counts[m.rhs] * kAccBuildFraction < n;
        const bool probe_ok =
            !st.acc_valid && !escalate_ok && removed * kProbePenalty < full_cost;
        if (counted_ok || escalate_ok || probe_ok) {
          kinds[k] = EvalKind::kDelta;
          for (size_t s = 0; s < num_shards; ++s) {
            cleared_ks[k * num_shards + s] = 0;
          }
          if (st.deltas_done < kAccDeltaThreshold) ++st.deltas_done;
          if (escalate_ok) {
            // Build the cover counts on the current (collapsed)
            // selection; the build subsumes this retraction and makes
            // every later one O(1) per column. The serial half
            // (PrepareRebuild) runs here; the fill is sharded. Multi-shard
            // rebuilds pin the wide count lanes — see PrepareRebuild.
            rebuilt[k] = 1;
            sp.delta_tier = 3;
            st.acc.PrepareRebuild(a.cols(), /*force_wide=*/num_shards > 1);
            st.acc_valid = true;
            st.product_valid = false;
          } else if (removed != 0) {
            gone[k] = st.last_rhs;
            gone[k].AndNotWith(chi[m.rhs].bits());
            // Counted retraction while the counts are live; otherwise the
            // snapshot tier: only columns of removed rows can leave the
            // product, and each is re-checked with one early-exit cover
            // probe in the shard tasks.
            sp.delta_tier = st.acc_valid ? 1 : 2;
          }
          if (removed != 0 || rebuilt[k]) {
            st.last_rhs = chi[m.rhs].bits();
            st.last_count = counts[m.rhs];
          }
          // Either tier's product equals chi(rhs) *b A exactly — the same
          // mask a full kRow evaluation would produce.
          mask_ptrs[k] = st.acc_valid ? &st.acc.result() : &st.product;
          return;
        }
      }

      if (row_wise) {
        // Full product; the snapshot tier is refreshed from the finished
        // mask after the shard barrier (refresh_product) so the next
        // visit can retract. The copies are a negligible premium over
        // the Multiply itself, and a stale counted tier is dropped (its
        // counts no longer match any snapshot we keep).
        kinds[k] = EvalKind::kRow;
        masks[k].Resize(n);
        sp.refresh_product = true;
        st.last_rhs = chi[m.rhs].bits();
        st.last_count = counts[m.rhs];
        st.product_valid = true;
        st.acc_valid = false;
        mask_ptrs[k] = &masks[k];
        return;
      }
    }

    if (row_wise) {
      kinds[k] = EvalKind::kRow;
      masks[k].Resize(n);
      mask_ptrs[k] = &masks[k];
    } else {
      kinds[k] = EvalKind::kCol;
      // Keep candidate j of lhs iff column j of A intersects chi(rhs);
      // column j of A is row j of A^T.
      masks[k] = chi[m.lhs].bits();
      mask_ptrs[k] = &masks[k];
    }
  };

  // --- Data step: one task per (inequality, shard). -----------------------
  // Pure column-range-restricted data work, driven entirely by the plan:
  // each task reads round-start state plus its slot's plan and writes only
  // its own words of the slot's mask / the owning accumulator / the
  // snapshot product, plus its own cleared_ks counter — disjoint memory
  // across shards, no synchronization beyond the phase barrier.
  auto shard_eval = [&](size_t k, size_t s) {
    const auto [range_begin, range_end] = shard_plan[s];
    const SlotPlan& sp = plans[k];
    switch (kinds[k]) {
      case EvalKind::kRow:
        sp.a->MultiplyRange(chi[sp.rhs], range_begin, range_end, &masks[k]);
        break;
      case EvalKind::kCol:
        ForEachSetBitInRange(masks[k], range_begin, range_end, [&](uint32_t j) {
          if (!sp.a_t->RowIntersects(j, chi[sp.rhs].bits())) masks[k].Reset(j);
        });
        break;
      case EvalKind::kDelta: {
        IneqState& st = *sp.st;
        if (sp.delta_tier == 3) {
          st.acc.RebuildRange(*sp.a, chi[sp.rhs], range_begin, range_end);
        } else if (sp.delta_tier == 1) {
          cleared_ks[k * num_shards + s] =
              st.acc.RetractRange(*sp.a, gone[k], range_begin, range_end);
        } else if (sp.delta_tier == 2) {
          size_t probe_cleared = 0;
          gone[k].ForEachSetBit([&](uint32_t r) {
            const auto row = sp.a->Row(r);
            auto it = std::lower_bound(row.begin(), row.end(),
                                       static_cast<uint32_t>(range_begin));
            for (; it != row.end() && *it < range_end; ++it) {
              const uint32_t c = *it;
              if (st.product.Test(c) &&
                  !sp.a_t->RowIntersects(c, chi[sp.rhs].bits())) {
                st.product.Reset(c);
                ++probe_cleared;
              }
            }
          });
          cleared_ks[k * num_shards + s] = probe_cleared;
        }
        break;
      }
      case EvalKind::kSkip:
      case EvalKind::kClear:
      case EvalKind::kSub:
        break;  // no data phase
    }
  };

  stats.threads_used = pool != nullptr ? pool->NumThreads() : 1;
  stats.shards_used = num_shards;
  while (!work.current.empty()) {
    if (options.max_rounds != 0 && stats.rounds >= options.max_rounds) {
      solution.truncated = true;
      break;
    }
    // Cooperative cancellation/deadline check, once per round: a truncated
    // fixpoint stops between rounds, so the exported candidates are a
    // sound over-approximation of the true solution (supersets).
    if (control != nullptr && control->Expired()) {
      solution.truncated = true;
      break;
    }
    ++stats.rounds;
    const size_t width = work.current.size();
    stats.max_round_width = std::max(stats.max_round_width, width);
    if (masks.size() < width) {
      grew = true;
      masks.resize(width);
      kinds.resize(width);
      mask_ptrs.resize(width);
      cleared.resize(width);
      rebuilt.resize(width);
      plans.resize(width);
      gone.resize(width);
    }
    if (cleared_ks.size() < width * num_shards) {
      grew = true;
      cleared_ks.resize(width * num_shards);
    }

    // Evaluation phase: chi/counts are read-only until the barrier.
    if (pool == nullptr || width * num_shards <= 1) {
      for (size_t k = 0; k < width; ++k) {
        plan(k);
        for (size_t s = 0; s < num_shards; ++s) shard_eval(k, s);
      }
    } else if (num_shards == 1) {
      // Unsharded pooled rounds keep the historical one-barrier shape:
      // plan and data work fused per inequality.
      if (width > 1) ++stats.parallel_rounds;
      util::ParallelFor(pool, width, [&](size_t k) {
        plan(k);
        shard_eval(k, 0);
      });
    } else {
      // Sharded rounds: plan per inequality, then fan the data work out
      // as width x shards range tasks. Each phase writes per-task-disjoint
      // memory; the second phase additionally splits along columns.
      if (width > 1) ++stats.parallel_rounds;
      util::ParallelFor(pool, width, plan);
      util::ParallelFor(pool, width * num_shards, [&](size_t t) {
        shard_eval(t / num_shards, t % num_shards);
      });
    }

    // Merge phase, single-threaded, in worklist order.
    for (size_t k = 0; k < width; ++k) {
      ++stats.evaluations;
      if (kinds[k] == EvalKind::kRow && plans[k].refresh_product) {
        plans[k].st->product = masks[k];
      }
      if (kinds[k] == EvalKind::kDelta) {
        cleared[k] = 0;
        for (size_t s = 0; s < num_shards; ++s) {
          cleared[k] += cleared_ks[k * num_shards + s];
        }
      }
      const uint32_t idx = work.current[k];
      const uint32_t lhs = idx >= num_matrix
                               ? soi.sub_ineqs[idx - num_matrix].lhs
                               : soi.matrix_ineqs[idx].lhs;
      bool changed = false;
      switch (kinds[k]) {
        case EvalKind::kSkip:
          ++stats.full_evals;
          continue;
        case EvalKind::kClear:
          ++stats.full_evals;
          changed = chi[lhs].Any();
          if (changed) chi[lhs].ClearAll();
          break;
        case EvalKind::kRow:
          ++stats.full_evals;
          ++stats.row_evals;
          changed = chi[lhs].AndWith(*mask_ptrs[k]);
          break;
        case EvalKind::kCol:
          ++stats.full_evals;
          ++stats.col_evals;
          changed = chi[lhs].AndWith(*mask_ptrs[k]);
          break;
        case EvalKind::kSub:
          ++stats.full_evals;
          changed = chi[lhs].AndWith(*mask_ptrs[k]);
          break;
        case EvalKind::kDelta:
          ++stats.delta_evals;
          stats.acc_rebuilds += rebuilt[k];
          stats.cols_cleared += cleared[k];
          changed = chi[lhs].AndWith(*mask_ptrs[k]);
          break;
      }
      if (changed) {
        ++stats.updates;
        on_change(lhs);
      }
    }

    work.current.clear();
    std::swap(work.current, work.next);
    work.queued.ClearAll();
  }

  // Deposit the incremental state for the next warm solve of this Soi —
  // but only from a converged run: a truncated run's products are
  // synchronized to selections that are not a fixpoint, and the carry's
  // validity reasoning (monotone shrink from the deposited state) starts
  // from convergence.
  if (carry != nullptr && !solution.truncated) {
    carry->impl_ = std::make_unique<IncrementalCarry::Impl>();
    carry->impl_->states = std::move(inc_state);
    carry->impl_->shards = num_shards;
  }

  // Export the flat candidate vectors and harvest the skip/clear
  // counters. A copy (not TakeBits) so chi keeps its payload and summary
  // for the next solve on this scratch.
  for (size_t v = 0; v < num_vars; ++v) {
    stats.blocks_skipped += chi[v].TakeBlocksSkipped();
    stats.words_cleared_sparse += chi[v].TakeWordsCleared();
    solution.candidates[v] = chi[v].bits();
  }

  // Scratch accounting, stamped at solve end so slot growth during the
  // rounds (a query shape wider than this scratch had seen) demotes the
  // checkout from a reuse to an alloc. bytes_recycled credits the payload
  // the scratch held at checkout, so stamp before recomputing it.
  if (recycled && !grew) {
    stats.scratch_reuses = 1;
    stats.bytes_recycled = S.payload_bytes;
  } else {
    stats.scratch_allocs = 1;
  }
  size_t payload = work.queued.WordCount() * sizeof(uint64_t);
  for (const util::HierarchicalBitVector& c : chi) {
    payload += c.bits().WordCount() * sizeof(uint64_t);
  }
  for (const util::BitVector& m : masks) {
    payload += m.WordCount() * sizeof(uint64_t);
  }
  for (const util::BitVector& g : gone) {
    payload += g.WordCount() * sizeof(uint64_t);
  }
  for (const IneqState& st : S.ineq_state) {
    payload +=
        (st.product.WordCount() + st.last_rhs.WordCount()) * sizeof(uint64_t);
  }
  S.payload_bytes = payload;
  S.universe = n;
  S.prepared = true;

  stats.solve_seconds = timer.ElapsedSeconds();
  return solution;
}

}  // namespace sparqlsim::sim
