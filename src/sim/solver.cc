#include "sim/solver.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>

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
  kDelta,  // mask = snapshot product after retraction of the rows that
           // left chi(rhs); identical to the kRow mask
};

/// Per-matrix-inequality incremental state (the snapshot tier),
/// persistent across rounds; only solves handed an IncrementalCarry keep
/// one.
///
/// Every full row-wise evaluation keeps its product and the selection it
/// was computed from (two bit-vector copies, a negligible premium over the
/// Multiply itself). Candidate sets only ever shrink, so the rows removed
/// since then are exactly `last_rhs` minus the current chi(rhs), and their
/// number is a free count difference. A re-evaluation with a small delta
/// then *retracts*: only columns reachable from removed rows can leave the
/// product, and each such column is re-checked with one early-exit cover
/// probe against the current selection (row of A^T vs chi(rhs)).
///
/// State is touched exclusively by the one evaluation task that owns the
/// inequality in a round (each inequality appears at most once per
/// round), so the evaluation phase stays race-free; its evolution is a
/// pure function of the worklist and the round-start assignments, so it
/// is scheduling-independent too.
struct IneqState {
  util::BitVector product;   // chi(rhs) *b A for last_rhs
  util::BitVector last_rhs;  // selection the product is synchronized to
  size_t last_count = 0;     // == last_rhs.Count(), kept for the cost rule
  bool product_valid = false;
};

/// Retraction cost asymmetry: a probe retraction pays an early-exit row
/// scan per touched column where a recompute pays a bit write per entry,
/// so retraction is only chosen for deltas this many times smaller than
/// the full evaluation.
constexpr size_t kProbePenalty = 8;

}  // namespace

/// Carried incremental state: the per-inequality snapshot vector of the
/// last converged solve.
struct IncrementalCarry::Impl {
  std::vector<IneqState> states;
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
    if (st.product_valid) ++live;
  }
  return live;
}

/// The recyclable workspace behind sim::SolveScratch (class comment in
/// solver.h). Everything here is a buffer SolveSoi would otherwise
/// allocate per call; the prepare step at the top of the solve reshapes
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

  /// Per-round slot vectors, lazily grown to the widest round seen.
  /// Recycled entries hold stale content by design: every slot a round
  /// reads is written first by that slot's evaluation (masks/gone are
  /// overwritten whole by copy-assign or by Multiply, which clears its
  /// output; cleared is zeroed for kDelta slots).
  std::vector<util::BitVector> masks;
  std::vector<EvalKind> kinds;
  std::vector<const util::BitVector*> mask_ptrs;
  std::vector<size_t> cleared;
  std::vector<util::BitVector> gone;
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
  // Parsed once per process: the env override lets CI re-run whole
  // suites with recycling force-disabled (the differential oracle
  // configuration) without touching any options.
  static const bool env_disabled = [] {
    const char* env = std::getenv("SPARQLSIM_NO_SCRATCH");
    return env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
  }();
  return reuse_scratch && !env_disabled;
}

void SolveStats::Accumulate(const SolveStats& other) {
  rounds += other.rounds;
  evaluations += other.evaluations;
  updates += other.updates;
  row_evals += other.row_evals;
  col_evals += other.col_evals;
  solve_seconds += other.solve_seconds;
  delta_evals += other.delta_evals;
  cols_cleared += other.cols_cleared;
  blocks_skipped += other.blocks_skipped;
  parallel_rounds += other.parallel_rounds;
  max_round_width = std::max(max_round_width, other.max_round_width);
  threads_used = std::max(threads_used, other.threads_used);
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
                  const SolverOptions& options, const SolveRequest& request) {
  util::Stopwatch timer;
  // One residency pin keeps lazily-materialized matrix slabs resident
  // (out-of-core tier) for the whole fixpoint. Free for in-memory
  // databases.
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
  SolveScratch* scratch = request.scratch;
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
    if (request.initial != nullptr) {
      chi[v].AssignFrom((*request.initial)[v]);
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
  // Unarmed inequalities hold at `initial` by the warm-start contract and
  // re-activate through `dependents` if an input of theirs later shrinks.
  if (request.armed != nullptr) {
    std::erase_if(work.current,
                  [&](uint32_t idx) { return !(*request.armed)[idx]; });
  }
  work.queued.Resize(num_ineqs);
  work.queued.ClearAll();

  // Per-matrix-inequality snapshot state (see IneqState), kept only under
  // a carry: lazily populated, or adopted from the carry minus the entries
  // the caller declared stale, so retractions resume from products
  // synchronized during the previous converged solve of this Soi. The
  // vector is solve-local, never the scratch's (the carry-ownership rule):
  // the deposit moves it out, and a carry holding buffers of a pooled
  // scratch would dangle the moment another query recycles the scratch.
  IncrementalCarry* const carry = request.carry;
  std::vector<IneqState> inc_state;
  if (carry != nullptr) {
    if (carry->impl_ != nullptr &&
        carry->impl_->states.size() == num_matrix) {
      inc_state = std::move(carry->impl_->states);
      if (request.carry_invalid != nullptr) {
        for (size_t i = 0; i < num_matrix; ++i) {
          if ((*request.carry_invalid)[i]) inc_state[i] = IneqState{};
        }
      }
    } else {
      inc_state.resize(num_matrix);
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
  // snapshot product (stable storage in `inc_state`, untouched during the
  // merge). The slot arrays live in the scratch and keep whatever stale
  // content the previous solve left; eval(k) writes kinds[k] and every
  // other slot-k field the merge reads before anything reads them.
  std::vector<util::BitVector>& masks = S.masks;
  std::vector<EvalKind>& kinds = S.kinds;
  std::vector<const util::BitVector*>& mask_ptrs = S.mask_ptrs;
  std::vector<size_t>& cleared = S.cleared;  // kDelta-retraction clears
  std::vector<util::BitVector>& gone = S.gone;  // rows gone from chi(rhs)

  auto on_change = [&](uint32_t var) {
    counts[var] = chi[var].Count();
    for (uint32_t dep : dependents[var]) {
      if (!work.queued.Test(dep)) {
        work.queued.Set(dep);
        work.next.push_back(dep);
      }
    }
  };

  // --- Evaluation: one task per unstable inequality. ----------------------
  // Picks the inequality's strategy and computes its mask. Mutates only
  // slot k and the one IneqState this inequality owns this round, so the
  // tasks of a round parallelize with no locking.
  auto eval = [&](size_t k) {
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
    const util::HierarchicalBitVector& rhs = chi[m.rhs];

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

    // Cost rule, same flavor as the row/column dynamic rule: retract iff
    // the rows removed since the snapshot, times the probe premium, are
    // fewer than what the chosen full strategy would touch. The monotone
    // shrink makes the removal count an exact count difference — no set
    // difference is needed to *decide*.
    IneqState* st = carry != nullptr ? &inc_state[idx] : nullptr;
    if (st != nullptr && st->product_valid) {
      const size_t removed = st->last_count - counts[m.rhs];
      const size_t full_cost = row_wise ? counts[m.rhs] : counts[m.lhs];
      if (removed * kProbePenalty < full_cost) {
        kinds[k] = EvalKind::kDelta;
        cleared[k] = 0;
        if (removed != 0) {
          // Only columns of removed rows can leave the product; each is
          // re-checked with one early-exit cover probe.
          gone[k] = st->last_rhs;
          gone[k].AndNotWith(rhs.bits());
          gone[k].ForEachSetBit([&](uint32_t r) {
            for (uint32_t c : a.Row(r)) {
              if (st->product.Test(c) && !a_t.RowIntersects(c, rhs.bits())) {
                st->product.Reset(c);
                ++cleared[k];
              }
            }
          });
          st->last_rhs = rhs.bits();
          st->last_count = counts[m.rhs];
        }
        // The retracted product equals chi(rhs) *b A exactly — the same
        // mask a full kRow evaluation would produce.
        mask_ptrs[k] = &st->product;
        return;
      }
    }

    mask_ptrs[k] = &masks[k];
    if (row_wise) {
      kinds[k] = EvalKind::kRow;
      masks[k].Resize(n);
      a.Multiply(rhs, &masks[k]);
      if (st != nullptr) {
        // Refresh the snapshot so the next visit can retract.
        st->product = masks[k];
        st->last_rhs = rhs.bits();
        st->last_count = counts[m.rhs];
        st->product_valid = true;
      }
    } else {
      kinds[k] = EvalKind::kCol;
      // Keep candidate j of lhs iff column j of A intersects chi(rhs);
      // column j of A is row j of A^T.
      masks[k] = chi[m.lhs].bits();
      chi[m.lhs].ForEachSetBit([&](uint32_t j) {
        if (!a_t.RowIntersects(j, rhs.bits())) masks[k].Reset(j);
      });
    }
  };

  stats.threads_used =
      request.pool != nullptr ? request.pool->NumThreads() : 1;
  while (!work.current.empty()) {
    // Cooperative cancellation/deadline check, once per round: a truncated
    // fixpoint stops between rounds, so the exported candidates are a
    // sound over-approximation of the true solution (supersets).
    if (request.control != nullptr && request.control->Expired()) {
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
      gone.resize(width);
    }

    // Evaluation phase: chi/counts are read-only until the barrier.
    if (request.pool == nullptr || width <= 1) {
      for (size_t k = 0; k < width; ++k) eval(k);
    } else {
      ++stats.parallel_rounds;
      util::ParallelFor(request.pool, width, eval);
    }

    // Merge phase, single-threaded, in worklist order.
    for (size_t k = 0; k < width; ++k) {
      ++stats.evaluations;
      const uint32_t idx = work.current[k];
      const uint32_t lhs = idx >= num_matrix
                               ? soi.sub_ineqs[idx - num_matrix].lhs
                               : soi.matrix_ineqs[idx].lhs;
      bool changed = false;
      switch (kinds[k]) {
        case EvalKind::kSkip:
          continue;
        case EvalKind::kClear:
          changed = chi[lhs].Any();
          if (changed) chi[lhs].ClearAll();
          break;
        case EvalKind::kRow:
          ++stats.row_evals;
          changed = chi[lhs].AndWith(*mask_ptrs[k]);
          break;
        case EvalKind::kCol:
          ++stats.col_evals;
          changed = chi[lhs].AndWith(*mask_ptrs[k]);
          break;
        case EvalKind::kSub:
          changed = chi[lhs].AndWith(*mask_ptrs[k]);
          break;
        case EvalKind::kDelta:
          ++stats.delta_evals;
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
  S.payload_bytes = payload;
  S.universe = n;
  S.prepared = true;

  stats.solve_seconds = timer.ElapsedSeconds();
  return solution;
}

}  // namespace sparqlsim::sim
