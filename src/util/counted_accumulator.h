#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/bitmatrix.h"
#include "util/bitvector.h"

namespace sparqlsim::util {

/// A counted boolean vector-matrix product: maintains, for one matrix A
/// and a *shrinking* row-selection x, the per-column cover counts
///
///     counts[c] = |{ r : x(r) = 1 and A(r, c) = 1 }|
///
/// together with the product bit-vector  result = x *b A  (bit c set iff
/// counts[c] > 0, exactly the union-of-selected-rows of Eq. (9) in the
/// paper).
///
/// This is the amortization behind HHK-style simulation algorithms applied
/// to the paper's matrix formulation: because the SOI fixpoint only ever
/// *removes* bits from chi(rhs), a re-evaluation of `lhs <= rhs *b A` does
/// not need to re-union every selected row — it can decrement counts along
/// the rows that *left* the selection (Retract) and clear exactly the
/// columns whose count reaches zero. Per-round cost becomes proportional
/// to the removal delta instead of to nnz of the selected submatrix.
///
/// The accumulator is a plain value type; the solver keeps one per matrix
/// inequality (lazily, from the second row-wise evaluation on) alongside a
/// snapshot of the selection it was built against.
///
/// Counts are stored as 16-bit lanes by default — cover counts above 65535
/// need a column covered by more selected rows than most per-label
/// matrices have rows, so the narrow lanes halve^2 the footprint of the
/// per-inequality state the incremental tier keeps resident. The fallback
/// is exact: the first increment that would overflow a lane widens every
/// count to 32 bits before applying it, and the accumulator stays wide
/// (sticky) until it is re-sized for a different matrix. Every observable
/// count is identical to what a plain uint32 array would hold.
class CountedAccumulator {
 public:
  /// Rebuilds counts/result from scratch for the given selection. Cost:
  /// the nnz of the selected rows plus clearing the *previous* product's
  /// columns (counts is zero wherever the product bit is clear — a class
  /// invariant — so a full O(cols) wipe is only ever paid on first use).
  /// `SelT` is BitVector or HierarchicalBitVector (anything with
  /// Count/ForEachSetBit/Test over row indices).
  template <typename SelT>
  void Rebuild(const BitMatrix& a, const SelT& selected) {
    if (counts16_.size() != a.cols()) {
      wide_ = false;
      counts32_.clear();
      counts32_.shrink_to_fit();
      counts16_.assign(a.cols(), 0);
      result_.Resize(a.cols());
      result_.ClearAll();
    } else {
      WipeLive();
    }
    // Mirror Multiply's adaptive rule: walk the selection (row lookup
    // each) when it is small, the non-empty row list (bit test each)
    // otherwise.
    const auto rows = a.NonEmptyRows();
    if (selected.Count() * 8 < rows.size()) {
      selected.ForEachSetBit([&](uint32_t r) { AddRow(a.Row(r)); });
    } else {
      for (size_t slot = 0; slot < rows.size(); ++slot) {
        if (selected.Test(rows[slot])) AddRow(a.RowBySlot(slot));
      }
    }
  }

  /// Removes `removed` rows from the selection: decrements counts along
  /// each removed row and clears the columns whose count hits zero.
  /// Every removed row must have been part of the selection the counts
  /// were built/retracted to (the solver guarantees this by construction:
  /// removed = previous chi(rhs) minus current chi(rhs), and chi only
  /// shrinks). Cost: O(nnz of the removed rows). Returns the number of
  /// columns cleared.
  size_t Retract(const BitMatrix& a, const BitVector& removed);

  /// Column-range-restricted rebuild for the solver's shard lanes, split
  /// into a serial and a concurrent part. PrepareRebuild performs what
  /// Rebuild does before touching the selection: (re)size the lanes or
  /// clear the previous product's counts, and wipe the result vector.
  /// After it, RebuildRange calls over disjoint word-aligned column ranges
  /// may run concurrently — each touches only its range's count lanes and
  /// result words, and their union reproduces Rebuild bit for bit.
  ///
  /// `force_wide` pins the 32-bit lanes up front: a narrow-lane overflow
  /// inside RebuildRange would have to widen the *whole* array mid-fill,
  /// which is exactly the cross-range write the concurrent phase must not
  /// perform, so multi-shard rebuilds pre-pay the wide layout. Counts (and
  /// therefore result and every retraction after it) are identical either
  /// way — lane width is never observable in a solve trajectory.
  void PrepareRebuild(size_t cols, bool force_wide);

  /// The concurrent half of the sharded rebuild; see PrepareRebuild.
  /// Same adaptive row-walk rule as Rebuild, keyed on the whole selection
  /// size so every range walks rows identically.
  template <typename SelT>
  void RebuildRange(const BitMatrix& a, const SelT& selected,
                    size_t col_begin, size_t col_end) {
    auto add_range = [&](std::span<const uint32_t> row) {
      auto it = std::lower_bound(row.begin(), row.end(),
                                 static_cast<uint32_t>(col_begin));
      for (; it != row.end() && *it < col_end; ++it) Increment(*it);
    };
    const auto rows = a.NonEmptyRows();
    if (selected.Count() * 8 < rows.size()) {
      selected.ForEachSetBit([&](uint32_t r) { add_range(a.Row(r)); });
    } else {
      for (size_t slot = 0; slot < rows.size(); ++slot) {
        if (selected.Test(rows[slot])) add_range(a.RowBySlot(slot));
      }
    }
  }

  /// Column-range-restricted Retract: decrements only the removed rows'
  /// entries in [col_begin, col_end) and clears in-range columns whose
  /// count hits zero. Safe to run concurrently over disjoint word-aligned
  /// ranges (counts and result words are disjoint per range; Decrement
  /// never changes lane width). The sum of the per-range returns over a
  /// partition equals Retract's return.
  size_t RetractRange(const BitMatrix& a, const BitVector& removed,
                      size_t col_begin, size_t col_end);

  /// The product x *b A for the current selection x.
  const BitVector& result() const { return result_; }

  /// Cover count of column c (test/debug accessor). Exact regardless of
  /// lane width.
  uint32_t count(size_t c) const {
    return wide_ ? counts32_[c] : counts16_[c];
  }

  /// True once an overflow forced the 32-bit lanes (test/debug accessor).
  bool wide() const { return wide_; }

 private:
  void AddRow(std::span<const uint32_t> row) {
    for (uint32_t c : row) Increment(c);
  }

  void Increment(uint32_t c) {
    if (!wide_) {
      uint16_t& narrow = counts16_[c];
      if (narrow != UINT16_MAX) {
        if (narrow++ == 0) result_.Set(c);
        return;
      }
      Widen();
    }
    if (counts32_[c]++ == 0) result_.Set(c);
  }

  /// Returns the decremented count of column c.
  uint32_t Decrement(uint32_t c) {
    return wide_ ? --counts32_[c] : static_cast<uint32_t>(--counts16_[c]);
  }

  /// Copies every 16-bit lane into 32-bit lanes; called at most once per
  /// matrix size (wide_ is sticky until the accumulator is re-sized).
  void Widen();

  /// The incremental wipe shared by Rebuild and PrepareRebuild, fused
  /// into one pass: counts is zero wherever the previous product bit is
  /// clear (class invariant), so walking result_'s nonzero words zeroes
  /// each set bit's count lane and the word itself without a second
  /// O(cols/64) ClearAll sweep.
  void WipeLive();

  bool wide_ = false;
  std::vector<uint16_t> counts16_;  // primary lanes (authoritative iff !wide_)
  std::vector<uint32_t> counts32_;  // overflow lanes (authoritative iff wide_)
  BitVector result_;
};

}  // namespace sparqlsim::util
