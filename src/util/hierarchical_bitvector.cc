#include "util/hierarchical_bitvector.h"

#include <cassert>

#include "util/simd_dispatch.h"

namespace sparqlsim::util {

namespace {
/// Summary words needed for `num_blocks` summary bits.
constexpr size_t SummaryWordsFor(size_t num_blocks) {
  return (num_blocks + 63) / 64;
}
}  // namespace

HierarchicalBitVector::HierarchicalBitVector(size_t num_bits, bool initial)
    : bits_(num_bits, initial) {
  summary_.assign(SummaryWordsFor(NumBlocks()), 0);
  if (initial) RebuildSummary();
}

HierarchicalBitVector::HierarchicalBitVector(BitVector bits)
    : bits_(std::move(bits)) {
  summary_.assign(SummaryWordsFor(NumBlocks()), 0);
  RebuildSummary();
}

void HierarchicalBitVector::Set(size_t i) {
  bits_.Set(i);
  const size_t block = i / kBitsPerBlock;
  summary_[block / 64] |= uint64_t{1} << (block % 64);
}

void HierarchicalBitVector::SetAll() {
  bits_.SetAll();
  RebuildSummary();
}

void HierarchicalBitVector::ClearAll() {
  // The summary is exact, so wiping only the live blocks clears every set
  // bit — ClearAll and ClearLive are the same operation at different cost.
  ClearLive();
}

void HierarchicalBitVector::ClearLive() {
  uint64_t* w = bits_.mutable_words();
  const size_t word_count = bits_.WordCount();
  for (size_t sw = 0; sw < summary_.size(); ++sw) {
    uint64_t sword = summary_[sw];
    if (sword == 0) continue;
    summary_[sw] = 0;
    while (sword != 0) {
      const size_t block =
          sw * 64 + static_cast<size_t>(__builtin_ctzll(sword));
      sword &= sword - 1;
      const size_t w_begin = block * kWordsPerBlock;
      const size_t w_end = std::min(w_begin + kWordsPerBlock, word_count);
      for (size_t i = w_begin; i < w_end; ++i) w[i] = 0;
      words_cleared_ += w_end - w_begin;
    }
  }
}

void HierarchicalBitVector::ResetForReuse(size_t num_bits) {
  // Clear first so a subsequent shrink/grow only ever sees zero payload
  // (BitVector::Resize zeroes new bits but keeps surviving ones).
  ClearLive();
  if (bits_.size() != num_bits) {
    bits_.Resize(num_bits);
    summary_.resize(SummaryWordsFor(NumBlocks()));
    std::fill(summary_.begin(), summary_.end(), 0);
  }
}

void HierarchicalBitVector::AssignFrom(const BitVector& src) {
  bits_ = src;
  summary_.resize(SummaryWordsFor(NumBlocks()));
  RebuildSummary();
}

size_t HierarchicalBitVector::Count() const {
  const uint64_t* words = bits_.words();
  const size_t word_count = bits_.WordCount();
  size_t count = 0;
  for (size_t sw = 0; sw < summary_.size(); ++sw) {
    uint64_t sword = summary_[sw];
    while (sword != 0) {
      const size_t block = sw * 64 + static_cast<size_t>(__builtin_ctzll(sword));
      sword &= sword - 1;
      const size_t w_begin = block * kWordsPerBlock;
      const size_t w_end = std::min(w_begin + kWordsPerBlock, word_count);
      count += ActiveKernels().popcount_words(words + w_begin,
                                              w_end - w_begin);
    }
  }
  return count;
}

bool HierarchicalBitVector::Any() const {
  for (uint64_t sword : summary_) {
    if (sword != 0) return true;
  }
  return false;
}

bool HierarchicalBitVector::AndWith(const BitVector& other) {
  assert(size() == other.size());
  const uint64_t* ow = other.words();
  uint64_t* w = bits_.mutable_words();
  const size_t word_count = bits_.WordCount();
  const size_t num_blocks = NumBlocks();
  bool changed = false;
  for (size_t sw = 0; sw < summary_.size(); ++sw) {
    const size_t blocks_here = std::min<size_t>(64, num_blocks - sw * 64);
    uint64_t sword = summary_[sw];
    blocks_skipped_ +=
        blocks_here - static_cast<size_t>(__builtin_popcountll(sword));
    while (sword != 0) {
      const size_t block = sw * 64 + static_cast<size_t>(__builtin_ctzll(sword));
      sword &= sword - 1;
      const size_t w_begin = block * kWordsPerBlock;
      const size_t w_end = std::min(w_begin + kWordsPerBlock, word_count);
      bool block_changed = false;
      const uint64_t live = ActiveKernels().and_words(
          w + w_begin, ow + w_begin, w_end - w_begin, &block_changed);
      changed |= block_changed;
      if (live == 0) {
        summary_[sw] &= ~(uint64_t{1} << (block % 64));
      }
    }
  }
  return changed;
}

bool HierarchicalBitVector::AndWith(const HierarchicalBitVector& other) {
  assert(size() == other.size());
  const uint64_t* ow = other.bits_.words();
  uint64_t* w = bits_.mutable_words();
  const size_t word_count = bits_.WordCount();
  const size_t num_blocks = NumBlocks();
  bool changed = false;
  for (size_t sw = 0; sw < summary_.size(); ++sw) {
    const size_t blocks_here = std::min<size_t>(64, num_blocks - sw * 64);
    uint64_t sword = summary_[sw];
    blocks_skipped_ +=
        blocks_here - static_cast<size_t>(__builtin_popcountll(sword));
    while (sword != 0) {
      const size_t block = sw * 64 + static_cast<size_t>(__builtin_ctzll(sword));
      const uint64_t bit = sword & (~sword + 1);
      sword &= sword - 1;
      const size_t w_begin = block * kWordsPerBlock;
      const size_t w_end = std::min(w_begin + kWordsPerBlock, word_count);
      if ((other.summary_[sw] & bit) == 0) {
        // Our block is live, theirs is provably zero: drain ours without
        // reading a word of their payload.
        for (size_t i = w_begin; i < w_end; ++i) w[i] = 0;
        summary_[sw] &= ~bit;
        changed = true;
        continue;
      }
      bool block_changed = false;
      const uint64_t live = ActiveKernels().and_words(
          w + w_begin, ow + w_begin, w_end - w_begin, &block_changed);
      changed |= block_changed;
      if (live == 0) {
        summary_[sw] &= ~bit;
      }
    }
  }
  return changed;
}

void HierarchicalBitVector::RebuildSummary() {
  std::fill(summary_.begin(), summary_.end(), 0);
  const uint64_t* words = bits_.words();
  const size_t word_count = bits_.WordCount();
  for (size_t w = 0; w < word_count; ++w) {
    if (words[w] != 0) {
      const size_t block = w / kWordsPerBlock;
      summary_[block / 64] |= uint64_t{1} << (block % 64);
    }
  }
}

}  // namespace sparqlsim::util
