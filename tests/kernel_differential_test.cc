// Randomized differential verification of the candidate-set kernels. The
// flat BitVector is the oracle; the AVX2 word lanes and the
// HierarchicalBitVector that carries every chi(v) through the solve must
// reproduce it bit for bit on AndWith / Count / ForEachSetBit / Test /
// AndNotWith deltas / Multiply, across occupancies from empty to full
// and sizes straddling the word and 64-word-block edges. Every
// randomized case derives its seed deterministically and logs it through
// SCOPED_TRACE, so a failure names the exact reproducing input.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/bitmatrix.h"
#include "util/bitvector.h"
#include "util/counted_accumulator.h"
#include "util/hierarchical_bitvector.h"
#include "util/rng.h"
#include "util/simd_dispatch.h"

namespace sparqlsim::util {
namespace {

// Word (64) and hierarchical-block (4096 = 64 words) boundary sizes, plus
// small and mid-range interiors.
const size_t kBitSizes[] = {1,    63,   64,   65,   127,  128,  129,
                            511,  512,  513,  1000, 4095, 4096, 4097,
                            8191, 8192, 8193};

// Densities the solver actually visits: empty, late-fixpoint sparse,
// balanced, full.
const double kDensities[] = {0.0, 0.004, 0.1, 0.5, 1.0};

// splitmix-style deterministic per-case seed; logged on failure.
uint64_t CaseSeed(uint64_t a, uint64_t b, uint64_t c) {
  uint64_t x = 0x9E3779B97F4A7C15ull ^ (a * 0xBF58476D1CE4E5B9ull);
  x ^= (b + 0x94D049BB133111EBull) * 0xD6E8FEB86659FD93ull;
  x ^= c * 0xFF51AFD7ED558CCDull;
  return x ^ (x >> 33);
}

BitVector RandomVector(Rng* rng, size_t n, double density) {
  if (density <= 0.0) return BitVector(n);
  if (density >= 1.0) return BitVector(n, true);
  BitVector v(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng->NextBool(density)) v.Set(i);
  }
  return v;
}

std::vector<uint32_t> Collect(const HierarchicalBitVector& s) {
  std::vector<uint32_t> out;
  s.ForEachSetBit([&](uint32_t i) { out.push_back(i); });
  return out;
}

// --- Word-kernel lane differential: scalar vs AVX2 tables. ---

TEST(KernelDifferentialTest, AndWordsAgreesAcrossLanes) {
  const WordKernels& scalar = KernelsFor(SimdLevel::kScalar);
  const WordKernels& vec = KernelsFor(SimdLevel::kAvx2);
  if (DetectedSimdLevel() == SimdLevel::kScalar) {
    GTEST_LOG_(INFO) << "AVX2 not available; lane differential degenerate";
  }
  const size_t kWordCounts[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 130};
  for (size_t n : kWordCounts) {
    for (double density : kDensities) {
      for (int rep = 0; rep < 5; ++rep) {
        const uint64_t seed =
            CaseSeed(n, static_cast<uint64_t>(density * 1000), rep);
        SCOPED_TRACE("and_words n=" + std::to_string(n) +
                     " seed=" + std::to_string(seed));
        Rng rng(seed);
        std::vector<uint64_t> dst(n), src(n);
        for (size_t i = 0; i < n; ++i) {
          dst[i] = density >= 1.0   ? ~uint64_t{0}
                   : density <= 0.0 ? 0
                                    : rng.Next() & rng.Next();
          src[i] = rng.Next();
        }
        std::vector<uint64_t> a = dst, b = dst;
        bool a_changed = false, b_changed = false;
        const uint64_t a_live = scalar.and_words(a.data(), src.data(), n,
                                                 &a_changed);
        const uint64_t b_live = vec.and_words(b.data(), src.data(), n,
                                              &b_changed);
        EXPECT_EQ(a, b);
        EXPECT_EQ(a_changed, b_changed);
        EXPECT_EQ(a_live, b_live);
      }
    }
  }
}

TEST(KernelDifferentialTest, PopcountWordsAgreesAcrossLanes) {
  const WordKernels& scalar = KernelsFor(SimdLevel::kScalar);
  const WordKernels& vec = KernelsFor(SimdLevel::kAvx2);
  const size_t kWordCounts[] = {0, 1, 3, 4, 5, 8, 9, 64, 65, 257};
  for (size_t n : kWordCounts) {
    for (int rep = 0; rep < 8; ++rep) {
      const uint64_t seed = CaseSeed(n, 77, rep);
      SCOPED_TRACE("popcount n=" + std::to_string(n) +
                   " seed=" + std::to_string(seed));
      Rng rng(seed);
      std::vector<uint64_t> words(n);
      size_t expected = 0;
      for (size_t i = 0; i < n; ++i) {
        words[i] = rng.Next() & rng.Next() & rng.Next();
        expected += static_cast<size_t>(__builtin_popcountll(words[i]));
      }
      EXPECT_EQ(scalar.popcount_words(words.data(), n), expected);
      EXPECT_EQ(vec.popcount_words(words.data(), n), expected);
    }
  }
}

// --- Hierarchical differential: HierarchicalBitVector vs the flat oracle.

TEST(KernelDifferentialTest, HierarchicalAgreesWithFlatOracle) {
  for (size_t n : kBitSizes) {
    for (double density : kDensities) {
      for (int rep = 0; rep < 2; ++rep) {
        const uint64_t seed =
            CaseSeed(n, static_cast<uint64_t>(density * 1000) + 31, rep);
        SCOPED_TRACE("n=" + std::to_string(n) + " seed=" +
                     std::to_string(seed));
        Rng rng(seed);
        const BitVector v = RandomVector(&rng, n, density);
        const BitVector m = RandomVector(&rng, n, rng.NextDouble());

        BitVector oracle = v;
        const bool oracle_changed = oracle.AndWith(m);

        // Both AndWith overloads: a flat mask, and a hierarchical one
        // whose zero blocks drain ours without reading payload.
        HierarchicalBitVector flat_masked(v);
        HierarchicalBitVector hier_masked(v);
        EXPECT_EQ(flat_masked.Count(), v.Count());
        EXPECT_EQ(flat_masked.AndWith(m), oracle_changed);
        EXPECT_EQ(hier_masked.AndWith(HierarchicalBitVector(m)),
                  oracle_changed);
        for (const HierarchicalBitVector* h : {&flat_masked, &hier_masked}) {
          EXPECT_EQ(h->Count(), oracle.Count());
          EXPECT_EQ(h->Any(), oracle.Any());
          EXPECT_EQ(h->bits(), oracle);
          EXPECT_EQ(Collect(*h), oracle.ToIndexVector());
          for (int probe = 0; probe < 16; ++probe) {
            const size_t i = rng.NextBounded(n);
            EXPECT_EQ(h->Test(i), oracle.Test(i)) << "probe " << i;
          }
        }

        // The solver's removal delta — last snapshot minus current chi —
        // is exactly the bits of v that m cleared.
        BitVector gone = v;
        gone.AndNotWith(flat_masked.bits());
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(gone.Test(i), v.Test(i) && !m.Test(i)) << "bit " << i;
        }
      }
    }
  }
}

TEST(KernelDifferentialTest, RepeatedAndsConvergeIdentically) {
  // Chains of shrinking ANDs — the solver's actual access pattern — that
  // drain blocks one by one until the summary is empty.
  for (size_t n : {513u, 4097u, 8192u}) {
    for (int rep = 0; rep < 4; ++rep) {
      const uint64_t seed = CaseSeed(n, 555, rep);
      SCOPED_TRACE("n=" + std::to_string(n) + " seed=" +
                   std::to_string(seed));
      Rng rng(seed);
      BitVector oracle(n, true);
      HierarchicalBitVector h(n, true);
      for (double density : {0.6, 0.2, 0.02, 0.002, 0.0}) {
        const BitVector mask = RandomVector(&rng, n, density);
        const BitVector previous = oracle;
        const bool oracle_changed = oracle.AndWith(mask);
        EXPECT_EQ(h.AndWith(mask), oracle_changed);
        EXPECT_EQ(h.Count(), oracle.Count());
        EXPECT_EQ(h.Any(), oracle.Any());
        EXPECT_EQ(h.bits(), oracle);
        EXPECT_EQ(Collect(h), oracle.ToIndexVector());
        // The removal delta the solver's retraction consumes.
        BitVector gone = previous;
        gone.AndNotWith(h.bits());
        EXPECT_EQ(gone.Count() + h.Count(), previous.Count());
        EXPECT_FALSE(gone.IntersectsWith(oracle));
      }
      EXPECT_FALSE(h.Any());
    }
  }
}

TEST(KernelDifferentialTest, MultiplyAgreesAcrossSelectorLayouts) {
  for (size_t n : kBitSizes) {
    for (double density : kDensities) {
      const uint64_t seed =
          CaseSeed(n, static_cast<uint64_t>(density * 1000) + 13, 0);
      SCOPED_TRACE("n=" + std::to_string(n) + " seed=" +
                   std::to_string(seed));
      Rng rng(seed);
      std::vector<std::pair<uint32_t, uint32_t>> entries;
      const size_t nnz = 4 * n;
      for (size_t e = 0; e < nnz; ++e) {
        entries.emplace_back(static_cast<uint32_t>(rng.NextBounded(n)),
                             static_cast<uint32_t>(rng.NextBounded(n)));
      }
      const BitMatrix a = BitMatrix::Build(n, n, std::move(entries));
      const BitVector x = RandomVector(&rng, n, density);

      // Oracle: the union of the selected rows, straight from the CSR.
      BitVector expected(n);
      x.ForEachSetBit([&](uint32_t r) {
        for (uint32_t c : a.Row(r)) expected.Set(c);
      });

      BitVector flat(n);
      a.Multiply(x, &flat);
      EXPECT_EQ(flat, expected);

      BitVector via_hier(n);
      a.Multiply(HierarchicalBitVector(x), &via_hier);
      EXPECT_EQ(via_hier, expected);

      // The full-width range: the solver's unsharded evaluation shape,
      // into a dirty destination (only the written words are zeroed).
      BitVector ranged(n, true);
      a.MultiplyRange(HierarchicalBitVector(x), 0, n, &ranged);
      EXPECT_EQ(ranged, expected);
    }
  }
}

TEST(KernelDifferentialTest, MutatorsAgreeWithFlatOracle) {
  for (size_t n : {1u, 64u, 4096u, 5000u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    HierarchicalBitVector h(n);
    EXPECT_EQ(h.Count(), 0u);
    EXPECT_FALSE(h.Any());

    h.SetAll();
    EXPECT_EQ(h.Count(), n);
    EXPECT_EQ(h.bits(), BitVector(n, true));

    h.ClearAll();
    EXPECT_EQ(h.Count(), 0u);
    EXPECT_FALSE(h.Any());
    EXPECT_EQ(h.bits(), BitVector(n));

    std::vector<uint32_t> want = {0};
    if (n > 4096) want.push_back(4096);
    if (n > 1) want.push_back(static_cast<uint32_t>(n - 1));
    for (uint32_t i : want) h.Set(i);
    for (uint32_t i : want) h.Set(i);  // idempotent
    EXPECT_EQ(h.Count(), want.size());
    for (uint32_t i : want) EXPECT_TRUE(h.Test(i)) << i;
    if (n > 2) {
      EXPECT_FALSE(h.Test(1));
    }
    EXPECT_EQ(Collect(h), want);
  }
}

// --- CountedAccumulator 16-bit lanes: exact widening at overflow. ---

TEST(KernelDifferentialTest, CountedAccumulatorWidensExactlyAtOverflow) {
  // 70000 rows all covering column 0 (crossing the uint16 maximum of
  // 65535), half of them also column 1 (staying narrow-range).
  const size_t rows = 70000;
  std::vector<std::pair<uint32_t, uint32_t>> entries;
  entries.reserve(rows + rows / 2);
  for (uint32_t r = 0; r < rows; ++r) {
    entries.emplace_back(r, 0);
    if (r % 2 == 0) entries.emplace_back(r, 1);
  }
  const BitMatrix a = BitMatrix::Build(rows, 8, std::move(entries));

  CountedAccumulator acc;
  acc.Rebuild(a, BitVector(rows, true));
  EXPECT_TRUE(acc.wide());
  EXPECT_EQ(acc.count(0), 70000u);
  EXPECT_EQ(acc.count(1), 35000u);
  EXPECT_TRUE(acc.result().Test(0));
  EXPECT_TRUE(acc.result().Test(1));
  EXPECT_FALSE(acc.result().Test(2));

  // Retract the first 10000 rows; counts stay exact across the wide lanes.
  BitVector removed(rows);
  for (uint32_t r = 0; r < 10000; ++r) removed.Set(r);
  EXPECT_EQ(acc.Retract(a, removed), 0u);  // nothing drained yet
  EXPECT_EQ(acc.count(0), 60000u);
  EXPECT_EQ(acc.count(1), 30000u);

  // Retract everything else: both columns drain, in one call.
  BitVector rest(rows, true);
  rest.AndNotWith(removed);
  EXPECT_EQ(acc.Retract(a, rest), 2u);
  EXPECT_EQ(acc.count(0), 0u);
  EXPECT_FALSE(acc.result().Any());
}

TEST(KernelDifferentialTest, CountedAccumulatorNarrowStaysNarrow) {
  // A selection that never crosses 65535 keeps the 16-bit lanes, and the
  // counts match a straightforward recount.
  Rng rng(CaseSeed(42, 42, 42));
  const size_t rows = 500, cols = 40;
  std::vector<std::pair<uint32_t, uint32_t>> entries;
  for (size_t e = 0; e < 4000; ++e) {
    entries.emplace_back(static_cast<uint32_t>(rng.NextBounded(rows)),
                         static_cast<uint32_t>(rng.NextBounded(cols)));
  }
  const BitMatrix a = BitMatrix::Build(rows, cols, std::move(entries));
  const BitVector selected = RandomVector(&rng, rows, 0.7);

  CountedAccumulator acc;
  acc.Rebuild(a, selected);
  EXPECT_FALSE(acc.wide());

  std::vector<uint32_t> expected(cols, 0);
  selected.ForEachSetBit([&](uint32_t r) {
    for (uint32_t c : a.Row(r)) ++expected[c];
  });
  for (size_t c = 0; c < cols; ++c) {
    EXPECT_EQ(acc.count(c), expected[c]) << "col " << c;
    EXPECT_EQ(acc.result().Test(c), expected[c] > 0) << "col " << c;
  }
}

}  // namespace
}  // namespace sparqlsim::util
