#include "util/gf2.h"

#include <gtest/gtest.h>

#include <set>

#include "util/bitops.h"
#include "util/rng.h"

namespace dramdig::gf2 {
namespace {

std::uint64_t fn(std::initializer_list<unsigned> bits) {
  std::uint64_t m = 0;
  for (unsigned b : bits) m |= std::uint64_t{1} << b;
  return m;
}

TEST(Gf2RowEchelon, EmptyMatrix) {
  EXPECT_TRUE(row_echelon({}).empty());
}

TEST(Gf2RowEchelon, DropsZeroRows) {
  EXPECT_TRUE(row_echelon({0, 0}).empty());
}

TEST(Gf2RowEchelon, DropsDuplicates) {
  const matrix m{0b110, 0b110};
  EXPECT_EQ(row_echelon(m).size(), 1u);
}

TEST(Gf2RowEchelon, CanonicalAcrossBasisChoice) {
  // Two bases of the same space echelonize identically.
  const matrix a{0b110, 0b011};
  const matrix b{0b101, 0b011};  // 0b101 = 0b110 ^ 0b011
  EXPECT_EQ(row_echelon(a), row_echelon(b));
}

TEST(Gf2Reduce, GrowsOnlyOnIndependentVectors) {
  matrix basis;
  EXPECT_FALSE(reduce_into(basis, 0));  // zero never grows the basis
  EXPECT_TRUE(basis.empty());
  EXPECT_TRUE(reduce_into(basis, 0b0110));
  EXPECT_TRUE(reduce_into(basis, 0b0011));
  EXPECT_FALSE(reduce_into(basis, 0b0110));  // duplicate
  EXPECT_FALSE(reduce_into(basis, 0b0101));  // 0b0110 ^ 0b0011
  EXPECT_EQ(basis.size(), 2u);
  EXPECT_EQ(reduce(basis, 0b0101), 0u);
  EXPECT_NE(reduce(basis, 0b1000), 0u);
  EXPECT_EQ(basis.size(), 2u);  // reduce() never grows the basis
  EXPECT_TRUE(reduce_into(basis, 0b1000));
  ASSERT_EQ(basis.size(), 3u);
  EXPECT_TRUE(same_span(basis, {0b0110, 0b0011, 0b1000}));
  // A row_echelon() result is a valid starting basis too.
  matrix echelon = row_echelon({0b0110, 0b0011});
  EXPECT_FALSE(reduce_into(echelon, 0b0101));
  EXPECT_TRUE(reduce_into(echelon, 0b0001));
  EXPECT_EQ(echelon.size(), 3u);
}

TEST(Gf2Rank, CountsIndependentRows) {
  EXPECT_EQ(rank({}), 0u);
  EXPECT_EQ(rank({0b1}), 1u);
  EXPECT_EQ(rank({0b01, 0b10, 0b11}), 2u);
}

TEST(Gf2InSpan, DetectsLinearCombinations) {
  const matrix m{fn({14, 17}), fn({15, 18})};
  EXPECT_TRUE(in_span(m, fn({14, 17})));
  EXPECT_TRUE(in_span(m, fn({14, 15, 17, 18})));
  EXPECT_FALSE(in_span(m, fn({14, 18})));
  EXPECT_TRUE(in_span(m, 0));  // zero vector is always in the span
}

TEST(Gf2SameSpan, PaperRedundancyExample) {
  // The paper's example: (14,18), (15,19) have priority over their linear
  // combination (14,15,18,19).
  const matrix a{fn({14, 18}), fn({15, 19})};
  const matrix b{fn({14, 18}), fn({14, 15, 18, 19})};
  EXPECT_TRUE(same_span(a, b));
  const matrix c{fn({14, 18}), fn({15, 18})};
  EXPECT_FALSE(same_span(a, c));
}

TEST(Gf2MinimalBasis, PrefersFewerBits) {
  // Given the redundant triple, the minimal basis keeps the two 2-bit
  // functions and drops the 4-bit combination.
  const matrix funcs{fn({14, 15, 18, 19}), fn({14, 18}), fn({15, 19})};
  const matrix basis = minimal_basis(funcs);
  ASSERT_EQ(basis.size(), 2u);
  EXPECT_EQ(basis[0], fn({14, 18}));
  EXPECT_EQ(basis[1], fn({15, 19}));
}

TEST(Gf2MinimalBasis, DropsZeroAndDuplicates) {
  const matrix basis = minimal_basis({0, 0b10, 0b10, 0});
  ASSERT_EQ(basis.size(), 1u);
  EXPECT_EQ(basis[0], 0b10u);
}

TEST(Gf2MinimalBasis, SpansInput) {
  rng r(7);
  for (int trial = 0; trial < 50; ++trial) {
    matrix funcs;
    for (int i = 0; i < 8; ++i) funcs.push_back(r.below(1u << 20));
    const matrix basis = minimal_basis(funcs);
    EXPECT_TRUE(same_span(funcs, basis));
    EXPECT_EQ(basis.size(), rank(funcs));
  }
}

TEST(Gf2Solve, SingleEquation) {
  // parity(x, {14,17}) == 1 with support {14}.
  const auto x = solve({fn({14, 17})}, 0b1, fn({14}));
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(*x, fn({14}));
}

TEST(Gf2Solve, InconsistentSystem) {
  // parity(x, {5}) == 1 but bit 5 is outside the support.
  EXPECT_FALSE(solve({fn({5})}, 0b1, fn({6, 7})).has_value());
}

TEST(Gf2Solve, ZeroRhsHasZeroSolution) {
  const auto x = solve({fn({3, 4}), fn({4, 5})}, 0, fn({3, 4, 5}));
  ASSERT_TRUE(x.has_value());
  for (std::uint64_t f : matrix{fn({3, 4}), fn({4, 5})}) {
    EXPECT_EQ(parity(*x, f), 0u);
  }
}

TEST(Gf2Solve, SatisfiesAllEquations) {
  // Machine No.2's functions: find x within the bank bits with chosen
  // target parities.
  const matrix funcs{fn({14, 18}), fn({15, 19}), fn({16, 20}), fn({17, 21}),
                     fn({7, 8, 9, 12, 13, 18, 19})};
  const std::uint64_t support =
      fn({7, 8, 9, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21});
  for (std::uint64_t want = 0; want < 32; ++want) {
    const auto x = solve(funcs, want, support);
    ASSERT_TRUE(x.has_value()) << "rhs " << want;
    EXPECT_EQ(*x & ~support, 0u);
    for (std::size_t i = 0; i < funcs.size(); ++i) {
      EXPECT_EQ(parity(*x, funcs[i]), (want >> i) & 1u);
    }
  }
}

TEST(Gf2SolvePinnedBit, BankInvariantDeltaForSharedRowBit) {
  // The fine-grained Step 3 use case on machine No.2: a delta containing
  // bit 18 that keeps all five functions invariant must also flip 19 (via
  // the wide function), 15 (via (15,19)) and 14 (via (14,18)).
  matrix system{fn({14, 18}), fn({15, 19}), fn({16, 20}), fn({17, 21}),
                fn({7, 8, 9, 12, 13, 18, 19})};
  system.push_back(fn({18}));  // pin bit 18
  const std::uint64_t support =
      fn({7, 8, 9, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21});
  const auto delta = solve(system, std::uint64_t{1} << 5, support);
  ASSERT_TRUE(delta.has_value());
  EXPECT_TRUE(bit(*delta, 18));
  for (std::size_t i = 0; i + 1 < system.size(); ++i) {
    EXPECT_EQ(parity(*delta, system[i]), 0u) << "function " << i;
  }
}

TEST(Gf2NullSpace, VectorsAnnihilateAllFunctionals) {
  const matrix funcs{fn({14, 18}), fn({15, 19}),
                     fn({7, 8, 9, 12, 13, 18, 19})};
  const std::uint64_t support =
      fn({7, 8, 9, 12, 13, 14, 15, 16, 17, 18, 19});
  const matrix kernel = nullspace(funcs, support);
  // dim(kernel) = |support| - rank = 11 - 3 = 8.
  EXPECT_EQ(rank(kernel), 8u);
  for (std::uint64_t v : kernel) {
    EXPECT_NE(v, 0u);
    EXPECT_EQ(v & ~support, 0u);
    for (std::uint64_t f : funcs) EXPECT_EQ(parity(v, f), 0u);
  }
}

TEST(Gf2NullSpace, FullRankSquareSystemHasTrivialKernel) {
  const matrix funcs{fn({0}), fn({1}), fn({2})};
  EXPECT_TRUE(nullspace(funcs, fn({0, 1, 2})).empty());
}

TEST(Gf2EnumerateSpan, ListsEveryNonzeroVectorOnce) {
  const matrix basis{fn({14, 18}), fn({15, 19}), fn({16, 20})};
  const matrix span = enumerate_span(basis);
  ASSERT_EQ(span.size(), 7u);  // 2^3 - 1
  std::set<std::uint64_t> unique(span.begin(), span.end());
  EXPECT_EQ(unique.size(), 7u);
  EXPECT_FALSE(unique.contains(0));
  for (std::uint64_t v : span) EXPECT_TRUE(in_span(basis, v));
}

TEST(Gf2EnumerateSpan, CollapsesDependentInput) {
  // A redundant generator must not inflate the span.
  const matrix basis{fn({1}), fn({2}), fn({1, 2})};
  EXPECT_EQ(enumerate_span(basis).size(), 3u);
  EXPECT_TRUE(enumerate_span({}).empty());
}

TEST(Gf2NullSpaceProperty, SpanEqualsBruteForceAnnihilators) {
  // The function-detection contract: nullspace + enumerate_span must list
  // exactly the nonzero support subsets orthogonal to every functional.
  rng r(321);
  for (int trial = 0; trial < 30; ++trial) {
    const unsigned width = 6 + static_cast<unsigned>(r.below(5));  // 6..10
    const std::uint64_t support = (std::uint64_t{1} << width) - 1;
    matrix funcs;
    const unsigned n = 1 + static_cast<unsigned>(r.below(4));
    for (unsigned i = 0; i < n; ++i) funcs.push_back(1 + r.below(support));
    std::set<std::uint64_t> brute;
    for (std::uint64_t m = 1; m <= support; ++m) {
      bool ok = true;
      for (std::uint64_t f : funcs) ok = ok && parity(m, f) == 0;
      if (ok) brute.insert(m);
    }
    const matrix span = enumerate_span(nullspace(funcs, support));
    const std::set<std::uint64_t> got(span.begin(), span.end());
    EXPECT_EQ(got, brute) << "trial " << trial;
  }
}

TEST(Gf2NullSpaceProperty, BasisDependsOnlyOnRowSpaceAndSupport) {
  // The classifier grows its difference basis incrementally and in a
  // different row order than a rebuild would; its predictions stay
  // identical only because nullspace() returns the same vectors, in the
  // same order, for every generating set of one row space.
  rng r(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t universe = (std::uint64_t{1} << 24) - 1;
    const std::uint64_t support = r.below(universe) + 1;
    matrix a;
    const unsigned rows = static_cast<unsigned>(r.below(13));  // 0..12
    for (unsigned i = 0; i < rows; ++i) {
      // Mix in dependent rows so duplicates and sums are exercised.
      if (i >= 2 && r.below(3) == 0) {
        const std::uint64_t x = a[r.below(i)];
        a.push_back(x ^ a[r.below(i)]);
      } else {
        a.push_back(r.below(universe + 1));
      }
    }
    const matrix want = nullspace(a, support);

    matrix shuffled = a;
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[r.below(i)]);
    }
    matrix incremental;
    for (const std::uint64_t row : shuffled) reduce_into(incremental, row);

    EXPECT_EQ(nullspace(row_echelon(a), support), want) << "trial " << trial;
    EXPECT_EQ(nullspace(shuffled, support), want) << "trial " << trial;
    EXPECT_EQ(nullspace(incremental, support), want) << "trial " << trial;
  }
}

TEST(Gf2NullSpaceProperty, MoreRowsThanBitsMatchesTheirBasis) {
  // DRAMA's null-space arm hands over one row per cluster difference —
  // about a hundred of them. Every row annihilates three known masks, so
  // the kernel over the support is exactly their span, whatever the row
  // count.
  rng r(77);
  const std::uint64_t support = ((std::uint64_t{1} << 34) - 1) & ~0x3full;
  const matrix funcs{fn({6, 13}), fn({14, 17, 20}), fn({15, 18, 33})};
  matrix a;
  while (a.size() < 100) {
    const std::uint64_t v = r.below(support + 1) & support;
    bool annihilates = true;
    for (const std::uint64_t f : funcs) {
      annihilates = annihilates && std::popcount(v & f) % 2 == 0;
    }
    if (annihilates) a.push_back(v);
  }
  const matrix kernel = nullspace(a, support);
  EXPECT_EQ(kernel, nullspace(row_echelon(a), support));
  EXPECT_TRUE(same_span(kernel, funcs));
}

TEST(Gf2Property, SolveRoundTripOnRandomSystems) {
  rng r(123);
  for (int trial = 0; trial < 100; ++trial) {
    matrix funcs;
    const unsigned n = 3 + static_cast<unsigned>(r.below(4));
    for (unsigned i = 0; i < n; ++i) {
      funcs.push_back(1 + r.below((1u << 16) - 1));
    }
    const std::uint64_t support = (1u << 16) - 1;
    const std::uint64_t want = r.below(1u << n);
    const auto x = solve(funcs, want, support);
    if (!x) continue;  // inconsistent system: fine for random input
    for (std::size_t i = 0; i < funcs.size(); ++i) {
      EXPECT_EQ(parity(*x, funcs[i]), (want >> i) & 1u);
    }
  }
}

}  // namespace
}  // namespace dramdig::gf2
