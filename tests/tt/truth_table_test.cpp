#include "tt/truth_table.hpp"

#include <gtest/gtest.h>

#include <random>

namespace hyde::tt {
namespace {

TEST(TruthTable, ConstantsAndSize) {
  const TruthTable z = TruthTable::zeros(3);
  const TruthTable o = TruthTable::ones(3);
  EXPECT_TRUE(z.is_zero());
  EXPECT_FALSE(z.is_one());
  EXPECT_TRUE(o.is_one());
  EXPECT_EQ(z.size(), 8u);
  EXPECT_EQ(o.count_ones(), 8u);
  EXPECT_EQ(TruthTable::ones(0).size(), 1u);
  EXPECT_TRUE(TruthTable::ones(0).is_one());
}

TEST(TruthTable, VarProjection) {
  for (int n = 1; n <= 8; ++n) {
    for (int v = 0; v < n; ++v) {
      const TruthTable x = TruthTable::var(n, v);
      for (std::uint64_t m = 0; m < x.size(); ++m) {
        EXPECT_EQ(x.bit(m), ((m >> v) & 1) != 0) << "n=" << n << " v=" << v;
      }
    }
  }
}

TEST(TruthTable, VarOutOfRangeThrows) {
  EXPECT_THROW(TruthTable::var(3, 3), std::invalid_argument);
  EXPECT_THROW(TruthTable::var(3, -1), std::invalid_argument);
  EXPECT_THROW(TruthTable(-1), std::invalid_argument);
  EXPECT_THROW(TruthTable(TruthTable::kMaxVars + 1), std::invalid_argument);
}

TEST(TruthTable, FromBitsRoundTrip) {
  const TruthTable x = TruthTable::from_bits("0110");
  EXPECT_EQ(x, TruthTable::var(2, 0) ^ TruthTable::var(2, 1));
  EXPECT_EQ(x.to_bits(), "0110");
  EXPECT_THROW(TruthTable::from_bits("011"), std::invalid_argument);
  EXPECT_THROW(TruthTable::from_bits("01x0"), std::invalid_argument);
}

TEST(TruthTable, BooleanAlgebraLaws) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 1 + static_cast<int>(rng() % 8);
    auto rand_tt = [&rng, n]() {
      return TruthTable::from_lambda(n, [&rng](std::uint64_t) {
        return (rng() & 1) != 0;
      });
    };
    const TruthTable a = rand_tt(), b = rand_tt(), c = rand_tt();
    EXPECT_EQ(a & b, b & a);
    EXPECT_EQ(a | b, b | a);
    EXPECT_EQ(a & (b | c), (a & b) | (a & c));
    EXPECT_EQ(~(a & b), ~a | ~b);
    EXPECT_EQ(a ^ a, TruthTable::zeros(n));
    EXPECT_EQ(a & ~a, TruthTable::zeros(n));
    EXPECT_EQ(a | ~a, TruthTable::ones(n));
    EXPECT_TRUE((a & b).implies(a));
    EXPECT_TRUE(a.implies(a | b));
  }
}

TEST(TruthTable, MismatchedArityThrows) {
  TruthTable a = TruthTable::ones(2);
  const TruthTable b = TruthTable::ones(3);
  EXPECT_THROW(a &= b, std::invalid_argument);
}

TEST(TruthTable, CofactorAndQuantify) {
  // f = x0 & x1 | x2 over 3 vars.
  const TruthTable f = (TruthTable::var(3, 0) & TruthTable::var(3, 1)) |
                       TruthTable::var(3, 2);
  EXPECT_EQ(f.cofactor(2, true), TruthTable::ones(3));
  EXPECT_EQ(f.cofactor(2, false), TruthTable::var(3, 0) & TruthTable::var(3, 1));
  EXPECT_FALSE(f.cofactor(2, true).depends_on(2));
  EXPECT_EQ(f.exists(2), TruthTable::ones(3));
  EXPECT_EQ(f.forall(2), TruthTable::var(3, 0) & TruthTable::var(3, 1));
}

TEST(TruthTable, CofactorHighVariableBlocks) {
  // Exercise the word-block path (variable index >= 6) with 8 variables.
  const TruthTable f = TruthTable::var(8, 7) ^ TruthTable::var(8, 1);
  EXPECT_EQ(f.cofactor(7, false), TruthTable::var(8, 1));
  EXPECT_EQ(f.cofactor(7, true), ~TruthTable::var(8, 1));
  const TruthTable g = TruthTable::var(8, 6) & TruthTable::var(8, 0);
  EXPECT_EQ(g.cofactor(6, true), TruthTable::var(8, 0));
  EXPECT_TRUE(g.cofactor(6, false).is_zero());
}

TEST(TruthTable, SupportDetection) {
  const TruthTable f = TruthTable::var(5, 1) ^ TruthTable::var(5, 3);
  EXPECT_EQ(f.support(), (std::vector<int>{1, 3}));
  EXPECT_FALSE(f.depends_on(0));
  EXPECT_TRUE(f.depends_on(3));
}

TEST(TruthTable, SymmetricMajority) {
  const TruthTable maj = TruthTable::symmetric(3, {2, 3});
  int count = 0;
  for (std::uint64_t m = 0; m < 8; ++m) {
    if (maj.bit(m)) ++count;
  }
  EXPECT_EQ(count, 4);
  EXPECT_TRUE(maj.bit(0b011));
  EXPECT_TRUE(maj.bit(0b111));
  EXPECT_FALSE(maj.bit(0b001));
}

TEST(TruthTable, NineSymBenchmarkFunction) {
  // 9sym: 1 iff the number of ones is in {3,4,5,6}.
  const TruthTable f = TruthTable::symmetric(9, {3, 4, 5, 6});
  EXPECT_EQ(f.count_ones(), 420u);  // C(9,3)+C(9,4)+C(9,5)+C(9,6)
}

TEST(TruthTable, PermuteSwap) {
  const TruthTable f = TruthTable::var(3, 0) & ~TruthTable::var(3, 2);
  // Swap variables 0 and 2.
  const TruthTable g = f.permute({2, 1, 0});
  EXPECT_EQ(g, TruthTable::var(3, 2) & ~TruthTable::var(3, 0));
  // Permuting twice with the same swap is the identity.
  EXPECT_EQ(g.permute({2, 1, 0}), f);
}

TEST(TruthTable, SwapVarsInPlaceMatchesPermute) {
  // Every pair of positions, covering the in-word, cross-word and
  // word-block cases, against the per-minterm permute reference.
  std::mt19937_64 rng(17);
  for (int n = 1; n <= 9; ++n) {
    const TruthTable f = TruthTable::from_lambda(
        n, [&rng](std::uint64_t) { return (rng() & 1) != 0; });
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        std::vector<int> perm(static_cast<std::size_t>(n));
        for (int v = 0; v < n; ++v) perm[static_cast<std::size_t>(v)] = v;
        std::swap(perm[static_cast<std::size_t>(i)],
                  perm[static_cast<std::size_t>(j)]);
        std::vector<std::uint64_t> words = f.words();
        swap_vars_in_place(words.data(), n, i, j);
        EXPECT_EQ(TruthTable::from_words(n, words), f.permute(perm))
            << "n=" << n << " swap " << i << "," << j;
      }
    }
  }
}

TEST(TruthTable, FromWordsMasksTheTailAndChecksTheSize) {
  const TruthTable t = TruthTable::from_words(2, {0xFFull});
  EXPECT_EQ(t, TruthTable::ones(2));
  EXPECT_THROW(TruthTable::from_words(8, {0, 0, 0}), std::invalid_argument);
}

TEST(TruthTable, ProjectAndExpandRoundTrip) {
  const TruthTable f5 = TruthTable::var(5, 1) ^ (TruthTable::var(5, 3) &
                                                 TruthTable::var(5, 4));
  const TruthTable f3 = f5.project({1, 3, 4});
  EXPECT_EQ(f3.num_vars(), 3);
  EXPECT_EQ(f3, TruthTable::var(3, 0) ^ (TruthTable::var(3, 1) &
                                         TruthTable::var(3, 2)));
  EXPECT_EQ(f3.expand(5, {1, 3, 4}), f5);
}

TEST(TruthTable, MintermBasics) {
  const TruthTable m = TruthTable::minterm(4, 13);
  EXPECT_EQ(m.count_ones(), 1u);
  EXPECT_TRUE(m.bit(13));
  EXPECT_THROW(TruthTable::minterm(2, 4), std::invalid_argument);
}

TEST(TruthTable, HashDiscriminates) {
  const TruthTable a = TruthTable::var(6, 2);
  const TruthTable b = TruthTable::var(6, 3);
  EXPECT_NE(a.hash(), b.hash());
  EXPECT_EQ(a.hash(), TruthTable::var(6, 2).hash());
  // Same bit content, different arity must hash differently.
  EXPECT_NE(TruthTable::zeros(2).hash(), TruthTable::zeros(3).hash());
}

TEST(Isf, ConsistencyAndOff) {
  const TruthTable on = TruthTable::var(2, 0) & TruthTable::var(2, 1);
  const TruthTable dc = ~TruthTable::var(2, 0) & TruthTable::var(2, 1);
  const Isf isf(on, dc);
  EXPECT_TRUE(isf.is_consistent());
  EXPECT_FALSE(isf.is_completely_specified());
  EXPECT_EQ(isf.off(), ~TruthTable::var(2, 1));
  const Isf complete(on);
  EXPECT_TRUE(complete.is_completely_specified());
}

TEST(Isf, CompatibilityIsNotTransitive) {
  // Classic example: a ~ b and b ~ c but a !~ c.
  const int n = 1;
  const Isf a(TruthTable::ones(n), TruthTable::zeros(n));   // always 1
  const Isf c(TruthTable::zeros(n), TruthTable::zeros(n));  // always 0
  const Isf b(TruthTable::zeros(n), TruthTable::ones(n));   // fully DC
  EXPECT_TRUE(a.compatible_with(b));
  EXPECT_TRUE(b.compatible_with(c));
  EXPECT_FALSE(a.compatible_with(c));
}

TEST(Isf, MergePreservesBehaviour) {
  const int n = 2;
  const Isf a(TruthTable::var(n, 0), TruthTable::zeros(n));
  const Isf b(TruthTable::zeros(n), TruthTable::ones(n));
  ASSERT_TRUE(a.compatible_with(b));
  const Isf merged = a.merged_with(b);
  EXPECT_TRUE(merged.is_consistent());
  EXPECT_EQ(merged.on, a.on);
  EXPECT_TRUE(merged.dc.is_zero());
}

TEST(Isf, MergeUnionsCareSets) {
  const int n = 2;
  // a cares only where x0=1 (value x1); b cares only where x0=0 (value 0).
  const Isf a(TruthTable::var(n, 0) & TruthTable::var(n, 1),
              ~TruthTable::var(n, 0));
  const Isf b(TruthTable::zeros(n), TruthTable::var(n, 0));
  ASSERT_TRUE(a.compatible_with(b));
  const Isf merged = a.merged_with(b);
  EXPECT_TRUE(merged.dc.is_zero());
  EXPECT_EQ(merged.on, TruthTable::var(n, 0) & TruthTable::var(n, 1));
}

class TruthTableParamTest : public ::testing::TestWithParam<int> {};

TEST_P(TruthTableParamTest, ShannonExpansionHolds) {
  const int n = GetParam();
  std::mt19937_64 rng(static_cast<std::uint64_t>(n) * 1234567);
  const TruthTable f = TruthTable::from_lambda(
      n, [&rng](std::uint64_t) { return (rng() & 1) != 0; });
  for (int v = 0; v < n; ++v) {
    const TruthTable x = TruthTable::var(n, v);
    const TruthTable rebuilt =
        (x & f.cofactor(v, true)) | (~x & f.cofactor(v, false));
    EXPECT_EQ(rebuilt, f) << "var " << v;
  }
}

TEST_P(TruthTableParamTest, CountOnesMatchesEnumeration) {
  const int n = GetParam();
  std::mt19937_64 rng(static_cast<std::uint64_t>(n) + 99);
  const TruthTable f = TruthTable::from_lambda(
      n, [&rng](std::uint64_t) { return (rng() % 3) == 0; });
  std::uint64_t count = 0;
  for (std::uint64_t m = 0; m < f.size(); ++m) {
    count += f.bit(m) ? 1 : 0;
  }
  EXPECT_EQ(f.count_ones(), count);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TruthTableParamTest,
                         ::testing::Values(1, 2, 3, 5, 6, 7, 8, 10, 12));

}  // namespace
}  // namespace hyde::tt
