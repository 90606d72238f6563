/// Tests for exact NPN canonicalization (src/tt/npn).
///
/// The load-bearing properties for the runtime's decomposition cache:
///  - invariance: every member of an NPN class canonicalizes to the same
///    representative (checked with random transforms, completely specified
///    and ISF);
///  - soundness: npn_apply(canonical, transform) recovers the original, so
///    the representative really is NPN-equivalent to the input;
///  - separation: distinct classes never collide — the exhaustive 4-input
///    sweep must produce exactly the 222 known NPN classes;
///  - bit identity: the fixed-width kernel returns the same canonical form
///    and transform as the TruthTable-based reference (tests/oracles), so
///    cache keys and everything replayed from them never change.

#include "tt/npn.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <set>
#include <string>

#include "gtest/gtest.h"
#include "oracles/npn_oracle.hpp"
#include "tt/truth_table.hpp"

namespace hyde::tt {
namespace {

TruthTable random_table(int n, std::mt19937_64& rng) {
  return TruthTable::from_lambda(
      n, [&](std::uint64_t) { return (rng() & 1) != 0; });
}

/// Applies an arbitrary NPN transform to f: result input i reads f's variable
/// perm[i], optionally complemented; the output is optionally complemented.
TruthTable transform_table(const TruthTable& f, const std::vector<int>& perm,
                           std::uint32_t negations, bool output_negated) {
  const int n = f.num_vars();
  return TruthTable::from_lambda(n, [&](std::uint64_t m) {
    std::uint64_t original = 0;
    for (int i = 0; i < n; ++i) {
      const bool bit = (((m >> i) ^ (negations >> i)) & 1) != 0;
      if (bit) original |= std::uint64_t{1} << perm[i];
    }
    return output_negated != f.bit(original);
  });
}

TEST(NpnTest, CanonicalFormInvariantUnderRandomTransforms) {
  std::mt19937_64 rng(20260806);
  for (int n = 3; n <= 6; ++n) {
    for (int trial = 0; trial < 20; ++trial) {
      const TruthTable f = random_table(n, rng);
      const NpnCanonization base = npn_canonize(f);

      std::vector<int> perm(n);
      std::iota(perm.begin(), perm.end(), 0);
      std::shuffle(perm.begin(), perm.end(), rng);
      const auto negations = static_cast<std::uint32_t>(rng() & ((1u << n) - 1));
      const bool output_negated = (rng() & 1) != 0;

      const TruthTable g = transform_table(f, perm, negations, output_negated);
      const NpnCanonization other = npn_canonize(g);
      EXPECT_EQ(base.canonical, other.canonical)
          << "n=" << n << " trial=" << trial << " f=" << f.to_bits()
          << " g=" << g.to_bits();
    }
  }
}

TEST(NpnTest, ApplyRecoversOriginal) {
  std::mt19937_64 rng(4242);
  for (int n = 1; n <= 6; ++n) {
    for (int trial = 0; trial < 20; ++trial) {
      const TruthTable f = random_table(n, rng);
      const NpnCanonization canon = npn_canonize(f);
      const Isf back = npn_apply(canon.canonical, canon.transform);
      EXPECT_EQ(back.on, f) << "n=" << n << " f=" << f.to_bits();
      EXPECT_TRUE(back.dc.is_zero());
    }
  }
}

TEST(NpnTest, IsfCanonicalFormInvariantAndRecoverable) {
  std::mt19937_64 rng(777);
  for (int n = 3; n <= 5; ++n) {
    for (int trial = 0; trial < 15; ++trial) {
      // Random consistent ISF: carve a dcset out of the complement of on.
      const TruthTable on = random_table(n, rng);
      const TruthTable dc = random_table(n, rng) & ~on;
      const Isf f{on, dc};
      const NpnCanonization base = npn_canonize(f);
      EXPECT_TRUE(base.canonical.is_consistent());

      std::vector<int> perm(n);
      std::iota(perm.begin(), perm.end(), 0);
      std::shuffle(perm.begin(), perm.end(), rng);
      const auto negations = static_cast<std::uint32_t>(rng() & ((1u << n) - 1));
      const bool output_negated = (rng() & 1) != 0;

      // Output negation swaps onset and offset; the dcset rides along under
      // the input transform only.
      const TruthTable source_on = output_negated ? f.off() : f.on;
      const Isf g{transform_table(source_on, perm, negations, false),
                  transform_table(f.dc, perm, negations, false)};
      ASSERT_TRUE(g.is_consistent());
      const NpnCanonization other = npn_canonize(g);
      EXPECT_EQ(base.canonical, other.canonical)
          << "n=" << n << " trial=" << trial;

      const Isf back = npn_apply(other.canonical, other.transform);
      EXPECT_EQ(back, g);
    }
  }
}

TEST(NpnTest, ExhaustiveFourVariableSweepYields222Classes) {
  // There are exactly 222 NPN equivalence classes of 4-variable functions.
  // Invariance (members map together) plus this count (no two classes merge)
  // pins the canonicalizer to the true partition.
  std::set<std::string> canonicals;
  for (std::uint32_t bits = 0; bits < (1u << 16); ++bits) {
    const TruthTable f = TruthTable::from_lambda(
        4, [bits](std::uint64_t m) { return ((bits >> m) & 1) != 0; });
    canonicals.insert(npn_canonize(f).canonical.on.to_bits());
  }
  EXPECT_EQ(canonicals.size(), 222u);
}

/// Asserts that the production canonicalizer and the reference agree on the
/// canonical form and on every field of the transform.
void expect_matches_reference(const Isf& f) {
  const NpnCanonization fast = npn_canonize(f);
  const NpnCanonization ref = npn_canonize_reference(f);
  EXPECT_EQ(fast.canonical, ref.canonical)
      << "on=" << f.on.to_bits() << " dc=" << f.dc.to_bits();
  EXPECT_EQ(fast.transform.perm, ref.transform.perm)
      << "on=" << f.on.to_bits() << " dc=" << f.dc.to_bits();
  EXPECT_EQ(fast.transform.input_negations, ref.transform.input_negations)
      << "on=" << f.on.to_bits() << " dc=" << f.dc.to_bits();
  EXPECT_EQ(fast.transform.output_negated, ref.transform.output_negated)
      << "on=" << f.on.to_bits() << " dc=" << f.dc.to_bits();
}

TEST(NpnTest, MatchesReferenceOnEverySmallIsf) {
  // Every ISF of 0 to 3 inputs: each minterm is off, on or don't-care
  // (3^8 = 6561 functions at 3 inputs).
  for (int n = 0; n <= 3; ++n) {
    const std::uint64_t size = std::uint64_t{1} << n;
    std::uint64_t total = 1;
    for (std::uint64_t m = 0; m < size; ++m) total *= 3;
    for (std::uint64_t code = 0; code < total; ++code) {
      Isf f{TruthTable::zeros(n), TruthTable::zeros(n)};
      std::uint64_t rest = code;
      for (std::uint64_t m = 0; m < size; ++m, rest /= 3) {
        if (rest % 3 == 1) f.on.set_bit(m, true);
        if (rest % 3 == 2) f.dc.set_bit(m, true);
      }
      expect_matches_reference(f);
    }
  }
}

TEST(NpnTest, MatchesReferenceOnRandomAndSymmetricIsfs) {
  // The reference walks 1.3M heap-backed candidates per 7-input call, so the
  // widest functions get only a few cases.
  std::mt19937_64 rng(20261017);
  const int trials[] = {0, 0, 0, 0, 24, 12, 6, 2};
  for (int n = 4; n <= kMaxExactNpnVars; ++n) {
    for (int trial = 0; trial < trials[n]; ++trial) {
      const TruthTable on = random_table(n, rng);
      // Alternate completely specified functions with ones carrying a dcset.
      const TruthTable dc =
          trial % 2 == 0 ? TruthTable::zeros(n) : random_table(n, rng) & ~on;
      expect_matches_reference(Isf{on, dc});
    }
    // Symmetric functions tie many candidates; the first minimum must win.
    const TruthTable parity = TruthTable::symmetric(n, {1, 3, 5, 7});
    const TruthTable half = TruthTable::symmetric(n, {n / 2});
    const TruthTable above_half = TruthTable::symmetric(n, {n / 2 + 1});
    expect_matches_reference(Isf{parity});
    expect_matches_reference(Isf{half, above_half});
  }
}

TEST(NpnTest, SmallCasesAndErrors) {
  // Constants: the two 0-var functions form 1 NPN class (output negation).
  const NpnCanonization zero = npn_canonize(TruthTable::zeros(2));
  const NpnCanonization one = npn_canonize(TruthTable::ones(2));
  EXPECT_EQ(zero.canonical, one.canonical);

  // x and !x are one class.
  const TruthTable x = TruthTable::var(3, 1);
  EXPECT_EQ(npn_canonize(x).canonical, npn_canonize(~x).canonical);

  // AND and OR of two variables are one class (De Morgan), XOR is another.
  const TruthTable a = TruthTable::var(2, 0), b = TruthTable::var(2, 1);
  EXPECT_EQ(npn_canonize(a & b).canonical, npn_canonize(a | b).canonical);
  EXPECT_NE(npn_canonize(a & b).canonical, npn_canonize(a ^ b).canonical);

  EXPECT_THROW(npn_canonize(TruthTable::zeros(kMaxExactNpnVars + 1)),
               std::invalid_argument);
  // Inconsistent ISF (overlapping onset/dcset) is rejected.
  EXPECT_THROW(npn_canonize(Isf{TruthTable::ones(2), TruthTable::ones(2)}),
               std::invalid_argument);
}

}  // namespace
}  // namespace hyde::tt
