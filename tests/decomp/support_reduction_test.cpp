/// \file support_reduction_test.cpp
/// \brief decomp::reduce_support and decomp::isf_support against the
/// reference loop that ran the cofactor test on every function: the same
/// on/dc nodes and the same support on random ISFs of 1–12 variables (no,
/// sparse, dense and overlapping don't cares, and an empty onset), on a
/// build_image result with an unused code, on a hand-built case where one
/// drop blocks the next, and on every ISF of three variables.

#include "decomp/compatible.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "decomp/step.hpp"
#include "oracles/support_oracle.hpp"
#include "tt/truth_table.hpp"

namespace hyde::decomp {
namespace {

using hyde::bdd::Bdd;
using hyde::bdd::Manager;
using hyde::tt::TruthTable;

/// Checks reduce_support(f) and isf_support(f) against the reference;
/// returns how many variables the reduction dropped.
int expect_matches_reference(Manager& mgr, const IsfBdd& f) {
  const std::vector<int> before = isf_support_reference(mgr, f);
  EXPECT_EQ(isf_support(mgr, f), before);
  const IsfBdd want = reduce_support_reference(mgr, f);
  const ReducedIsf got = reduce_support(mgr, f);
  EXPECT_EQ(got.f.on.id(), want.on.id());
  EXPECT_EQ(got.f.dc.id(), want.dc.id());
  EXPECT_EQ(got.support, isf_support_reference(mgr, want));
  return static_cast<int>(before.size() - got.support.size());
}

enum class DcShape { kNone, kSparse, kDense, kOverlapping, kEmptyOnset };

/// A random ISF over \p n variables placed on the odd manager variables, so
/// supports are not a prefix of the manager's variables.
IsfBdd random_isf(Manager& mgr, std::mt19937_64& rng, int n, DcShape shape) {
  std::vector<int> vars;
  for (int i = 0; i < n; ++i) vars.push_back(2 * i + 1);
  const auto table = [&rng, n](unsigned one_in) {
    return TruthTable::from_lambda(
        n, [&rng, one_in](std::uint64_t) { return rng() % one_in == 0; });
  };
  Bdd on = mgr.from_truth_table(table(3), vars);
  Bdd dc = mgr.zero();
  switch (shape) {
    case DcShape::kNone:
      break;
    case DcShape::kSparse:
      dc = mgr.from_truth_table(table(16), vars) & ~on;
      break;
    case DcShape::kDense:
      dc = ~mgr.from_truth_table(table(4), vars) & ~on;
      break;
    case DcShape::kOverlapping:
      dc = ~mgr.from_truth_table(table(3), vars);
      break;
    case DcShape::kEmptyOnset:
      dc = ~mgr.from_truth_table(table(4), vars);
      on = mgr.zero();
      break;
  }
  return IsfBdd{on, dc};
}

TEST(SupportReductionTest, RandomIsfsMatchTheReference) {
  std::mt19937_64 rng(0x5EEDu);
  for (const DcShape shape : {DcShape::kNone, DcShape::kSparse,
                              DcShape::kDense, DcShape::kOverlapping,
                              DcShape::kEmptyOnset}) {
    int dropped = 0;
    for (int n = 1; n <= 12; ++n) {
      Manager mgr(2 * n + 2);
      for (int trial = 0; trial < 6; ++trial) {
        SCOPED_TRACE(::testing::Message() << "shape " << static_cast<int>(shape)
                                          << " n " << n << " trial " << trial);
        dropped += expect_matches_reference(mgr, random_isf(mgr, rng, n, shape));
      }
    }
    if (shape == DcShape::kNone) {
      EXPECT_EQ(dropped, 0);
    } else if (shape != DcShape::kSparse) {
      EXPECT_GT(dropped, 0) << "shape " << static_cast<int>(shape);
    }
  }
}

TEST(SupportReductionTest, ImageWithAnUnusedCodeDropsTheBitItLeavesFree) {
  // Three functions under two α bits: codes 00, 01, 10, and 11 unused (all
  // don't care). α0 separates two equal functions and a function from the
  // unused code, so it drops; α1 separates different functions and stays.
  Manager mgr(10);
  const std::vector<int> vars = {0, 1, 2, 3};
  const Bdd x0 = mgr.var(0);
  const Bdd x1 = mgr.var(1);
  const Bdd x2 = mgr.var(2);
  const Bdd x3 = mgr.var(3);
  const IsfBdd f0{(x0 & x1) | x2, mgr.zero()};
  const IsfBdd f2{x0 ^ x3, mgr.zero()};
  Encoding encoding;
  encoding.codes = {0, 1, 2};
  encoding.num_bits = 2;
  const std::vector<int> alpha = {8, 9};
  const IsfBdd image = build_image(mgr, {f0, f0, f2}, encoding, alpha);
  ASSERT_FALSE(image.dc.is_zero());

  EXPECT_EQ(expect_matches_reference(mgr, image), 1);
  const ReducedIsf got = reduce_support(mgr, image);
  EXPECT_EQ(got.support, (std::vector<int>{0, 1, 2, 3, 9}));
}

TEST(SupportReductionTest, EachDropIsTestedOnTheFunctionLeftByTheLastOne) {
  // f(a, b) is on at ¬a¬b, off at ab and don't care elsewhere. Each of a
  // and b alone could go; once a is merged away f = ¬b, and b must stay.
  // (The reverse cascade, a drop that frees an earlier variable, cannot
  // happen: merging two compatible cofactors only adds care points, so
  // every conflict between another variable's cofactors survives it, and
  // the loop's second pass never drops anything.)
  Manager mgr(2);
  const Bdd a = mgr.var(0);
  const Bdd b = mgr.var(1);
  const IsfBdd f{~a & ~b, (a ^ b)};

  EXPECT_EQ(expect_matches_reference(mgr, f), 1);
  const ReducedIsf got = reduce_support(mgr, f);
  EXPECT_EQ(got.f.on.id(), (~b).id());
  EXPECT_TRUE(got.f.dc.is_zero());
  EXPECT_EQ(got.support, std::vector<int>{1});
}

TEST(SupportReductionTest, EveryThreeVariableIsfMatchesAndIsReducedInOnePass) {
  // All 3^8 ISFs over three variables, each minterm off, on or don't care.
  Manager mgr(3);
  int dropped = 0;
  for (int code = 0; code < 6561; ++code) {
    TruthTable on(3);
    TruthTable dc(3);
    int rest = code;
    for (std::uint64_t m = 0; m < 8; ++m, rest /= 3) {
      on.set_bit(m, rest % 3 == 1);
      dc.set_bit(m, rest % 3 == 2);
    }
    const IsfBdd f{mgr.from_truth_table(on), mgr.from_truth_table(dc)};
    SCOPED_TRACE(::testing::Message() << "code " << code);
    dropped += expect_matches_reference(mgr, f);
    // Reducing again drops nothing: the pass after the one that dropped
    // finds every remaining variable still needed.
    const ReducedIsf once = reduce_support(mgr, f);
    const ReducedIsf twice = reduce_support(mgr, once.f);
    EXPECT_EQ(twice.f.on.id(), once.f.on.id());
    EXPECT_EQ(twice.f.dc.id(), once.f.dc.id());
  }
  EXPECT_GT(dropped, 0);
}

}  // namespace
}  // namespace hyde::decomp
