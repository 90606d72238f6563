#include "decomp/joint.hpp"

#include <gtest/gtest.h>

#include <random>

#include "tt/truth_table.hpp"

namespace hyde::decomp {
namespace {

using hyde::bdd::Bdd;
using hyde::bdd::Manager;
using hyde::tt::TruthTable;

/// Verifies that a joint decomposition realizes function i: composing the
/// shared alphas into image i reproduces the original on the care set.
void expect_realizes(Manager& mgr, const JointDecomposition& joint,
                     const std::vector<IsfBdd>& functions) {
  for (std::size_t i = 0; i < functions.size(); ++i) {
    DecompStep step;
    step.alphas = joint.alphas;
    step.alpha_vars = joint.alpha_vars;
    step.image = joint.images[i];
    EXPECT_TRUE(verify_step(mgr, functions[i], step)) << "function " << i;
  }
}

TEST(Joint, TwoXorsShareTheParityAlpha) {
  Manager mgr(10);
  const Bdd x0 = mgr.var(0), x1 = mgr.var(1), y0 = mgr.var(4), y1 = mgr.var(5);
  const std::vector<IsfBdd> fns{
      IsfBdd{(x0 ^ x1) ^ y0, mgr.zero()},
      IsfBdd{(x0 ^ x1) & y1, mgr.zero()},
  };
  const auto joint = joint_decompose(mgr, fns, {0, 1}, {4, 5}, {8});
  EXPECT_EQ(joint.num_joint_classes, 2);
  ASSERT_EQ(joint.alphas.size(), 1u);
  EXPECT_TRUE(joint.alphas[0] == (x0 ^ x1) || joint.alphas[0] == ~(x0 ^ x1));
  expect_realizes(mgr, joint, fns);
}

TEST(Joint, ClassCountIsProductBounded) {
  // Joint classes ≤ product of individual class counts and ≥ max of them.
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    Manager mgr(12);
    std::vector<IsfBdd> fns;
    std::vector<int> individual;
    for (int i = 0; i < 3; ++i) {
      const Bdd f = mgr.from_truth_table(TruthTable::from_lambda(
          6, [&rng](std::uint64_t) { return (rng() & 1) != 0; }));
      fns.push_back(IsfBdd{f, mgr.zero()});
      DecompSpec spec;
      spec.mgr = &mgr;
      spec.f = fns.back();
      spec.bound = {0, 1, 2};
      individual.push_back(count_columns(spec));
    }
    const int joint = count_joint_classes(mgr, fns, {0, 1, 2});
    int product = 1, max_individual = 0;
    for (int c : individual) {
      product *= c;
      max_individual = std::max(max_individual, c);
    }
    EXPECT_GE(joint, max_individual) << trial;
    EXPECT_LE(joint, std::min(product, 8)) << trial;
  }
}

TEST(Joint, ContainedFunctionAddsNoClasses) {
  // Theorem 4.4 constructively: if fa's partition is contained by fb's, the
  // joint decomposition of {fa, fb} needs exactly fb's class count.
  Manager mgr(10);
  const Bdd x0 = mgr.var(0), x1 = mgr.var(1);
  const Bdd y0 = mgr.var(4), y1 = mgr.var(5);
  // fb has 3 column patterns: y0 / y1 / y0&y1 (pattern of column 11 = y0).
  const Bdd fb = (~x1 & ~x0 & y0) | (~x1 & x0 & y1) | (x1 & ~x0 & (y0 & y1)) |
                 (x1 & x0 & y0);
  // fa merges fb's columns {00,11} and {01,10}: patterns y1 / ~y0.
  const Bdd fa = ((~(x0 ^ x1)) & y1) | ((x0 ^ x1) & ~y0);
  const std::vector<IsfBdd> fns{IsfBdd{fa, mgr.zero()}, IsfBdd{fb, mgr.zero()}};

  DecompSpec spec_b;
  spec_b.mgr = &mgr;
  spec_b.f = fns[1];
  spec_b.bound = {0, 1};
  const int fb_classes = count_columns(spec_b);
  EXPECT_EQ(count_joint_classes(mgr, fns, {0, 1}), fb_classes);

  const auto joint = joint_decompose(mgr, fns, {0, 1}, {4, 5}, {8, 9});
  expect_realizes(mgr, joint, fns);
}

TEST(Joint, RandomIsfsRealizeCorrectly) {
  std::mt19937_64 rng(11);
  for (int trial = 0; trial < 8; ++trial) {
    Manager mgr(14);
    std::vector<IsfBdd> fns;
    for (int i = 0; i < 2 + trial % 2; ++i) {
      const Bdd on = mgr.from_truth_table(TruthTable::from_lambda(
          6, [&rng](std::uint64_t) { return (rng() % 3) == 0; }));
      const Bdd dc = mgr.from_truth_table(TruthTable::from_lambda(
                         6, [&rng](std::uint64_t) { return (rng() % 4) == 0; })) &
                     ~on;
      fns.push_back(IsfBdd{on, dc});
    }
    std::vector<int> alpha_vars{8, 9, 10, 11, 12, 13};
    const auto joint = joint_decompose(mgr, fns, {0, 1, 2}, {3, 4, 5}, alpha_vars);
    EXPECT_LE(joint.alpha_vars.size(), 3u);  // ≤ 8 joint classes -> ≤ 3 bits
    expect_realizes(mgr, joint, fns);
  }
}

TEST(Joint, InsufficientAlphaVarsThrow) {
  Manager mgr(8);
  const std::vector<IsfBdd> fns{IsfBdd{mgr.var(0) ^ mgr.var(2), mgr.zero()},
                                IsfBdd{mgr.var(0) & mgr.var(3), mgr.zero()},
                                IsfBdd{mgr.var(1) | mgr.var(2), mgr.zero()}};
  EXPECT_THROW(joint_decompose(mgr, fns, {0, 1}, {2, 3}, {}),
               std::invalid_argument);
}

TEST(Joint, OversizedBoundThrows) {
  Manager mgr(20);
  std::vector<int> bound(kMaxBoundVars + 1);
  for (std::size_t i = 0; i < bound.size(); ++i) bound[i] = static_cast<int>(i);
  EXPECT_THROW(count_joint_classes(mgr, {IsfBdd{mgr.zero(), mgr.zero()}}, bound),
               std::invalid_argument);
}

}  // namespace
}  // namespace hyde::decomp
