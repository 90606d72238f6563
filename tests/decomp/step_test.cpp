#include "decomp/step.hpp"

#include <gtest/gtest.h>

#include <random>

#include "tt/truth_table.hpp"

namespace hyde::decomp {
namespace {

using hyde::bdd::Bdd;
using hyde::bdd::Manager;
using hyde::tt::TruthTable;

DecompSpec make_spec(Manager& mgr, const Bdd& on, const Bdd& dc,
                     std::vector<int> bound) {
  DecompSpec spec;
  spec.mgr = &mgr;
  spec.f = IsfBdd{on, dc};
  spec.bound = std::move(bound);
  return spec;
}

TEST(Encoding, IdentityAndValidation) {
  const Encoding e = identity_encoding(3);
  EXPECT_EQ(e.num_bits, 2);
  EXPECT_EQ(e.codes, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_TRUE(e.is_rigid());
  e.validate(3);
  EXPECT_THROW(e.validate(4), std::invalid_argument);

  Encoding dup = e;
  dup.codes[1] = 0;
  EXPECT_THROW(dup.validate(3), std::invalid_argument);

  Encoding wide = e;
  wide.codes[2] = 4;  // exceeds 2 bits
  EXPECT_THROW(wide.validate(3), std::invalid_argument);

  Encoding pliable = identity_encoding(3);
  pliable.num_bits = 3;
  EXPECT_FALSE(pliable.is_rigid());
  pliable.validate(3);
}

TEST(Encoding, RandomIsStrictAndDeterministic) {
  const Encoding a = random_encoding(5, 42);
  const Encoding b = random_encoding(5, 42);
  const Encoding c = random_encoding(5, 43);
  EXPECT_EQ(a.codes, b.codes);
  EXPECT_NE(a.codes, c.codes);  // overwhelmingly likely with 8 choose 5 codes
  a.validate(5);
  c.validate(5);
  EXPECT_EQ(a.num_bits, 3);
}

TEST(Step, DecomposesXorChain) {
  // f = x0^x1^x2^x3, bound {0,1}, free {2,3}: 2 classes, 1 alpha = parity.
  Manager mgr(6);
  const Bdd f = mgr.var(0) ^ mgr.var(1) ^ mgr.var(2) ^ mgr.var(3);
  const auto spec = make_spec(mgr, f, mgr.zero(), {0, 1});
  const auto classes = compute_compatible_classes(spec);
  ASSERT_EQ(classes.num_classes(), 2);
  const auto step = build_step(mgr, classes, spec.bound, {2, 3},
                               identity_encoding(2), {4});
  ASSERT_EQ(step.alphas.size(), 1u);
  // The alpha is x0^x1 or its complement.
  EXPECT_TRUE(step.alphas[0] == (mgr.var(0) ^ mgr.var(1)) ||
              step.alphas[0] == ~(mgr.var(0) ^ mgr.var(1)));
  EXPECT_TRUE(verify_step(mgr, spec.f, step));
  // Image depends only on alpha var and free vars.
  const auto sup = mgr.support(step.image.on);
  EXPECT_EQ(sup, (std::vector<int>{2, 3, 4}));
}

TEST(Step, AlphaVarCollisionThrows) {
  Manager mgr(5);
  const Bdd f = mgr.var(0) ^ mgr.var(1) ^ mgr.var(2);
  const auto spec = make_spec(mgr, f, mgr.zero(), {0, 1});
  const auto classes = compute_compatible_classes(spec);
  EXPECT_THROW(build_step(mgr, classes, spec.bound, {2},
                          identity_encoding(classes.num_classes()), {2}),
               std::invalid_argument);
}

TEST(Step, UnusedCodesAreDontCare) {
  // 3 classes in 2 bits: one of the four codes is unused -> image DC there.
  Manager mgr(8);
  // f with exactly 3 classes for bound {0,1}: patterns 0, x2, !x2.
  const Bdd f = (mgr.var(0) & ~mgr.var(1) & mgr.var(2)) |
                (mgr.var(1) & ~mgr.var(0) & ~mgr.var(2));
  const auto spec = make_spec(mgr, f, mgr.zero(), {0, 1});
  const auto classes = compute_compatible_classes(spec);
  ASSERT_EQ(classes.num_classes(), 3);
  const auto step = build_step(mgr, classes, spec.bound, {2},
                               identity_encoding(3), {4, 5});
  // The unused code 3 (alpha vars 4,5 both 1) must be fully DC.
  const Bdd unused = mgr.var(4) & mgr.var(5);
  EXPECT_TRUE(mgr.implies(unused, step.image.dc));
  EXPECT_TRUE(verify_step(mgr, spec.f, step));
}

TEST(Step, AllStrictEncodingsVerify) {
  // Any permutation of codes must produce a correct decomposition.
  Manager mgr(8);
  const Bdd f = (mgr.var(0) & mgr.var(1)) ^ (mgr.var(2) | mgr.var(3));
  const auto spec = make_spec(mgr, f, mgr.zero(), {0, 1});
  const auto classes = compute_compatible_classes(spec);
  const int n = classes.num_classes();
  ASSERT_GE(n, 2);
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const Encoding enc = random_encoding(n, seed);
    std::vector<int> alpha_vars;
    for (int j = 0; j < enc.num_bits; ++j) alpha_vars.push_back(4 + j);
    const auto step = build_step(mgr, classes, spec.bound, {2, 3}, enc,
                                 alpha_vars);
    EXPECT_TRUE(verify_step(mgr, spec.f, step)) << "seed " << seed;
  }
}

TEST(Step, IncompletelySpecifiedVerifies) {
  std::mt19937_64 rng(2024);
  for (int trial = 0; trial < 10; ++trial) {
    Manager mgr(10);
    const Bdd on = mgr.from_truth_table(TruthTable::from_lambda(
        6, [&rng](std::uint64_t) { return (rng() % 3) == 0; }));
    const Bdd dc = mgr.from_truth_table(TruthTable::from_lambda(
                       6, [&rng](std::uint64_t) { return (rng() % 3) == 0; })) &
                   ~on;
    const auto spec = make_spec(mgr, on, dc, {0, 1, 2});
    const auto classes = compute_compatible_classes(spec);
    const Encoding enc = random_encoding(classes.num_classes(), trial);
    std::vector<int> alpha_vars;
    for (int j = 0; j < enc.num_bits; ++j) alpha_vars.push_back(6 + j);
    const auto step =
        build_step(mgr, classes, spec.bound, {3, 4, 5}, enc, alpha_vars);
    EXPECT_TRUE(verify_step(mgr, spec.f, step)) << "trial " << trial;
    // Don't-care merging must never *increase* the alpha count versus
    // treating distinct columns as classes.
    const auto raw = compute_compatible_classes(spec, DcPolicy::kDistinctColumns);
    EXPECT_LE(classes.num_classes(), raw.num_classes());
  }
}

TEST(Step, VerifyRejectsWrongAlpha) {
  Manager mgr(6);
  const Bdd f = mgr.var(0) ^ mgr.var(1) ^ mgr.var(2);
  const auto spec = make_spec(mgr, f, mgr.zero(), {0, 1});
  const auto classes = compute_compatible_classes(spec);
  auto step = build_step(mgr, classes, spec.bound, {2},
                         identity_encoding(2), {4});
  ASSERT_TRUE(verify_step(mgr, spec.f, step));
  step.alphas[0] = mgr.var(0);  // corrupt the decomposition function
  EXPECT_FALSE(verify_step(mgr, spec.f, step));
}

}  // namespace
}  // namespace hyde::decomp
