#include "decomp/compatible.hpp"

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

TEST(Compatible, CompletelySpecifiedClassesAreColumns) {
  Manager mgr(5);
  // 9sym-like small symmetric function: classes w.r.t. any bound set of a
  // symmetric function = number of distinct weights in the bound part.
  const Bdd f = mgr.from_truth_table(TruthTable::symmetric(5, {2, 3}));
  const auto spec = make_spec(mgr, f, mgr.zero(), {0, 1, 2});
  const auto result = compute_compatible_classes(spec);
  // Bound weight can be 0..3 and the four residual functions over the two
  // free variables are pairwise distinct, so expect exactly 4 classes.
  EXPECT_EQ(result.num_classes(), 4);
  EXPECT_EQ(result.code_bits(), 2);
  EXPECT_EQ(static_cast<int>(result.columns.size()), 4);
}

TEST(Compatible, ClassInvariants) {
  std::mt19937_64 rng(55);
  for (int trial = 0; trial < 10; ++trial) {
    Manager mgr(6);
    const Bdd on = mgr.from_truth_table(TruthTable::from_lambda(
        6, [&rng](std::uint64_t) { return (rng() % 3) == 0; }));
    const Bdd dc_raw = mgr.from_truth_table(TruthTable::from_lambda(
        6, [&rng](std::uint64_t) { return (rng() % 4) == 0; }));
    const Bdd dc = dc_raw & ~on;
    const auto spec = make_spec(mgr, on, dc, {0, 1, 2});
    const auto result = compute_compatible_classes(spec);
    ASSERT_GE(result.num_classes(), 1);
    // Indicators are disjoint and cover the bound space.
    Bdd all = mgr.zero();
    for (const auto& cls : result.classes) {
      EXPECT_TRUE(mgr.disjoint(all, cls.indicator));
      all = all | cls.indicator;
      // Class function is consistent and covers every member column's onset.
      EXPECT_TRUE(mgr.disjoint(cls.function.on, cls.function.dc));
      for (int c : cls.columns) {
        const auto& col = result.columns[static_cast<std::size_t>(c)];
        EXPECT_TRUE(mgr.implies(col.pattern.on, cls.function.on));
        EXPECT_TRUE(mgr.implies(cls.function.on, col.pattern.on | col.pattern.dc));
      }
    }
    EXPECT_TRUE(all.is_one());
    // With DC merging, classes can only be fewer than distinct columns.
    EXPECT_LE(result.num_classes(), static_cast<int>(result.columns.size()));
  }
}

TEST(Compatible, DontCareMergingReducesClasses) {
  // Construct a function where clique partitioning provably merges columns:
  // bound var x0; on = x0&x1, dc = !x0 (the whole x0=0 column is DC).
  Manager mgr(2);
  const Bdd on = mgr.var(0) & mgr.var(1);
  const Bdd dc = ~mgr.var(0);
  const auto spec = make_spec(mgr, on, dc, {0});
  EXPECT_EQ(count_compatible_classes(spec, DcPolicy::kDistinctColumns), 2);
  EXPECT_EQ(count_compatible_classes(spec, DcPolicy::kCliquePartition), 1);
  const auto result = compute_compatible_classes(spec, DcPolicy::kCliquePartition);
  ASSERT_EQ(result.num_classes(), 1);
  // Merged class behaves like x1 where specified.
  EXPECT_EQ(result.classes[0].function.on, mgr.var(1));
  EXPECT_TRUE(result.classes[0].function.dc.is_zero());
}

TEST(Compatible, ColumnsCompatiblePredicate) {
  Manager mgr(2);
  const IsfBdd always1{mgr.one(), mgr.zero()};
  const IsfBdd always0{mgr.zero(), mgr.zero()};
  const IsfBdd all_dc{mgr.zero(), mgr.one()};
  EXPECT_FALSE(columns_compatible(mgr, always1, always0));
  EXPECT_TRUE(columns_compatible(mgr, always1, all_dc));
  EXPECT_TRUE(columns_compatible(mgr, always0, all_dc));
  EXPECT_TRUE(columns_compatible(mgr, always1, always1));
}

TEST(Compatible, CodeBitsFormula) {
  ClassResult r;
  r.classes.resize(1);
  EXPECT_EQ(r.code_bits(), 0);
  r.classes.resize(2);
  EXPECT_EQ(r.code_bits(), 1);
  r.classes.resize(3);
  EXPECT_EQ(r.code_bits(), 2);
  r.classes.resize(4);
  EXPECT_EQ(r.code_bits(), 2);
  r.classes.resize(5);
  EXPECT_EQ(r.code_bits(), 3);
}

TEST(Compatible, CountShortcutsMatchFullComputation) {
  std::mt19937_64 rng(77);
  for (int trial = 0; trial < 8; ++trial) {
    Manager mgr(6);
    const Bdd on = mgr.from_truth_table(TruthTable::from_lambda(
        6, [&rng](std::uint64_t) { return (rng() & 1) != 0; }));
    // Completely specified: count shortcut equals the full computation.
    const auto spec = make_spec(mgr, on, mgr.zero(), {0, 1, 2});
    EXPECT_EQ(count_compatible_classes(spec),
              compute_compatible_classes(spec).num_classes());
  }
}

}  // namespace
}  // namespace hyde::decomp
