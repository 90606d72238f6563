#include "decomp/chart.hpp"

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

TEST(Chart, XorHasTwoColumns) {
  // f = x0 ^ x1 ^ x2 ^ x3 with bound {0,1}: cofactors are parity and its
  // complement -> exactly 2 distinct columns.
  Manager mgr(4);
  const Bdd f = mgr.var(0) ^ mgr.var(1) ^ mgr.var(2) ^ mgr.var(3);
  const auto spec = make_spec(mgr, f, mgr.zero(), {0, 1});
  const auto columns = enumerate_columns(spec);
  EXPECT_EQ(columns.size(), 2u);
  EXPECT_EQ(count_columns(spec), 2);
  // Each column covers two of the four bound minterms.
  EXPECT_EQ(mgr.sat_count(columns[0].indicator, 2), 2.0);
  EXPECT_EQ(mgr.sat_count(columns[1].indicator, 2), 2.0);
  // Indicators partition the bound space.
  EXPECT_TRUE(mgr.disjoint(columns[0].indicator, columns[1].indicator));
  EXPECT_EQ(columns[0].indicator | columns[1].indicator, mgr.one());
}

TEST(Chart, AndHasTwoColumns) {
  // f = x0&x1&x2: bound {0,1} -> columns {0, x2}.
  Manager mgr(3);
  const Bdd f = mgr.var(0) & mgr.var(1) & mgr.var(2);
  const auto spec = make_spec(mgr, f, mgr.zero(), {0, 1});
  const auto columns = enumerate_columns(spec);
  ASSERT_EQ(columns.size(), 2u);
  // Minterm 00 comes first: its column (00, 01, 10) is constant zero; 11
  // gives x2.
  EXPECT_TRUE(columns[0].pattern.on.is_zero());
  EXPECT_EQ(columns[0].indicator, ~(mgr.var(0) & mgr.var(1)));
  EXPECT_EQ(columns[1].pattern.on, mgr.var(2));
  EXPECT_EQ(columns[1].indicator, mgr.var(0) & mgr.var(1));
}

TEST(Chart, FullBoundSetYieldsConstantPatterns) {
  Manager mgr(3);
  const Bdd f = (mgr.var(0) & mgr.var(1)) | mgr.var(2);
  const auto spec = make_spec(mgr, f, mgr.zero(), {0, 1, 2});
  const auto columns = enumerate_columns(spec);
  EXPECT_EQ(columns.size(), 2u);  // constant 0 and constant 1
  for (const auto& c : columns) {
    EXPECT_TRUE(c.pattern.on.is_constant());
  }
}

TEST(Chart, EmptyBoundSetIsOneColumn) {
  Manager mgr(3);
  const Bdd f = mgr.var(0) ^ mgr.var(2);
  const auto spec = make_spec(mgr, f, mgr.zero(), {});
  const auto columns = enumerate_columns(spec);
  ASSERT_EQ(columns.size(), 1u);
  EXPECT_EQ(columns[0].pattern.on, f);
  EXPECT_TRUE(columns[0].indicator.is_one());
}

TEST(Chart, DontCaresSplitColumns) {
  // on = x0 & x1 (bound {0}): columns differ; dc changes column identity.
  Manager mgr(2);
  const Bdd on = mgr.var(0) & mgr.var(1);
  const Bdd dc = ~mgr.var(0) & mgr.var(1);  // x0=0,x1=1 is don't care
  const auto spec = make_spec(mgr, on, dc, {0});
  const auto columns = enumerate_columns(spec);
  // Column x0=0: on=0, dc=x1. Column x0=1: on=x1, dc=0. Distinct pairs.
  EXPECT_EQ(columns.size(), 2u);
}

TEST(Chart, RejectsOversizedBoundSet) {
  Manager mgr(20);
  DecompSpec spec;
  spec.mgr = &mgr;
  spec.f = IsfBdd{mgr.zero(), mgr.zero()};
  spec.bound.resize(kMaxBoundVars + 1, 0);
  EXPECT_THROW(enumerate_columns(spec), std::invalid_argument);
  EXPECT_THROW(count_columns(spec), std::invalid_argument);
  DecompSpec null_spec;
  EXPECT_THROW(enumerate_columns(null_spec), std::invalid_argument);
}

TEST(Chart, MintermCubeBuildsCorrectCube) {
  Manager mgr(5);
  const Bdd cube = minterm_cube(mgr, {1, 3, 4}, 0b101);  // x1=1, x3=0, x4=1
  EXPECT_EQ(cube, mgr.var(1) & mgr.nvar(3) & mgr.var(4));
  EXPECT_EQ(minterm_cube(mgr, {}, 0), mgr.one());
}

TEST(Chart, ColumnsPartitionBoundSpaceRandomly) {
  std::mt19937_64 rng(123);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 6;
    Manager mgr(n);
    const TruthTable table = TruthTable::from_lambda(
        n, [&rng](std::uint64_t) { return (rng() & 1) != 0; });
    const Bdd f = mgr.from_truth_table(table);
    const auto spec = make_spec(mgr, f, mgr.zero(), {0, 1, 2});
    const auto columns = enumerate_columns(spec);
    // Indicators are disjoint and cover all 8 bound assignments, and each
    // assignment's cofactor is the pattern of the column that holds it.
    for (std::uint64_t m = 0; m < 8; ++m) {
      int hits = 0;
      std::vector<std::pair<int, bool>> assignment;
      for (int i = 0; i < 3; ++i) {
        assignment.emplace_back(i, ((m >> i) & 1) != 0);
      }
      for (const auto& c : columns) {
        if (!mgr.implies(minterm_cube(mgr, spec.bound, m), c.indicator)) {
          continue;
        }
        ++hits;
        EXPECT_EQ(mgr.cofactor_cube(f, assignment), c.pattern.on);
      }
      EXPECT_EQ(hits, 1) << "minterm " << m;
    }
    EXPECT_EQ(count_columns(spec), static_cast<int>(columns.size()));
  }
}

}  // namespace
}  // namespace hyde::decomp
