/// \file chart_cut_test.cpp
/// \brief Randomized cross-checks of the cut-based chart enumeration against
/// the recursive-cofactor reference: identical columns, identical order,
/// identical minterm grouping and indicators, on completely and incompletely
/// specified functions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>

#include "decomp/chart.hpp"
#include "oracles/chart_oracle.hpp"
#include "tt/truth_table.hpp"

namespace hyde::decomp {
namespace {

using hyde::bdd::Bdd;
using hyde::bdd::Manager;
using hyde::tt::TruthTable;

Bdd random_bdd(Manager& mgr, int num_vars, std::mt19937_64& rng) {
  const TruthTable table = TruthTable::from_lambda(
      num_vars, [&rng](std::uint64_t) { return (rng() & 1) != 0; });
  return mgr.from_truth_table(table);
}

DecompSpec make_spec(Manager& mgr, const Bdd& on, const Bdd& dc,
                     std::vector<int> bound, std::vector<int> free) {
  DecompSpec spec;
  spec.mgr = &mgr;
  spec.f = IsfBdd{on, dc};
  spec.bound = std::move(bound);
  spec.free = std::move(free);
  return spec;
}

/// Columns must agree field-for-field: same order, same canonical pattern
/// nodes, same indicators, same minterm lists element-for-element.
void expect_same_columns(const std::vector<Column>& cut,
                         const std::vector<Column>& ref) {
  ASSERT_EQ(cut.size(), ref.size());
  for (std::size_t c = 0; c < cut.size(); ++c) {
    EXPECT_EQ(cut[c].pattern.on, ref[c].pattern.on) << "column " << c;
    EXPECT_EQ(cut[c].pattern.dc, ref[c].pattern.dc) << "column " << c;
    EXPECT_EQ(cut[c].indicator, ref[c].indicator) << "column " << c;
    EXPECT_EQ(cut[c].minterms, ref[c].minterms) << "column " << c;
  }
}

TEST(ChartCut, MatchesRecursiveOnRandomFunctions) {
  std::mt19937_64 rng(2026);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 3 + static_cast<int>(rng() % 6);  // 3..8 variables
    Manager mgr(n);
    const Bdd on = random_bdd(mgr, n, rng);
    const int bound_size = 1 + static_cast<int>(rng() % (n - 1));
    std::vector<int> bound, free;
    for (int v = 0; v < n; ++v) {
      (v < bound_size ? bound : free).push_back(v);
    }
    const auto spec = make_spec(mgr, on, mgr.zero(), bound, free);
    expect_same_columns(enumerate_columns(spec),
                        enumerate_columns_recursive(spec));
  }
}

TEST(ChartCut, MatchesRecursiveOnRandomIsfs) {
  std::mt19937_64 rng(4098);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 3 + static_cast<int>(rng() % 5);  // 3..7 variables
    Manager mgr(n);
    const Bdd raw_on = random_bdd(mgr, n, rng);
    const Bdd raw_dc = random_bdd(mgr, n, rng);
    const Bdd dc = raw_dc & ~raw_on;  // keep the ISF consistent
    const int bound_size = 1 + static_cast<int>(rng() % (n - 1));
    std::vector<int> bound, free;
    for (int v = 0; v < n; ++v) {
      (v < bound_size ? bound : free).push_back(v);
    }
    const auto spec = make_spec(mgr, raw_on, dc, bound, free);
    expect_same_columns(enumerate_columns(spec),
                        enumerate_columns_recursive(spec));
  }
}

TEST(ChartCut, MatchesRecursiveOnScatteredBoundSets) {
  // Bound variables interleaved with free ones (the transfer has to reorder),
  // exercising non-contiguous var maps in both directions.
  std::mt19937_64 rng(777);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 5 + static_cast<int>(rng() % 3);  // 5..7 variables
    Manager mgr(n);
    const Bdd on = random_bdd(mgr, n, rng);
    std::vector<int> perm(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) perm[static_cast<std::size_t>(v)] = v;
    std::shuffle(perm.begin(), perm.end(), rng);
    const int bound_size = 2 + static_cast<int>(rng() % 3);
    std::vector<int> bound(perm.begin(), perm.begin() + bound_size);
    std::vector<int> free(perm.begin() + bound_size, perm.end());
    const auto spec = make_spec(mgr, on, mgr.zero(), bound, free);
    expect_same_columns(enumerate_columns(spec),
                        enumerate_columns_recursive(spec));
  }
}

TEST(ChartCut, IncompleteFreeListStillCoversSupport) {
  // Callers may pass a free list that misses support variables (the
  // recursive reference never looks at `free`); the cut path must map the
  // stragglers below the cut on its own.
  Manager mgr(5);
  const Bdd f = (mgr.var(0) & mgr.var(2)) ^ (mgr.var(3) | mgr.var(4));
  auto spec = make_spec(mgr, f, mgr.zero(), {0, 2}, {3});  // 4 missing
  expect_same_columns(enumerate_columns(spec),
                      enumerate_columns_recursive(spec));
}

TEST(ChartCut, SkipsMintermsOnRequest) {
  Manager mgr(4);
  const Bdd f = mgr.var(0) ^ mgr.var(1) ^ mgr.var(2) ^ mgr.var(3);
  auto spec = make_spec(mgr, f, mgr.zero(), {0, 1}, {2, 3});
  spec.include_minterms = false;
  const auto columns = enumerate_columns(spec);
  ASSERT_EQ(columns.size(), 2u);
  for (const Column& c : columns) {
    EXPECT_TRUE(c.minterms.empty());
    EXPECT_FALSE(c.indicator.is_zero());  // indicators still materialized
  }
}

TEST(ChartCutCount, CountMatchesRecursiveUpToMaxBoundVars) {
  // Satellite property test: count_columns (cut-based) == the recursive
  // reference on random ISFs, with bound sets up to kMaxBoundVars.
  std::mt19937_64 rng(31337);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 4 + static_cast<int>(rng() % 7);  // 4..10 variables
    Manager mgr(kMaxBoundVars + 2);
    const Bdd raw_on = random_bdd(mgr, n, rng);
    const Bdd dc = random_bdd(mgr, n, rng) & ~raw_on;
    const int bound_size =
        1 + static_cast<int>(rng() % static_cast<std::uint64_t>(n));
    std::vector<int> bound, free;
    for (int v = 0; v < n; ++v) {
      (v < bound_size ? bound : free).push_back(v);
    }
    const auto spec = make_spec(mgr, raw_on, dc, bound, free);
    EXPECT_EQ(count_columns(spec), count_columns_recursive(spec));
  }
  // And the kMaxBoundVars edge itself: a parity over 16 bound variables has
  // exactly two columns however it is counted.
  Manager mgr(kMaxBoundVars + 1);
  Bdd parity = mgr.var(kMaxBoundVars);
  std::vector<int> bound;
  for (int v = 0; v < kMaxBoundVars; ++v) {
    parity = parity ^ mgr.var(v);
    bound.push_back(v);
  }
  const auto spec =
      make_spec(mgr, parity, mgr.zero(), bound, {kMaxBoundVars});
  EXPECT_EQ(count_columns(spec), 2);
}

TEST(ChartCut, EmptyBoundSetYieldsOneColumn) {
  Manager mgr(3);
  const Bdd f = mgr.var(0) & mgr.var(2);
  const auto spec = make_spec(mgr, f, mgr.zero(), {}, {0, 1, 2});
  const auto cut = enumerate_columns(spec);
  expect_same_columns(cut, enumerate_columns_recursive(spec));
  ASSERT_EQ(cut.size(), 1u);
  EXPECT_TRUE(cut[0].indicator.is_one());
  EXPECT_EQ(cut[0].minterms, (std::vector<std::uint64_t>{0}));
}

TEST(ChartCut, FullBoundSetMatchesRecursive) {
  std::mt19937_64 rng(99);
  Manager mgr(4);
  const Bdd f = random_bdd(mgr, 4, rng);
  const auto spec = make_spec(mgr, f, mgr.zero(), {0, 1, 2, 3}, {});
  expect_same_columns(enumerate_columns(spec),
                      enumerate_columns_recursive(spec));
}

TEST(ChartCut, MintermCubeBuildsCorrectCubes) {
  // The descending-order rebuild must keep the documented semantics: bit i
  // of the minterm corresponds to vars[i], in whatever order vars arrive.
  Manager mgr(6);
  const std::vector<int> vars = {4, 1, 3};  // deliberately unsorted
  const Bdd cube = minterm_cube(mgr, vars, 0b101);  // x4=1, x1=0, x3=1
  EXPECT_EQ(cube, mgr.var(4) & mgr.nvar(1) & mgr.var(3));
  EXPECT_EQ(minterm_cube(mgr, {}, 0), mgr.one());
}

}  // namespace
}  // namespace hyde::decomp
