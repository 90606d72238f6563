/// \file chart_cut_test.cpp
/// \brief Randomized cross-checks of the cofactor-walk chart enumeration
/// against an independent reference, the truth-table chart loaded past its
/// search limit: identical columns in identical order, identical patterns
/// and indicators node for node, and identical counts and pruning verdicts
/// at every threshold, on completely and incompletely specified functions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>

#include "decomp/chart.hpp"
#include "decomp/compatible.hpp"
#include "tt/truth_table.hpp"

namespace hyde::decomp {
namespace {

using hyde::bdd::Bdd;
using hyde::bdd::Manager;
using hyde::tt::TruthTable;

/// Support limit of the reference tables: past every function built here.
constexpr int kReferenceMaxVars = 24;

Bdd random_bdd(Manager& mgr, int num_vars, std::mt19937_64& rng) {
  const TruthTable table = TruthTable::from_lambda(
      num_vars, [&rng](std::uint64_t) { return (rng() & 1) != 0; });
  return mgr.from_truth_table(table);
}

DecompSpec make_spec(Manager& mgr, const Bdd& on, const Bdd& dc,
                     std::vector<int> bound) {
  DecompSpec spec;
  spec.mgr = &mgr;
  spec.f = IsfBdd{on, dc};
  spec.bound = std::move(bound);
  return spec;
}

/// The chart of \p spec checked against a truth-table chart of spec.f:
/// count_columns and count_columns_bounded at every threshold give the
/// table's counts and verdicts, and enumerate_columns gives the layout's
/// columns (turned into BDDs by build_classes) in the same order, pattern
/// and indicator node for node. Returns the enumerated columns.
std::vector<Column> expect_matches_table(const DecompSpec& spec) {
  TruthTableChart chart;
  EXPECT_TRUE(chart.load(*spec.mgr, spec.f, kReferenceMaxVars));
  const int exact = chart.count_columns(spec.bound, 0).count;
  EXPECT_EQ(count_columns(spec), exact);
  for (int t = 0; t <= exact + 1; ++t) {
    const BoundedCount walk = count_columns_bounded(spec, t);
    const BoundedCount table = chart.count_columns(spec.bound, t);
    EXPECT_EQ(walk.count, table.count) << "t=" << t;
    EXPECT_EQ(walk.pruned, table.pruned) << "t=" << t;
  }
  const std::vector<Column> columns = enumerate_columns(spec);
  const std::vector<Column> ref =
      build_classes(*spec.mgr, chart.layout(spec.bound), {}).columns;
  EXPECT_EQ(columns.size(), ref.size());
  for (std::size_t c = 0; c < std::min(columns.size(), ref.size()); ++c) {
    EXPECT_EQ(columns[c].pattern.on, ref[c].pattern.on) << "column " << c;
    EXPECT_EQ(columns[c].pattern.dc, ref[c].pattern.dc) << "column " << c;
    EXPECT_EQ(columns[c].indicator, ref[c].indicator) << "column " << c;
  }
  return columns;
}

TEST(ChartCut, MatchesRecursiveOnRandomFunctions) {
  std::mt19937_64 rng(2026);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 3 + static_cast<int>(rng() % 6);  // 3..8 variables
    Manager mgr(n);
    const Bdd on = random_bdd(mgr, n, rng);
    const int bound_size = 1 + static_cast<int>(rng() % (n - 1));
    std::vector<int> bound;
    for (int v = 0; v < bound_size; ++v) bound.push_back(v);
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_matches_table(make_spec(mgr, on, mgr.zero(), bound));
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
    std::vector<int> bound;
    for (int v = 0; v < bound_size; ++v) bound.push_back(v);
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_matches_table(make_spec(mgr, raw_on, dc, bound));
  }
}

TEST(ChartCut, MatchesRecursiveOnScatteredBoundSets) {
  // Bound variables interleaved with free ones and listed out of order: the
  // walk assigns bound[0] first, so the column order follows the list, not
  // the variable indices.
  std::mt19937_64 rng(777);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 5 + static_cast<int>(rng() % 3);  // 5..7 variables
    Manager mgr(n);
    const Bdd on = random_bdd(mgr, n, rng);
    std::vector<int> perm(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) perm[static_cast<std::size_t>(v)] = v;
    std::shuffle(perm.begin(), perm.end(), rng);
    const int bound_size = 2 + static_cast<int>(rng() % 3);
    const std::vector<int> bound(perm.begin(), perm.begin() + bound_size);
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_matches_table(make_spec(mgr, on, mgr.zero(), bound));
  }
}

TEST(ChartCutCount, CountMatchesRecursiveUpToMaxBoundVars) {
  // count_columns equals the table count on random ISFs, with bound sets up
  // to kMaxBoundVars.
  std::mt19937_64 rng(31337);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 4 + static_cast<int>(rng() % 7);  // 4..10 variables
    Manager mgr(kMaxBoundVars + 2);
    const Bdd raw_on = random_bdd(mgr, n, rng);
    const Bdd dc = random_bdd(mgr, n, rng) & ~raw_on;
    const int bound_size =
        1 + static_cast<int>(rng() % static_cast<std::uint64_t>(n));
    std::vector<int> bound;
    for (int v = 0; v < bound_size; ++v) bound.push_back(v);
    const auto spec = make_spec(mgr, raw_on, dc, bound);
    TruthTableChart chart;
    ASSERT_TRUE(chart.load(mgr, spec.f, kReferenceMaxVars));
    EXPECT_EQ(count_columns(spec), chart.count_columns(bound, 0).count)
        << "trial " << trial;
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
  const auto spec = make_spec(mgr, parity, mgr.zero(), bound);
  EXPECT_EQ(count_columns(spec), 2);
  EXPECT_EQ(expect_matches_table(spec).size(), 2u);
}

TEST(ChartCut, EmptyBoundSetYieldsOneColumn) {
  Manager mgr(3);
  const Bdd f = mgr.var(0) & mgr.var(2);
  const auto cut = expect_matches_table(make_spec(mgr, f, mgr.zero(), {}));
  ASSERT_EQ(cut.size(), 1u);
  EXPECT_TRUE(cut[0].indicator.is_one());
  EXPECT_EQ(cut[0].pattern.on, f);
}

TEST(ChartCut, FullBoundSetMatchesRecursive) {
  std::mt19937_64 rng(99);
  Manager mgr(4);
  const Bdd f = random_bdd(mgr, 4, rng);
  expect_matches_table(make_spec(mgr, f, mgr.zero(), {0, 1, 2, 3}));
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
