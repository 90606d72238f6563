/// \file search_reorder_test.cpp
/// \brief Bound-set search and charts under reordering: an engine's select
/// must return the identical partition after a reorder of the source
/// manager, the column counts the chart layer computes must be invariant
/// under the variable order, and the truth-table chart built from a
/// reordered manager must agree with the cofactor walk.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

#include "decomp/chart.hpp"
#include "decomp/compatible.hpp"
#include "decomp/search.hpp"
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

void expect_same_result(const VarPartitionResult& a,
                        const VarPartitionResult& b, const char* what) {
  EXPECT_EQ(a.success, b.success) << what;
  EXPECT_EQ(a.bound, b.bound) << what;
  EXPECT_EQ(a.free, b.free) << what;
  EXPECT_EQ(a.num_classes, b.num_classes) << what;
}

TEST(BoundSetSearchReorderTest, SelectIsIdenticalAcrossReorderSift) {
  // A select after reorder_sift must return the identical partition, on the
  // same engine, again on a repeat, and on a fresh engine: the greedy
  // decision is a function of order-invariant column counts, never of the
  // incidental node ids.
  std::mt19937_64 rng(71);
  for (int trial = 0; trial < 10; ++trial) {
    Manager mgr(8);
    const Bdd on = random_bdd(mgr, 8, rng);
    const Bdd dc = random_bdd(mgr, 8, rng) & ~on;
    const IsfBdd f{on, dc};
    const std::vector<int> support = mgr.support(on | dc);
    if (static_cast<int>(support.size()) < 5) continue;
    VarPartitionOptions options;
    options.bound_size = 3;

    BoundSetSearch engine(mgr);
    const VarPartitionResult before = engine.select(f, support, options);

    const std::uint64_t old_epoch = mgr.reorder_epoch();
    mgr.reorder_sift();
    ASSERT_GT(mgr.reorder_epoch(), old_epoch);

    const VarPartitionResult after = engine.select(f, support, options);
    expect_same_result(before, after, "select across epoch");
    expect_same_result(engine.select(f, support, options), before,
                       "repeat in new epoch");
    BoundSetSearch fresh(mgr);
    expect_same_result(fresh.select(f, support, options), before,
                       "fresh engine in new epoch");
  }
}

TEST(BoundSetSearchReorderTest, TruthTablePathMatchesTheCutPathAfterReorder) {
  // On a sifted manager the truth-table chart is built in the new order and
  // swapped into its own: its counts must still equal the cofactor walk's for
  // every bound pair and random larger sets, and a select must agree with
  // the same select before the reorder and with the BDD class count.
  std::mt19937_64 rng(74);
  int moved = 0;  // trials whose sift changed the order
  for (int trial = 0; trial < 6; ++trial) {
    const int n = 12;
    Manager mgr(n);
    const Bdd on = random_bdd(mgr, n, rng);
    const Bdd dc = mgr.from_truth_table(TruthTable::from_lambda(
                       n, [&rng](std::uint64_t) { return rng() % 8 == 0; })) &
                   ~on;
    const IsfBdd f{on, dc};
    const std::vector<int> support = mgr.support(on | dc);
    VarPartitionOptions options;
    options.bound_size = 4;
    options.require_nontrivial = false;
    BoundSetSearch before_engine(mgr);
    const VarPartitionResult before = before_engine.select(f, support, options);

    mgr.reorder_sift();
    std::vector<int> identity(mgr.current_order().size());
    std::iota(identity.begin(), identity.end(), 0);
    if (mgr.current_order() != identity) ++moved;

    TruthTableChart chart;
    ASSERT_TRUE(chart.load(mgr, f));
    DecompSpec spec;
    spec.mgr = &mgr;
    spec.f = f;
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) {
        spec.bound = {a, b};
        for (int t : {0, 2, 3}) {
          const BoundedCount table = chart.count_columns(spec.bound, t);
          const BoundedCount walk = count_columns_bounded(spec, t);
          EXPECT_EQ(table.count, walk.count) << a << "," << b << " t=" << t;
          EXPECT_EQ(table.pruned, walk.pruned) << a << "," << b << " t=" << t;
        }
      }
    }
    std::vector<int> vars = support;
    for (int round = 0; round < 8; ++round) {
      std::shuffle(vars.begin(), vars.end(), rng);
      spec.bound.assign(vars.begin(), vars.begin() + 5);
      EXPECT_EQ(chart.count_columns(spec.bound, 0).count,
                count_columns_bounded(spec, 0).count);
      EXPECT_EQ(count_compatible_classes(chart, spec.bound),
                count_compatible_classes(spec));
    }

    BoundSetSearch engine(mgr);
    const VarPartitionResult after = engine.select(f, support, options);
    expect_same_result(after, before, "select on the sifted manager");
    EXPECT_EQ(engine.stats().candidates_tt,
              engine.stats().candidates_evaluated);
    spec.bound = after.bound;
    EXPECT_EQ(after.num_classes, count_compatible_classes(spec));
  }
  EXPECT_GT(moved, 0);
}

TEST(ChartReorderTest, ColumnCountsAreOrderInvariant) {
  // Both chart paths (the cofactor walk and the truth-table chart) must
  // count the same number of distinct columns whatever order the manager
  // currently holds — this is the property that makes the flow's results
  // independent of when auto-reorder happens to fire.
  std::mt19937_64 rng(73);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 6 + static_cast<int>(rng() % 3);
    Manager mgr(n);
    const Bdd on = random_bdd(mgr, n, rng);
    const Bdd dc = random_bdd(mgr, n, rng) & ~on;
    DecompSpec spec;
    spec.mgr = &mgr;
    spec.f = IsfBdd{on, dc};
    const int bound_size = 2 + static_cast<int>(rng() % 3);
    for (int v = 0; v < bound_size; ++v) spec.bound.push_back(v);
    const auto table_count = [&spec] {
      TruthTableChart chart;
      EXPECT_TRUE(chart.load(*spec.mgr, spec.f));
      return chart.count_columns(spec.bound, 0).count;
    };
    const int walk_before = count_columns(spec);
    const int table_before = table_count();
    EXPECT_EQ(walk_before, table_before);

    mgr.reorder_sift();

    EXPECT_EQ(count_columns(spec), walk_before) << "trial " << trial;
    EXPECT_EQ(table_count(), table_before) << "trial " << trial;
    const BoundedCount bounded = count_columns_bounded(spec, 0);
    EXPECT_FALSE(bounded.pruned);
    EXPECT_EQ(bounded.count, walk_before);
  }
}

}  // namespace
}  // namespace hyde::decomp
