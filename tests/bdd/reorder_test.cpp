#include "oracles/reorder_oracle.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>

#include "tt/truth_table.hpp"

namespace hyde::bdd {
namespace {

using hyde::tt::TruthTable;

/// The classic reordering example: OR of disjoint ANDs a_i & b_i. With the
/// blocked order a0..a(n-1) b0..b(n-1) the BDD is exponential; interleaved
/// it is linear.
Bdd blocked_and_or(Manager& mgr, int pairs) {
  Bdd f = mgr.zero();
  for (int i = 0; i < pairs; ++i) {
    f = f | (mgr.var(i) & mgr.var(pairs + i));
  }
  return f;
}

TEST(Reorder, SiftingShrinksTheAndOrPattern) {
  Manager mgr(12);
  const Bdd f = blocked_and_or(mgr, 6);
  const auto result = sift_order(mgr, f, 3);
  // Blocked order: 2^(n+1)-2 nodes for n pairs (126); interleaved: 2n+... a
  // handful. Sifting must find something close to the interleaved optimum.
  EXPECT_GT(result.initial_nodes, 60u);
  EXPECT_LT(result.final_nodes, 20u);
  EXPECT_LE(result.final_nodes, result.initial_nodes);
  // The order is a permutation of the support.
  std::vector<int> sorted = result.order;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, mgr.support(f));
}

TEST(Reorder, ApplyOrderPreservesSemantics) {
  Manager mgr(12);
  const Bdd f = blocked_and_or(mgr, 5);
  const auto result = sift_order(mgr, f, 2);
  Manager target(static_cast<int>(result.order.size()));
  const Bdd moved = apply_order(f, target, result.order);
  // Evaluate both on all assignments.
  for (std::uint64_t m = 0; m < 1024; ++m) {
    std::vector<bool> src_assign(12, false);
    std::vector<bool> dst_assign(result.order.size(), false);
    for (std::size_t level = 0; level < result.order.size(); ++level) {
      const bool v = ((m >> level) & 1) != 0;
      dst_assign[level] = v;
      src_assign[static_cast<std::size_t>(result.order[level])] = v;
    }
    EXPECT_EQ(mgr.eval(f, src_assign), target.eval(moved, dst_assign)) << m;
  }
}

TEST(Reorder, CountUnderOrderMatchesTransfer) {
  Manager mgr(8);
  std::mt19937_64 rng(9);
  const Bdd f = mgr.from_truth_table(TruthTable::from_lambda(
      8, [&rng](std::uint64_t) { return (rng() % 3) == 0; }));
  const auto support = mgr.support(f);
  EXPECT_EQ(node_count_under_order(mgr, f, support), mgr.node_count(f));
}

TEST(Reorder, ToTruthTableFollowsTheRequestedOrderAfterSifting) {
  // to_truth_table builds in the manager's current order and swaps into the
  // caller's: check every minterm against eval after a sift moved the order,
  // for shuffled variable lists that include a variable outside the support.
  std::mt19937_64 rng(19);
  for (int n : {4, 10, 12}) {
    Manager mgr(n + 1);
    // The blocked AND-OR core makes sifting move variables; the sparse
    // random term keeps the function irregular.
    const Bdd f = blocked_and_or(mgr, n / 2) ^
                  mgr.from_truth_table(TruthTable::from_lambda(
                      n, [&rng](std::uint64_t) { return (rng() % 64) == 0; }));
    mgr.reorder_sift();
    if (n >= 10) {
      std::vector<int> identity(mgr.current_order().size());
      for (std::size_t l = 0; l < identity.size(); ++l) {
        identity[l] = static_cast<int>(l);
      }
      ASSERT_NE(mgr.current_order(), identity) << "sift left the order alone";
    }
    std::vector<int> vars(static_cast<std::size_t>(n + 1));
    for (int v = 0; v <= n; ++v) vars[static_cast<std::size_t>(v)] = v;
    for (int trial = 0; trial < 4; ++trial) {
      std::shuffle(vars.begin(), vars.end(), rng);
      const TruthTable table = mgr.to_truth_table(f, vars);
      for (std::uint64_t m = 0; m < table.size(); ++m) {
        std::vector<bool> assignment(static_cast<std::size_t>(n + 1), false);
        for (int i = 0; i <= n; ++i) {
          assignment[static_cast<std::size_t>(vars[static_cast<std::size_t>(
              i)])] = ((m >> i) & 1) != 0;
        }
        ASSERT_EQ(table.bit(m), mgr.eval(f, assignment))
            << "n=" << n << " minterm " << m;
      }
    }
  }
}

TEST(Reorder, SmallSupportsAreNoOps) {
  Manager mgr(4);
  const Bdd f = mgr.var(0) & mgr.var(2);
  const auto result = sift_order(mgr, f);
  EXPECT_EQ(result.initial_nodes, result.final_nodes);
  EXPECT_EQ(result.order, (std::vector<int>{0, 2}));
}

TEST(Reorder, NeverIncreasesNodeCount) {
  std::mt19937_64 rng(10);
  for (int trial = 0; trial < 6; ++trial) {
    Manager mgr(10);
    const Bdd f = mgr.from_truth_table(TruthTable::from_lambda(
        10, [&rng](std::uint64_t) { return (rng() & 7) == 0; }));
    const auto result = sift_order(mgr, f, 1);
    EXPECT_LE(result.final_nodes, result.initial_nodes) << trial;
    EXPECT_EQ(node_count_under_order(mgr, f, result.order), result.final_nodes);
  }
}

/// The former Manager::from_truth_table: Shannon recursion over the table
/// variables in ascending manager level, one call per minterm leaf.
Bdd from_truth_table_by_shannon(Manager& mgr, const TruthTable& table,
                                const std::vector<int>& var_map) {
  const int n = table.num_vars();
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return mgr.level_of(var_map[static_cast<std::size_t>(a)]) <
           mgr.level_of(var_map[static_cast<std::size_t>(b)]);
  });
  std::function<Bdd(int, std::uint64_t)> rec = [&](int depth,
                                                   std::uint64_t offset) {
    if (depth == n) return table.bit(offset) ? mgr.one() : mgr.zero();
    const int tv = order[static_cast<std::size_t>(depth)];
    const Bdd lo = rec(depth + 1, offset);
    const Bdd hi = rec(depth + 1, offset | (std::uint64_t{1} << tv));
    return mgr.ite(mgr.var(var_map[static_cast<std::size_t>(tv)]), hi, lo);
  };
  return rec(0, 0);
}

TEST(Reorder, FromTruthTableMatchesTheShannonRecursion) {
  // Random tables of every density (all-0 and all-1 sub-tables included)
  // under permuted var_maps, in a manager whose order sifting has moved.
  std::mt19937_64 rng(23);
  Manager mgr(16);
  const Bdd anchor = blocked_and_or(mgr, 8);
  mgr.reorder_sift();
  std::vector<int> levels(16);
  for (int v = 0; v < 16; ++v) {
    levels[static_cast<std::size_t>(v)] = mgr.level_of(v);
  }
  std::vector<int> identity = levels;
  std::sort(identity.begin(), identity.end());
  ASSERT_NE(levels, identity) << "sifting left the identity order";
  for (int n = 0; n <= 12; ++n) {
    for (const int density : {1, 2, 8, 64}) {
      std::vector<int> var_map(16);
      for (int v = 0; v < 16; ++v) var_map[static_cast<std::size_t>(v)] = v;
      std::shuffle(var_map.begin(), var_map.end(), rng);
      var_map.resize(static_cast<std::size_t>(n));
      const TruthTable table = TruthTable::from_lambda(
          n, [&](std::uint64_t) { return rng() % density == 0; });
      const Bdd got = mgr.from_truth_table(table, var_map);
      EXPECT_EQ(got.id(), from_truth_table_by_shannon(mgr, table, var_map).id())
          << "n=" << n << " density 1/" << density;
      EXPECT_EQ(mgr.to_truth_table(got, var_map), table);
    }
  }
  EXPECT_FALSE(anchor.is_zero());
}

TEST(Reorder, RejectsForeignHandles) {
  Manager a(4), b(4);
  const Bdd f = b.var(0);
  EXPECT_THROW(sift_order(a, f), std::invalid_argument);
}

}  // namespace
}  // namespace hyde::bdd
