/// \file sift_test.cpp
/// \brief In-place dynamic reordering: swap/sift correctness, the
/// rebuild-under-order oracle, epoch publication, governance triggers and
/// transfer from a reordered source.

#include <cstdint>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "bdd/bdd.hpp"
#include "bdd/transfer.hpp"
#include "oracles/reorder_oracle.hpp"

namespace hyde::bdd {
namespace {

/// OR of AND pairs (x_i & x_{pairs+i}): exponential under the blocked
/// identity order, linear when the pairs interleave — the canonical sifting
/// fixture (mirrors reorder_test.cpp).
Bdd blocked_and_or(Manager& mgr, int pairs) {
  Bdd f = mgr.zero();
  for (int i = 0; i < pairs; ++i) {
    f = f | (mgr.var(i) & mgr.var(pairs + i));
  }
  return f;
}

/// Nodes of f per *level* of its manager, by public-handle traversal.
std::map<int, std::size_t> level_histogram(Manager& mgr, const Bdd& f) {
  std::map<int, std::size_t> histogram;
  std::vector<std::uint32_t> seen;
  std::vector<Bdd> stack{f};
  while (!stack.empty()) {
    const Bdd cur = stack.back();
    stack.pop_back();
    if (cur.is_constant()) continue;
    bool visited = false;
    for (const std::uint32_t id : seen) visited = visited || id == cur.id();
    if (visited) continue;
    seen.push_back(cur.id());
    ++histogram[mgr.level_of(cur.top_var())];
    stack.push_back(cur.low());
    stack.push_back(cur.high());
  }
  return histogram;
}

TEST(ReorderInPlaceTest, SiftShrinksTheBlockedPatternByAQuarter) {
  Manager mgr(16);
  const Bdd f = blocked_and_or(mgr, 8);
  const std::size_t before = mgr.node_count(f);
  mgr.reorder_sift();
  const std::size_t after = mgr.node_count(f);
  EXPECT_GT(before, 250u);  // ~2^(p+1) under the blocked order
  EXPECT_LT(after, 30u);    // ~3p interleaved
  EXPECT_LE(after * 4, before * 3) << "expected at least a 25% reduction";
}

TEST(ReorderInPlaceTest, HandlesKeepTheirIdsAndSemantics) {
  Manager mgr(8);
  const int pairs = 4;
  const Bdd f = blocked_and_or(mgr, pairs);
  const std::uint32_t id_before = f.id();
  mgr.reorder_sift();
  EXPECT_EQ(f.id(), id_before);
  // Exhaustive oracle evaluation over all 2^8 assignments.
  for (int m = 0; m < 1 << (2 * pairs); ++m) {
    std::vector<bool> assignment(static_cast<std::size_t>(2 * pairs));
    bool expected = false;
    for (int i = 0; i < 2 * pairs; ++i) {
      assignment[static_cast<std::size_t>(i)] = ((m >> i) & 1) != 0;
    }
    for (int i = 0; i < pairs; ++i) {
      expected = expected || (assignment[static_cast<std::size_t>(i)] &&
                              assignment[static_cast<std::size_t>(pairs + i)]);
    }
    EXPECT_EQ(mgr.eval(f, assignment), expected) << "assignment " << m;
  }
}

TEST(ReorderInPlaceTest, MatchesTheRebuildOracleLevelForLevel) {
  Manager mgr(16);
  const Bdd f = blocked_and_or(mgr, 6);
  mgr.reorder_sift();
  // Project the manager order onto f's support (apply_order places
  // order[level] at target level base+level, support vars only).
  std::vector<int> support_order;
  for (int level = 0; level < mgr.num_vars(); ++level) {
    const int var = mgr.var_at(level);
    for (const int s : mgr.support(f)) {
      if (s == var) support_order.push_back(var);
    }
  }
  Manager oracle(mgr.num_vars());
  const Bdd rebuilt = apply_order(f, oracle, support_order);
  ASSERT_EQ(oracle.node_count(rebuilt), mgr.node_count(f))
      << "in-place DAG and rebuild-under-order DAG differ in size";
  // Level-for-level: the i-th support level holds the same number of nodes.
  const auto in_place = level_histogram(mgr, f);
  const auto oracle_hist = level_histogram(oracle, rebuilt);
  std::vector<std::size_t> in_place_sizes;
  for (const auto& [level, count] : in_place) in_place_sizes.push_back(count);
  std::vector<std::size_t> oracle_sizes;
  for (const auto& [level, count] : oracle_hist) oracle_sizes.push_back(count);
  EXPECT_EQ(in_place_sizes, oracle_sizes);
}

TEST(ReorderInPlaceTest, ReachesTheSameCountAsTheTransferOracle) {
  // Both sifters should find the interleaved optimum for the pair pattern.
  Manager oracle_mgr(16);
  const Bdd g = blocked_and_or(oracle_mgr, 6);
  const ReorderResult oracle = sift_order(oracle_mgr, g);

  Manager mgr(16);
  const Bdd f = blocked_and_or(mgr, 6);
  mgr.reorder_sift();
  EXPECT_EQ(mgr.node_count(f), oracle.final_nodes);
}

TEST(ReorderInPlaceTest, PublishesTheEpochAndClearsNothingElse) {
  Manager mgr(8);
  const Bdd f = blocked_and_or(mgr, 4);
  EXPECT_EQ(mgr.reorder_epoch(), 0u);
  EXPECT_EQ(mgr.reorder_runs(), 0);
  mgr.reorder_sift();
  EXPECT_EQ(mgr.reorder_epoch(), 1u);
  EXPECT_EQ(mgr.reorder_runs(), 1);
  mgr.reorder_sift();
  EXPECT_EQ(mgr.reorder_epoch(), 2u);
  EXPECT_TRUE(f.is_valid());
  EXPECT_EQ(mgr.stats().reorder_runs, 2);
}

TEST(ReorderInPlaceTest, AuditStaysCleanAfterReordering) {
  Manager mgr(16);
  const Bdd f = blocked_and_or(mgr, 7);
  mgr.reorder_sift();
  const InvariantReport report = mgr.audit_invariants();
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_FALSE(f.is_constant());
}

TEST(ReorderInPlaceTest, OperationsAfterReorderMatchAFreshManager) {
  Manager mgr(12);
  const Bdd f = blocked_and_or(mgr, 5);
  mgr.reorder_sift();
  // Run order-sensitive kernels on the reordered manager and compare
  // truth tables against an identity-ordered reference.
  const Bdd g = mgr.exists(f, {0, 5});
  const Bdd h = mgr.cofactor(f, 1, true);
  const Bdd k = mgr.compose(f, 2, g);

  Manager ref(12);
  const Bdd rf = blocked_and_or(ref, 5);
  const Bdd rg = ref.exists(rf, {0, 5});
  const Bdd rh = ref.cofactor(rf, 1, true);
  const Bdd rk = ref.compose(rf, 2, rg);

  const std::vector<int> vars{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(mgr.to_truth_table(g, vars).to_bits(),
            ref.to_truth_table(rg, vars).to_bits());
  EXPECT_EQ(mgr.to_truth_table(h, vars).to_bits(),
            ref.to_truth_table(rh, vars).to_bits());
  EXPECT_EQ(mgr.to_truth_table(k, vars).to_bits(),
            ref.to_truth_table(rk, vars).to_bits());
}

TEST(ReorderInPlaceTest, TransferFromAReorderedSourceIsExact) {
  Manager src(12);
  const Bdd f = blocked_and_or(src, 5);
  src.reorder_sift();
  ASSERT_GT(src.reorder_runs(), 0);

  // Identity transfer into an identity-ordered target.
  Manager target(12);
  std::vector<int> identity(12);
  for (int v = 0; v < 12; ++v) identity[static_cast<std::size_t>(v)] = v;
  const Bdd moved = transfer(f, target, identity);
  const std::vector<int> vars{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(target.to_truth_table(moved, vars).to_bits(),
            src.to_truth_table(f, vars).to_bits());

  // Renaming transfer (reverse the variables) from the reordered source.
  Manager target2(12);
  std::vector<int> reversed(12);
  for (int v = 0; v < 12; ++v) reversed[static_cast<std::size_t>(v)] = 11 - v;
  const Bdd moved2 = transfer(f, target2, reversed);
  Manager ref(12);
  const Bdd rf = blocked_and_or(ref, 5);
  const Bdd expected = transfer(rf, ref, reversed);
  const std::vector<int> all{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  EXPECT_EQ(target2.to_truth_table(moved2, all).to_bits(),
            ref.to_truth_table(expected, all).to_bits());
}

TEST(ReorderGovernanceTest, AutoModeFiresOnGrowthAndShrinksTheManager) {
  Manager mgr(32);
  mgr.set_reorder_mode(ReorderMode::kAuto, /*max_growth=*/1.5);
  // 13 pairs -> ~2^14 nodes under the blocked order, past the auto floor.
  const Bdd f = blocked_and_or(mgr, 13);
  // The trigger fires at operation entry points only; poke one so growth
  // from the tail of the construction is also governed.
  const Bdd poke = f & mgr.one();
  EXPECT_GT(mgr.reorder_runs(), 0) << "growth trigger never fired";
  // Blocked order costs ~2^14 nodes; the governed manager stays far below.
  EXPECT_LT(mgr.node_count(f), 4096u);
  EXPECT_EQ(poke, f);
  // Spot-check semantics against the definition on pseudo-random points.
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  for (int trial = 0; trial < 64; ++trial) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    std::vector<bool> assignment(26);
    bool expected = false;
    for (int i = 0; i < 26; ++i) {
      assignment[static_cast<std::size_t>(i)] = ((state >> i) & 1) != 0;
    }
    for (int i = 0; i < 13; ++i) {
      expected = expected || (assignment[static_cast<std::size_t>(i)] &&
                              assignment[static_cast<std::size_t>(13 + i)]);
    }
    EXPECT_EQ(mgr.eval(f, assignment), expected);
  }
}

TEST(ReorderGovernanceTest, SoftBudgetRunsGcThenSiftBeforeGrowingOn) {
  Manager mgr(32);
  mgr.set_reorder_mode(ReorderMode::kSift);
  mgr.set_soft_node_limit(2000);
  const Bdd f = blocked_and_or(mgr, 12);
  EXPECT_GT(mgr.gc_runs(), 0);
  EXPECT_GT(mgr.reorder_runs(), 0);
  EXPECT_FALSE(f.is_constant());
}

TEST(ReorderGovernanceTest, OffModeNeverReordersOnItsOwn) {
  Manager mgr(32);
  mgr.set_soft_node_limit(2000);  // soft budget alone: GC rung only
  const Bdd f = blocked_and_or(mgr, 12);
  EXPECT_EQ(mgr.reorder_runs(), 0);
  EXPECT_FALSE(f.is_constant());
}

TEST(ReorderGovernanceTest, SiftModeIsUntriggeredWithoutASoftBudget) {
  Manager mgr(32);
  mgr.set_reorder_mode(ReorderMode::kSift);
  const Bdd f = blocked_and_or(mgr, 12);
  EXPECT_EQ(mgr.reorder_runs(), 0);
  EXPECT_FALSE(f.is_constant());
}

TEST(ReorderGovernanceTest, RejectsBadKnobs) {
  Manager mgr(4);
  EXPECT_THROW(mgr.set_reorder_mode(ReorderMode::kAuto, 1.0),
               std::invalid_argument);
  ReorderOptions bad;
  bad.max_rounds = 0;
  EXPECT_THROW(mgr.reorder_sift(bad), std::invalid_argument);
  bad = ReorderOptions{};
  bad.sift_growth = 0.5;
  EXPECT_THROW(mgr.reorder_sift(bad), std::invalid_argument);
}

TEST(ReorderGovernanceTest, HardLimitStillFiresAboveTheLadder) {
  Manager mgr(32);
  mgr.set_reorder_mode(ReorderMode::kSift);
  mgr.set_soft_node_limit(64);
  mgr.set_node_limit(128);
  // A union of pseudo-random full-support minterms is incompressible under
  // every order: GC and sifting both fail to get below the hard cap, so the
  // ladder's last rung — std::length_error — must still fire.
  EXPECT_THROW(
      {
        Bdd f = mgr.zero();
        std::uint64_t state = 0xDEADBEEFCAFEF00Dull;
        for (int cube = 0; cube < 64; ++cube) {
          state = state * 6364136223846793005ull + 1442695040888963407ull;
          Bdd minterm = mgr.one();
          for (int v = 0; v < 20; ++v) {
            minterm = minterm &
                      (((state >> v) & 1) != 0 ? mgr.var(v) : mgr.nvar(v));
          }
          f = f | minterm;
        }
      },
      std::length_error);
}

}  // namespace
}  // namespace hyde::bdd
