#include "decomp/search.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "tt/truth_table.hpp"

namespace hyde::decomp {
namespace {

using hyde::bdd::Bdd;
using hyde::bdd::Manager;
using hyde::tt::TruthTable;

TEST(VarPartition, FindsPerfectBoundSetForTwoBlockFunction) {
  // f = (x0&x1&x2) ^ (x3 | x4 | x5): bound {0,1,2} yields exactly 2 classes
  // (the AND is 0 or 1), the ideal single-alpha decomposition.
  Manager mgr(6);
  const Bdd f =
      (mgr.var(0) & mgr.var(1) & mgr.var(2)) ^ (mgr.var(3) | mgr.var(4) | mgr.var(5));
  VarPartitionOptions options;
  options.bound_size = 3;
  const auto result =
      BoundSetSearch(mgr).select(IsfBdd{f, mgr.zero()}, mgr.support(f),
                                 options);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.num_classes, 2);
  EXPECT_EQ(result.code_bits(), 1);
  // Either block works; both give 2 classes. Bound+free partition support.
  std::vector<int> all = result.bound;
  all.insert(all.end(), result.free.begin(), result.free.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(VarPartition, RespectsAvoidList) {
  Manager mgr(6);
  const Bdd f =
      (mgr.var(0) & mgr.var(1) & mgr.var(2)) ^ (mgr.var(3) | mgr.var(4) | mgr.var(5));
  VarPartitionOptions options;
  options.bound_size = 3;
  options.avoid = {0, 1, 2};
  const auto result =
      BoundSetSearch(mgr).select(IsfBdd{f, mgr.zero()}, mgr.support(f),
                                 options);
  ASSERT_TRUE(result.success);
  // The avoided variables stay in the free set (enough others exist).
  for (int v : {0, 1, 2}) {
    EXPECT_EQ(std::find(result.bound.begin(), result.bound.end(), v),
              result.bound.end());
  }
  EXPECT_EQ(result.num_classes, 2);  // OR block also gives 2 classes
}

TEST(VarPartition, AvoidedVariablesUsedOnlyWhenNecessary) {
  Manager mgr(4);
  const Bdd f = mgr.var(0) ^ mgr.var(1) ^ mgr.var(2) ^ mgr.var(3);
  VarPartitionOptions options;
  options.bound_size = 3;
  options.avoid = {0, 1};  // only 2 non-avoided variables remain
  const auto result =
      BoundSetSearch(mgr).select(IsfBdd{f, mgr.zero()}, mgr.support(f),
                                 options);
  ASSERT_TRUE(result.success);
  // Bound set must contain both preferred vars and exactly one avoided var.
  int avoided_used = 0;
  for (int v : result.bound) {
    if (v == 0 || v == 1) ++avoided_used;
  }
  EXPECT_EQ(avoided_used, 1);
}

TEST(VarPartition, FailsWhenBoundLargerThanSupport) {
  Manager mgr(3);
  const Bdd f = mgr.var(0) & mgr.var(1);
  VarPartitionOptions options;
  options.bound_size = 3;
  const auto result =
      BoundSetSearch(mgr).select(IsfBdd{f, mgr.zero()}, mgr.support(f),
                                 options);
  EXPECT_FALSE(result.success);
}

TEST(VarPartition, NontrivialityConstraint) {
  // A function with no good 2-bound decomposition: 2 bound vars always give
  // 4 distinct columns -> code_bits == bound size -> trivial.
  Manager mgr(4);
  // Build a function whose every 2-variable bound set yields 4 classes:
  // "hidden weighted bit"-like mixing.
  const TruthTable t = TruthTable::from_lambda(4, [](std::uint64_t m) {
    const int w = static_cast<int>((m & 1) + ((m >> 1) & 1) + ((m >> 2) & 1) +
                                   ((m >> 3) & 1));
    return ((m >> (w == 0 ? 0 : (w - 1) % 4)) & 1) != 0;
  });
  const Bdd f = mgr.from_truth_table(t);
  VarPartitionOptions strict_options;
  strict_options.bound_size = 2;
  strict_options.require_nontrivial = true;
  const auto strict = BoundSetSearch(mgr).select(
      IsfBdd{f, mgr.zero()}, mgr.support(f), strict_options);
  VarPartitionOptions loose_options = strict_options;
  loose_options.require_nontrivial = false;
  const auto loose = BoundSetSearch(mgr).select(
      IsfBdd{f, mgr.zero()}, mgr.support(f), loose_options);
  ASSERT_TRUE(loose.success);
  // Consistency: strict succeeds iff the best bound set found is nontrivial.
  EXPECT_EQ(strict.success, loose.code_bits() < 2);
}

TEST(VarPartition, GreedyNeverWorseThanWorstCase) {
  std::mt19937_64 rng(9);
  for (int trial = 0; trial < 6; ++trial) {
    Manager mgr(7);
    const Bdd f = mgr.from_truth_table(TruthTable::from_lambda(
        7, [&rng](std::uint64_t) { return (rng() & 1) != 0; }));
    VarPartitionOptions options;
    options.bound_size = 3;
    options.require_nontrivial = false;
    const auto result =
        BoundSetSearch(mgr).select(IsfBdd{f, mgr.zero()}, mgr.support(f),
                                 options);
    ASSERT_TRUE(result.success);
    EXPECT_LE(result.num_classes, 8);  // can never exceed 2^|bound|
    EXPECT_GE(result.num_classes, 1);
    EXPECT_EQ(result.bound.size(), 3u);
  }
}

TEST(VarPartition, OversizedBoundThrows) {
  Manager mgr(2);
  VarPartitionOptions options;
  options.bound_size = kMaxBoundVars + 1;
  std::vector<int> support(kMaxBoundVars + 2);
  for (std::size_t i = 0; i < support.size(); ++i) support[i] = static_cast<int>(i);
  EXPECT_THROW(BoundSetSearch(mgr).select(IsfBdd{mgr.zero(), mgr.zero()},
                                          support, options),
               std::invalid_argument);
}

}  // namespace
}  // namespace hyde::decomp
