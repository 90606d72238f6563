/// Semantic checks of the paper's Theorems 3.1 and 3.2, and of the column
/// counting against the truth-table chart as an independent reference.

#include <gtest/gtest.h>

#include <random>

#include "decomp/compatible.hpp"
#include "decomp/step.hpp"
#include "tt/truth_table.hpp"

namespace hyde::decomp {
namespace {

using hyde::bdd::Bdd;
using hyde::bdd::Manager;
using hyde::tt::TruthTable;

DecompSpec make_spec(Manager& mgr, const IsfBdd& f, std::vector<int> bound) {
  DecompSpec spec;
  spec.mgr = &mgr;
  spec.f = f;
  spec.bound = std::move(bound);
  return spec;
}

/// Checks count_columns, and count_columns_bounded at every threshold,
/// against a truth-table chart of spec.f.
void expect_counts_match_table(const DecompSpec& spec, int trial) {
  TruthTableChart chart;
  ASSERT_TRUE(chart.load(*spec.mgr, spec.f, 24));
  const int exact = chart.count_columns(spec.bound, 0).count;
  EXPECT_EQ(count_columns(spec), exact) << "trial " << trial;
  for (int t = 1; t <= exact + 1; ++t) {
    const BoundedCount walk = count_columns_bounded(spec, t);
    const BoundedCount table = chart.count_columns(spec.bound, t);
    EXPECT_EQ(walk.count, table.count) << "trial " << trial << " t=" << t;
    EXPECT_EQ(walk.pruned, table.pruned) << "trial " << trial << " t=" << t;
  }
}

TEST(CutCounting, MatchesEnumerationCompletelySpecified) {
  std::mt19937_64 rng(101);
  for (int trial = 0; trial < 15; ++trial) {
    const int n = 5 + static_cast<int>(rng() % 4);
    Manager mgr(n);
    const Bdd f = mgr.from_truth_table(TruthTable::from_lambda(
        n, [&rng](std::uint64_t) { return (rng() % 3) == 0; }));
    std::vector<int> bound, free;
    for (int v = 0; v < n; ++v) {
      ((rng() & 1) != 0 && static_cast<int>(bound.size()) < n - 1 ? bound : free)
          .push_back(v);
    }
    if (bound.empty()) bound.push_back(free.back()), free.pop_back();
    expect_counts_match_table(make_spec(mgr, IsfBdd{f, mgr.zero()}, bound),
                              trial);
  }
}

TEST(CutCounting, MatchesEnumerationWithDontCares) {
  std::mt19937_64 rng(202);
  for (int trial = 0; trial < 15; ++trial) {
    const int n = 6;
    Manager mgr(n);
    const Bdd on = mgr.from_truth_table(TruthTable::from_lambda(
        n, [&rng](std::uint64_t) { return (rng() % 3) == 0; }));
    const Bdd dc = mgr.from_truth_table(TruthTable::from_lambda(
                       n, [&rng](std::uint64_t) { return (rng() % 4) == 0; })) &
                   ~on;
    expect_counts_match_table(make_spec(mgr, IsfBdd{on, dc}, {0, 2, 4}),
                              trial);
  }
}

TEST(CutCounting, NonContiguousBoundSets) {
  Manager mgr(8);
  const Bdd f = (mgr.var(7) & mgr.var(0)) ^ (mgr.var(3) | mgr.var(5));
  expect_counts_match_table(make_spec(mgr, IsfBdd{f, mgr.zero()}, {0, 7}), 0);
}

TEST(Theorem31, EncodingIrrelevantWhenAlphasStayTogether) {
  // If the next decomposition's λ' contains all α variables (or none), the
  // number of compatible classes of the image is the same for every strict
  // encoding.
  std::mt19937_64 rng(303);
  for (int trial = 0; trial < 8; ++trial) {
    Manager mgr(16);
    const Bdd f = mgr.from_truth_table(TruthTable::from_lambda(
        7, [&rng](std::uint64_t) { return (rng() % 3) == 0; }));
    const auto spec = make_spec(mgr, IsfBdd{f, mgr.zero()}, {0, 1, 2});
    const auto classes = compute_compatible_classes(spec);
    if (classes.num_classes() < 3) continue;
    const int t = classes.code_bits();
    std::vector<int> alpha_vars;
    for (int j = 0; j < t; ++j) alpha_vars.push_back(10 + j);

    // λ' variants: all alphas + one free var; no alphas (free vars only).
    const std::vector<int> lambda_none{3, 4};
    std::vector<int> lambda_all = alpha_vars;
    lambda_all.push_back(3);
    const std::vector<int> lambda_all_const = lambda_all;

    std::vector<int> counts_all, counts_none;
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
      const Encoding enc = random_encoding(classes.num_classes(), seed);
      const auto step =
          build_step(mgr, classes, spec.bound, {3, 4, 5, 6}, enc, alpha_vars);
      for (const std::vector<int>* lambda : {&lambda_all_const, &lambda_none}) {
        DecompSpec next;
        next.mgr = &mgr;
        next.f = step.image;
        next.bound = *lambda;
        (lambda == &lambda_all_const ? counts_all : counts_none)
            .push_back(count_compatible_classes(next));
      }
    }
    for (std::size_t i = 1; i < counts_all.size(); ++i) {
      EXPECT_EQ(counts_all[i], counts_all[0]) << "trial " << trial;
    }
    for (std::size_t i = 1; i < counts_none.size(); ++i) {
      EXPECT_EQ(counts_none[i], counts_none[0]) << "trial " << trial;
    }
  }
}

TEST(Theorem32, ExactRowColumnCodesIrrelevant) {
  // Fix a grouping of classes into chart rows/columns; any assignment of
  // distinct codes to rows and to columns yields the same image class count
  // w.r.t. λ' = {column α bit} ∪ Y1.
  std::mt19937_64 rng(404);
  for (int trial = 0; trial < 8; ++trial) {
    Manager mgr(16);
    const Bdd f = mgr.from_truth_table(TruthTable::from_lambda(
        7, [&rng](std::uint64_t) { return (rng() & 1) != 0; }));
    const auto spec = make_spec(mgr, IsfBdd{f, mgr.zero()}, {0, 1, 2});
    const auto classes = compute_compatible_classes(spec);
    if (classes.num_classes() != 4) continue;  // want a full 2x2 chart
    const std::vector<int> alpha_vars{10, 11};  // bit0 = column, bit1 = row

    // Grouping: columns {c0={0,1}, c1={2,3}}, rows {r0={0,2}, r1={1,3}}.
    // Encoding = row_code(bit1) | col_code(bit0); flip either code plane.
    auto build_count = [&](bool flip_cols, bool flip_rows) {
      Encoding enc;
      enc.num_bits = 2;
      enc.codes.resize(4);
      for (int i = 0; i < 4; ++i) {
        const std::uint32_t col = (i / 2) ^ (flip_cols ? 1 : 0);
        const std::uint32_t row = (i % 2) ^ (flip_rows ? 1 : 0);
        enc.codes[static_cast<std::size_t>(i)] = col | (row << 1);
      }
      const auto step =
          build_step(mgr, classes, spec.bound, {3, 4, 5, 6}, enc, alpha_vars);
      DecompSpec next;
      next.mgr = &mgr;
      next.f = step.image;
      next.bound = {10, 3, 4};  // column α bit + Y1; free: {11, 5, 6}
      return count_compatible_classes(next);
    };
    const int base = build_count(false, false);
    EXPECT_EQ(build_count(true, false), base) << "trial " << trial;
    EXPECT_EQ(build_count(false, true), base) << "trial " << trial;
    EXPECT_EQ(build_count(true, true), base) << "trial " << trial;
  }
}

TEST(Theorem32, GroupingItselfMattersOnExample31Instance) {
  // Sanity counterpart: moving a class to a different row/column *grouping*
  // CAN change the count (otherwise the whole encoding problem would be
  // vacuous). The Example-3.1 style instance exhibits the paper's 3-vs-4
  // spread (Figure 2).
  Manager mgr(16);
  const Bdd a = mgr.var(0), b = mgr.var(1);
  const Bdd x = mgr.var(3), y = mgr.var(4), z = mgr.var(5);
  const Bdd f = (~a & ~b & (x & y)) | ((a ^ b) & (x ^ y ^ z)) | (a & b & z);
  const auto spec = make_spec(mgr, IsfBdd{f, mgr.zero()}, {0, 1, 2});
  const auto classes = compute_compatible_classes(spec);
  ASSERT_EQ(classes.num_classes(), 3);
  const std::vector<int> alpha_vars{10, 11};
  int lo = 1 << 20, hi = 0;
  std::vector<std::uint32_t> codes{0, 1, 2, 3};
  do {
    Encoding enc;
    enc.num_bits = 2;
    enc.codes = {codes[0], codes[1], codes[2]};
    const auto step =
        build_step(mgr, classes, spec.bound, {3, 4, 5}, enc, alpha_vars);
    DecompSpec next;
    next.mgr = &mgr;
    next.f = step.image;
    next.bound = {10, 3, 4};  // free: {11, 5}
    const int count = count_compatible_classes(next);
    lo = std::min(lo, count);
    hi = std::max(hi, count);
  } while (std::next_permutation(codes.begin(), codes.end()));
  EXPECT_LT(lo, hi);
  EXPECT_EQ(lo, 3);
  EXPECT_EQ(hi, 4);
}

}  // namespace
}  // namespace hyde::decomp
